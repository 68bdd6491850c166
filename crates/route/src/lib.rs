//! 3D global routing with Metal Layer Sharing (MLS).
//!
//! This crate routes a placed two-tier design over a g-cell grid whose
//! z-stack spans *both* dies: the logic die's metals bottom-up, then the
//! face-to-face bond interface, then the memory die's metals top-down
//! (the dies are bonded face to face, so the two top metals are adjacent).
//!
//! The point of the crate is the thing the paper optimizes: **which layers
//! a net may use**.
//!
//! - Under [`MlsPolicy::Disabled`] (sequential-2D baseline), a net whose
//!   pins are all on one die is confined to that die's metals; only true
//!   3D nets cross the bond.
//! - Under [`MlsPolicy::SotaRegionSharing`] (the SOTA of ref. \[9\]),
//!   congestion-driven *region-level* sharing confiscates the less-loaded
//!   die's top metals per g-cell and hands them to the other die's nets —
//!   indiscriminately, which is exactly why it helps some nets and hurts
//!   others (Table I).
//! - Under [`MlsPolicy::PerNet`] (GNN-MLS), individually selected nets may
//!   cross the bond and borrow the other die's metals anywhere; nothing is
//!   confiscated from anyone else.
//!
//! Modules:
//!
//! - [`grid`] — the g-cell/layer grid, capacities, node indexing.
//! - [`policy`] — MLS policies and the per-(net, g-cell, layer) access rule.
//! - [`router`] — multi-source A* maze routing with congestion costs and
//!   rip-up-and-reroute, plus detached what-if routing for the label
//!   oracle and warm sessions.
//! - [`tree`] — route trees and Elmore-ready RC extraction.
//! - [`db`] — the route database and summary metrics (wirelength, MLS net
//!   count, layer utilization, overflow).
//! - [`render`] — SVG heat maps of per-die routing usage and MLS pad
//!   sites (Figure 9(b–c)-style views).

// Library code must surface typed errors, not panic, on the flow's hot
// path; tests may still unwrap freely. Diagnostics flow through
// gnnmls-obs, never straight to the process streams.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod audit;
pub mod db;
pub mod grid;
pub mod policy;
pub mod render;
pub mod router;
pub mod tree;

pub use audit::{audit_route_db, AuditMode, AuditViolation};
pub use db::{NetRoute, RouteDb, RouteSummary};
pub use grid::{GridLayer, RoutingGrid};
pub use policy::{MlsPolicy, SotaShareMap};
pub use render::{congestion_svg, mls_pad_map, usage_map};
pub use router::{
    route_design, MlsOverride, RouteConfig, RouteConfigBuilder, RouteConfigError, RouteError,
    RouteScratch, RouteState, RouteView, Router,
};
pub use tree::RouteTree;
