//! **GNN-MLS** — GNN-assisted Metal Layer Sharing for signal routing in
//! mixed-node 3D ICs (reproduction of Hu et al., DAC 2025).
//!
//! Metal Layer Sharing (MLS) lets a net whose pins all sit on one die of
//! a face-to-face-bonded 3D IC borrow the *other* die's back-end metals,
//! unlocking routing resource that sequential-2D flows leave untouched.
//! Applied indiscriminately (the region-sharing SOTA), MLS helps some
//! nets and hurts others; GNN-MLS instead makes a *per-net* decision
//! with a graph Transformer trained on timing paths:
//!
//! 1. a baseline (no-MLS) route + STA produces critical timing paths;
//! 2. each path becomes a node sequence via the hypergraph conversion —
//!    every net (hyperedge) is folded into its single source node with
//!    the Table II features ([`features`]);
//! 3. a small labeled set is produced by the *iterative-STA oracle*
//!    ([`oracle`]): what-if re-route each path net with MLS forced on,
//!    re-evaluate the path's slack, label the net by its gain — the very
//!    procedure the paper calls prohibitive at scale, run on a budget;
//! 4. the model ([`model`]) pretrains with Deep Graph Infomax on
//!    unlabeled paths, then fine-tunes a 2-layer MLP head on the labels;
//! 5. predicted per-net decisions drive targeted routing
//!    ([`gnnmls_route::MlsPolicy::PerNet`]), followed by MLS DFT
//!    insertion and mixed-node PDN design ([`flow`]).
//!
//! # Quick start
//!
//! A [`SessionSpec`] is the run description — design, stack, target
//! clock and policy — that the CLI, the serve daemon and the benches
//! all resolve through:
//!
//! ```no_run
//! use gnn_mls::{run_flow, FlowPolicy, SessionSpec};
//!
//! # fn main() -> Result<(), gnn_mls::SessionError> {
//! let spec = SessionSpec::new("maeri16").with_policy(FlowPolicy::GnnMls);
//! let report = run_flow(&spec.generate()?, &spec.flow_config(), spec.policy)?;
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

// The flow hot path must degrade or return typed errors, never panic;
// tests may still unwrap freely. Diagnostics go through gnnmls-obs
// (structured warn events + counters), never straight to the process
// streams.
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
pub mod checkpoint;
pub mod features;
pub mod flow;
pub mod model;
pub mod oracle;
pub mod paths;
pub mod report;
pub mod session;
pub mod store;

pub use audit::{check_report, check_routes};
pub use checkpoint::{CheckpointError, ModelCheckpoint, ModelVersion, ZooModelCheckpoint};
pub use features::{node_features, FeatureScaler, FEATURE_DIM};
pub use flow::{run_flow, FlowConfig, FlowError, FlowPolicy};
pub use gnnmls_route::{AuditMode, AuditViolation};
pub use model::{GnnMls, ModelConfig};
pub use oracle::{label_paths, net_mls_impact, NetImpact, OracleConfig};
pub use paths::{extract_path_samples, PathSample};
pub use report::FlowReport;
pub use session::{
    design_family, DesignSession, SessionError, SessionSpec, ValidationError, FAMILIES,
};
pub use store::{
    durable_read, durable_write, scrub_dir, ArtifactClass, DurableFile, RepairAction, ScrubFinding,
    ScrubReport, StorageError, FSCK_SCHEMA_VERSION,
};
