//! **gnnmls-serve** — a backpressured what-if/inference daemon with a
//! warm design cache.
//!
//! The GNN-MLS flow's expensive part is the cold start: generate,
//! place, (train,) route, and analyze a design before the first what-if
//! or inference query can be answered. This crate keeps that state
//! **warm** in a long-lived daemon:
//!
//! - [`protocol`] — length-prefixed JSON frames with typed errors for
//!   every malformed/truncated/oversized/stalled case;
//! - [`admission`] — deep request validation and a cost-budget meter
//!   that reject or shed work *before* it takes a queue slot or the
//!   build lock;
//! - `plane` (private) — the one client-connection plane both tiers
//!   run on their reactor thread: nonblocking accept under a connection
//!   cap, budgeted frame reads with typed decode errors, inline
//!   `Shutdown`/`Health`/`Metrics`, queued writes, stall and
//!   drain-refusal timers, and the bounded final flush;
//! - `breaker` (private) — the one consecutive-failure circuit breaker
//!   (the daemon's per-spec quarantine, the front's per-shard breakers)
//!   and the one capped-exponential, seeded-jitter backoff schedule the
//!   breakers and the client's retries share;
//! - [`server`] — the daemon's side of the plane (connection-level
//!   admission) + bounded job queue (explicit `Busy` backpressure,
//!   never unbounded growth) + worker pool answering one popped job at
//!   a time + LRU session cache + quarantine circuit breaker + worker
//!   watchdog + graceful drain-on-shutdown;
//! - [`client`] — a small blocking client with capped, seeded-jitter
//!   retries, used by the `gnnmls client` CLI and the tests;
//! - [`api`] — the unified serving facade: the [`api::ServeError`]
//!   taxonomy (every non-`Ok` wire outcome as one typed error with
//!   `retry_after_ms` first-class) and the typed [`api::Client`] whose
//!   per-request-kind methods return typed payloads;
//! - [`ring`] — the consistent-hash ring that maps a `SessionSpec` to
//!   its primary (and deterministic secondary) backend shard;
//! - [`cluster`] — the `gnnmls serve --cluster` front tier: the front's
//!   side of the plane (forwards and `LoadModel` broadcasts) plus
//!   nonblocking backend sessions; spawns and health-probes backend
//!   shards, routes v2 frames by spec, fails over through per-shard
//!   circuit breakers, and merges drain stats into one versioned
//!   `cluster-stats` envelope.
//!
//! The `gnnmls bench cluster` load generator and the `gnnmls bench zoo`
//! driver live in the `gnnmls` binary, their only caller.
//!
//! Determinism contract: a warm answer is bit-identical to the one-shot
//! CLI or an in-process [`gnn_mls::DesignSession`] computing the same
//! query; after a hot swap, inference answers as
//! [`gnn_mls::DesignSession::infer_with`] does with the same weights.

// Library code surfaces typed errors and obs events, never panics or
// raw prints (the CLI binary is the only place that talks to stdout).
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

pub mod admission;
pub mod api;
mod breaker;
pub mod client;
pub mod cluster;
mod plane;
pub mod protocol;
pub mod ring;
pub mod server;

pub use admission::{request_cost, validate_request, AdmissionMeter};
pub use api::{classify, Inference, ServeError};
pub use client::{Client, ClientError, RetryPolicy};
pub use cluster::{
    ClusterConfig, ClusterConfigBuilder, ClusterFront, ClusterStats, ShardStats,
    CLUSTER_STATS_STAGE,
};
pub use protocol::{
    read_frame, read_frame_idle, write_frame, FrameError, HealthStatus, QuarantineInfo, Request,
    RequestKind, Response, ResponseKind, ServerStats, MAX_FRAME, PROTOCOL_VERSION,
};
pub use ring::HashRing;
pub use server::{ServeConfig, ServeConfigBuilder, Server};
