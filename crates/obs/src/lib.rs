//! **gnnmls-obs** — zero-dependency structured observability for the
//! GNN-MLS workspace: span-scoped timers with parent/child nesting,
//! counters/gauges/histograms behind an atomic registry, and two sinks
//! (a JSONL event log and a Prometheus-style text exposition).
//!
//! # Design rules
//!
//! - **Zero dependencies.** Every workspace crate (including the fault
//!   and parallelism leaves) links against this one, so it sits at the
//!   bottom of the dependency graph and uses only `std`.
//! - **Deterministic-safe.** Wall-clock time appears only in *emitted*
//!   trace records (`ts_ms`, `elapsed_us`), never in any value a caller
//!   can read back and act on. Counters and histograms record only
//!   algorithmic quantities (expansions, rounds, overflow cells), so
//!   enabling a sink cannot perturb routed results — the bit-identity
//!   tests run with tracing on and off and compare reports.
//! - **Near-zero cost when off.** Span creation and event emission are
//!   gated behind one relaxed atomic load ([`enabled`]); a disabled
//!   [`Span`] holds no timestamp and allocates nothing. Metric cells
//!   are plain relaxed atomics that always accumulate (so the serve
//!   daemon's `Metrics` request works without a trace sink); hot loops
//!   batch their updates (e.g. the router flushes one A* expansion
//!   count per search, not per pop).
//!
//! # Quick start
//!
//! ```
//! use gnnmls_obs as obs;
//!
//! static SEARCHES: obs::Counter =
//!     obs::Counter::new("demo_searches_total", "searches run");
//!
//! let mut span = obs::span("search");
//! SEARCHES.inc();
//! span.field_u64("expansions", 42);
//! drop(span); // emits a JSONL record if a sink is installed
//! let text = obs::render(); // Prometheus-style exposition
//! assert!(text.contains("demo_searches_total"));
//! ```
//!
//! The `GNNMLS_TRACE=<path>` environment variable (honoured by
//! [`init_from_env`], which the CLI and daemon call at startup) appends
//! JSONL records to `<path>`.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod json;
mod metrics;
mod render;
mod sink;
mod span;

pub use metrics::{
    counter_add, dyn_counter_value, dyn_gauge_value, dyn_histogram_count, gauge_add, gauge_set,
    observe, register_histogram, Counter, Gauge, Histogram, MAX_HISTOGRAM_BOUNDS,
};
pub use render::render;
pub use sink::{
    enabled, init_from_env, install, install_guarded, uninstall, JsonlSink, MemorySink, Sink,
    SinkGuard, TraceScope, TraceScopeGuard, TRACE_ENV,
};
pub use span::{event, span, warn, FieldValue, Span};
