//! Observability overhead on the what-if oracle hot path.
//!
//! The obs contract is "near-zero cost when no sink is installed":
//! spans gate on one relaxed atomic load and metrics are relaxed RMWs.
//! This bench keeps that honest on the same workload as the oracle
//! bench — route + label the worst paths — measured two ways:
//!
//! 1. `disabled`: no sink installed (the default production state);
//! 2. `enabled`: a `MemorySink` capturing every span/event record;
//!
//! and asserts the labels are bit-identical either way (tracing is a
//! pure observer). Wall times and the enabled-over-disabled delta land
//! in `target/bench/BENCH_obs.json` (the committed root-level ledger
//! only behind `--commit-baseline`). With `--test` (the CI
//! smoke mode) everything runs with fewer iterations, so the identity
//! checks and the JSON schema still get exercised; the <5 % budget is
//! asserted only in full runs where the timing is trustworthy.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;

use gnn_mls::flow::{prepare, route_and_time, Routed};
use gnn_mls::oracle::{label_paths, OracleConfig};
use gnn_mls::paths::{extract_path_samples_par, PathSample};
use gnnmls_bench::designs::bench_scale;
use gnnmls_obs::{install_guarded, MemorySink};
use gnnmls_route::MlsPolicy;

const PATHS: usize = 40;
const BUDGET_PCT: f64 = 5.0;

/// What lands in `BENCH_obs.json`.
#[derive(Serialize)]
struct ObsBenchReport {
    design: String,
    paths: usize,
    /// Logical cores on the machine that produced this file.
    cores: usize,
    /// Wall time with no sink installed (production default).
    disabled_ms: f64,
    /// Wall time with a `MemorySink` capturing every record.
    enabled_ms: f64,
    /// (enabled - disabled) / disabled, percent. Negative means noise.
    delta_pct: f64,
    /// `delta_pct < 5.0` — the acceptance budget.
    within_budget: bool,
    /// JSONL records captured during the enabled measurement.
    records_captured: usize,
    /// Labels bit-identical with tracing on vs. off (asserted).
    bit_identical: bool,
    /// True when produced by the `--test` smoke run (timings are then
    /// indicative only and the budget is not asserted).
    smoke_mode: bool,
}

/// One timed sample of `f`.
fn wall<F: FnMut()>(mut f: F) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

fn bench_obs(c: &mut Criterion) {
    let exp = bench_scale();
    let (netlist, placement) = prepare(&exp.design, &exp.cfg).unwrap();
    let Routed {
        router,
        routes,
        timing,
    } = route_and_time(
        &netlist,
        &placement,
        &exp.design.tech,
        &MlsPolicy::Disabled,
        &exp.cfg,
        "baseline",
    )
    .unwrap();
    let samples =
        extract_path_samples_par(&netlist, &placement, &exp.design.tech, &timing, PATHS, 0);

    let label = |sm: &mut [PathSample]| {
        label_paths(sm, &netlist, &router, &routes, &OracleConfig::default()).unwrap()
    };

    // Identity: tracing must be a pure observer of the labeling.
    let mut plain = samples.clone();
    label(&mut plain);
    let mut traced = samples.clone();
    {
        let _guard = install_guarded(Arc::new(MemorySink::new()));
        label(&mut traced);
    }
    for (a, b) in plain.iter().zip(traced.iter()) {
        assert_eq!(a.labels, b.labels, "tracing must not perturb labels");
    }

    // The labeling pass is a few milliseconds, so a single sample is at
    // the mercy of scheduler noise. Batch `reps` passes per sample and
    // interleave disabled/enabled samples so machine drift (thermal,
    // co-tenants) hits both sides equally; min-of-N then compares the
    // best case of each, which is what the budget is about.
    let smoke = c.is_test_mode();
    let iters = if smoke { 2 } else { 9 };
    let reps = if smoke { 1 } else { 6 };
    let sink = Arc::new(MemorySink::new());
    let mut disabled = Duration::MAX;
    let mut enabled = Duration::MAX;
    for _ in 0..iters {
        disabled = disabled.min(wall(|| {
            for _ in 0..reps {
                let mut sm = samples.clone();
                label(&mut sm);
            }
        }));
        let _guard = install_guarded(sink.clone());
        enabled = enabled.min(wall(|| {
            for _ in 0..reps {
                let mut sm = samples.clone();
                label(&mut sm);
            }
        }));
    }
    let records_captured = sink.lines().len();

    let delta_pct = (enabled.as_secs_f64() - disabled.as_secs_f64())
        / disabled.as_secs_f64().max(1e-12)
        * 100.0;
    let report = ObsBenchReport {
        design: "MAERI 16PE (bench scale)".into(),
        paths: PATHS,
        cores: gnnmls_par::available_parallelism(),
        disabled_ms: disabled.as_secs_f64() * 1e3,
        enabled_ms: enabled.as_secs_f64() * 1e3,
        delta_pct,
        within_budget: delta_pct < BUDGET_PCT,
        records_captured,
        bit_identical: true,
        smoke_mode: smoke,
    };
    if !smoke {
        assert!(
            delta_pct < BUDGET_PCT,
            "observability overhead {delta_pct:.2}% blew the {BUDGET_PCT}% budget \
             (disabled {:.1} ms, enabled {:.1} ms)",
            report.disabled_ms,
            report.enabled_ms
        );
    }

    // Bench binaries run with the package dir as cwd; anchor at the
    // workspace root. Output lands under target/bench/ unless
    // --commit-baseline asks for the committed root-level ledger.
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    if let Some(out) = gnnmls_bench::render::write_bench_json(root, "BENCH_obs.json", &report) {
        println!(
            "disabled {:.1} ms, enabled {:.1} ms ({:+.2}%) -> {}",
            report.disabled_ms,
            report.enabled_ms,
            report.delta_pct,
            out.display(),
        );
    }

    // Standard criterion entries for trend tracking.
    let mut g = c.benchmark_group("obs_overhead");
    g.bench_function("disabled", |b| {
        b.iter(|| {
            let mut sm = samples.clone();
            label(&mut sm).what_ifs
        })
    });
    g.bench_function("enabled", |b| {
        let _guard = install_guarded(Arc::new(MemorySink::new()));
        b.iter(|| {
            let mut sm = samples.clone();
            label(&mut sm).what_ifs
        })
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5))
}

criterion_group! {
    name = obs;
    config = config();
    targets = bench_obs
}
criterion_main!(obs);
