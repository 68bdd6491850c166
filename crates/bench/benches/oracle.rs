//! Serial-vs-parallel oracle labeling on the MAERI pe16 design.
//!
//! The what-if fan-out is the flow's hot loop (the paper calls full
//! iterative STA computationally prohibitive), so this bench keeps the
//! parallel refactor honest twice over: it asserts the parallel run is
//! bit-identical to serial (same labels, same `OracleStats`, same
//! `RouteDb` summary) and records both wall times plus the measured
//! speedup into `target/bench/BENCH_oracle.json` (the committed
//! root-level ledger only behind `--commit-baseline`). With
//! `--test` (the CI smoke mode) everything runs once, untimed-ish, so
//! the identity checks and the JSON schema still get exercised.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;

use gnn_mls::flow::{prepare, route_and_time, Routed};
use gnn_mls::oracle::{label_paths, OracleConfig};
use gnn_mls::paths::{extract_path_samples_par, PathSample};
use gnnmls_bench::designs::bench_scale;
use gnnmls_netlist::Netlist;
use gnnmls_phys::Placement;
use gnnmls_route::{MlsPolicy, RouteConfig, RouteDb, Router};
use gnnmls_sta::TimingReport;

const PATHS: usize = 40;

/// What lands in `BENCH_oracle.json`.
#[derive(Serialize)]
struct OracleBenchReport {
    design: String,
    paths: usize,
    what_ifs: usize,
    /// Logical cores on the machine that produced this file.
    cores: usize,
    serial_ms: f64,
    parallel_ms: f64,
    /// serial / parallel wall time; ~1.0 is expected on a single core.
    speedup: f64,
    /// Labels, `OracleStats`, and `RouteDb` summary identical across
    /// thread counts (asserted, so always true in a committed file).
    bit_identical: bool,
    /// True when produced by the `--test` smoke run (single untimed
    /// iteration; timings are then indicative only).
    smoke_mode: bool,
}

struct Scenario {
    netlist: Netlist,
    placement: Placement,
    tech: gnnmls_netlist::TechConfig,
    routes: RouteDb,
    report: TimingReport,
    route_cfg: RouteConfig,
}

fn scenario() -> Scenario {
    let exp = bench_scale();
    let (netlist, placement) = prepare(&exp.design, &exp.cfg).unwrap();
    let Routed { routes, timing, .. } = route_and_time(
        &netlist,
        &placement,
        &exp.design.tech,
        &MlsPolicy::Disabled,
        &exp.cfg,
        "baseline",
    )
    .unwrap();
    Scenario {
        netlist,
        placement,
        tech: exp.design.tech.clone(),
        routes,
        report: timing,
        route_cfg: exp.cfg.route.clone(),
    }
}

/// Builds a routed router with the given thread knob (identical routes
/// for every value — asserted below).
fn router_with_threads<'a>(s: &'a Scenario, threads: usize) -> Router<'a> {
    let mut router = Router::new(
        &s.netlist,
        &s.placement,
        &s.tech,
        MlsPolicy::Disabled,
        s.route_cfg.clone().with_threads(threads),
    )
    .unwrap();
    router.route_all().unwrap();
    router
}

fn label(
    s: &Scenario,
    router: &Router<'_>,
    samples: &mut [PathSample],
) -> gnn_mls::oracle::OracleStats {
    label_paths(
        samples,
        &s.netlist,
        router,
        &s.routes,
        &OracleConfig::default(),
    )
    .unwrap()
}

/// Minimum wall time of `iters` runs of `f`.
fn min_wall<F: FnMut()>(iters: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

fn bench_oracle(c: &mut Criterion) {
    let s = scenario();
    let samples = extract_path_samples_par(&s.netlist, &s.placement, &s.tech, &s.report, PATHS, 0);

    let serial_router = router_with_threads(&s, 1);
    let parallel_router = router_with_threads(&s, 0);

    // Identity: routing, labels, and stats must match bit-for-bit.
    assert_eq!(
        serial_router.db().unwrap().summary,
        parallel_router.db().unwrap().summary,
        "route_all must be thread-count invariant"
    );
    let mut serial_samples = samples.clone();
    let mut parallel_samples = samples.clone();
    let serial_stats = label(&s, &serial_router, &mut serial_samples);
    let parallel_stats = label(&s, &parallel_router, &mut parallel_samples);
    assert_eq!(serial_stats, parallel_stats, "OracleStats must match");
    for (a, b) in serial_samples.iter().zip(parallel_samples.iter()) {
        assert_eq!(a.labels, b.labels, "labels must match");
    }

    // Wall-time comparison, written to BENCH_oracle.json.
    let smoke = c.is_test_mode();
    let iters = if smoke { 1 } else { 5 };
    let serial = min_wall(iters, || {
        let mut sm = samples.clone();
        label(&s, &serial_router, &mut sm);
    });
    let parallel = min_wall(iters, || {
        let mut sm = samples.clone();
        label(&s, &parallel_router, &mut sm);
    });
    let report = OracleBenchReport {
        design: "MAERI 16PE (bench scale)".into(),
        paths: PATHS,
        what_ifs: serial_stats.what_ifs,
        cores: gnnmls_par::available_parallelism(),
        serial_ms: serial.as_secs_f64() * 1e3,
        parallel_ms: parallel.as_secs_f64() * 1e3,
        speedup: serial.as_secs_f64() / parallel.as_secs_f64().max(1e-12),
        bit_identical: true,
        smoke_mode: smoke,
    };
    // Bench binaries run with the package dir as cwd; anchor at the
    // workspace root. Output lands under target/bench/ unless
    // --commit-baseline asks for the committed root-level ledger.
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    if let Some(out) = gnnmls_bench::render::write_bench_json(root, "BENCH_oracle.json", &report) {
        println!(
            "serial {:.1} ms, parallel {:.1} ms on {} core(s) -> {}",
            report.serial_ms,
            report.parallel_ms,
            report.cores,
            out.display(),
        );
    }

    // Standard criterion entries for trend tracking.
    let mut g = c.benchmark_group("oracle_label_paths");
    g.bench_function("serial", |b| {
        b.iter(|| {
            let mut sm = samples.clone();
            label(&s, &serial_router, &mut sm).what_ifs
        })
    });
    g.bench_function("parallel", |b| {
        b.iter(|| {
            let mut sm = samples.clone();
            label(&s, &parallel_router, &mut sm).what_ifs
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
    name = oracle;
    config = config();
    targets = bench_oracle
}
criterion_main!(oracle);
