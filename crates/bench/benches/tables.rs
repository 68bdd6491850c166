//! Criterion benches — one per table/figure of the paper, at bench scale
//! (MAERI 16PE with the fast-test flow config), so `cargo bench` stays in
//! minutes. The full-scale regenerators are the `table*`/`fig*` binaries.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use gnn_mls::flow::{prepare, route_and_time, run_flow, FlowPolicy, Routed};
use gnn_mls::oracle::{label_paths, net_mls_impact, OracleConfig};
use gnn_mls::paths::extract_path_samples;
use gnn_mls::SessionSpec;
use gnnmls_bench::designs::bench_scale;
use gnnmls_dft::{analyze_coverage, DftMode};
use gnnmls_netlist::Tier;
use gnnmls_pdn::ir::{currents_from_power, IrReport};
use gnnmls_pdn::{PdnGrid, PdnSpec, PowerConfig, PowerReport};
use gnnmls_route::{route_design, MlsPolicy, Router};
use gnnmls_sta::{analyze, StaConfig};

/// Table I: the single-net what-if oracle (disconnect → re-route →
/// re-evaluate) over the critical paths.
fn bench_table1(c: &mut Criterion) {
    let exp = bench_scale();
    let (netlist, placement) = prepare(&exp.design, &exp.cfg).unwrap();
    c.bench_function("table1_single_net_whatif", |b| {
        b.iter(|| {
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
            let samples = extract_path_samples(&netlist, &placement, &exp.design.tech, &timing, 10);
            net_mls_impact(&samples, &netlist, &router, &routes, router.grid())
                .unwrap()
                .len()
        })
    });
}

/// Figure 2 / Table IV: the heterogeneous flow (dominant stage: the
/// no-MLS flow run the comparisons start from).
fn bench_table4_fig2(c: &mut Criterion) {
    let exp = bench_scale();
    c.bench_function("table4_fig2_hetero_flow", |b| {
        b.iter(|| {
            run_flow(&exp.design, &exp.cfg, FlowPolicy::NoMls)
                .unwrap()
                .violating_paths
        })
    });
}

/// Table V: the homogeneous flow under the SOTA policy.
fn bench_table5(c: &mut Criterion) {
    let spec = SessionSpec {
        tech: "homo".into(),
        ..SessionSpec::fast("maeri16")
    };
    let design = spec.generate().unwrap();
    let cfg = spec.flow_config();
    c.bench_function("table5_homo_sota_flow", |b| {
        b.iter(|| run_flow(&design, &cfg, FlowPolicy::Sota).unwrap().mls_nets)
    });
}

/// Table III / Table VI: stuck-at coverage analysis under MLS opens.
fn bench_table3_table6(c: &mut Criterion) {
    let exp = bench_scale();
    let (netlist, placement) = prepare(&exp.design, &exp.cfg).unwrap();
    let (routes, _) = route_design(
        &netlist,
        &placement,
        &exp.design.tech,
        MlsPolicy::sota(),
        exp.cfg.route.clone(),
    )
    .unwrap();
    let mut g = c.benchmark_group("table3_table6_dft_coverage");
    for mode in [DftMode::None, DftMode::NetBased, DftMode::WireBased] {
        g.bench_function(format!("{mode:?}"), |b| {
            b.iter(|| analyze_coverage(&netlist, &routes, mode).detected_faults)
        });
    }
    g.finish();
}

/// Figure 9: the conjugate-gradient IR-drop solve.
fn bench_fig9(c: &mut Criterion) {
    let exp = bench_scale();
    let (netlist, placement) = prepare(&exp.design, &exp.cfg).unwrap();
    let (routes, _) = route_design(
        &netlist,
        &placement,
        &exp.design.tech,
        MlsPolicy::Disabled,
        exp.cfg.route.clone(),
    )
    .unwrap();
    let power = PowerReport::compute(
        &netlist,
        &routes,
        &exp.design.tech,
        &PowerConfig::at_freq_mhz(2500.0),
    );
    let mesh = PdnGrid::build(
        placement.floorplan(),
        &exp.design.tech,
        Tier::Logic,
        PdnSpec::maeri_hetero(),
    );
    let currents = currents_from_power(&mesh, &netlist, &placement, &power, 0.81);
    c.bench_function("fig9_ir_solve", |b| {
        b.iter(|| IrReport::solve(&mesh, &currents, 0.81).max_drop_mv)
    });
}

/// Supporting micro-benches: the stages every table pays for.
fn bench_stages(c: &mut Criterion) {
    let exp = bench_scale();
    let (netlist, placement) = prepare(&exp.design, &exp.cfg).unwrap();
    c.bench_function("stage_route_disabled", |b| {
        b.iter(|| {
            route_design(
                &netlist,
                &placement,
                &exp.design.tech,
                MlsPolicy::Disabled,
                exp.cfg.route.clone(),
            )
            .unwrap()
            .0
            .summary
            .total_wirelength_m
        })
    });
    let (routes, _) = route_design(
        &netlist,
        &placement,
        &exp.design.tech,
        MlsPolicy::Disabled,
        exp.cfg.route.clone(),
    )
    .unwrap();
    c.bench_function("stage_sta", |b| {
        b.iter(|| {
            analyze(&netlist, &routes, StaConfig::from_freq_mhz(2500.0))
                .unwrap()
                .wns_ps()
        })
    });
    c.bench_function("stage_oracle_labeling", |b| {
        let rep = analyze(&netlist, &routes, StaConfig::from_freq_mhz(2500.0)).unwrap();
        b.iter(|| {
            let mut router = Router::new(
                &netlist,
                &placement,
                &exp.design.tech,
                MlsPolicy::Disabled,
                exp.cfg.route.clone(),
            )
            .unwrap();
            router.route_all().unwrap();
            let mut samples =
                extract_path_samples(&netlist, &placement, &exp.design.tech, &rep, 10);
            label_paths(
                &mut samples,
                &netlist,
                &router,
                &routes,
                &OracleConfig::default(),
            )
            .unwrap()
            .what_ifs
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5))
}

criterion_group! {
    name = tables;
    config = config();
    targets = bench_table1, bench_table4_fig2, bench_table5, bench_table3_table6,
              bench_fig9, bench_stages
}
criterion_main!(tables);
