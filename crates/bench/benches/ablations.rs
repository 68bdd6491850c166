//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! - DGI pretraining on vs off;
//! - graph Transformer vs plain mean-aggregation GCN encoder;
//! - sinusoidal positional encodings on vs off;
//! - oracle gain threshold;
//! - A* maze routing vs a pattern-route-sized expansion budget.
//!
//! Each configuration is benchmarked for wall time, and its quality
//! metric (held-out decision accuracy / router overflow) is printed once
//! so `cargo bench` doubles as the ablation study.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use gnn_mls::flow::{prepare, route_and_time};
use gnn_mls::model::{EncoderKind, GnnMls, ModelConfig};
use gnn_mls::oracle::{label_paths, OracleConfig};
use gnn_mls::paths::{extract_path_samples, PathSample};
use gnnmls_bench::designs::bench_scale;
use gnnmls_route::{route_design, MlsPolicy};

/// Builds one real labeled dataset (train, eval) at bench scale.
fn dataset() -> (Vec<PathSample>, Vec<PathSample>) {
    let exp = bench_scale();
    let (netlist, placement) = prepare(&exp.design, &exp.cfg).unwrap();
    let base = route_and_time(
        &netlist,
        &placement,
        &exp.design.tech,
        &MlsPolicy::Disabled,
        &exp.cfg,
        "baseline",
    )
    .unwrap();
    let mut samples =
        extract_path_samples(&netlist, &placement, &exp.design.tech, &base.timing, 120);
    label_paths(
        &mut samples,
        &netlist,
        &base.router,
        &base.routes,
        &OracleConfig::default(),
    )
    .unwrap();
    let eval = samples.split_off(90);
    (samples, eval)
}

fn model_variants() -> Vec<(&'static str, ModelConfig)> {
    let base = ModelConfig {
        pretrain_epochs: 4,
        finetune_epochs: 15,
        ..ModelConfig::default()
    };
    vec![
        ("full", base.clone()),
        (
            "no_dgi",
            ModelConfig {
                use_dgi: false,
                ..base.clone()
            },
        ),
        (
            "no_positional",
            ModelConfig {
                use_positional: false,
                ..base.clone()
            },
        ),
        (
            "gcn_encoder",
            ModelConfig {
                encoder: EncoderKind::Gcn,
                ..base.clone()
            },
        ),
        (
            "finetune_encoder_too",
            ModelConfig {
                finetune_encoder: true,
                ..base
            },
        ),
    ]
}

fn bench_model_ablations(c: &mut Criterion) {
    let (train, eval) = dataset();
    let mut g = c.benchmark_group("ablation_model");
    for (name, cfg) in model_variants() {
        // Print the quality metric once per variant.
        let mut model = GnnMls::new(cfg.clone());
        model.pretrain(&train).unwrap();
        let tm = model.finetune(&train).unwrap();
        let em = model.evaluate(&eval).unwrap();
        eprintln!(
            "[ablation {name}] train acc {:.3} f1 {:.3} | eval acc {:.3} f1 {:.3}",
            tm.accuracy(),
            tm.f1(),
            em.accuracy(),
            em.f1()
        );
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut m = GnnMls::new(cfg.clone());
                m.pretrain(&train).unwrap();
                m.finetune(&train).unwrap().accuracy()
            })
        });
    }
    g.finish();
}

fn bench_oracle_threshold(c: &mut Criterion) {
    let exp = bench_scale();
    let (netlist, placement) = prepare(&exp.design, &exp.cfg).unwrap();
    let mut g = c.benchmark_group("ablation_oracle_threshold");
    for thr in [0.1_f64, 0.5, 2.0] {
        g.bench_function(format!("gain_{thr}"), |b| {
            b.iter(|| {
                let base = route_and_time(
                    &netlist,
                    &placement,
                    &exp.design.tech,
                    &MlsPolicy::Disabled,
                    &exp.cfg,
                    "baseline",
                )
                .unwrap();
                let mut samples =
                    extract_path_samples(&netlist, &placement, &exp.design.tech, &base.timing, 20);
                label_paths(
                    &mut samples,
                    &netlist,
                    &base.router,
                    &base.routes,
                    &OracleConfig {
                        gain_threshold_ps: thr,
                    },
                )
                .unwrap()
                .positive
            })
        });
    }
    g.finish();
}

fn bench_maze_budget(c: &mut Criterion) {
    let exp = bench_scale();
    let (netlist, placement) = prepare(&exp.design, &exp.cfg).unwrap();
    let mut g = c.benchmark_group("ablation_maze_budget");
    for (name, budget) in [("full_maze", 400_000usize), ("pattern_fallback", 50)] {
        let cfg = exp
            .cfg
            .route
            .to_builder()
            .max_expansions(budget)
            .build()
            .unwrap();
        // Quality metric: overflow with and without real maze search.
        let (db, _) = route_design(
            &netlist,
            &placement,
            &exp.design.tech,
            MlsPolicy::Disabled,
            cfg.clone(),
        )
        .unwrap();
        eprintln!(
            "[ablation {name}] overflowed nets {} / wirelength {:.3} m",
            db.summary.overflowed_nets, db.summary.total_wirelength_m
        );
        g.bench_function(name, |b| {
            b.iter(|| {
                route_design(
                    &netlist,
                    &placement,
                    &exp.design.tech,
                    MlsPolicy::Disabled,
                    cfg.clone(),
                )
                .unwrap()
                .0
                .summary
                .overflowed_nets
            })
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5))
}

criterion_group! {
    name = ablations;
    config = config();
    targets = bench_model_ablations, bench_oracle_threshold, bench_maze_budget
}
criterion_main!(ablations);
