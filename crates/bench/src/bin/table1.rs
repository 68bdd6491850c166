//! Regenerates **Table I**: metal-layer sharing applied to *single nets*
//! of MAERI 128PE can improve slack (paper: −62 → −45 ps) or degrade it
//! (−45 → −48 ps) — the motivation for net-level control.
//!
//! The harness routes the baseline, then runs the what-if oracle over the
//! critical paths and prints the strongest helped net and the strongest
//! hurt net with their metal usage, next to the paper's rows.
//!
//! ```sh
//! cargo run --release -p gnnmls-bench --bin table1
//! ```

use gnn_mls::flow::{prepare, route_and_time};
use gnn_mls::oracle::{net_mls_impact, NetImpact};
use gnn_mls::paths::extract_path_samples;
use gnnmls_bench::designs::maeri128_hetero;
use gnnmls_bench::paper::TABLE1;
use gnnmls_bench::render::{check, summarize, write_json, Comparison};
use gnnmls_route::MlsPolicy;

fn main() {
    let exp = maeri128_hetero();
    let (netlist, placement) = prepare(&exp.design, &exp.cfg).expect("prepare succeeds");
    let base = route_and_time(
        &netlist,
        &placement,
        &exp.design.tech,
        &MlsPolicy::Disabled,
        &exp.cfg,
        "baseline",
    )
    .expect("baseline routes, audits clean and times");

    eprintln!("evaluating single-net MLS impact over the 200 worst paths ...");
    let samples = extract_path_samples(&netlist, &placement, &exp.design.tech, &base.timing, 200);
    let impacts = net_mls_impact(
        &samples,
        &netlist,
        &base.router,
        &base.routes,
        base.router.grid(),
    )
    .unwrap();

    let crossed: Vec<&NetImpact> = impacts
        .iter()
        .filter(|i| i.metals_after.0 != 0 && i.metals_after.1 != 0)
        .collect();
    let helped = crossed.first().copied();
    let hurt = crossed.iter().rev().find(|i| i.gain_ps() < 0.0).copied();

    let mut t = Comparison::new(
        "Table I — single-net MLS impact, MAERI 128PE (hetero)",
        &[
            "slack before",
            "metals before",
            "slack after",
            "metals after",
        ],
    );
    for row in TABLE1 {
        t.row(
            format!("paper {}", row.net),
            &[
                Comparison::num(row.before_ps),
                row.metals_before.into(),
                Comparison::num(row.after_ps),
                row.metals_after.into(),
            ],
        );
    }
    for (label, imp) in [("helped", helped), ("hurt", hurt)] {
        if let Some(i) = imp {
            t.row(
                format!("ours {} ({})", i.name, label),
                &[
                    Comparison::num(i.slack_before_ps),
                    NetImpact::metals_str(i.metals_before),
                    Comparison::num(i.slack_after_ps),
                    NetImpact::metals_str(i.metals_after),
                ],
            );
        }
    }
    println!("\n{}", t.render());

    let checks = vec![
        check(
            "some net is helped by MLS",
            helped.is_some_and(|i| i.gain_ps() > 0.0),
            helped
                .map(|i| format!("{}: {:+.1} ps", i.name, i.gain_ps()))
                .unwrap_or_else(|| "none crossed".into()),
        ),
        check(
            "some net is hurt by MLS (the paper's motivation)",
            hurt.is_some(),
            hurt.map(|i| format!("{}: {:+.1} ps", i.name, i.gain_ps()))
                .unwrap_or_else(|| "none hurt".into()),
        ),
        check(
            "helped nets borrow the other die's top metals",
            helped.is_some_and(|i| i.metals_after.1 != 0 && i.metals_before.1 == 0),
            helped
                .map(|i| {
                    format!(
                        "{} -> {}",
                        NetImpact::metals_str(i.metals_before),
                        NetImpact::metals_str(i.metals_after)
                    )
                })
                .unwrap_or_default(),
        ),
    ];
    summarize(&checks);
    write_json(
        "table1",
        &serde_json::json!({
            "evaluated_nets": impacts.len(),
            "helped": helped.map(|i| (i.name.clone(), i.slack_before_ps, i.slack_after_ps)),
            "hurt": hurt.map(|i| (i.name.clone(), i.slack_before_ps, i.slack_after_ps)),
        }),
    );
}
