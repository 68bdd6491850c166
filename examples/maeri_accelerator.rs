//! MAERI accelerator scenario: the paper's heterogeneous headline
//! experiment — a 128-PE MAERI with 16 nm logic under 28 nm memory,
//! compared across the three MLS policies and inspected at the net level
//! (the Table I motivation).
//!
//! ```sh
//! cargo run --release --example maeri_accelerator
//! ```

use gnn_mls::flow::{prepare, route_and_time, run_flow, FlowConfig, FlowPolicy, Routed};
use gnn_mls::oracle::{net_mls_impact, NetImpact};
use gnn_mls::paths::extract_path_samples;
use gnnmls_netlist::generators::{generate_maeri, MaeriConfig};
use gnnmls_netlist::stats::NetlistStats;
use gnnmls_netlist::tech::TechConfig;
use gnnmls_route::MlsPolicy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = TechConfig::heterogeneous_16_28(6, 6);
    let design = generate_maeri(&MaeriConfig::pe128_bw32(), &tech)?;
    println!("{}", NetlistStats::compute(&design.netlist));

    let cfg = FlowConfig::new(2500.0);

    // --- Net-level motivation: MLS helps some nets and hurts others.
    let (netlist, placement) = prepare(&design, &cfg)?;
    let Routed {
        router,
        routes,
        timing,
    } = route_and_time(
        &netlist,
        &placement,
        &tech,
        &MlsPolicy::Disabled,
        &cfg,
        "baseline",
    )?;
    println!(
        "baseline: WNS {:.1} ps, {} violating endpoints",
        timing.wns_ps(),
        timing.violating_endpoints()
    );
    let samples = extract_path_samples(&netlist, &placement, &tech, &timing, 50);
    let impacts = net_mls_impact(&samples, &netlist, &router, &routes, router.grid())?;
    if let (Some(best), Some(worst)) = (impacts.first(), impacts.last()) {
        println!(
            "single-net MLS: best {} {:+.1} ps ({} -> {}), worst {} {:+.1} ps",
            best.name,
            best.gain_ps(),
            NetImpact::metals_str(best.metals_before),
            NetImpact::metals_str(best.metals_after),
            worst.name,
            worst.gain_ps(),
        );
    }
    drop(router);

    // --- The three policies end to end.
    println!("\npolicy comparison @ 2.5 GHz target:");
    for policy in [FlowPolicy::NoMls, FlowPolicy::Sota, FlowPolicy::GnnMls] {
        let r = run_flow(&design, &cfg, policy)?;
        println!(
            "  {:8} WNS {:8.1} ps | TNS {:8.2} ns | vio {:5} | MLS nets {:5} | eff {:.0} MHz",
            r.policy, r.wns_ps, r.tns_ns, r.violating_paths, r.mls_nets, r.eff_freq_mhz
        );
    }
    Ok(())
}
