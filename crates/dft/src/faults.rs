//! Stuck-at fault universe and structural detectability under MLS opens.
//!
//! Detectability is analyzed structurally (SCOAP-flavored):
//!
//! - every connected pin contributes two faults (SA0/SA1);
//! - a fault is detected iff its site is *controllable* (reachable forward
//!   from a scan/PI control point without traversing an open) and
//!   *observable* (reaches a scan/PO observe point likewise), and is not
//!   in the small deterministic "ATPG-hard" residue that models the
//!   96–98 % practical ceiling of pattern generation;
//! - an **open** is any route-tree branch of an *MLS net* that crosses
//!   the F2F bond: at die-level test the far-side segment is missing, so
//!   those sinks are uncontrollable and (if all sinks are cut) the driver
//!   cone unobservable. True 3D nets are boundary-tested by the base flow
//!   and stay intact here.
//! - each bond crossing also contributes two *pad faults*; the DFT mode
//!   determines how many are detectable (none / outgoing only /
//!   both — Figure 6).

use serde::{Deserialize, Serialize};

use gnnmls_netlist::graph::CircuitDag;
use gnnmls_netlist::{Netlist, PinDir};
use gnnmls_route::{NetRoute, RouteDb};

/// Which MLS DFT strategy is assumed active during die-level test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DftMode {
    /// No MLS DFT: opens cut controllability/observability.
    None,
    /// Net-based DFT (Figure 6a): a test MUX at each crossing restores
    /// control and observation; one of the two pad faults per crossing is
    /// detected.
    NetBased,
    /// Wire-based DFT (Figure 6b): a shadow scan FF registers the
    /// upstream signal and drives downstream; both pad faults per
    /// crossing are detected.
    WireBased,
}

/// Parses the command-line and manifest spelling of an inserted DFT
/// strategy: `net` or `wire`.
impl std::str::FromStr for DftMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "net" => Ok(DftMode::NetBased),
            "wire" => Ok(DftMode::WireBased),
            other => Err(format!("unknown dft mode `{other}` (net|wire)")),
        }
    }
}

/// Fraction of otherwise-detectable faults left undetected by pattern
/// generation limits (deterministic pseudo-random residue).
const ATPG_HARD_PER_MILLE: u64 = 17;

/// Coverage analysis result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Total stuck-at faults (pin faults + bond-pad faults).
    pub total_faults: usize,
    /// Detected faults.
    pub detected_faults: usize,
    /// Faults undetected because an MLS open cut their cone.
    pub undetected_open: usize,
    /// Faults undetected as ATPG-hard residue.
    pub undetected_hard: usize,
    /// Undetected bond-pad faults.
    pub undetected_pad: usize,
}

impl FaultReport {
    /// Test coverage in percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.total_faults == 0 {
            return 100.0;
        }
        100.0 * self.detected_faults as f64 / self.total_faults as f64
    }
}

/// Per-sink flags: does the route branch to this sink cross the bond?
pub fn cut_sinks(route: &NetRoute) -> Vec<bool> {
    let t = &route.tree;
    // Propagate "crossed" root-down; parents precede children by
    // construction.
    let mut crossed = vec![false; t.nodes.len()];
    for i in 1..t.nodes.len() {
        crossed[i] = crossed[t.parent[i] as usize] || t.edge_f2f[i];
    }
    t.sink_node.iter().map(|&s| crossed[s as usize]).collect()
}

/// Deterministic ATPG-hard residue decision for fault `(pin, sa)`.
fn atpg_hard(pin_raw: u32, sa: u8) -> bool {
    let x = (u64::from(pin_raw) * 2 + u64::from(sa)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x >> 33) % 1000 < ATPG_HARD_PER_MILLE
}

/// Analyzes stuck-at coverage of a routed design under a DFT mode.
///
/// The analysis models the DFT strategies *logically* (what their test
/// structures make reachable); use [`crate::insert_mls_dft`] for the
/// physical netlist ECO whose timing effect Tables III/VI report.
///
/// # Panics
///
/// Panics if `routes` does not cover the netlist or the netlist has a
/// combinational loop.
pub fn analyze_coverage(netlist: &Netlist, routes: &RouteDb, mode: DftMode) -> FaultReport {
    assert_eq!(
        routes.nets.len(),
        netlist.net_count(),
        "route db must cover every net"
    );
    let dag = CircuitDag::build(netlist).expect("acyclic design");
    let dft_bridges = mode != DftMode::None;

    // Per-sink open flags (MLS nets only; 3D nets are boundary-tested).
    let mut sink_cut: Vec<Vec<bool>> = Vec::with_capacity(netlist.net_count());
    for net in netlist.net_ids() {
        let r = routes.route(net);
        if r.is_mls && r.f2f_crossings > 0 && !dft_bridges {
            sink_cut.push(cut_sinks(r));
        } else {
            sink_cut.push(vec![false; netlist.sinks(net).len()]);
        }
    }

    // Controllability: forward pass in topo order.
    let mut ctl = vec![false; netlist.pin_count()];
    for &cell in dag.topo_order() {
        let class = netlist.class(cell);
        for out in netlist.output_pins(cell) {
            let v = if class.is_startpoint() {
                true
            } else {
                // All connected inputs controllable (conservative).
                netlist
                    .input_pins(cell)
                    .filter(|&p| netlist.pin(p).net.is_some())
                    .all(|p| ctl[p.index()])
            };
            ctl[out.index()] = v;
            if let Some(net) = netlist.pin(out).net {
                for (i, &s) in netlist.sinks(net).iter().enumerate() {
                    ctl[s.index()] = v && !sink_cut[net.index()][i];
                }
            }
        }
    }

    // Observability: reverse pass.
    let mut obs = vec![false; netlist.pin_count()];
    for cell in netlist.cell_ids() {
        if netlist.class(cell).is_endpoint() {
            for p in netlist.input_pins(cell) {
                if netlist.pin(p).net.is_some() {
                    obs[p.index()] = true;
                }
            }
        }
    }
    for &cell in dag.topo_order().iter().rev() {
        let class = netlist.class(cell);
        if class.is_startpoint() && !class.is_combinational() {
            // Launch-only processing happens via its sinks below; Q pins
            // get observability from their net like any driver.
        }
        // Driver pins: observable if any un-cut sink is observable.
        for out in netlist.output_pins(cell) {
            if let Some(net) = netlist.pin(out).net {
                let any = netlist
                    .sinks(net)
                    .iter()
                    .enumerate()
                    .any(|(i, &s)| obs[s.index()] && !sink_cut[net.index()][i]);
                obs[out.index()] = obs[out.index()] || any;
            }
        }
        // Combinational cells propagate observability from output to
        // inputs (sensitization side-conditions folded into the ATPG-hard
        // residue).
        if class.is_combinational() {
            let out_obs = netlist.output_pins(cell).any(|p| obs[p.index()]);
            if out_obs {
                for p in netlist.input_pins(cell) {
                    if netlist.pin(p).net.is_some() {
                        obs[p.index()] = true;
                    }
                }
            }
        }
    }

    // Tally pin faults.
    let mut rep = FaultReport::default();
    for pin in netlist.pin_ids() {
        let p = netlist.pin(pin);
        if p.net.is_none() {
            continue;
        }
        // Output pins need controllability of the cone driving them; for
        // input pins both labels are direct.
        let reachable = match p.dir {
            PinDir::Output => ctl[pin.index()] && obs[pin.index()],
            PinDir::Input => ctl[pin.index()] && obs[pin.index()],
        };
        for sa in 0..2u8 {
            rep.total_faults += 1;
            if !reachable {
                rep.undetected_open += 1;
            } else if atpg_hard(pin.raw(), sa) {
                rep.undetected_hard += 1;
            } else {
                rep.detected_faults += 1;
            }
        }
    }

    // Bond-pad faults on MLS crossings.
    let detected_per_crossing = match mode {
        DftMode::None => 0usize,
        DftMode::NetBased => 1,
        DftMode::WireBased => 2,
    };
    for net in netlist.net_ids() {
        let r = routes.route(net);
        if r.is_mls {
            let crossings = r.f2f_crossings as usize;
            rep.total_faults += 2 * crossings;
            rep.detected_faults += detected_per_crossing * crossings;
            rep.undetected_pad += (2 - detected_per_crossing) * crossings;
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmls_netlist::generators::{generate_maeri, MaeriConfig};
    use gnnmls_netlist::tech::TechConfig;
    use gnnmls_phys::{place, PlaceConfig};
    use gnnmls_route::{route_design, MlsPolicy, RouteConfig};

    fn routed(policy: MlsPolicy) -> (gnnmls_netlist::Netlist, RouteDb) {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let (db, _) = route_design(&d.netlist, &p, &tech, policy, RouteConfig::default()).unwrap();
        (d.netlist, db)
    }

    #[test]
    fn no_mls_design_has_high_coverage() {
        let (netlist, db) = routed(MlsPolicy::Disabled);
        let rep = analyze_coverage(&netlist, &db, DftMode::None);
        assert!(rep.total_faults > 1000);
        let cov = rep.coverage_pct();
        assert!(
            (95.0..100.0).contains(&cov),
            "baseline coverage should sit in the ATPG-limited 95-100% band, got {cov:.2}"
        );
        assert_eq!(rep.undetected_pad, 0, "no MLS nets, no exposed pads");
    }

    #[test]
    fn mls_without_dft_hurts_coverage_and_dft_restores_it() {
        let (netlist, db) = routed(MlsPolicy::sota());
        assert!(db.summary.mls_net_count > 0, "need MLS nets for this test");
        let none = analyze_coverage(&netlist, &db, DftMode::None);
        let net_based = analyze_coverage(&netlist, &db, DftMode::NetBased);
        let wire_based = analyze_coverage(&netlist, &db, DftMode::WireBased);
        assert!(
            none.coverage_pct() < net_based.coverage_pct(),
            "opens must cost coverage: {} vs {}",
            none.coverage_pct(),
            net_based.coverage_pct()
        );
        // Wire-based detects strictly more (both pad faults).
        assert!(wire_based.detected_faults > net_based.detected_faults);
        assert_eq!(wire_based.undetected_pad, 0);
        assert!(net_based.undetected_pad > 0);
        assert!(none.undetected_open > 0);
        assert_eq!(net_based.undetected_open, 0, "DFT bridges the opens");
    }

    #[test]
    fn cut_sinks_flags_far_side_branches() {
        use gnnmls_netlist::tech::{F2fParams, TechConfig};
        use gnnmls_phys::Floorplan;
        use gnnmls_route::grid::RoutingGrid;
        use gnnmls_route::tree::RouteTreeBuilder;

        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let fp = Floorplan {
            width_um: 80.0,
            height_um: 80.0,
        };
        let grid = RoutingGrid::build(&fp, &tech, 16, 0.0, 0.0);
        let f2f = F2fParams::default();
        let bond = grid.logic_layers - 1;
        let root = grid.node(0, 0, bond);
        let mut b = RouteTreeBuilder::new(&grid, &f2f, root);
        // Sink A stays on the logic die; sink B crosses the bond.
        b.add_path(&[root, grid.node(1, 0, bond)]);
        b.add_path(&[root, grid.node(0, 0, bond + 1)]);
        assert!(b.mark_sink(grid.node(1, 0, bond)));
        assert!(b.mark_sink(grid.node(0, 0, bond + 1)));
        let tree = b.finish();
        let route = gnnmls_route::NetRoute {
            net: gnnmls_netlist::NetId::new(0),
            wirelength_um: 0.0,
            f2f_crossings: tree.f2f_crossings(),
            is_mls: true,
            total_cap_ff: 0.0,
            sink_elmore_ps: vec![0.0, 0.0],
            overflowed: false,
            pattern_sinks: 0,
            tree,
        };
        assert_eq!(cut_sinks(&route), vec![false, true]);
    }

    #[test]
    fn atpg_hard_residue_is_deterministic_and_small() {
        let mut hard = 0;
        let n = 100_000;
        for pin in 0..n {
            for sa in 0..2 {
                if atpg_hard(pin, sa) {
                    hard += 1;
                }
            }
        }
        let rate = hard as f64 / (2 * n) as f64;
        assert!(
            (0.010..0.025).contains(&rate),
            "residue rate {rate} should be ~1.7%"
        );
        assert_eq!(atpg_hard(42, 0), atpg_hard(42, 0));
    }

    #[test]
    fn coverage_pct_handles_empty_report() {
        assert_eq!(FaultReport::default().coverage_pct(), 100.0);
    }
}
