//! Metal Layer Sharing policies and the layer-access rule.
//!
//! The access rule answers one question for the router: *may this net
//! occupy layer `z` at g-cell `(x, y)`?* True 3D nets may go anywhere
//! (they must cross the bond regardless). For 2D nets the answer depends
//! on the policy:
//!
//! | policy | own-die metals | other-die metals |
//! |---|---|---|
//! | `Disabled` | yes | no |
//! | `SotaRegionSharing` | yes, **except** top metals confiscated in shared g-cells | only the donor die's two bond-adjacent metals, only in g-cells shared to this net's die |
//! | `PerNet` | yes | yes anywhere, iff the net was selected |
//!
//! The confiscation in `SotaRegionSharing` is the mechanism behind
//! Table I's "MLS hurt net n146095": region-level sharing takes top-metal
//! tracks away from the donor die's own nets with no net-level control.

use serde::{Deserialize, Serialize};

use gnnmls_netlist::{NetId, Netlist, Tier};
use gnnmls_phys::Placement;

use crate::grid::RoutingGrid;

/// How MLS is applied during routing.
#[derive(Clone, Debug, PartialEq)]
pub enum MlsPolicy {
    /// Sequential-2D baseline: no sharing; 2D nets stay on their die.
    Disabled,
    /// The SOTA of ref. \[9\]: congestion-driven region-level sharing.
    /// G-cells where one die's routing demand exceeds `threshold` × the
    /// other's hand the other die's bond-adjacent metals to the loaded die.
    SotaRegionSharing {
        /// Demand ratio above which a g-cell is shared (≥ 1; lower =
        /// more aggressive sharing).
        threshold: f64,
    },
    /// GNN-MLS: the indexed nets (by [`NetId`]) may individually borrow
    /// the other die's metals anywhere; no confiscation.
    PerNet(Vec<bool>),
}

impl MlsPolicy {
    /// The paper's SOTA configuration (moderately aggressive sharing).
    pub fn sota() -> Self {
        MlsPolicy::SotaRegionSharing { threshold: 1.25 }
    }

    /// A per-net policy allowing exactly the given nets.
    pub fn per_net_from(netlist: &Netlist, selected: impl IntoIterator<Item = NetId>) -> Self {
        let mut flags = vec![false; netlist.net_count()];
        for n in selected {
            flags[n.index()] = true;
        }
        MlsPolicy::PerNet(flags)
    }
}

/// Per-g-cell record of region-level sharing decisions.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SotaShareMap {
    nx: usize,
    ny: usize,
    /// 0 = not shared, 1 = shared to logic nets, 2 = shared to memory nets.
    shared: Vec<u8>,
}

impl SotaShareMap {
    /// Computes the share map from HPWL-based routing demand.
    ///
    /// Each net spreads one unit of demand uniformly over its bounding-box
    /// g-cells, attributed to its home die (3D nets count half on each).
    /// A g-cell is shared to the die whose demand exceeds `threshold` ×
    /// the other's.
    pub fn compute(
        netlist: &Netlist,
        placement: &Placement,
        grid: &RoutingGrid,
        threshold: f64,
    ) -> Self {
        let (nx, ny) = (grid.nx, grid.ny);
        let mut demand = vec![[0.0f64; 2]; nx * ny];

        for net in netlist.net_ids() {
            let pins = &netlist.net(net).pins;
            if pins.is_empty() {
                continue;
            }
            let mut x0 = f64::MAX;
            let mut x1 = f64::MIN;
            let mut y0 = f64::MAX;
            let mut y1 = f64::MIN;
            for &p in pins {
                let l = placement.loc(netlist.pin(p).cell);
                x0 = x0.min(l.x);
                x1 = x1.max(l.x);
                y0 = y0.min(l.y);
                y1 = y1.max(l.y);
            }
            let (gx0, gy0) = grid.gcell_of(x0, y0);
            let (gx1, gy1) = grid.gcell_of(x1, y1);
            let cells = ((gx1 - gx0 + 1) * (gy1 - gy0 + 1)) as f64;
            let w = match netlist.net_tier(net) {
                Some(Tier::Logic) => [1.0 / cells, 0.0],
                Some(Tier::Memory) => [0.0, 1.0 / cells],
                None => [0.5 / cells, 0.5 / cells],
            };
            for gy in gy0..=gy1 {
                for gx in gx0..=gx1 {
                    let d = &mut demand[gy * nx + gx];
                    d[0] += w[0];
                    d[1] += w[1];
                }
            }
        }

        let shared = demand
            .iter()
            .map(|d| {
                if d[0] > threshold * d[1] && d[0] > 0.0 {
                    1
                } else if d[1] > threshold * d[0] && d[1] > 0.0 {
                    2
                } else {
                    0
                }
            })
            .collect();
        Self { nx, ny, shared }
    }

    /// The die whose nets gained access at a g-cell (`None` = unshared).
    #[inline]
    pub fn shared_to(&self, x: usize, y: usize) -> Option<Tier> {
        match self.shared[y * self.nx + x] {
            1 => Some(Tier::Logic),
            2 => Some(Tier::Memory),
            _ => None,
        }
    }

    /// Number of g-cells shared to each tier: (to logic, to memory).
    pub fn shared_counts(&self) -> (usize, usize) {
        let l = self.shared.iter().filter(|&&s| s == 1).count();
        let m = self.shared.iter().filter(|&&s| s == 2).count();
        (l, m)
    }
}

/// Resolved access rule the router consults per node expansion.
pub struct AccessChecker<'a> {
    grid: &'a RoutingGrid,
    mode: AccessMode<'a>,
}

enum AccessMode<'a> {
    Disabled,
    Sota(&'a SotaShareMap),
    PerNet(&'a [bool]),
}

impl<'a> AccessChecker<'a> {
    /// Builds the checker for a policy (`share` must be `Some` for the
    /// SOTA policy; without one, SOTA degrades to the home-die-only
    /// rule rather than panicking).
    pub fn new(
        grid: &'a RoutingGrid,
        policy: &'a MlsPolicy,
        share: Option<&'a SotaShareMap>,
    ) -> Self {
        let mode = match (policy, share) {
            (MlsPolicy::Disabled, _) => AccessMode::Disabled,
            (MlsPolicy::SotaRegionSharing { .. }, Some(share)) => AccessMode::Sota(share),
            // Defensive: a SOTA checker without a share map can't share
            // anything, which is exactly the Disabled access rule.
            (MlsPolicy::SotaRegionSharing { .. }, None) => AccessMode::Disabled,
            (MlsPolicy::PerNet(flags), _) => AccessMode::PerNet(flags),
        };
        Self { grid, mode }
    }

    /// The bond-adjacent ("donor top") z-slices of a die — the two metals
    /// region sharing hands over.
    fn donor_top_zs(&self, tier: Tier) -> [usize; 2] {
        let ll = self.grid.logic_layers;
        match tier {
            Tier::Logic => [ll - 1, ll.saturating_sub(2)],
            Tier::Memory => [ll, (ll + 1).min(self.grid.nz() - 1)],
        }
    }

    /// Whether `net` (with home die `home`; `None` for 3D nets) may occupy
    /// layer `z` at g-cell `(x, y)`.
    pub fn allowed(&self, net: NetId, home: Option<Tier>, x: usize, y: usize, z: usize) -> bool {
        let Some(home) = home else {
            return true; // 3D nets roam freely.
        };
        let z_tier = self.grid.tier_of_z(z);
        match &self.mode {
            AccessMode::Disabled => z_tier == home,
            AccessMode::PerNet(flags) => z_tier == home || flags[net.index()],
            AccessMode::Sota(map) => {
                if z_tier == home {
                    // Own die — unless this g-cell's bond-adjacent metals
                    // were confiscated for the other die's nets.
                    match map.shared_to(x, y) {
                        Some(beneficiary) if beneficiary != home => {
                            !self.donor_top_zs(home).contains(&z)
                        }
                        _ => true,
                    }
                } else {
                    // Other die — only its donated top metals, only where
                    // this g-cell is shared to our die.
                    map.shared_to(x, y) == Some(home) && self.donor_top_zs(z_tier).contains(&z)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmls_netlist::tech::TechConfig;
    use gnnmls_phys::Floorplan;

    fn grid() -> RoutingGrid {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let fp = Floorplan {
            width_um: 100.0,
            height_um: 100.0,
        };
        RoutingGrid::build(&fp, &tech, 16, 0.0, 0.0)
    }

    fn share_all_to_logic(g: &RoutingGrid) -> SotaShareMap {
        SotaShareMap {
            nx: g.nx,
            ny: g.ny,
            shared: vec![1; g.nx * g.ny],
        }
    }

    #[test]
    fn disabled_confines_2d_nets_to_their_die() {
        let g = grid();
        let p = MlsPolicy::Disabled;
        let ac = AccessChecker::new(&g, &p, None);
        let n = NetId::new(0);
        assert!(ac.allowed(n, Some(Tier::Logic), 0, 0, 0));
        assert!(ac.allowed(n, Some(Tier::Logic), 0, 0, 5));
        assert!(!ac.allowed(n, Some(Tier::Logic), 0, 0, 6));
        assert!(ac.allowed(n, Some(Tier::Memory), 0, 0, 6));
        assert!(!ac.allowed(n, Some(Tier::Memory), 0, 0, 5));
        // 3D nets roam.
        assert!(ac.allowed(n, None, 0, 0, 0) && ac.allowed(n, None, 0, 0, 11));
    }

    #[test]
    fn per_net_grants_crossing_to_selected_nets_only() {
        let g = grid();
        let p = MlsPolicy::PerNet(vec![true, false]);
        let ac = AccessChecker::new(&g, &p, None);
        assert!(ac.allowed(NetId::new(0), Some(Tier::Logic), 0, 0, 8));
        assert!(!ac.allowed(NetId::new(1), Some(Tier::Logic), 0, 0, 8));
        // Own die always fine.
        assert!(ac.allowed(NetId::new(1), Some(Tier::Logic), 0, 0, 3));
    }

    #[test]
    fn sota_shares_donor_top_metals_and_confiscates_them() {
        let g = grid();
        let p = MlsPolicy::sota();
        let map = share_all_to_logic(&g);
        let ac = AccessChecker::new(&g, &p, Some(&map));
        let n = NetId::new(0);
        // Logic nets may now use memory's bond-adjacent metals (z 6, 7)...
        assert!(ac.allowed(n, Some(Tier::Logic), 1, 1, 6));
        assert!(ac.allowed(n, Some(Tier::Logic), 1, 1, 7));
        // ...but not memory's deeper metals.
        assert!(!ac.allowed(n, Some(Tier::Logic), 1, 1, 9));
        // Memory nets lose exactly those metals in shared g-cells...
        assert!(!ac.allowed(n, Some(Tier::Memory), 1, 1, 6));
        assert!(!ac.allowed(n, Some(Tier::Memory), 1, 1, 7));
        // ...and keep the rest of their stack.
        assert!(ac.allowed(n, Some(Tier::Memory), 1, 1, 9));
        // Logic nets keep their own stack untouched.
        assert!(ac.allowed(n, Some(Tier::Logic), 1, 1, 5));
    }

    #[test]
    fn sota_without_map_degrades_to_home_die_only() {
        // Defensive behavior: a SOTA checker missing its share map must
        // act like Disabled (no sharing anywhere), not panic.
        let g = grid();
        let p = MlsPolicy::sota();
        let sota = AccessChecker::new(&g, &p, None);
        let disabled = AccessChecker::new(&g, &MlsPolicy::Disabled, None);
        let net = NetId::new(0);
        for z in 0..g.nz() {
            assert_eq!(
                sota.allowed(net, Some(Tier::Logic), 0, 0, z),
                disabled.allowed(net, Some(Tier::Logic), 0, 0, z),
                "z={z}"
            );
        }
    }

    #[test]
    fn share_map_reflects_demand_imbalance() {
        use gnnmls_netlist::tech::TechNode;
        use gnnmls_netlist::{CellLibrary, NetlistBuilder};
        use gnnmls_phys::place::Point;

        // Many logic nets in one corner, nothing else.
        let lib = CellLibrary::for_node(&TechNode::n28());
        let mut b = NetlistBuilder::new("d");
        let mut locs = Vec::new();
        for i in 0..8 {
            let a = b
                .add_cell(format!("a{i}"), lib.expect("PI"), Tier::Logic)
                .unwrap();
            let z = b
                .add_cell(format!("z{i}"), lib.expect("PO"), Tier::Logic)
                .unwrap();
            let n = b.add_net(format!("n{i}")).unwrap();
            b.connect_output(n, a, 0).unwrap();
            b.connect_input(n, z, 0).unwrap();
            locs.push(Point::new(5.0, 5.0));
            locs.push(Point::new(20.0, 20.0));
        }
        let netlist = b.finish().unwrap();
        let fp = Floorplan {
            width_um: 100.0,
            height_um: 100.0,
        };
        let placement = Placement::from_locations(locs, fp);
        let g = grid();
        let map = SotaShareMap::compute(&netlist, &placement, &g, 1.25);
        assert_eq!(map.shared_to(0, 0), Some(Tier::Logic));
        let (to_logic, to_memory) = map.shared_counts();
        assert!(to_logic > 0);
        assert_eq!(to_memory, 0);
        // Far corner has no demand at all -> unshared.
        assert_eq!(map.shared_to(g.nx - 1, g.ny - 1), None);
    }
}
