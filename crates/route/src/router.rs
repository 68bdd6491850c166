//! Congestion-driven multi-source A* maze routing with MLS policies.
//!
//! Each net is routed sink-by-sink (nearest first): every search starts
//! from the net's whole partial tree and ends at one sink's grid node, so
//! the result is a Steiner-ish tree. Edge costs combine a per-layer base
//! cost (long nets drift to the thick upper metals), via and F2F pad
//! costs, and a congestion multiplier that turns into a steep overflow
//! penalty past capacity. A rip-up-and-reroute pass re-spreads the nets
//! that ended up on over-capacity edges.
//!
//! The router also exposes *detached what-if routing*
//! ([`Router::what_if`]): re-route one net with MLS forced on or off
//! without touching committed state. That is the "iterative STA"
//! primitive the paper calls computationally prohibitive at full scale —
//! and the label oracle for GNN-MLS training.
//!
//! The search itself lives on [`RouteView`], which borrows a
//! [`RouteState`] (what a routing owns: grid, costs, usage maps,
//! congestion scale) and the design. The router searches its own state
//! through it; [`Router::into_state`] lets a warm session keep that
//! state and answer what-ifs through the same view after the router is
//! gone.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use gnnmls_netlist::tech::{F2fParams, TechConfig};
use gnnmls_netlist::{NetId, Netlist, Tier};
use gnnmls_phys::{net_hpwl_um, Placement};

use crate::db::{NetRoute, RouteDb, RouteSummary};
use crate::grid::RoutingGrid;
use crate::policy::{MlsPolicy, SotaShareMap};
use crate::tree::{RouteTree, RouteTreeBuilder};

// ---- observability ----

static ASTAR_SEARCHES: gnnmls_obs::Counter = gnnmls_obs::Counter::new(
    "gnnmls_route_astar_searches_total",
    "multi-source A* searches started",
);
static ASTAR_EXPANSIONS: gnnmls_obs::Counter = gnnmls_obs::Counter::new(
    "gnnmls_route_astar_expansions_total",
    "A* node expansions across all searches",
);
static PATTERN_FALLBACK_SINKS: gnnmls_obs::Counter = gnnmls_obs::Counter::new(
    "gnnmls_route_pattern_fallback_sinks_total",
    "sinks downgraded from maze to pattern routing",
);
static RIPUP_ROUNDS: gnnmls_obs::Counter = gnnmls_obs::Counter::new(
    "gnnmls_route_ripup_rounds_total",
    "rip-up-and-reroute rounds executed",
);
static RIPUP_VICTIMS: gnnmls_obs::Histogram = gnnmls_obs::Histogram::new(
    "gnnmls_route_ripup_victims",
    "overflowing nets ripped per rip-up round (convergence profile)",
    &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096],
);

/// Bounds for the per-layer g-cell overflow histograms (tracks past
/// capacity on one g-cell edge).
const OVERFLOW_BOUNDS: [u64; 7] = [1, 2, 3, 4, 6, 8, 16];

/// Router parameters.
///
/// Construct via [`RouteConfig::builder`] (fields are non-exhaustive;
/// struct-literal construction is reserved to this crate so knobs can
/// be added without breaking downstream code).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct RouteConfig {
    /// Desired g-cells across the die width.
    pub target_gcells: usize,
    /// Fraction of the logic die's top-metal tracks consumed by the PDN.
    pub pdn_top_util_logic: f64,
    /// Fraction of the memory die's top-metal tracks consumed by the PDN.
    pub pdn_top_util_memory: f64,
    /// Cost of an ordinary inter-layer via.
    pub via_cost: f64,
    /// Cost of an F2F bond crossing (before congestion).
    pub f2f_cost: f64,
    /// Congestion multiplier strength below capacity.
    pub congestion_weight: f64,
    /// Multiplier applied per unit of overflow past capacity.
    pub overflow_penalty: f64,
    /// Rip-up-and-reroute rounds after the initial pass.
    pub ripup_rounds: usize,
    /// A* expansion budget per sink before falling back to pattern
    /// routing.
    pub max_expansions: usize,
    /// Worker threads for parallel routing phases (what-if fan-out and
    /// speculative rip-up rounds). `0` means "all available cores";
    /// `1` runs the exact serial code path. Results are bit-identical
    /// for every thread count.
    pub threads: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        Self {
            target_gcells: 48,
            pdn_top_util_logic: 0.45,
            pdn_top_util_memory: 0.15,
            via_cost: 1.2,
            f2f_cost: 1.5,
            congestion_weight: 3.0,
            overflow_penalty: 12.0,
            ripup_rounds: 1,
            max_expansions: 400_000,
            threads: 0,
        }
    }
}

impl RouteConfig {
    /// A builder seeded with the defaults.
    pub fn builder() -> RouteConfigBuilder {
        RouteConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// A builder seeded with this config's current values (the
    /// non-exhaustive replacement for functional-update syntax).
    pub fn to_builder(&self) -> RouteConfigBuilder {
        RouteConfigBuilder { cfg: self.clone() }
    }

    /// This config with the thread knob replaced (validation-free: any
    /// `threads` value is legal, `0` meaning "all cores").
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// A [`RouteConfig`] field rejected by [`RouteConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq)]
pub struct RouteConfigError {
    /// The offending field.
    pub field: &'static str,
    /// The value as given.
    pub got: String,
    /// What the field requires.
    pub want: &'static str,
}

impl fmt::Display for RouteConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid RouteConfig.{}: got {}, want {}",
            self.field, self.got, self.want
        )
    }
}

impl std::error::Error for RouteConfigError {}

/// Builder for [`RouteConfig`]; validation happens once, at
/// [`RouteConfigBuilder::build`].
#[derive(Clone, Debug)]
pub struct RouteConfigBuilder {
    cfg: RouteConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $name(mut self, v: $ty) -> Self {
                self.cfg.$name = v;
                self
            }
        )*
    };
}

impl RouteConfigBuilder {
    builder_setters! {
        /// Desired g-cells across the die width (>= 2).
        target_gcells: usize,
        /// PDN fraction of the logic die's top metal (in `[0, 1)`).
        pdn_top_util_logic: f64,
        /// PDN fraction of the memory die's top metal (in `[0, 1)`).
        pdn_top_util_memory: f64,
        /// Via cost (finite, >= 0).
        via_cost: f64,
        /// F2F bond crossing cost (finite, >= 0).
        f2f_cost: f64,
        /// Congestion multiplier strength (finite, >= 0).
        congestion_weight: f64,
        /// Overflow penalty per unit past capacity (finite, >= 0).
        overflow_penalty: f64,
        /// Rip-up-and-reroute rounds.
        ripup_rounds: usize,
        /// A* expansion budget per sink (> 0).
        max_expansions: usize,
        /// Worker threads (`0` = all cores).
        threads: usize,
    }

    /// Validates and produces the config.
    ///
    /// # Errors
    ///
    /// Returns a [`RouteConfigError`] naming the first offending field.
    pub fn build(self) -> Result<RouteConfig, RouteConfigError> {
        let c = &self.cfg;
        let bad = |field: &'static str, got: String, want: &'static str| RouteConfigError {
            field,
            got,
            want,
        };
        if c.target_gcells < 2 {
            return Err(bad(
                "target_gcells",
                c.target_gcells.to_string(),
                "at least 2",
            ));
        }
        for (field, v) in [
            ("pdn_top_util_logic", c.pdn_top_util_logic),
            ("pdn_top_util_memory", c.pdn_top_util_memory),
        ] {
            if !v.is_finite() || !(0.0..1.0).contains(&v) {
                return Err(bad(field, format!("{v}"), "a fraction in [0, 1)"));
            }
        }
        for (field, v) in [
            ("via_cost", c.via_cost),
            ("f2f_cost", c.f2f_cost),
            ("congestion_weight", c.congestion_weight),
            ("overflow_penalty", c.overflow_penalty),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(bad(field, format!("{v}"), "finite and non-negative"));
            }
        }
        if c.max_expansions == 0 {
            return Err(bad("max_expansions", "0".into(), "a positive budget"));
        }
        Ok(self.cfg)
    }
}

/// Errors raised while setting up or running routing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// The placement does not cover every cell of the netlist.
    PlacementMismatch {
        /// Cells in the netlist.
        cells: usize,
        /// Locations in the placement.
        locations: usize,
    },
    /// A net could not be connected to all of its sinks.
    Unroutable {
        /// The failing net.
        net: NetId,
    },
    /// The route database was requested before every net had a route.
    Incomplete {
        /// Nets still missing a route.
        missing: usize,
    },
    /// The layer stack offers no in-die H/V layer pair for the pattern
    /// fallback (defensive; every supported stack has one).
    NoPatternLayer {
        /// The die whose stack is degenerate.
        tier: Tier,
    },
    /// A routing worker panicked and the panic reproduced on the serial
    /// retry.
    Worker {
        /// Index of the failing item in the fan-out.
        index: usize,
        /// The panic payload.
        message: String,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::PlacementMismatch { cells, locations } => {
                write!(f, "placement has {locations} locations for {cells} cells")
            }
            RouteError::Unroutable { net } => {
                write!(f, "net {net} could not be routed to all sinks")
            }
            RouteError::Incomplete { missing } => {
                write!(f, "route db requested with {missing} unrouted nets")
            }
            RouteError::NoPatternLayer { tier } => {
                write!(f, "{tier} die has no H/V layer pair for pattern routing")
            }
            RouteError::Worker { index, message } => {
                write!(f, "routing worker panicked at item {index}: {message}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Per-net MLS override used by what-if routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MlsOverride {
    /// Follow the router's global policy.
    UsePolicy,
    /// Force-allow this net to borrow the other die's metals anywhere.
    Allow,
    /// Force-confine this net to its home die.
    Deny,
}

/// Reusable per-thread A* working state.
///
/// Routing reads shared routing state (a [`RouteView`]) but writes only
/// into a scratch, so independent searches can run concurrently, each
/// with its own scratch (mint one per worker via [`Router::scratch`]). Besides
/// the distance/backtrack arrays, the scratch records the search
/// *footprint* — every node stamped since the last [`RouteScratch::
/// begin_footprint`] — which is exactly the set of nodes whose incident
/// edges' congestion a search may have read. Speculative parallel
/// rip-up uses that to detect when a result must be recomputed.
#[derive(Debug, Default)]
pub struct RouteScratch {
    dist: Vec<f32>,
    came: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    footprint: Vec<u32>,
}

impl RouteScratch {
    fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, 0.0);
            self.came.resize(n, u32::MAX);
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn seen(&self, node: u32) -> bool {
        self.stamp[node as usize] == self.epoch
    }

    #[inline]
    fn set(&mut self, node: u32, d: f32, from: u32) {
        if self.stamp[node as usize] != self.epoch {
            self.footprint.push(node);
        }
        self.dist[node as usize] = d;
        self.came[node as usize] = from;
        self.stamp[node as usize] = self.epoch;
    }

    /// Clears the recorded footprint; subsequent searches accumulate
    /// into a fresh set.
    fn begin_footprint(&mut self) {
        self.footprint.clear();
    }

    /// Nodes stamped since the last [`RouteScratch::begin_footprint`].
    fn footprint(&self) -> &[u32] {
        &self.footprint
    }
}

/// Usage counts to *subtract* while costing edges: the committed
/// contribution of the net being what-if re-routed. This lets what-if
/// routing run against a read-only [`RouteView`] (no mutate-and-restore),
/// seeing the exact same congestion numbers the old detached route saw.
#[derive(Debug, Default)]
struct ExcludedUsage {
    h: std::collections::HashMap<usize, u16>,
    v: std::collections::HashMap<usize, u16>,
    f2f: std::collections::HashMap<usize, u16>,
}

impl ExcludedUsage {
    #[inline]
    fn sub_h(&self, idx: usize, usage: u16) -> u16 {
        usage - self.h.get(&idx).copied().unwrap_or(0)
    }

    #[inline]
    fn sub_v(&self, idx: usize, usage: u16) -> u16 {
        usage - self.v.get(&idx).copied().unwrap_or(0)
    }

    #[inline]
    fn sub_f2f(&self, idx: usize, usage: u16) -> u16 {
        usage - self.f2f.get(&idx).copied().unwrap_or(0)
    }
}

#[derive(Debug)]
struct HeapEntry {
    f: f32,
    g: f32,
    node: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on f, tie-broken by node id for determinism.
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// What a routing owns apart from the design it routes: the grid,
/// per-layer costs, home tiers, MLS policy and SOTA share map, config,
/// usage maps and congestion scale.
///
/// A [`Router`] mutates it while routing. [`Router::into_state`] hands
/// it to an owner that outlives the router, such as a warm design
/// session, which then searches it through [`RouteState::view`].
pub struct RouteState {
    grid: RoutingGrid,
    f2f: F2fParams,
    policy: MlsPolicy,
    share: Option<SotaShareMap>,
    cfg: RouteConfig,
    /// Base wire cost per g-cell step, per z.
    layer_cost: Vec<f32>,
    min_wire_cost: f32,
    home: Vec<Option<Tier>>,
    usage_h: Vec<u16>,
    usage_v: Vec<u16>,
    usage_f2f: Vec<u16>,
    congestion_scale: f64,
}

impl RouteState {
    /// The routing grid.
    #[inline]
    pub fn grid(&self) -> &RoutingGrid {
        &self.grid
    }

    /// The routing configuration.
    #[inline]
    pub fn config(&self) -> &RouteConfig {
        &self.cfg
    }

    /// The MLS policy the state was routed under.
    #[inline]
    pub fn policy(&self) -> &MlsPolicy {
        &self.policy
    }

    /// A read-only search over this state and the design it was routed
    /// for. Pass the same netlist and placement the router had.
    pub fn view<'a>(&'a self, netlist: &'a Netlist, placement: &'a Placement) -> RouteView<'a> {
        RouteView {
            netlist,
            placement,
            state: self,
        }
    }

    #[inline]
    fn edge_idx(&self, z: usize, x: usize, y: usize) -> usize {
        (z * self.grid.ny + y) * self.grid.nx + x
    }

    fn apply_usage(&mut self, tree: &RouteTree, delta: i32) {
        for i in 1..tree.nodes.len() {
            let a = tree.nodes[tree.parent[i] as usize];
            let b = tree.nodes[i];
            let (xa, ya, za) = self.grid.coords(a);
            let (xb, yb, zb) = self.grid.coords(b);
            if za == zb {
                if ya == yb {
                    let idx = self.edge_idx(za, xa.min(xb), ya);
                    self.usage_h[idx] = add_u16(self.usage_h[idx], delta);
                } else {
                    let idx = self.edge_idx(za, xa, ya.min(yb));
                    self.usage_v[idx] = add_u16(self.usage_v[idx], delta);
                }
            } else if self.grid.is_f2f_via(za.min(zb)) {
                let idx = ya * self.grid.nx + xa;
                self.usage_f2f[idx] = add_u16(self.usage_f2f[idx], delta);
            }
        }
    }

    fn tree_overflows(&self, tree: &RouteTree) -> bool {
        for i in 1..tree.nodes.len() {
            let a = tree.nodes[tree.parent[i] as usize];
            let b = tree.nodes[i];
            let (xa, ya, za) = self.grid.coords(a);
            let (xb, yb, zb) = self.grid.coords(b);
            if za == zb {
                let cap = self.grid.layers[za].capacity;
                let u = if ya == yb {
                    self.usage_h[self.edge_idx(za, xa.min(xb), ya)]
                } else {
                    self.usage_v[self.edge_idx(za, xa, ya.min(yb))]
                };
                if u > cap {
                    return true;
                }
            } else if self.grid.is_f2f_via(za.min(zb))
                && self.usage_f2f[ya * self.grid.nx + xa] > self.grid.f2f_capacity
            {
                return true;
            }
        }
        false
    }
}

/// The stateful router.
pub struct Router<'a> {
    netlist: &'a Netlist,
    placement: &'a Placement,
    state: RouteState,
    routes: Vec<Option<NetRoute>>,
    scratch: RouteScratch,
    /// Rip-up victims whose reroute failed and kept their old route.
    isolated_failures: usize,
}

impl<'a> Router<'a> {
    /// Builds a router for a placed design.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::PlacementMismatch`] if the placement is
    /// missing cell locations.
    pub fn new(
        netlist: &'a Netlist,
        placement: &'a Placement,
        tech: &TechConfig,
        policy: MlsPolicy,
        cfg: RouteConfig,
    ) -> Result<Self, RouteError> {
        if placement.locations().len() < netlist.cell_count() {
            return Err(RouteError::PlacementMismatch {
                cells: netlist.cell_count(),
                locations: placement.locations().len(),
            });
        }
        let grid = RoutingGrid::build(
            placement.floorplan(),
            tech,
            cfg.target_gcells,
            cfg.pdn_top_util_logic,
            cfg.pdn_top_util_memory,
        );
        let share = match policy {
            MlsPolicy::SotaRegionSharing { threshold } => {
                Some(SotaShareMap::compute(netlist, placement, &grid, threshold))
            }
            _ => None,
        };
        let layer_cost: Vec<f32> = grid
            .layers
            .iter()
            .map(|l| (grid.gcell_um * (1.0 + 600.0 * l.r_kohm_per_um + 0.3 * l.c_ff_per_um)) as f32)
            .collect();
        let min_wire_cost = layer_cost.iter().copied().fold(f32::MAX, f32::min);
        let home: Vec<Option<Tier>> = netlist.net_ids().map(|n| netlist.net_tier(n)).collect();
        let nzyx = grid.node_count();
        Ok(Self {
            netlist,
            placement,
            state: RouteState {
                f2f: tech.f2f.clone(),
                policy,
                share,
                layer_cost,
                min_wire_cost,
                home,
                usage_h: vec![0; nzyx],
                usage_v: vec![0; nzyx],
                usage_f2f: vec![0; grid.nx * grid.ny],
                congestion_scale: 1.0,
                grid,
                cfg,
            },
            routes: vec![None; netlist.net_count()],
            scratch: RouteScratch::default(),
            isolated_failures: 0,
        })
    }

    /// The routing grid.
    #[inline]
    pub fn grid(&self) -> &RoutingGrid {
        &self.state.grid
    }

    /// The router's configuration.
    #[inline]
    pub fn config(&self) -> &RouteConfig {
        &self.state.cfg
    }

    /// Mints a fresh A* scratch sized lazily on first use. Callers that
    /// fan what-if routing out across threads create one per worker.
    #[inline]
    pub fn scratch(&self) -> RouteScratch {
        RouteScratch::default()
    }

    /// The SOTA share map, if the policy computed one.
    #[inline]
    pub fn share_map(&self) -> Option<&SotaShareMap> {
        self.state.share.as_ref()
    }

    /// Ends the router and keeps its routing state: usage maps and
    /// congestion scale as the last routing left them. What-ifs through
    /// [`RouteState::view`], given each net's committed tree, answer
    /// bit-identically to [`Router::what_if_budgeted`].
    pub fn into_state(self) -> RouteState {
        self.state
    }

    #[inline]
    fn view(&self) -> RouteView<'_> {
        self.state.view(self.netlist, self.placement)
    }

    /// Routes every net, then runs the configured rip-up rounds.
    ///
    /// Rip-up rounds re-route their victims concurrently when
    /// [`RouteConfig::threads`] allows. All victims are ripped first,
    /// each is routed speculatively against that frozen snapshot on a
    /// worker thread, and results commit serially in victim order. A
    /// speculative result is reused only if its search footprint is
    /// disjoint from every earlier-committed victim's new tree — the
    /// only way it could have read congestion the serial schedule would
    /// have seen differently — otherwise that net is re-routed in place
    /// against current state. Either way the outcome is bit-identical
    /// to the serial schedule.
    ///
    /// Rip-up failures are isolated per net: a victim whose reroute
    /// fails (including the `gnnmls-faults` `UnroutableNet` seam) gets
    /// its previous route restored and is counted in the summary's
    /// `isolated_failures` instead of aborting the round.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] when a net cannot be routed at all (no
    /// previous route to fall back to).
    pub fn route_all(&mut self) -> Result<(), RouteError> {
        // Register the conditional families up front: a clean design
        // that never overflows or rips up still exposes them (at zero),
        // so dashboards can tell "no rip-ups" from "not instrumented".
        ASTAR_SEARCHES.register();
        ASTAR_EXPANSIONS.register();
        PATTERN_FALLBACK_SINKS.register();
        RIPUP_ROUNDS.register();
        RIPUP_VICTIMS.register();
        let mut route_span = gnnmls_obs::span("route_all");
        route_span.field_u64("nets", self.routes.len() as u64);
        let mut order: Vec<NetId> = self.netlist.net_ids().collect();
        order.sort_by(|&a, &b| {
            net_hpwl_um(self.netlist, self.placement, a)
                .total_cmp(&net_hpwl_um(self.netlist, self.placement, b))
                .then_with(|| a.cmp(&b))
        });
        for &net in &order {
            let r = self.route_net(net, MlsOverride::UsePolicy, true)?;
            self.routes[net.index()] = Some(r);
        }
        let mut rounds_run = 0u64;
        for round in 0..self.state.cfg.ripup_rounds {
            self.state.congestion_scale *= 2.0;
            let victims: Vec<NetId> = order
                .iter()
                .copied()
                .filter(|&n| {
                    self.routes[n.index()]
                        .as_ref()
                        .is_some_and(|r| self.state.tree_overflows(&r.tree))
                })
                .collect();
            if victims.is_empty() {
                break;
            }
            rounds_run += 1;
            RIPUP_ROUNDS.inc();
            RIPUP_VICTIMS.observe(victims.len() as u64);
            gnnmls_obs::event(
                "ripup_round",
                &[
                    ("round", gnnmls_obs::FieldValue::U64(round as u64)),
                    ("victims", gnnmls_obs::FieldValue::U64(victims.len() as u64)),
                ],
            );
            // Keep the old routes so a failing reroute can be isolated.
            let saved: Vec<Option<NetRoute>> = victims
                .iter()
                .map(|&n| self.routes[n.index()].clone())
                .collect();
            for &net in &victims {
                self.rip_up(net);
            }
            self.reroute_victims(&victims, &saved)?;
        }
        // Final overflow flags against settled usage.
        for net in self.netlist.net_ids() {
            let of = self.routes[net.index()]
                .as_ref()
                .map(|r| self.state.tree_overflows(&r.tree));
            if let (Some(of), Some(r)) = (of, self.routes[net.index()].as_mut()) {
                r.overflowed = of;
            }
        }
        route_span.field_u64("ripup_rounds", rounds_run);
        route_span.field_u64("isolated_failures", self.isolated_failures as u64);
        Ok(())
    }

    /// Restores a victim's pre-rip route after its reroute failed:
    /// per-net failure isolation. Errors only when there is nothing to
    /// restore.
    fn isolate_failure(
        &mut self,
        net: NetId,
        saved: Option<NetRoute>,
        err: RouteError,
    ) -> Result<NetRoute, RouteError> {
        match saved {
            Some(r) => {
                self.state.apply_usage(&r.tree, 1);
                self.routes[net.index()] = Some(r.clone());
                self.isolated_failures += 1;
                Ok(r)
            }
            None => Err(err),
        }
    }

    /// Injected-fault seam: does this victim's reroute fail here?
    fn injected_unroutable(net: NetId) -> Result<(), RouteError> {
        if gnnmls_faults::fire(gnnmls_faults::FaultSite::UnroutableNet) {
            Err(RouteError::Unroutable { net })
        } else {
            Ok(())
        }
    }

    /// Re-routes one round's already-ripped victims, committing in
    /// victim order (see [`Router::route_all`] for the speculation
    /// scheme and why it is deterministic). `saved` holds each victim's
    /// pre-rip route for failure isolation.
    fn reroute_victims(
        &mut self,
        victims: &[NetId],
        saved: &[Option<NetRoute>],
    ) -> Result<(), RouteError> {
        let workers = gnnmls_par::resolve_threads(self.state.cfg.threads);
        if workers <= 1 || victims.len() < 2 {
            for (k, &net) in victims.iter().enumerate() {
                let routed = Self::injected_unroutable(net)
                    .and_then(|()| self.route_net(net, MlsOverride::UsePolicy, true));
                match routed {
                    Ok(r) => self.routes[net.index()] = Some(r),
                    Err(e) => {
                        self.isolate_failure(net, saved[k].clone(), e)?;
                    }
                }
            }
            return Ok(());
        }

        // Speculative pass against the frozen (all-victims-ripped)
        // state. A worker panic is retried serially (bit-identical) and
        // only surfaces as a typed error if it reproduces.
        let view = self.view();
        let speculated = gnnmls_par::recovering_par_map_with(
            self.state.cfg.threads,
            victims.len(),
            || view.scratch(),
            |scratch, i| {
                let r = view.compute_route(scratch, victims[i], MlsOverride::UsePolicy, None);
                (r, scratch.footprint().to_vec())
            },
        )
        .map_err(|e| RouteError::Worker {
            index: e.index,
            message: e.message,
        })?;

        // Serial-order commit with footprint validation. The fault seam
        // fires here (victim order), matching the serial path.
        let mut committed: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for (i, (route, footprint)) in speculated.into_iter().enumerate() {
            let net = victims[i];
            let resolved = Self::injected_unroutable(net).and_then(|()| match route {
                Ok(route) => {
                    let valid = footprint.iter().all(|n| !committed.contains(n));
                    if valid {
                        self.state.apply_usage(&route.tree, 1);
                        Ok(route)
                    } else {
                        self.route_net(net, MlsOverride::UsePolicy, true)
                    }
                }
                // Speculative failure: recompute in place against
                // current state before giving up on the net.
                Err(_) => self.route_net(net, MlsOverride::UsePolicy, true),
            });
            let route = match resolved {
                Ok(r) => r,
                Err(e) => self.isolate_failure(net, saved[i].clone(), e)?,
            };
            committed.extend(route.tree.nodes.iter().copied());
            self.routes[net.index()] = Some(route);
        }
        Ok(())
    }

    /// Re-routes one net with a forced MLS decision, committing the
    /// result. Returns `Ok(true)` when the reroute was applied and
    /// `Ok(false)` when it failed and the previous route was restored
    /// instead (per-net failure isolation, counted in the summary).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] only when the reroute fails *and* the net
    /// had no previous route to restore.
    pub fn commit_reroute(&mut self, net: NetId, ov: MlsOverride) -> Result<bool, RouteError> {
        let saved = self.routes[net.index()].clone();
        self.rip_up(net);
        let routed = Self::injected_unroutable(net).and_then(|()| self.route_net(net, ov, true));
        match routed {
            Ok(r) => {
                self.routes[net.index()] = Some(r);
                Ok(true)
            }
            Err(e) => {
                self.isolate_failure(net, saved, e)?;
                Ok(false)
            }
        }
    }

    /// Detached what-if: the route this net would get under `ov`, leaving
    /// all committed state untouched. This is the iterative-STA primitive
    /// (disconnect → re-route → re-extract) used by the label oracle.
    ///
    /// Takes `&self` plus a caller-owned [`RouteScratch`] (mint with
    /// [`Router::scratch`]), so independent what-ifs for different nets
    /// can run concurrently against the same committed state. The net's
    /// own committed usage is subtracted via a read-only overlay rather
    /// than mutate-and-restore, so the search sees the exact congestion
    /// numbers a detached re-route always saw.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] when the detached route cannot connect
    /// every sink.
    pub fn what_if(
        &self,
        scratch: &mut RouteScratch,
        net: NetId,
        ov: MlsOverride,
    ) -> Result<NetRoute, RouteError> {
        self.what_if_budgeted(scratch, net, ov, self.state.cfg.max_expansions)
    }

    /// [`Router::what_if`] with a per-call A* expansion budget (see
    /// [`RouteView::what_if`]). A budget equal to
    /// [`RouteConfig::max_expansions`] is exactly [`Router::what_if`].
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] when the detached route cannot connect
    /// every sink.
    pub fn what_if_budgeted(
        &self,
        scratch: &mut RouteScratch,
        net: NetId,
        ov: MlsOverride,
        max_expansions: usize,
    ) -> Result<NetRoute, RouteError> {
        let committed = self.routes[net.index()].as_ref().map(|r| &r.tree);
        self.view()
            .what_if(scratch, net, committed, ov, max_expansions)
    }

    /// Snapshot of all routes plus summary metrics.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Incomplete`] if called before
    /// [`Router::route_all`] has routed every net.
    pub fn db(&self) -> Result<RouteDb, RouteError> {
        let mut nets: Vec<NetRoute> = Vec::with_capacity(self.routes.len());
        let mut missing = 0usize;
        for r in &self.routes {
            match r {
                Some(r) => nets.push(r.clone()),
                None => missing += 1,
            }
        }
        if missing > 0 {
            return Err(RouteError::Incomplete { missing });
        }
        // Fault seam: silently corrupt one edge count in the snapshot —
        // exactly the kind of bit-rot the invariant auditor must catch.
        if gnnmls_faults::fire(gnnmls_faults::FaultSite::RouteAuditCorrupt) {
            if let Some(r) = nets.iter_mut().find(|r| r.tree.nodes.len() > 1) {
                r.f2f_crossings += 1;
            }
        }
        let summary = self.summary(&nets);
        Ok(RouteDb { nets, summary })
    }

    fn summary(&self, nets: &[NetRoute]) -> RouteSummary {
        let s = &self.state;
        let total_wl_um: f64 = nets.iter().map(|r| r.wirelength_um).sum();
        let (nx, ny) = (s.grid.nx, s.grid.ny);
        let mut layer_utilization = Vec::with_capacity(s.grid.nz());
        for (z, layer) in s.grid.layers.iter().enumerate() {
            let (mut used, mut cap) = (0u64, 0u64);
            let layer_label = format!("{}-M{}", layer.tier, layer.metal);
            gnnmls_obs::register_histogram(
                "gnnmls_route_gcell_overflow",
                &[("layer", &layer_label)],
                &OVERFLOW_BOUNDS,
            );
            for y in 0..ny {
                for x in 0..nx {
                    let idx = (z * ny + y) * nx + x;
                    if x + 1 < nx {
                        used += u64::from(s.usage_h[idx]);
                        cap += u64::from(layer.capacity);
                        let of = s.usage_h[idx].saturating_sub(layer.capacity);
                        if of > 0 {
                            gnnmls_obs::observe(
                                "gnnmls_route_gcell_overflow",
                                &[("layer", &layer_label)],
                                &OVERFLOW_BOUNDS,
                                u64::from(of),
                            );
                        }
                    }
                    if y + 1 < ny {
                        used += u64::from(s.usage_v[idx]);
                        cap += u64::from(layer.capacity);
                        let of = s.usage_v[idx].saturating_sub(layer.capacity);
                        if of > 0 {
                            gnnmls_obs::observe(
                                "gnnmls_route_gcell_overflow",
                                &[("layer", &layer_label)],
                                &OVERFLOW_BOUNDS,
                                u64::from(of),
                            );
                        }
                    }
                }
            }
            layer_utilization.push(if cap == 0 {
                0.0
            } else {
                used as f64 / cap as f64
            });
        }
        // MLS borrow decisions, counted per home tier.
        for tier in ["logic", "memory"] {
            gnnmls_obs::counter_add("gnnmls_route_mls_borrow_total", &[("tier", tier)], 0);
        }
        for r in nets.iter().filter(|r| r.is_mls) {
            if let Some(home) = s.home[r.net.index()] {
                let tier = match home {
                    Tier::Logic => "logic",
                    Tier::Memory => "memory",
                };
                gnnmls_obs::counter_add("gnnmls_route_mls_borrow_total", &[("tier", tier)], 1);
            }
        }
        let pads: u64 = s.usage_f2f.iter().map(|&u| u64::from(u)).sum();
        let pad_cap = (nx * ny) as u64 * u64::from(s.grid.f2f_capacity);
        RouteSummary {
            total_wirelength_m: total_wl_um / 1.0e6,
            mls_net_count: nets.iter().filter(|r| r.is_mls).count(),
            f2f_pads: pads as usize,
            overflowed_nets: nets.iter().filter(|r| r.overflowed).count(),
            layer_utilization,
            f2f_utilization: if pad_cap == 0 {
                0.0
            } else {
                pads as f64 / pad_cap as f64
            },
            pattern_fallback_nets: nets.iter().filter(|r| r.pattern_sinks > 0).count(),
            pattern_fallback_sinks: nets.iter().map(|r| r.pattern_sinks as usize).sum(),
            isolated_failures: self.isolated_failures,
        }
    }

    /// Routes one net against current usage with the router's own
    /// scratch (the serial hot path), committing the result if asked.
    fn route_net(
        &mut self,
        net: NetId,
        ov: MlsOverride,
        commit: bool,
    ) -> Result<NetRoute, RouteError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let r = self.view().compute_route(&mut scratch, net, ov, None);
        self.scratch = scratch;
        let r = r?;
        if commit {
            self.state.apply_usage(&r.tree, 1);
        }
        Ok(r)
    }

    fn rip_up(&mut self, net: NetId) {
        if let Some(r) = self.routes[net.index()].take() {
            self.state.apply_usage(&r.tree, -1);
        }
    }
}

/// A read-only search over a [`RouteState`] and the design it routes:
/// the one A* behind [`Router::route_all`], the oracle's what-ifs and
/// a warm session's. Reads `&self`, writes only into a caller-owned
/// [`RouteScratch`].
pub struct RouteView<'a> {
    netlist: &'a Netlist,
    placement: &'a Placement,
    state: &'a RouteState,
}

impl RouteView<'_> {
    /// Mints a fresh A* scratch sized lazily on first use.
    #[inline]
    pub fn scratch(&self) -> RouteScratch {
        RouteScratch::default()
    }

    /// Detached what-if: the route `net` would get under `ov` with at
    /// most `max_expansions` A* expansions per sink, leaving the state
    /// untouched. `committed` is the net's own committed tree; its usage
    /// is subtracted via a read-only overlay, so the search sees the
    /// congestion of a detach → re-route. The router passes its own
    /// tree, a warm session the one in its route DB.
    ///
    /// The serve daemon maps a request deadline onto `max_expansions`,
    /// so a late request degrades to the pattern fallback (or a typed
    /// error) instead of holding a worker.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] when the detached route cannot connect
    /// every sink.
    pub fn what_if(
        &self,
        scratch: &mut RouteScratch,
        net: NetId,
        committed: Option<&RouteTree>,
        ov: MlsOverride,
        max_expansions: usize,
    ) -> Result<NetRoute, RouteError> {
        let exclude = committed.map(|tree| self.excluded(tree));
        self.compute_route_budgeted(scratch, net, ov, exclude.as_ref(), max_expansions)
    }

    /// Usage overlay subtracting a committed tree.
    fn excluded(&self, tree: &RouteTree) -> ExcludedUsage {
        let s = self.state;
        let mut ex = ExcludedUsage::default();
        for i in 1..tree.nodes.len() {
            let a = tree.nodes[tree.parent[i] as usize];
            let b = tree.nodes[i];
            let (xa, ya, za) = s.grid.coords(a);
            let (xb, yb, zb) = s.grid.coords(b);
            if za == zb {
                if ya == yb {
                    *ex.h.entry(s.edge_idx(za, xa.min(xb), ya)).or_insert(0) += 1;
                } else {
                    *ex.v.entry(s.edge_idx(za, xa, ya.min(yb))).or_insert(0) += 1;
                }
            } else if s.grid.is_f2f_via(za.min(zb)) {
                *ex.f2f.entry(ya * s.grid.nx + xa).or_insert(0) += 1;
            }
        }
        ex
    }

    fn pin_node(&self, pin: gnnmls_netlist::PinId) -> u32 {
        let grid = &self.state.grid;
        let cell = self.netlist.pin(pin).cell;
        let loc = self.placement.loc(cell);
        let (gx, gy) = grid.gcell_of(loc.x, loc.y);
        let z = grid.pin_z(self.netlist.cell(cell).tier);
        grid.node(gx, gy, z)
    }

    /// Routes one net against current usage (minus `exclude`, if given)
    /// without committing anything. The scratch's footprint is reset
    /// first, so after the call it holds every node this search stamped.
    fn compute_route(
        &self,
        scratch: &mut RouteScratch,
        net: NetId,
        ov: MlsOverride,
        exclude: Option<&ExcludedUsage>,
    ) -> Result<NetRoute, RouteError> {
        self.compute_route_budgeted(scratch, net, ov, exclude, self.state.cfg.max_expansions)
    }

    /// [`RouteView::compute_route`] with an explicit A* expansion
    /// budget (the deadline hook of [`RouteView::what_if`]).
    fn compute_route_budgeted(
        &self,
        scratch: &mut RouteScratch,
        net: NetId,
        ov: MlsOverride,
        exclude: Option<&ExcludedUsage>,
        max_expansions: usize,
    ) -> Result<NetRoute, RouteError> {
        let s = self.state;
        scratch.begin_footprint();
        let driver = self.netlist.driver(net);
        let root = self.pin_node(driver);
        let mut builder = RouteTreeBuilder::new(&s.grid, &s.f2f, root);

        // Sinks nearest-first (by g-cell manhattan distance from the root).
        let (rx, ry, rz) = s.grid.coords(root);
        let mut sinks: Vec<(usize, u32)> = self
            .netlist
            .sinks(net)
            .iter()
            .map(|&p| {
                let n = self.pin_node(p);
                let (x, y, z) = s.grid.coords(n);
                (x.abs_diff(rx) + y.abs_diff(ry) + z.abs_diff(rz), n)
            })
            .collect();
        let sink_order: Vec<u32> = {
            let mut idx: Vec<usize> = (0..sinks.len()).collect();
            idx.sort_by_key(|&i| (sinks[i].0, sinks[i].1));
            idx.iter().map(|&i| sinks[i].1).collect()
        };

        let mut pattern_sinks = 0u32;
        for &target in &sink_order {
            if builder.contains(target) {
                continue;
            }
            let path = match self.astar(
                scratch,
                net,
                ov,
                exclude,
                builder.grid_nodes(),
                target,
                max_expansions,
            ) {
                Some(p) => p,
                None => {
                    // Budget exhausted: degrade maze → pattern and
                    // record the downgrade on the route.
                    pattern_sinks += 1;
                    PATTERN_FALLBACK_SINKS.inc();
                    self.fallback_path(&builder, target)?
                }
            };
            builder.add_path(&path);
        }
        // Mark sinks in the netlist's sink order.
        for (_, n) in &mut sinks {
            if !builder.mark_sink(*n) {
                return Err(RouteError::Unroutable { net });
            }
        }
        // Restore netlist order for the elmore vector.
        let tree = {
            let mut t = builder.finish();
            // sink_node was pushed in `sinks` (netlist) order already.
            t.sink_node.truncate(self.netlist.sinks(net).len());
            t
        };

        let home = s.home[net.index()];
        let sink_caps: Vec<f64> = self
            .netlist
            .sinks(net)
            .iter()
            .map(|&p| self.netlist.pin(p).cap_ff)
            .collect();
        let sink_elmore_ps = tree.elmore_to_sinks_ps(&sink_caps);
        let total_cap_ff = tree.wire_cap_ff() + sink_caps.iter().sum::<f64>();
        Ok(NetRoute {
            net,
            wirelength_um: tree.wirelength_um(&s.grid),
            f2f_crossings: tree.f2f_crossings(),
            is_mls: home.is_some_and(|h| tree.uses_other_tier(&s.grid, h)),
            total_cap_ff,
            sink_elmore_ps,
            overflowed: false,
            pattern_sinks,
            tree,
        })
    }

    /// Multi-source A* from the tree to one sink.
    #[allow(clippy::too_many_arguments)]
    fn astar(
        &self,
        scratch: &mut RouteScratch,
        net: NetId,
        ov: MlsOverride,
        exclude: Option<&ExcludedUsage>,
        sources: &[u32],
        target: u32,
        max_expansions: usize,
    ) -> Option<Vec<u32>> {
        let s = self.state;
        scratch.ensure(s.grid.node_count());
        // Injected-fault seam: pretend the budget is already exhausted,
        // forcing the maze → pattern fallback for this sink.
        if gnnmls_faults::fire(gnnmls_faults::FaultSite::RouteBudgetExhausted) {
            return None;
        }
        let (tx, ty, tz) = s.grid.coords(target);
        let h = |x: usize, y: usize, z: usize| -> f32 {
            (x.abs_diff(tx) + y.abs_diff(ty)) as f32 * s.min_wire_cost
                + z.abs_diff(tz) as f32 * s.cfg.via_cost as f32
        };
        let mut heap = BinaryHeap::new();
        for &src in sources {
            let (x, y, z) = s.grid.coords(src);
            scratch.set(src, 0.0, u32::MAX);
            heap.push(HeapEntry {
                f: h(x, y, z),
                g: 0.0,
                node: src,
            });
        }

        // Expansions accumulate in a local and flush to the obs counter
        // once per search — the hot loop never touches shared state.
        ASTAR_SEARCHES.inc();
        let mut expansions = 0usize;
        let flush = |expansions: usize| ASTAR_EXPANSIONS.add(expansions as u64);
        while let Some(HeapEntry { g, node, .. }) = heap.pop() {
            if g > scratch.dist[node as usize] + 1e-6 && scratch.seen(node) {
                continue;
            }
            if node == target {
                flush(expansions);
                return Some(Self::backtrack(scratch, node));
            }
            expansions += 1;
            if expansions > max_expansions {
                flush(expansions);
                return None;
            }
            let (x, y, z) = s.grid.coords(node);
            let layer = &s.grid.layers[z];

            let consider = |nx_: usize,
                            ny_: usize,
                            nz_: usize,
                            cost: f32,
                            scratch: &mut RouteScratch,
                            heap: &mut BinaryHeap<HeapEntry>| {
                if !self.allowed(net, ov, nx_, ny_, nz_) {
                    return;
                }
                let nnode = s.grid.node(nx_, ny_, nz_);
                let ng = g + cost;
                if !scratch.seen(nnode) || ng < scratch.dist[nnode as usize] - 1e-6 {
                    scratch.set(nnode, ng, node);
                    heap.push(HeapEntry {
                        f: ng + h(nx_, ny_, nz_),
                        g: ng,
                        node: nnode,
                    });
                }
            };

            // In-layer moves along the preferred direction.
            match layer.dir {
                gnnmls_netlist::tech::RouteDir::Horizontal => {
                    if x + 1 < s.grid.nx {
                        let c = self.wire_cost(z, x, y, true, exclude);
                        consider(x + 1, y, z, c, scratch, &mut heap);
                    }
                    if x > 0 {
                        let c = self.wire_cost(z, x - 1, y, true, exclude);
                        consider(x - 1, y, z, c, scratch, &mut heap);
                    }
                }
                gnnmls_netlist::tech::RouteDir::Vertical => {
                    if y + 1 < s.grid.ny {
                        let c = self.wire_cost(z, x, y, false, exclude);
                        consider(x, y + 1, z, c, scratch, &mut heap);
                    }
                    if y > 0 {
                        let c = self.wire_cost(z, x, y - 1, false, exclude);
                        consider(x, y - 1, z, c, scratch, &mut heap);
                    }
                }
            }
            // Via moves.
            if z + 1 < s.grid.nz() {
                let c = self.via_cost(z, x, y, exclude);
                consider(x, y, z + 1, c, scratch, &mut heap);
            }
            if z > 0 {
                let c = self.via_cost(z - 1, x, y, exclude);
                consider(x, y, z - 1, c, scratch, &mut heap);
            }
        }
        flush(expansions);
        None
    }

    fn backtrack(scratch: &RouteScratch, target: u32) -> Vec<u32> {
        let mut path = vec![target];
        let mut cur = target;
        while scratch.came[cur as usize] != u32::MAX {
            cur = scratch.came[cur as usize];
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Own-die L-shaped pattern route used when A* exhausts its budget.
    fn fallback_path(
        &self,
        builder: &RouteTreeBuilder<'_>,
        target: u32,
    ) -> Result<Vec<u32>, RouteError> {
        let grid = &self.state.grid;
        let root = builder.grid_nodes()[0];
        let (x0, y0, z0) = grid.coords(root);
        let (x1, y1, z1) = grid.coords(target);
        let from_tier = grid.tier_of_z(z0);
        // Safe H/V layers near the from-die's pin layer (never confiscated
        // by region sharing, which only takes bond-adjacent metals).
        let (zr0, zr1) = grid.tier_z_range(from_tier);
        let zs: Vec<usize> = if from_tier == Tier::Logic {
            (zr0..=zr1).collect()
        } else {
            (zr0..=zr1).rev().collect()
        };
        let no_layer = RouteError::NoPatternLayer { tier: from_tier };
        let hz = *zs
            .iter()
            .find(|&&z| grid.layers[z].dir == gnnmls_netlist::tech::RouteDir::Horizontal)
            .ok_or(no_layer.clone())?;
        let vz = *zs
            .iter()
            .find(|&&z| grid.layers[z].dir == gnnmls_netlist::tech::RouteDir::Vertical)
            .ok_or(no_layer)?;

        let mut path = vec![root];
        let mut cur = (x0, y0, z0);
        let push = |path: &mut Vec<u32>, p: (usize, usize, usize)| {
            path.push(grid.node(p.0, p.1, p.2));
        };
        let step_z = |path: &mut Vec<u32>, cur: &mut (usize, usize, usize), to_z: usize| {
            while cur.2 != to_z {
                cur.2 = if cur.2 < to_z { cur.2 + 1 } else { cur.2 - 1 };
                push(path, *cur);
            }
        };
        // Horizontal leg.
        step_z(&mut path, &mut cur, hz);
        while cur.0 != x1 {
            cur.0 = if cur.0 < x1 { cur.0 + 1 } else { cur.0 - 1 };
            push(&mut path, cur);
        }
        // Vertical leg.
        step_z(&mut path, &mut cur, vz);
        while cur.1 != y1 {
            cur.1 = if cur.1 < y1 { cur.1 + 1 } else { cur.1 - 1 };
            push(&mut path, cur);
        }
        // Final via stack to the sink (crosses the bond for 3D nets).
        step_z(&mut path, &mut cur, z1);
        Ok(path)
    }

    // ---- costs and access ----

    #[inline]
    fn congestion_factor(&self, usage: u16, cap: u16) -> f32 {
        let s = self.state;
        let cap = cap.max(1);
        if usage < cap {
            let r = f32::from(usage) / f32::from(cap);
            1.0 + (s.cfg.congestion_weight * s.congestion_scale) as f32 * r * r * r * r
        } else {
            (s.cfg.overflow_penalty * s.congestion_scale) as f32 * f32::from(usage - cap + 2)
        }
    }

    /// Cost of the wire edge leaving `(x, y, z)`; for horizontal layers
    /// `x` is the min-x endpoint, for vertical layers `y` is min-y.
    #[inline]
    fn wire_cost(
        &self,
        z: usize,
        x_min: usize,
        y_min: usize,
        horizontal: bool,
        exclude: Option<&ExcludedUsage>,
    ) -> f32 {
        let s = self.state;
        let idx = s.edge_idx(z, x_min, y_min);
        let usage = if horizontal {
            let u = s.usage_h[idx];
            exclude.map_or(u, |e| e.sub_h(idx, u))
        } else {
            let u = s.usage_v[idx];
            exclude.map_or(u, |e| e.sub_v(idx, u))
        };
        s.layer_cost[z] * self.congestion_factor(usage, s.grid.layers[z].capacity)
    }

    #[inline]
    fn via_cost(&self, z_low: usize, x: usize, y: usize, exclude: Option<&ExcludedUsage>) -> f32 {
        let s = self.state;
        if s.grid.is_f2f_via(z_low) {
            let idx = y * s.grid.nx + x;
            let u = s.usage_f2f[idx];
            let usage = exclude.map_or(u, |e| e.sub_f2f(idx, u));
            s.cfg.f2f_cost as f32 * self.congestion_factor(usage, s.grid.f2f_capacity)
        } else {
            s.cfg.via_cost as f32
        }
    }

    fn allowed(&self, net: NetId, ov: MlsOverride, x: usize, y: usize, z: usize) -> bool {
        let s = self.state;
        let Some(home) = s.home[net.index()] else {
            return true;
        };
        let z_tier = s.grid.tier_of_z(z);
        match ov {
            MlsOverride::Allow => true,
            MlsOverride::Deny => z_tier == home,
            MlsOverride::UsePolicy => match &s.policy {
                MlsPolicy::Disabled => z_tier == home,
                MlsPolicy::PerNet(flags) => z_tier == home || flags[net.index()],
                MlsPolicy::SotaRegionSharing { .. } => {
                    // Defensive: SOTA without a share map can share
                    // nothing, which is the home-die-only rule.
                    let Some(map) = s.share.as_ref() else {
                        return z_tier == home;
                    };
                    let donor_top = |tier: Tier| -> [usize; 2] {
                        let ll = s.grid.logic_layers;
                        match tier {
                            Tier::Logic => [ll - 1, ll.saturating_sub(2)],
                            Tier::Memory => [ll, (ll + 1).min(s.grid.nz() - 1)],
                        }
                    };
                    if z_tier == home {
                        match map.shared_to(x, y) {
                            Some(b) if b != home => !donor_top(home).contains(&z),
                            _ => true,
                        }
                    } else {
                        map.shared_to(x, y) == Some(home) && donor_top(z_tier).contains(&z)
                    }
                }
            },
        }
    }
}

fn add_u16(v: u16, delta: i32) -> u16 {
    (i32::from(v) + delta).max(0) as u16
}

/// One-shot convenience: route a placed design under a policy.
///
/// Returns the route database and the grid it was routed on.
///
/// # Errors
///
/// Returns [`RouteError`] if the placement does not match the netlist.
pub fn route_design(
    netlist: &Netlist,
    placement: &Placement,
    tech: &TechConfig,
    policy: MlsPolicy,
    cfg: RouteConfig,
) -> Result<(RouteDb, RoutingGrid), RouteError> {
    let mut router = Router::new(netlist, placement, tech, policy, cfg)?;
    router.route_all()?;
    let db = router.db()?;
    Ok((db, router.into_state().grid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmls_netlist::generators::{generate_maeri, MaeriConfig};
    use gnnmls_netlist::tech::TechConfig;
    use gnnmls_phys::{place, PlaceConfig};

    fn routed(policy: MlsPolicy) -> (gnnmls_netlist::Netlist, RouteDb, RoutingGrid) {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let (db, grid) = route_design(
            &d.netlist,
            &p,
            &tech,
            policy,
            RouteConfig {
                target_gcells: 24,
                ..RouteConfig::default()
            },
        )
        .unwrap();
        (d.netlist, db, grid)
    }

    #[test]
    fn every_net_gets_a_route_with_all_sinks() {
        let (netlist, db, _) = routed(MlsPolicy::Disabled);
        assert_eq!(db.nets.len(), netlist.net_count());
        for net in netlist.net_ids() {
            let r = db.route(net);
            assert_eq!(r.tree.sink_node.len(), netlist.sinks(net).len());
            assert_eq!(r.sink_elmore_ps.len(), netlist.sinks(net).len());
            assert!(r.total_cap_ff > 0.0, "sink pins always load the driver");
            for &d in &r.sink_elmore_ps {
                assert!(d.is_finite() && d >= 0.0);
            }
        }
    }

    #[test]
    fn no_mls_policy_never_produces_mls_nets() {
        let (netlist, db, grid) = routed(MlsPolicy::Disabled);
        assert_eq!(db.summary.mls_net_count, 0);
        // 2D nets stay on their die.
        for net in netlist.net_ids() {
            if let Some(home) = netlist.net_tier(net) {
                assert!(
                    !db.route(net).tree.uses_other_tier(&grid, home),
                    "net {net} escaped its die under Disabled"
                );
            }
        }
        // 3D nets still cross.
        let crossing = db.bond_crossing_nets().count();
        assert!(crossing > 0, "macro links must cross the bond");
    }

    #[test]
    fn sota_produces_mls_nets() {
        let (_, db, _) = routed(MlsPolicy::sota());
        assert!(
            db.summary.mls_net_count > 0,
            "region sharing should push some nets across"
        );
    }

    #[test]
    fn per_net_policy_limits_mls_to_selected_nets() {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let netlist = &d.netlist;
        let p = place(netlist, &PlaceConfig::default()).unwrap();
        // Select the 20 longest 2D nets.
        let mut two_d: Vec<NetId> = netlist
            .net_ids()
            .filter(|&n| netlist.net_tier(n).is_some())
            .collect();
        two_d.sort_by(|&a, &b| net_hpwl_um(netlist, &p, b).total_cmp(&net_hpwl_um(netlist, &p, a)));
        let selected: Vec<NetId> = two_d.iter().copied().take(20).collect();
        let policy = MlsPolicy::per_net_from(netlist, selected.iter().copied());
        let (db, _) = route_design(netlist, &p, &tech, policy, RouteConfig::default()).unwrap();
        for r in db.mls_nets() {
            assert!(
                selected.contains(&r.net),
                "non-selected net {} used MLS",
                r.net
            );
        }
    }

    #[test]
    fn what_if_leaves_state_untouched() {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let mut router = Router::new(
            &d.netlist,
            &p,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig::default(),
        )
        .unwrap();
        router.route_all().unwrap();
        let before = router.db().unwrap();
        // What-if every 2D net with MLS allowed.
        let nets: Vec<NetId> = d
            .netlist
            .net_ids()
            .filter(|&n| d.netlist.net_tier(n).is_some())
            .take(50)
            .collect();
        let mut scratch = router.scratch();
        for n in nets {
            let _ = router.what_if(&mut scratch, n, MlsOverride::Allow);
        }
        let after = router.db().unwrap();
        assert_eq!(before.summary, after.summary);
        for (a, b) in before.nets.iter().zip(after.nets.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn kept_state_view_answers_what_if_bit_identically() {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let cfg = RouteConfig {
            target_gcells: 24,
            ..RouteConfig::default()
        };
        let mut router = Router::new(&d.netlist, &p, &tech, MlsPolicy::Disabled, cfg).unwrap();
        router.route_all().unwrap();
        let db = router.db().unwrap();
        let budgets = [router.config().max_expansions, 50];
        let queries: Vec<(NetId, MlsOverride, usize)> = d
            .netlist
            .net_ids()
            .flat_map(|n| {
                [MlsOverride::Allow, MlsOverride::Deny]
                    .into_iter()
                    .flat_map(move |ov| budgets.map(|b| (n, ov, b)))
            })
            .collect();
        let mut sc = router.scratch();
        let live: Vec<_> = queries
            .iter()
            .map(|&(n, ov, b)| router.what_if_budgeted(&mut sc, n, ov, b))
            .collect();

        // The router is gone; its state plus the DB's trees answer alone.
        let state = router.into_state();
        let view = state.view(&d.netlist, &p);
        let mut sv = view.scratch();
        for (&(n, ov, b), live) in queries.iter().zip(live) {
            let kept = view.what_if(&mut sv, n, Some(&db.route(n).tree), ov, b);
            assert_eq!(kept, live, "net {n} ov {ov:?} budget {b}");
        }
    }

    #[test]
    fn budgeted_what_if_degrades_not_hangs() {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let mut router = Router::new(
            &d.netlist,
            &p,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig {
                target_gcells: 24,
                ..RouteConfig::default()
            },
        )
        .unwrap();
        router.route_all().unwrap();
        let net = d
            .netlist
            .net_ids()
            .find(|&n| d.netlist.net_tier(n).is_some())
            .unwrap();
        let mut scratch = router.scratch();
        // Full budget matches plain what_if bit-for-bit.
        let full = router
            .what_if(&mut scratch, net, MlsOverride::Deny)
            .unwrap();
        let budgeted = router
            .what_if_budgeted(
                &mut scratch,
                net,
                MlsOverride::Deny,
                router.config().max_expansions,
            )
            .unwrap();
        assert_eq!(full, budgeted);
        // A starved budget degrades to the pattern fallback instead of
        // searching forever.
        let starved = router
            .what_if_budgeted(&mut scratch, net, MlsOverride::Deny, 1)
            .unwrap();
        assert!(starved.pattern_sinks > 0, "starved budget must fall back");
    }

    #[test]
    fn commit_reroute_changes_the_route() {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let mut router = Router::new(
            &d.netlist,
            &p,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig::default(),
        )
        .unwrap();
        router.route_all().unwrap();
        // Find a 2D logic net that would cross under Allow.
        let mut scratch = router.scratch();
        let candidate = d.netlist.net_ids().find(|&n| {
            d.netlist.net_tier(n) == Some(Tier::Logic)
                && router
                    .what_if(&mut scratch, n, MlsOverride::Allow)
                    .unwrap()
                    .is_mls
        });
        if let Some(n) = candidate {
            assert!(router.commit_reroute(n, MlsOverride::Allow).unwrap());
            assert!(router.db().unwrap().route(n).is_mls);
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let (_, a, _) = routed(MlsPolicy::Disabled);
        let (_, b, _) = routed(MlsPolicy::Disabled);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn what_if_overlay_matches_detached_reroute() {
        // The `&self` what-if (usage-exclusion overlay) must produce the
        // exact route of the historical mutate-and-restore detached
        // re-route, inlined here against the same router.
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let mut router = Router::new(
            &d.netlist,
            &p,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig {
                target_gcells: 24,
                ..RouteConfig::default()
            },
        )
        .unwrap();
        router.route_all().unwrap();
        let mut scratch = router.scratch();
        let nets: Vec<NetId> = d.netlist.net_ids().take(40).collect();
        for net in nets {
            for ov in [MlsOverride::Allow, MlsOverride::Deny] {
                if matches!(ov, MlsOverride::Deny) && d.netlist.net_tier(net).is_none() {
                    continue; // 3D nets cannot be confined to one die
                }
                let got = router.what_if(&mut scratch, net, ov).unwrap();
                // Historical semantics: detach the net, re-route, restore.
                let saved = router.routes[net.index()].take();
                if let Some(r) = &saved {
                    router.state.apply_usage(&r.tree, -1);
                }
                let expected = router.route_net(net, ov, false).unwrap();
                if let Some(r) = &saved {
                    router.state.apply_usage(&r.tree, 1);
                }
                router.routes[net.index()] = saved;
                assert_eq!(expected, got, "net {net} ov {ov:?}");
            }
        }
    }

    #[test]
    fn ripup_rounds_identical_across_thread_counts() {
        // A congested config (tiny grid, extra rounds) exercises the
        // speculative parallel rip-up path; every thread count must
        // yield the serial result bit-for-bit.
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let route = |threads: usize| {
            let (db, _) = route_design(
                &d.netlist,
                &p,
                &tech,
                MlsPolicy::sota(),
                RouteConfig {
                    target_gcells: 16,
                    ripup_rounds: 3,
                    threads,
                    ..RouteConfig::default()
                },
            )
            .unwrap();
            db
        };
        let serial = route(1);
        for threads in [2, 4, 0] {
            let par = route(threads);
            assert_eq!(serial.summary, par.summary, "threads={threads}");
            for (a, b) in serial.nets.iter().zip(par.nets.iter()) {
                assert_eq!(a, b, "threads={threads}");
            }
        }
    }

    #[test]
    fn summary_utilization_is_sane() {
        let (_, db, grid) = routed(MlsPolicy::sota());
        assert_eq!(db.summary.layer_utilization.len(), grid.nz());
        for &u in &db.summary.layer_utilization {
            assert!(u >= 0.0 && u.is_finite());
        }
        assert!(db.summary.total_wirelength_m > 0.0);
        assert!(db.summary.f2f_utilization >= 0.0);
    }

    #[test]
    fn placement_mismatch_is_reported() {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let fp = gnnmls_phys::Floorplan {
            width_um: 10.0,
            height_um: 10.0,
        };
        let p = Placement::from_locations(vec![gnnmls_phys::place::Point::new(0.0, 0.0)], fp);
        assert!(matches!(
            Router::new(
                &d.netlist,
                &p,
                &tech,
                MlsPolicy::Disabled,
                RouteConfig::default()
            ),
            Err(RouteError::PlacementMismatch { .. })
        ));
    }

    #[test]
    fn db_before_routing_is_a_typed_error() {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let router = Router::new(
            &d.netlist,
            &p,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            router.db(),
            Err(RouteError::Incomplete { missing }) if missing == d.netlist.net_count()
        ));
    }

    #[test]
    fn tiny_expansion_budget_degrades_to_pattern_routes() {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let (db, _) = route_design(
            &d.netlist,
            &p,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig {
                max_expansions: 2,
                ..RouteConfig::default()
            },
        )
        .unwrap();
        assert!(
            db.summary.pattern_fallback_sinks > 0,
            "a 2-expansion budget must force pattern fallbacks"
        );
        assert!(db.summary.pattern_fallback_nets > 0);
        // Every net still connects every sink.
        for net in d.netlist.net_ids() {
            assert_eq!(
                db.route(net).tree.sink_node.len(),
                d.netlist.sinks(net).len()
            );
        }
    }

    #[test]
    fn injected_budget_exhaustion_is_reported_not_fatal() {
        use gnnmls_faults::{install, FaultPlan, FaultSite};
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let guard = install(&FaultPlan::single(FaultSite::RouteBudgetExhausted, 5));
        let (db, _) = route_design(
            &d.netlist,
            &p,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig::default(),
        )
        .unwrap();
        drop(guard);
        assert!(
            db.summary.pattern_fallback_sinks >= 1,
            "injected exhaustion must surface as a recorded downgrade"
        );
    }

    /// A deliberately congested design: 48 two-pin nets pinched through
    /// the same pair of g-cells, far more demand than any layer stack
    /// can carry, so rip-up rounds are guaranteed to find victims.
    fn pinched_design() -> (gnnmls_netlist::Netlist, gnnmls_phys::Placement) {
        use gnnmls_netlist::tech::TechNode;
        use gnnmls_netlist::{CellLibrary, NetlistBuilder, Tier};
        use gnnmls_phys::place::Point;
        use gnnmls_phys::{Floorplan, Placement};

        let lib = CellLibrary::for_node(&TechNode::n16());
        let mut b = NetlistBuilder::new("pinch");
        let mut locs = Vec::new();
        for i in 0..48 {
            let a = b
                .add_cell(format!("a{i}"), lib.expect("PI"), Tier::Logic)
                .unwrap();
            let z = b
                .add_cell(format!("z{i}"), lib.expect("PO"), Tier::Logic)
                .unwrap();
            let n = b.add_net(format!("n{i}")).unwrap();
            b.connect_output(n, a, 0).unwrap();
            b.connect_input(n, z, 0).unwrap();
            locs.push(Point::new(2.0, 20.0));
            locs.push(Point::new(38.0, 20.0));
        }
        let netlist = b.finish().unwrap();
        let fp = Floorplan {
            width_um: 40.0,
            height_um: 40.0,
        };
        (netlist, Placement::from_locations(locs, fp))
    }

    #[test]
    fn injected_unroutable_net_is_isolated_in_ripup() {
        use gnnmls_faults::{install, FaultPlan, FaultSite};
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let (netlist, placement) = pinched_design();
        // Every injected reroute failure must restore the victim's old
        // route and be counted, not abort the round.
        let guard = install(&FaultPlan::single(FaultSite::UnroutableNet, 3));
        let (db, _) = route_design(
            &netlist,
            &placement,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig {
                target_gcells: 64,
                ripup_rounds: 2,
                ..RouteConfig::default()
            },
        )
        .unwrap();
        drop(guard);
        assert_eq!(
            db.summary.isolated_failures, 3,
            "all injected reroute failures must be isolated and counted"
        );
        for net in netlist.net_ids() {
            assert_eq!(
                db.route(net).tree.sink_node.len(),
                netlist.sinks(net).len(),
                "isolated nets keep their previous complete route"
            );
        }
    }

    #[test]
    fn ripup_victims_survive_reroute_without_faults() {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let (netlist, placement) = pinched_design();
        let (db, _) = route_design(
            &netlist,
            &placement,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig {
                target_gcells: 64,
                ripup_rounds: 2,
                ..RouteConfig::default()
            },
        )
        .unwrap();
        assert_eq!(db.summary.isolated_failures, 0);
        // Demand exceeds physical capacity, so overflow survives rip-up;
        // what matters is that every net still connects.
        assert!(db.summary.overflowed_nets > 0);
        for net in netlist.net_ids() {
            assert_eq!(db.route(net).tree.sink_node.len(), netlist.sinks(net).len());
        }
    }

    #[test]
    fn commit_reroute_isolates_injected_failure() {
        use gnnmls_faults::{install, FaultPlan, FaultSite};
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let mut router = Router::new(
            &d.netlist,
            &p,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig::default(),
        )
        .unwrap();
        router.route_all().unwrap();
        let net = d.netlist.net_ids().next().unwrap();
        let before = router.db().unwrap().route(net).clone();
        let guard = install(&FaultPlan::single(FaultSite::UnroutableNet, 1));
        let applied = router.commit_reroute(net, MlsOverride::Allow).unwrap();
        drop(guard);
        assert!(!applied, "injected failure must keep the old route");
        let after = router.db().unwrap();
        assert_eq!(&before, after.route(net));
        assert_eq!(after.summary.isolated_failures, 1);
    }

    #[test]
    fn builder_round_trips_and_validates() {
        // Defaults pass validation and equal Default.
        assert_eq!(
            RouteConfig::builder().build().unwrap(),
            RouteConfig::default()
        );
        // Setters land on the right fields.
        let cfg = RouteConfig::builder()
            .target_gcells(24)
            .ripup_rounds(3)
            .max_expansions(1000)
            .threads(2)
            .via_cost(2.5)
            .build()
            .unwrap();
        assert_eq!(cfg.target_gcells, 24);
        assert_eq!(cfg.ripup_rounds, 3);
        assert_eq!(cfg.max_expansions, 1000);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.via_cost, 2.5);
        // to_builder reproduces the source config.
        assert_eq!(cfg.to_builder().build().unwrap(), cfg);
        assert_eq!(cfg.clone().with_threads(7).threads, 7);
        // Each invalid field is named in the error.
        let cases: [(RouteConfigBuilder, &str); 5] = [
            (RouteConfig::builder().target_gcells(1), "target_gcells"),
            (
                RouteConfig::builder().pdn_top_util_logic(1.0),
                "pdn_top_util_logic",
            ),
            (
                RouteConfig::builder().pdn_top_util_memory(-0.1),
                "pdn_top_util_memory",
            ),
            (RouteConfig::builder().via_cost(f64::NAN), "via_cost"),
            (RouteConfig::builder().max_expansions(0), "max_expansions"),
        ];
        for (builder, field) in cases {
            let err = builder.build().unwrap_err();
            assert_eq!(err.field, field);
            assert!(err.to_string().contains(field));
        }
    }

    #[test]
    fn routing_records_expansion_metrics() {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        let searches_before = super::ASTAR_SEARCHES.get();
        let expansions_before = super::ASTAR_EXPANSIONS.get();
        let (db, _) = route_design(
            &d.netlist,
            &p,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig::default(),
        )
        .unwrap();
        assert!(!db.nets.is_empty());
        assert!(
            super::ASTAR_SEARCHES.get() > searches_before,
            "routing must count searches"
        );
        assert!(
            super::ASTAR_EXPANSIONS.get() > expansions_before,
            "routing must count expansions"
        );
    }
}
