//! The iterative-STA label oracle.
//!
//! Ground truth for "does MLS help this net?" requires the procedure the
//! paper calls computationally prohibitive at scale: disconnect the net,
//! re-route it with MLS allowed, re-extract RC, and re-evaluate the
//! path's slack (Section II-B). The oracle runs exactly that — via
//! [`gnnmls_route::Router::what_if`] (detached re-route) and
//! [`gnnmls_sta::TimingPath::slack_with`] (path-local slack, eq. (1)) —
//! on a *budgeted* sample of paths, which is what makes training labels
//! affordable while the learned model generalizes to the rest.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use gnnmls_netlist::{NetId, Netlist};
use gnnmls_route::router::MlsOverride;
use gnnmls_route::{NetRoute, RouteDb, Router};

use crate::flow::FlowError;
use crate::paths::PathSample;

/// Oracle parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Minimum path-slack gain (ps) for a positive MLS label.
    pub gain_threshold_ps: f64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            gain_threshold_ps: 0.5,
        }
    }
}

/// Labeling statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleStats {
    /// Paths labeled.
    pub paths: usize,
    /// Positive (MLS helps) node labels.
    pub positive: usize,
    /// Negative node labels.
    pub negative: usize,
    /// Detached what-if re-routes performed (cache misses).
    pub what_ifs: usize,
}

/// The single-net what-if both [`label_paths`] and [`net_mls_impact`]
/// run: every distinct eligible net of `samples`, in first-occurrence
/// order, with the index of the first sample that carries it and its
/// detached re-route with MLS allowed. The re-routes fan out on
/// [`gnnmls_route::RouteConfig::threads`] workers (read from the
/// router's config) against the same committed state, so the result is
/// bit-identical for any thread count.
fn what_ifs(
    samples: &[PathSample],
    router: &Router<'_>,
) -> Result<Vec<(NetId, usize, NetRoute)>, FlowError> {
    let mut order: Vec<(NetId, usize)> = Vec::new();
    let mut seen: HashSet<NetId> = HashSet::new();
    for (s, sample) in samples.iter().enumerate() {
        for (&net, &eligible) in sample.nets.iter().zip(&sample.eligible) {
            if eligible && seen.insert(net) {
                order.push((net, s));
            }
        }
    }
    let routes = gnnmls_par::recovering_par_map_with(
        router.config().threads,
        order.len(),
        || router.scratch(),
        |scratch, i| router.what_if(scratch, order[i].0, MlsOverride::Allow),
    )?;
    order
        .into_iter()
        .zip(routes)
        .map(|((net, s), route)| Ok((net, s, route?)))
        .collect()
}

/// Labels each sample's nodes with the iterative-STA ground truth.
///
/// Each distinct eligible net is what-if re-routed once, concurrently on
/// [`gnnmls_route::RouteConfig::threads`] workers (read from the
/// router's config), and shared by every path that carries it. The slack
/// deltas are then evaluated serially: they cost a few percent of the
/// re-routes. Labels, counts and what-if routes are bit-identical for
/// any thread count.
///
/// # Errors
///
/// Returns [`FlowError::Route`] if a what-if re-route fails,
/// [`FlowError::InconsistentPath`] if a sample's path disagrees with the
/// route database, and [`FlowError::Par`] only if a worker panic
/// reproduces on the serial retry.
pub fn label_paths(
    samples: &mut [PathSample],
    netlist: &Netlist,
    router: &Router<'_>,
    routes: &RouteDb,
    cfg: &OracleConfig,
) -> Result<OracleStats, FlowError> {
    let what_ifs = what_ifs(samples, router)?;
    let mut stats = OracleStats {
        what_ifs: what_ifs.len(),
        ..OracleStats::default()
    };
    let cache: HashMap<NetId, NetRoute> = what_ifs
        .into_iter()
        .map(|(net, _, route)| (net, route))
        .collect();
    for sample in samples.iter_mut() {
        let slack = |subs: &HashMap<NetId, &NetRoute>| {
            sample
                .path
                .slack_with(netlist, routes, subs)
                .ok_or(FlowError::InconsistentPath)
        };
        let base_slack = slack(&HashMap::new())?;
        let mut labels = Vec::with_capacity(sample.len());
        for (&net, &eligible) in sample.nets.iter().zip(&sample.eligible) {
            if !eligible {
                labels.push(false);
                continue;
            }
            let cand = &cache[&net];
            let gain = slack(&HashMap::from([(net, cand)]))? - base_slack;
            let is_pos = cand.is_mls && gain > cfg.gain_threshold_ps;
            if is_pos {
                stats.positive += 1;
            } else {
                stats.negative += 1;
            }
            labels.push(is_pos);
        }
        sample.labels = Some(labels);
        stats.paths += 1;
    }
    Ok(stats)
}

/// Single-net MLS impact (the Table I experiment): before/after slack and
/// metal usage when one net is re-routed with MLS forced on.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetImpact {
    /// The net.
    pub net: NetId,
    /// Its instance name.
    pub name: String,
    /// Worst path slack through it before MLS, ps.
    pub slack_before_ps: f64,
    /// The same path's slack with the net re-routed under MLS, ps.
    pub slack_after_ps: f64,
    /// Die-local metal bitmasks used before: (logic, memory).
    pub metals_before: (u16, u16),
    /// Metal bitmasks used after.
    pub metals_after: (u16, u16),
}

impl NetImpact {
    /// Slack gain (positive = MLS helps).
    pub fn gain_ps(&self) -> f64 {
        self.slack_after_ps - self.slack_before_ps
    }

    /// Formats a metal mask pair like the paper ("M1-6(bot)+M5-6(top)").
    pub fn metals_str(masks: (u16, u16)) -> String {
        fn span(mask: u16) -> Option<(u8, u8)> {
            if mask == 0 {
                return None;
            }
            let lo = mask.trailing_zeros() as u8 + 1;
            let hi = 16 - mask.leading_zeros() as u8;
            Some((lo, hi))
        }
        let mut parts = Vec::new();
        if let Some((lo, hi)) = span(masks.0) {
            parts.push(if lo == hi {
                format!("M{lo}(bot)")
            } else {
                format!("M{lo}-{hi}(bot)")
            });
        }
        if let Some((lo, hi)) = span(masks.1) {
            parts.push(if lo == hi {
                format!("M{lo}(top)")
            } else {
                format!("M{lo}-{hi}(top)")
            });
        }
        if parts.is_empty() {
            "-".into()
        } else {
            parts.join("+")
        }
    }
}

/// Evaluates single-net MLS impact for every distinct eligible net on
/// the given paths, each against the first path that carries it, sorted
/// by gain (most-helped first).
///
/// # Errors
///
/// Returns [`FlowError::Route`] if a what-if re-route fails and
/// [`FlowError::InconsistentPath`] if a sample's path disagrees with
/// the route database.
pub fn net_mls_impact(
    samples: &[PathSample],
    netlist: &Netlist,
    router: &Router<'_>,
    routes: &RouteDb,
    grid: &gnnmls_route::RoutingGrid,
) -> Result<Vec<NetImpact>, FlowError> {
    let slack = |s: usize, subs: &HashMap<NetId, &NetRoute>| {
        samples[s]
            .path
            .slack_with(netlist, routes, subs)
            .ok_or(FlowError::InconsistentPath)
    };
    let mut v = what_ifs(samples, router)?
        .into_iter()
        .map(|(net, s, cand)| {
            Ok(NetImpact {
                net,
                name: netlist.net(net).name.clone(),
                slack_before_ps: slack(s, &HashMap::new())?,
                slack_after_ps: slack(s, &HashMap::from([(net, &cand)]))?,
                metals_before: routes.route(net).tree.used_layers(grid),
                metals_after: cand.tree.used_layers(grid),
            })
        })
        .collect::<Result<Vec<_>, FlowError>>()?;
    v.sort_by(|a, b| b.gain_ps().total_cmp(&a.gain_ps()).then(a.net.cmp(&b.net)));
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::extract_path_samples;
    use gnnmls_netlist::generators::{generate_maeri, MaeriConfig};
    use gnnmls_netlist::tech::TechConfig;
    use gnnmls_phys::{place, PlaceConfig, Placement};
    use gnnmls_route::{MlsPolicy, RouteConfig};
    use gnnmls_sta::{analyze, StaConfig};

    fn setup() -> (gnnmls_netlist::Netlist, Placement, TechConfig) {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        let p = place(&d.netlist, &PlaceConfig::default()).unwrap();
        (d.netlist, p, tech)
    }

    #[test]
    fn oracle_labels_every_node_and_state_is_preserved() {
        let (netlist, placement, tech) = setup();
        let mut router = Router::new(
            &netlist,
            &placement,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig::default(),
        )
        .unwrap();
        router.route_all().unwrap();
        let routes = router.db().unwrap();
        let rep = analyze(&netlist, &routes, StaConfig::from_freq_mhz(2500.0)).unwrap();
        let mut samples = extract_path_samples(&netlist, &placement, &tech, &rep, 30);
        let stats = label_paths(
            &mut samples,
            &netlist,
            &router,
            &routes,
            &OracleConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.paths, 30);
        assert!(stats.positive + stats.negative > 0);
        for s in &samples {
            let l = s.labels.as_ref().unwrap();
            assert_eq!(l.len(), s.len());
            // Ineligible nodes are always negative.
            for (i, &e) in s.eligible.iter().enumerate() {
                if !e {
                    assert!(!l[i]);
                }
            }
        }
        // What-if caching: no more what-ifs than distinct eligible nets.
        let distinct: std::collections::HashSet<_> = samples
            .iter()
            .flat_map(|s| {
                s.nets
                    .iter()
                    .zip(&s.eligible)
                    .filter(|(_, &e)| e)
                    .map(|(&n, _)| n)
            })
            .collect();
        assert!(stats.what_ifs <= distinct.len());
        // Router state unchanged by the oracle.
        let routes2 = router.db().unwrap();
        assert_eq!(routes.summary, routes2.summary);
    }

    #[test]
    fn net_impact_reports_both_helped_and_hurt_nets() {
        let (netlist, placement, tech) = setup();
        let mut router = Router::new(
            &netlist,
            &placement,
            &tech,
            MlsPolicy::Disabled,
            RouteConfig::default(),
        )
        .unwrap();
        router.route_all().unwrap();
        let routes = router.db().unwrap();
        let rep = analyze(&netlist, &routes, StaConfig::from_freq_mhz(2500.0)).unwrap();
        let samples = extract_path_samples(&netlist, &placement, &tech, &rep, 20);
        let grid = router.grid().clone();
        let impacts = net_mls_impact(&samples, &netlist, &router, &routes, &grid).unwrap();
        assert!(!impacts.is_empty());
        // Sorted descending by gain.
        for w in impacts.windows(2) {
            assert!(w[0].gain_ps() >= w[1].gain_ps() - 1e-9);
        }
        // Every impact row has valid metal strings.
        for i in impacts.iter().take(5) {
            assert!(!NetImpact::metals_str(i.metals_before).is_empty());
        }
    }

    #[test]
    fn labels_identical_across_thread_counts() {
        let (netlist, placement, tech) = setup();
        let run = |threads: usize| {
            let mut router = Router::new(
                &netlist,
                &placement,
                &tech,
                MlsPolicy::Disabled,
                RouteConfig::default().with_threads(threads),
            )
            .unwrap();
            router.route_all().unwrap();
            let routes = router.db().unwrap();
            let rep = analyze(&netlist, &routes, StaConfig::from_freq_mhz(2500.0)).unwrap();
            let mut samples = extract_path_samples(&netlist, &placement, &tech, &rep, 25);
            let stats = label_paths(
                &mut samples,
                &netlist,
                &router,
                &routes,
                &OracleConfig::default(),
            )
            .unwrap();
            let labels: Vec<Vec<bool>> =
                samples.iter().map(|s| s.labels.clone().unwrap()).collect();
            (stats, labels, routes.summary)
        };
        let serial = run(1);
        for threads in [2, 4, 0] {
            let par = run(threads);
            assert_eq!(serial.0, par.0, "OracleStats differ at threads={threads}");
            assert_eq!(serial.1, par.1, "labels differ at threads={threads}");
            assert_eq!(
                serial.2, par.2,
                "RouteDb summary differs at threads={threads}"
            );
        }
    }

    #[test]
    fn metals_str_formats_like_the_paper() {
        assert_eq!(
            NetImpact::metals_str((0b0011_1111, 0b0011_0000)),
            "M1-6(bot)+M5-6(top)"
        );
        assert_eq!(NetImpact::metals_str((0b0000_1111, 0)), "M1-4(bot)");
        assert_eq!(
            NetImpact::metals_str((0b0011_1111, 0b0010_0000)),
            "M1-6(bot)+M6(top)"
        );
        assert_eq!(NetImpact::metals_str((0, 0)), "-");
    }
}
