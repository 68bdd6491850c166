//! The two flow workloads: one `run_flow` call per measurement, and a
//! traced replay of the same flow through each layer's public calls.

use std::collections::HashSet;
use std::thread;
use std::time::{Duration, Instant};

use gnn_mls::flow::{run_flow, FlowConfig, FlowError, FlowPolicy};
use gnn_mls::paths::extract_path_samples_par;
use gnn_mls::session::{build_design, build_tech};
use gnn_mls::{check_report, check_routes, label_paths, FlowReport, GnnMls};
use gnnmls_netlist::generators::GeneratedDesign;
use gnnmls_netlist::{NetId, Tier};
use gnnmls_pdn::ir::size_for_budget;
use gnnmls_pdn::{insert_level_shifters, PowerConfig, PowerReport};
use gnnmls_phys::{insert_repeaters, place};
use gnnmls_route::{AuditMode, MlsPolicy, Router};
use gnnmls_sta::{analyze, StaConfig};

use crate::stats::{self, median};
use crate::{Args, Outcome};

/// Target clock of both flow workloads, MHz.
const FREQ_MHZ: f64 = 2500.0;
/// A set-up burst generates the design for at least `SETUP_BURST` and
/// at least `BURST_MIN` times. One burst runs before the flows and one
/// after each flow call; more follow, `SETUP_GAP` apart, until the run
/// has `BURSTS` of them.
const SETUP_BURST: Duration = Duration::from_millis(500);
const BURST_MIN: usize = 11;
const BURSTS: usize = 4;
const SETUP_GAP: Duration = Duration::from_millis(2500);

#[derive(Clone, Copy)]
pub enum Kind {
    /// `maeri64`, GNN-MLS: dominated by oracle + model training.
    Gnn,
    /// `noc8x8`, No-MLS: dominated by the router.
    Route,
}

impl Kind {
    fn design(self) -> &'static str {
        match self {
            Kind::Gnn => "maeri64",
            Kind::Route => "noc8x8",
        }
    }

    fn policy(self) -> FlowPolicy {
        match self {
            Kind::Gnn => FlowPolicy::GnnMls,
            Kind::Route => FlowPolicy::NoMls,
        }
    }
}

/// Generates a suite design by name.
fn generate(design: &str) -> Result<GeneratedDesign, String> {
    let tech = build_tech("hetero", design).ok_or("unknown tech")?;
    build_design(design, &tech).ok_or_else(|| format!("generating {design}"))
}

/// Design generation, timed in bursts spread over the run; `setup_s` is
/// the fastest generation of all bursts. On a shared 2-vCPU VM one
/// `maeri64` generation takes ~3.2 ms or ~5–6.5 ms (`noc8x8` ~7.4 or
/// ~13 ms) depending on host regimes that last several seconds and are
/// not steal time, so a burst's median follows the regime it fell in.
/// Contention only adds time; the fastest generation of bursts seconds
/// apart is what repeats. Timed beside a running flow, a generation
/// took 1.5–2.7x as long, so bursts run only between flow calls.
struct Setup {
    kind: Kind,
    bursts: usize,
    fastest: f64,
}

impl Setup {
    /// Runs one burst; returns its last design.
    fn burst(&mut self) -> Result<GeneratedDesign, String> {
        let start = Instant::now();
        let mut runs = 0;
        self.bursts += 1;
        loop {
            let t0 = Instant::now();
            let d = generate(self.kind.design())?;
            self.fastest = self.fastest.min(t0.elapsed().as_secs_f64());
            runs += 1;
            if runs >= BURST_MIN && start.elapsed() >= SETUP_BURST {
                return Ok(std::hint::black_box(d));
            }
        }
    }
}

/// The QoR fields every run of the same code must reproduce bit for bit.
fn fingerprint(r: &FlowReport) -> String {
    let f1 = r.train.as_ref().map(|t| t.eval_metrics.f1());
    format!(
        "wns={:?} tns={:?} wl={:?} mls={} f2f={} vio={} power={:?} ir={:?} f1={f1:?}",
        r.wns_ps,
        r.tns_ns,
        r.wirelength_m,
        r.mls_nets,
        r.f2f_pads,
        r.violating_paths,
        r.power_mw,
        r.ir_drop_pct
    )
}

/// Compares a fingerprint with the one an earlier run of the same
/// workload on the same sources recorded, recording it if new. The key
/// holds the source digest, so a change that moves the QoR starts a
/// ledger line of its own instead of contradicting its parent's.
fn ledger_check(args: &Args, fp: &str) -> Result<(), String> {
    let dir = crate::results_dir();
    let path = dir.join("fingerprints.txt");
    let (_, src) = crate::revision();
    let key = format!("{}\t{src}", args.workload);
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    for line in text.lines() {
        if let Some(prev) = line.strip_prefix(&key).and_then(|r| r.strip_prefix('\t')) {
            return if prev == fp {
                Ok(())
            } else {
                Err(format!("QoR differs from an earlier run: {prev} vs {fp}"))
            };
        }
    }
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(&path, format!("{text}{key}\t{fp}\n"));
    Ok(())
}

/// Output checks on one flow report.
fn check_flow(out: &mut Outcome, kind: Kind, design: &GeneratedDesign, r: &FlowReport) {
    let policy = kind.policy();
    if let Err(e) = check_report(r, design.netlist.name(), policy) {
        out.check(false, || format!("report audit: {e}"));
    }
    out.check(!r.degradation.model_fallback, || {
        "degradation.model_fallback is set".into()
    });
    out.check(r.wirelength_m > 0.0 && r.endpoints > 0, || {
        format!(
            "empty result: wl {} endpoints {}",
            r.wirelength_m, r.endpoints
        )
    });
    if let Kind::Gnn = kind {
        let trained = r.train.as_ref().is_some_and(|t| t.oracle.paths > 0);
        out.check(trained && r.mls_nets > 0, || {
            format!("GNN-MLS made no decisions (mls_nets {})", r.mls_nets)
        });
    } else {
        out.check(r.mls_nets == 0, || {
            format!("No-MLS routed {} MLS nets", r.mls_nets)
        });
    }
}

/// The flows' thread knob. With 2 threads the speculative rip-up makes
/// `noc8x8` wall time swing by ~15% from run to run on a 2-core box, and
/// is no faster; with 1 it repeats within ~2%. Training is serial either
/// way.
pub const FLOW_THREADS: usize = 1;

/// The full flow configuration. The flows take no input from the
/// workload seed: other placements (`PlaceConfig::seed`) change the work
/// itself by ~10% (maeri64 29.9–33.8 s over four placement seeds on a
/// 2-vCPU VM) and other generator seeds by up to 4x (a seed-1 `noc8x8`
/// has no rip-up pressure), far beyond the run-to-run noise a regression
/// bound must sit above.
fn flow_config() -> FlowConfig {
    FlowConfig::new(FREQ_MHZ).with_threads(FLOW_THREADS)
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let cfg = flow_config();
    let mut out = Outcome::default();
    if args.trace {
        let design = generate(kind.design())?;
        traced(kind, &design, &cfg, &mut out)?;
        return Ok(out);
    }
    let mut setup = Setup {
        kind,
        bursts: 0,
        fastest: f64::INFINITY,
    };
    let design = setup.burst()?;

    // Repeat the flow until the measurement window is spent in flow
    // calls (at least once); every repeat must reproduce the first report
    // exactly. A set-up burst follows each call.
    let mut flow_s = 0.0;
    let mut walls = Vec::new();
    let mut first: Option<FlowReport> = None;
    while walls.is_empty() || flow_s < args.seconds.as_secs_f64() {
        out.attempted += 1;
        let t0 = Instant::now();
        let r = run_flow(&design, &cfg, kind.policy());
        let wall = t0.elapsed().as_secs_f64();
        flow_s += wall;
        setup.burst()?;
        match r {
            Ok(r) => {
                walls.push(wall);
                check_flow(&mut out, kind, &design, &r);
                match &first {
                    None => first = Some(r),
                    Some(f) => {
                        let (a, b) = (fingerprint(f), fingerprint(&r));
                        out.check(a == b, || format!("repeat run differs: {a} vs {b}"));
                    }
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: run_flow failed: {e}");
                if out.failed >= 2 {
                    break;
                }
            }
        }
    }
    while setup.bursts < BURSTS {
        thread::sleep(SETUP_GAP);
        setup.burst()?;
    }
    let Some(r) = first else {
        return Err("every run_flow call failed".into());
    };
    let fp = fingerprint(&r);
    if let Err(e) = ledger_check(args, &fp) {
        out.check(false, || e);
    }

    let total: f64 = walls.iter().sum();
    let sorted = stats::sorted(&walls);
    out.set("setup_s", setup.fastest);
    out.set("peak_rss_mb", stats::peak_rss_mb("self")?);
    out.set("p50_ms", stats::percentile(&sorted, 0.5) * 1e3);
    out.set("rps", walls.len() as f64 / total);

    out.note("flow_wall_s", median(&walls), "s");
    out.note("flow_wall_max_s", sorted[sorted.len() - 1], "s");
    out.note("flow_calls", walls.len() as f64, "count");
    out.note("wns_ps", r.wns_ps, "ps");
    out.note("tns_ns", r.tns_ns, "ns");
    out.note("wirelength_m", r.wirelength_m, "m");
    out.note("mls_nets", r.mls_nets as f64, "count");
    out.note("f2f_pads", r.f2f_pads as f64, "count");
    if let Some(t) = &r.train {
        out.note("heldout_f1", t.eval_metrics.f1(), "ratio");
    }
    out.note(
        "failed_frac",
        out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    Ok(out)
}

/// Per-layer timings collected by the replay.
struct Layers<'a>(&'a mut Outcome);

impl Layers<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let v = f();
        self.0.set(name, t0.elapsed().as_secs_f64());
        v
    }
}

/// Leaf stages of the replay (their sum is `flow.traced_s`).
const LEAVES: &[&str] = &[
    "phys.place_s",
    "pdn.level_shifters_s",
    "phys.repeaters_s",
    "route.baseline_s",
    "sta.baseline_s",
    "paths.extract_s",
    "oracle.label_s",
    "model.pretrain_s",
    "model.finetune_s",
    "model.evaluate_s",
    "model.decide_s",
    "route.new_s",
    "route.route_all_s",
    "route.db_s",
    "audit.routes_s",
    "sta.final_s",
    "pdn.power_s",
    "pdn.ir_s",
];

/// The router's obs counters, read from the registry exposition.
fn route_counters() -> [f64; 3] {
    let text = gnnmls_obs::render();
    [
        "gnnmls_route_astar_searches_total",
        "gnnmls_route_astar_expansions_total",
        "gnnmls_route_ripup_rounds_total",
    ]
    .map(|s| stats::exposition_value(&text, s))
}

/// The QoR the replay reproduces, in `FlowReport` terms.
struct Replayed {
    wns_ps: f64,
    tns_ns: f64,
    wirelength_m: f64,
    mls_nets: usize,
    f2f_pads: usize,
    violating_paths: usize,
    power_mw: f64,
    ir_drop_pct: f64,
    f1: Option<f64>,
}

/// `run_flow` replayed stage by stage through public calls, each timed
/// from outside (the flow's own order and arguments; DFT is off).
fn replay(
    design: &GeneratedDesign,
    cfg: &FlowConfig,
    policy: FlowPolicy,
    l: &mut Layers<'_>,
) -> Result<Replayed, FlowError> {
    let tech = &design.tech;
    let sta_cfg = StaConfig::from_freq_mhz(cfg.target_freq_mhz);
    let mut netlist = design.netlist.clone();
    let mut placement = l.time("phys.place_s", || place(&netlist, &cfg.place))?;
    let ls = l.time("pdn.level_shifters_s", || {
        insert_level_shifters(&mut netlist, &mut placement, tech)
    })?;
    l.time("phys.repeaters_s", || {
        insert_repeaters(&mut netlist, &mut placement, tech, &cfg.repeaters)
    })?;

    let mut f1 = None;
    let route_policy = match policy {
        FlowPolicy::NoMls => MlsPolicy::Disabled,
        FlowPolicy::Sota => MlsPolicy::sota(),
        FlowPolicy::GnnMls => {
            let t0 = Instant::now();
            // Baseline route + STA.
            let (router, routes) = l.time("route.baseline_s", || {
                let mut r = Router::new(
                    &netlist,
                    &placement,
                    tech,
                    MlsPolicy::Disabled,
                    cfg.route_cfg(),
                )?;
                r.route_all()?;
                let db = r.db()?;
                Ok::<_, FlowError>((r, db))
            })?;
            let baseline = l.time("sta.baseline_s", || analyze(&netlist, &routes, sta_cfg))?;
            let total = baseline.endpoint_count();
            let infer_k = cfg.inference_paths.min(total);
            let mut infer = l.time("paths.extract_s", || {
                extract_path_samples_par(
                    &netlist,
                    &placement,
                    tech,
                    &baseline,
                    infer_k,
                    cfg.threads,
                )
            });
            let nodes: usize = infer.iter().map(|s| s.len()).sum();
            l.0.set("paths.samples", infer.len() as f64);
            l.0.set("paths.nodes", nodes as f64);

            let train_k = cfg.train_paths.min(total);
            let eval_k = cfg.eval_paths.min(total.saturating_sub(train_k));
            let mut labeled: Vec<_> = infer.iter().take(train_k + eval_k).cloned().collect();
            let stats = l.time("oracle.label_s", || {
                label_paths(&mut labeled, &netlist, &router, &routes, &cfg.oracle)
            })?;
            l.0.set("oracle.what_ifs", stats.what_ifs as f64);
            let labels = (stats.positive + stats.negative).max(1);
            l.0.set(
                "oracle.positive_frac",
                stats.positive as f64 / labels as f64,
            );
            let (train_set, eval_set) = labeled.split_at(train_k);

            let mut model = GnnMls::new(cfg.model.clone());
            model.set_threads(cfg.threads);
            l.time("model.pretrain_s", || model.pretrain(&infer))?;
            l.time("model.finetune_s", || model.finetune(train_set))?;
            let eval = l.time("model.evaluate_s", || {
                if eval_set.is_empty() {
                    Ok(Default::default())
                } else {
                    model.evaluate(eval_set)
                }
            })?;
            f1 = Some(eval.f1());
            let per_node_epoch = |stage: &str, nodes: usize, epochs: usize| {
                l_get(l, stage) * 1e6 / (nodes * epochs).max(1) as f64
            };
            let train_nodes: usize = train_set.iter().map(|s| s.len()).sum();
            let pre = per_node_epoch("model.pretrain_s", nodes, cfg.model.pretrain_epochs);
            let fine = per_node_epoch("model.finetune_s", train_nodes, cfg.model.finetune_epochs);
            l.0.set("model.pretrain_us_per_node_epoch", pre);
            l.0.set("model.finetune_us_per_node_epoch", fine);

            infer.truncate(infer_k);
            let mut selected: HashSet<NetId> = l
                .time("model.decide_s", || model.decide(&infer))?
                .into_iter()
                .collect();
            for s in &labeled {
                if s.path.slack_ps >= 0.0 {
                    continue;
                }
                if let Some(lab) = &s.labels {
                    for (i, &net) in s.nets.iter().enumerate() {
                        if lab[i] {
                            selected.insert(net);
                        }
                    }
                }
            }
            l.0.set("decisions_s", t0.elapsed().as_secs_f64());
            MlsPolicy::per_net_from(&netlist, selected)
        }
    };

    // Final route.
    let mut router = l.time("route.new_s", || {
        Router::new(
            &netlist,
            &placement,
            tech,
            route_policy.clone(),
            cfg.route_cfg(),
        )
    })?;
    let before = route_counters();
    l.time("route.route_all_s", || router.route_all())?;
    let after = route_counters();
    let routes = l.time("route.db_s", || router.db())?;
    let grid = router.grid().clone();
    drop(router);
    l.0.set("route.astar_searches", after[0] - before[0]);
    l.0.set("route.astar_expansions", after[1] - before[1]);
    l.0.set("route.ripup_rounds", after[2] - before[2]);
    let expansions_per_s = (after[1] - before[1]) / l_get(l, "route.route_all_s");
    l.0.set("route.expansions_per_s", expansions_per_s);
    l.0.set("route.mls_nets", routes.summary.mls_net_count as f64);
    l.0.set(
        "route.pattern_fallback_sinks",
        routes.summary.pattern_fallback_sinks as f64,
    );
    l.0.set(
        "route.overflowed_nets",
        routes.summary.overflowed_nets as f64,
    );

    l.time("audit.routes_s", || {
        check_routes(
            &netlist,
            &grid,
            &route_policy,
            &routes,
            AuditMode::Full,
            "routes",
        )
    })?;
    let timing = l.time("sta.final_s", || analyze(&netlist, &routes, sta_cfg))?;
    let power = l.time("pdn.power_s", || {
        PowerReport::compute(
            &netlist,
            &routes,
            tech,
            &PowerConfig {
                activity: cfg.activity,
                freq_mhz: cfg.target_freq_mhz,
            },
        )
    });
    let ir_drop_pct = l.time("pdn.ir_s", || {
        Tier::BOTH
            .iter()
            .map(|&tier| {
                let (_, rep) = size_for_budget(
                    placement.floorplan(),
                    tech,
                    tier,
                    &netlist,
                    &placement,
                    &power,
                    tech.min_vdd(),
                    cfg.ir_budget_pct,
                    cfg.pdn_pitch_um,
                );
                rep.pct_of_vdd
            })
            .fold(0.0f64, f64::max)
    });
    Ok(Replayed {
        wns_ps: timing.wns_ps(),
        tns_ns: timing.tns_ns(),
        wirelength_m: routes.summary.total_wirelength_m,
        mls_nets: routes.summary.mls_net_count,
        f2f_pads: routes.summary.f2f_pads,
        violating_paths: timing.violating_endpoints(),
        power_mw: power.total_mw + ls.power_mw,
        ir_drop_pct,
        f1,
    })
}

fn l_get(l: &Layers<'_>, name: &str) -> f64 {
    l.0.metrics.get(name).copied().unwrap_or(0.0)
}

/// The traced run: one untraced `run_flow` as the reference, then the
/// timed replay, which must reproduce the reference report exactly.
fn traced(
    kind: Kind,
    design: &GeneratedDesign,
    cfg: &FlowConfig,
    out: &mut Outcome,
) -> Result<(), String> {
    out.attempted = 2;
    let t0 = Instant::now();
    let reference = run_flow(design, cfg, kind.policy()).map_err(|e| format!("run_flow: {e}"))?;
    let untraced = t0.elapsed();
    check_flow(out, kind, design, &reference);

    let t1 = Instant::now();
    let replayed = replay(design, cfg, kind.policy(), &mut Layers(out));
    let traced_wall = t1.elapsed();
    let r = replayed.map_err(|e| format!("replay: {e}"))?;
    let matches = r.wns_ps.to_bits() == reference.wns_ps.to_bits()
        && r.tns_ns.to_bits() == reference.tns_ns.to_bits()
        && r.wirelength_m.to_bits() == reference.wirelength_m.to_bits()
        && r.mls_nets == reference.mls_nets
        && r.f2f_pads == reference.f2f_pads
        && r.violating_paths == reference.violating_paths
        && r.power_mw.to_bits() == reference.power_mw.to_bits()
        && Some(r.ir_drop_pct) == reference.ir_drop_pct
        && r.f1 == reference.train.as_ref().map(|t| t.eval_metrics.f1());
    if !matches {
        // Stale per-layer rows, not a failed run: the replay no longer
        // mirrors `run_flow`, so its stage split may not describe it.
        eprintln!(
            "perfbench: replay diverged from run_flow (wns {} vs {}, mls {} vs {}, wl {} vs {})",
            r.wns_ps,
            reference.wns_ps,
            r.mls_nets,
            reference.mls_nets,
            r.wirelength_m,
            reference.wirelength_m
        );
    }
    let traced_s: f64 = LEAVES
        .iter()
        .map(|n| out.metrics.get(n).copied().unwrap_or(0.0))
        .sum();
    let wall = traced_wall.as_secs_f64();
    out.set("flow.traced_s", traced_s);
    out.set("flow.unattributed_frac", 1.0 - traced_s / wall);
    out.set("flow.trace_matches", f64::from(u8::from(matches)));
    out.set(
        "flow.trace_overhead_frac",
        wall / untraced.as_secs_f64() - 1.0,
    );
    out.note("flow_wall_s", untraced.as_secs_f64(), "s");
    out.note("replay_wall_s", wall, "s");
    Ok(())
}
