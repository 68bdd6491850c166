//! The GNN-MLS design flow (Figure 4), end to end:
//!
//! place → (heterogeneous: level-shifter insertion) → baseline route +
//! STA → path extraction → iterative-STA oracle on a budgeted training
//! sample → DGI pretraining + MLP fine-tuning → per-net MLS decisions →
//! targeted routing → STA → (optional) MLS DFT ECO + re-route + coverage
//! → power / PDN sizing / IR-drop.
//!
//! The same entry point runs the two baselines: `No MLS` (sequential-2D)
//! and `SOTA` (region-level sharing), which is how every table of the
//! paper is produced.

use std::collections::HashSet;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use gnnmls_dft::{analyze_coverage, insert_mls_dft, DftMode, ScanChain};
use gnnmls_netlist::generators::GeneratedDesign;
use gnnmls_netlist::graph::GraphError;
use gnnmls_netlist::{NetId, Netlist, NetlistError, Tier};
use gnnmls_pdn::ir::size_for_budget;
use gnnmls_pdn::{insert_level_shifters, LevelShifterReport, PowerConfig, PowerReport};
use gnnmls_phys::{
    insert_repeaters, place, Floorplan, PlaceConfig, PlaceError, Placement, RepeaterConfig,
};
use gnnmls_route::{
    route_design, MlsPolicy, RouteConfig, RouteDb, RouteError, Router, RoutingGrid,
};
use gnnmls_sta::{analyze, StaConfig, StaError};

use crate::checkpoint::{load_stage, save_stage, CheckpointError, ModelCheckpoint};
use crate::model::{GnnMls, ModelConfig, ModelError};
use crate::oracle::{label_paths, OracleConfig};
use crate::paths::{extract_path_samples_par, PathSample};
use crate::report::{DegradationSummary, FlowReport, PdnSummary, TrainSummary};

/// Which MLS strategy the flow applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowPolicy {
    /// Sequential-2D baseline: no sharing.
    NoMls,
    /// Region-level sharing (ref. \[9\]).
    Sota,
    /// The paper's contribution: learned per-net decisions.
    GnnMls,
}

impl FlowPolicy {
    /// Display name matching the paper's column headers.
    pub fn name(self) -> &'static str {
        match self {
            FlowPolicy::NoMls => "No MLS",
            FlowPolicy::Sota => "SOTA",
            FlowPolicy::GnnMls => "GNN-MLS",
        }
    }

    /// The command-line and suite-manifest spelling, which
    /// [`FlowPolicy::from_str`] parses back.
    pub fn cli_name(self) -> &'static str {
        match self {
            FlowPolicy::NoMls => "no-mls",
            FlowPolicy::Sota => "sota",
            FlowPolicy::GnnMls => "gnn-mls",
        }
    }
}

impl FromStr for FlowPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        [FlowPolicy::NoMls, FlowPolicy::Sota, FlowPolicy::GnnMls]
            .into_iter()
            .find(|p| p.cli_name() == s)
            .ok_or_else(|| format!("unknown policy `{s}` (no-mls|sota|gnn-mls)"))
    }
}

/// Flow configuration.
///
/// Construct through [`FlowConfig::new`] / [`FlowConfig::fast_test`]
/// (or [`crate::SessionSpec::flow_config`] for a named run); the struct
/// is `#[non_exhaustive]` so fields can grow without breaking
/// downstream crates. To derive a modified copy, mutate the public
/// fields.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct FlowConfig {
    /// Target clock frequency, MHz.
    pub target_freq_mhz: f64,
    /// Placement knobs.
    pub place: PlaceConfig,
    /// Routing knobs.
    pub route: RouteConfig,
    /// Model hyperparameters.
    pub model: ModelConfig,
    /// Oracle labeling threshold.
    pub oracle: OracleConfig,
    /// Paths labeled for fine-tuning (the paper uses 500 per design).
    pub train_paths: usize,
    /// Extra labeled paths held out for evaluation metrics.
    pub eval_paths: usize,
    /// Paths used for DGI pretraining and decision inference.
    pub inference_paths: usize,
    /// MLS DFT strategy to insert post-route (`None` = skip DFT).
    pub dft: Option<DftMode>,
    /// PDN stripe pitch, µm.
    pub pdn_pitch_um: f64,
    /// IR-drop budget as % of the lowest VDD (the paper uses 10 %).
    pub ir_budget_pct: f64,
    /// Switching activity for the power model.
    pub activity: f64,
    /// Insert level shifters on 3D nets of heterogeneous stacks.
    pub level_shifters: bool,
    /// Repeater insertion (physical synthesis) parameters.
    pub repeaters: RepeaterConfig,
    /// Use a pre-trained model instead of running the oracle + training
    /// (train once on a design family, reuse everywhere; see
    /// [`crate::checkpoint`]).
    pub pretrained: Option<ModelCheckpoint>,
    /// Save the trained model as a JSON checkpoint after training.
    pub save_model: Option<std::path::PathBuf>,
    /// Run the PDN/IR analysis (skippable for timing-only sweeps).
    pub analyze_pdn: bool,
    /// Stage-checkpoint directory: completed stages (`decisions`,
    /// `routes`, `report`, suffixed with the policy) are saved here as
    /// checksummed envelopes and reused on the next run, so an
    /// interrupted flow resumes bit-identically (compare with
    /// [`FlowReport::comparable`]).
    pub resume: Option<PathBuf>,
    /// Worker threads for the flow's parallel phases — the what-if
    /// oracle, speculative rip-up rerouting, path extraction, and model
    /// inference. `0` = all available cores, `1` = fully serial; results
    /// are bit-identical for every value. This flow-level knob is copied
    /// into [`RouteConfig::threads`] wherever the flow builds a router
    /// (overriding whatever `route.threads` holds).
    pub threads: usize,
}

impl FlowConfig {
    /// Paper-like defaults at a target frequency.
    pub fn new(target_freq_mhz: f64) -> Self {
        Self {
            target_freq_mhz,
            place: PlaceConfig::default(),
            route: RouteConfig::default(),
            model: ModelConfig::default(),
            oracle: OracleConfig::default(),
            train_paths: 500,
            eval_paths: 100,
            inference_paths: 3000,
            dft: None,
            pdn_pitch_um: 7.0,
            ir_budget_pct: 10.0,
            activity: 0.15,
            level_shifters: true,
            repeaters: RepeaterConfig::default(),
            pretrained: None,
            save_model: None,
            analyze_pdn: true,
            resume: None,
            threads: 0,
        }
    }

    /// A down-scaled configuration for fast tests.
    pub fn fast_test(target_freq_mhz: f64) -> Self {
        let mut c = Self::new(target_freq_mhz);
        c.train_paths = 40;
        c.eval_paths = 10;
        c.inference_paths = 150;
        c.model.pretrain_epochs = 2;
        c.model.finetune_epochs = 8;
        c.route.target_gcells = 24;
        c.analyze_pdn = false;
        c
    }

    /// Enables MLS DFT insertion.
    pub fn with_dft(mut self, mode: DftMode) -> Self {
        self.dft = Some(mode);
        self
    }

    /// Sets the worker-thread knob (`0` = all cores, `1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The routing config with the flow-level thread knob applied (the
    /// config every router the flow — or the zoo corpus builder —
    /// constructs must use).
    pub fn route_cfg(&self) -> RouteConfig {
        self.route.clone().with_threads(self.threads)
    }
}

/// Errors surfaced by the flow.
#[derive(Debug)]
pub enum FlowError {
    /// Placement failed.
    Place(PlaceError),
    /// Routing setup failed.
    Route(RouteError),
    /// Netlist ECO failed.
    Netlist(NetlistError),
    /// The design has a combinational loop.
    Graph(GraphError),
    /// A pre-trained checkpoint could not be restored.
    Checkpoint(CheckpointError),
    /// Static timing analysis refused (e.g. incomplete route coverage).
    Sta(StaError),
    /// The model refused (untrained, unlabeled, or diverged past its
    /// retry budget).
    Model(ModelError),
    /// A checkpointed path or sample disagrees with the design's
    /// netlist or routes; refusing beats a silently wrong table.
    InconsistentPath,
    /// A worker panic that reproduced on the serial retry.
    Par(gnnmls_par::ParError),
    /// The invariant auditor found a stage output violating the
    /// contracts downstream stages assume (see [`crate::audit`]).
    AuditFailed {
        /// Which stage's output failed the audit.
        stage: String,
        /// How many invariants were violated (capped at a screenful).
        violations: usize,
        /// The first violation, rendered.
        first: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Place(e) => write!(f, "placement: {e}"),
            FlowError::Route(e) => write!(f, "routing: {e}"),
            FlowError::Netlist(e) => write!(f, "netlist eco: {e}"),
            FlowError::Graph(e) => write!(f, "timing graph: {e}"),
            FlowError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            FlowError::Sta(e) => write!(f, "sta: {e}"),
            FlowError::Model(e) => write!(f, "model: {e}"),
            FlowError::InconsistentPath => {
                write!(f, "path sample disagrees with the design's routes")
            }
            FlowError::Par(e) => write!(f, "parallel fan-out: {e}"),
            FlowError::AuditFailed {
                stage,
                violations,
                first,
            } => write!(
                f,
                "audit failed after stage `{stage}`: {violations} violation(s), first: {first}"
            ),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<PlaceError> for FlowError {
    fn from(e: PlaceError) -> Self {
        FlowError::Place(e)
    }
}
impl From<RouteError> for FlowError {
    fn from(e: RouteError) -> Self {
        FlowError::Route(e)
    }
}
impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}
impl From<GraphError> for FlowError {
    fn from(e: GraphError) -> Self {
        FlowError::Graph(e)
    }
}
impl From<CheckpointError> for FlowError {
    fn from(e: CheckpointError) -> Self {
        FlowError::Checkpoint(e)
    }
}
impl From<StaError> for FlowError {
    fn from(e: StaError) -> Self {
        FlowError::Sta(e)
    }
}
impl From<ModelError> for FlowError {
    fn from(e: ModelError) -> Self {
        FlowError::Model(e)
    }
}
impl From<gnnmls_par::ParError> for FlowError {
    fn from(e: gnnmls_par::ParError) -> Self {
        FlowError::Par(e)
    }
}

/// Prepares a design for routing exactly as [`run_flow`] does: clone,
/// place, insert level shifters (heterogeneous stacks), insert repeaters.
/// Exposed for experiments that work below the flow level (Table I's
/// single-net study, Figure 9's PDN maps).
///
/// # Errors
///
/// Returns [`FlowError`] if placement or an ECO fails.
pub fn prepare(
    design: &GeneratedDesign,
    cfg: &FlowConfig,
) -> Result<(Netlist, Placement), FlowError> {
    prepare_reported(design, cfg).map(|(netlist, placement, _)| (netlist, placement))
}

/// [`prepare`], keeping the level-shifter report the flow's power total
/// needs. Each step runs under its own span (`place`, `level_shifters`,
/// `repeaters`).
fn prepare_reported(
    design: &GeneratedDesign,
    cfg: &FlowConfig,
) -> Result<(Netlist, Placement, LevelShifterReport), FlowError> {
    let tech = &design.tech;
    let mut netlist = design.netlist.clone();
    let mut placement = {
        let _s = gnnmls_obs::span("place");
        place(&netlist, &cfg.place)?
    };
    // Level shifters on 3D signals (heterogeneous stacks).
    let ls = {
        let mut s = gnnmls_obs::span("level_shifters");
        let ls = if cfg.level_shifters {
            insert_level_shifters(&mut netlist, &mut placement, tech)?
        } else {
            LevelShifterReport::default()
        };
        s.field_u64("inserted", ls.count as u64);
        ls
    };
    // Physical synthesis: break over-long wires with repeaters.
    {
        let _s = gnnmls_obs::span("repeaters");
        insert_repeaters(&mut netlist, &mut placement, tech, &cfg.repeaters)?;
    }
    Ok((netlist, placement, ls))
}

/// The resumable result of the GNN-MLS learning stage (stage name
/// `decisions-<policy>` in the resume directory).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct DecisionsCheckpoint {
    /// Nets selected for MLS (empty under the heuristic fallback).
    pub(crate) selected: Vec<NetId>,
    /// Training diagnostics (`None` under the heuristic fallback).
    pub(crate) train: Option<TrainSummary>,
    /// Learning wall time, s.
    pub(crate) runtime_s: Option<f64>,
    /// The model or its checkpoint was unusable and the flow degraded
    /// to the heuristic (SOTA) policy.
    pub(crate) model_fallback: bool,
    /// Training epochs retried after a divergence rollback.
    pub(crate) training_retries: u32,
}

/// Loads `stage` from the resume directory if configured and present,
/// otherwise computes it and (if configured) saves it.
fn resume_or<T, F>(cfg: &FlowConfig, stage: &str, compute: F) -> Result<T, FlowError>
where
    T: Serialize + Deserialize,
    F: FnOnce() -> Result<T, FlowError>,
{
    if let Some(dir) = &cfg.resume {
        if let Some(v) = load_stage(dir, stage)? {
            gnnmls_obs::event(
                "checkpoint",
                &[
                    ("stage", gnnmls_obs::FieldValue::from(stage.to_string())),
                    ("action", gnnmls_obs::FieldValue::Str("resume".to_string())),
                ],
            );
            return Ok(v);
        }
    }
    let v = compute()?;
    if let Some(dir) = &cfg.resume {
        save_stage(dir, stage, &v)?;
        gnnmls_obs::event(
            "checkpoint",
            &[
                ("stage", gnnmls_obs::FieldValue::from(stage.to_string())),
                ("action", gnnmls_obs::FieldValue::Str("save".to_string())),
            ],
        );
    }
    Ok(v)
}

/// Runs the full flow on a generated design under one policy.
///
/// With [`FlowConfig::resume`] set, completed stages are checkpointed
/// to disk and reused: a run interrupted after any stage resumes from
/// the last completed one and produces a bit-identical
/// [`FlowReport::comparable`]. A corrupted or truncated stage file
/// surfaces as [`FlowError::Checkpoint`], never a panic.
///
/// # Errors
///
/// Returns [`FlowError`] if any stage fails (all stages succeed for
/// well-formed generated designs).
pub fn run_flow(
    design: &GeneratedDesign,
    cfg: &FlowConfig,
    policy: FlowPolicy,
) -> Result<FlowReport, FlowError> {
    let slug = match policy {
        FlowPolicy::NoMls => "nomls",
        FlowPolicy::Sota => "sota",
        FlowPolicy::GnnMls => "gnnmls",
    };
    let report_stage = format!("report-{slug}");
    if let Some(dir) = &cfg.resume {
        // Fsck the resume directory before trusting anything in it: a
        // crash mid-checkpoint leaves orphan tmps or torn envelopes,
        // and the right response is to quarantine them and recompute
        // the stage — degrade to last-good state, not fail the run.
        let scrub = crate::store::scrub_dir(dir).map_err(CheckpointError::from)?;
        if !scrub.clean() {
            gnnmls_obs::event(
                "checkpoint",
                &[
                    (
                        "action",
                        gnnmls_obs::FieldValue::Str("scrub-repair".to_string()),
                    ),
                    ("repaired", gnnmls_obs::FieldValue::from(scrub.repaired)),
                    (
                        "unrepairable",
                        gnnmls_obs::FieldValue::from(scrub.unrepairable),
                    ),
                ],
            );
        }
        if let Some(report) = load_stage::<FlowReport>(dir, &report_stage)? {
            // A resumed report skips every recomputation below, so prove
            // the envelope describes *this* run before trusting it.
            crate::audit::check_report(&report, design.netlist.name(), policy)?;
            return Ok(report);
        }
    }
    let panics0 = gnnmls_par::recovered_panics();
    let mut degradation = DegradationSummary::default();

    gnnmls_obs::counter_add("gnnmls_flow_runs_total", &[("policy", policy.name())], 1);
    let mut flow_span = gnnmls_obs::span("flow");
    flow_span.field_str("design", design.netlist.name());
    flow_span.field_str("policy", policy.name());

    let tech = &design.tech;
    let sta_cfg = StaConfig::from_freq_mhz(cfg.target_freq_mhz);
    let (mut netlist, mut placement, ls) = prepare_reported(design, cfg)?;

    // Resolve the routing policy; GNN-MLS trains its decisions first
    // (or resumes them from the checkpointed stage).
    let mut runtime_s = None;
    let mut train_summary = None;
    let route_policy: MlsPolicy = match policy {
        FlowPolicy::NoMls => MlsPolicy::Disabled,
        FlowPolicy::Sota => MlsPolicy::sota(),
        FlowPolicy::GnnMls => {
            let mut s = gnnmls_obs::span("decisions");
            let decisions = resume_or(cfg, &format!("decisions-{slug}"), || {
                let t0 = Instant::now();
                let mut d = learn_decisions(&netlist, &placement, tech, cfg, sta_cfg)?;
                d.runtime_s = Some(t0.elapsed().as_secs_f64());
                Ok(d)
            })?;
            runtime_s = decisions.runtime_s;
            train_summary = decisions.train;
            degradation.model_fallback = decisions.model_fallback;
            degradation.training_retries = decisions.training_retries;
            s.field_u64("selected", decisions.selected.len() as u64);
            s.field_bool("model_fallback", decisions.model_fallback);
            s.field_u64("training_retries", u64::from(decisions.training_retries));
            if decisions.model_fallback {
                gnnmls_obs::warn("gnn-mls", "using heuristic MLS policy (model fallback)");
                MlsPolicy::sota()
            } else {
                MlsPolicy::per_net_from(&netlist, decisions.selected)
            }
        }
    };

    // Targeted routing + STA. The grid is a deterministic function of
    // the placement and config, so a resumed route DB rebuilds it
    // without re-routing.
    let (mut routes, grid) = {
        let mut s = gnnmls_obs::span("route");
        let routes: RouteDb = resume_or(cfg, &format!("routes-{slug}"), || {
            let (db, _) = route_design(
                &netlist,
                &placement,
                tech,
                route_policy.clone(),
                cfg.route_cfg(),
            )?;
            Ok(db)
        })?;
        let grid = RoutingGrid::build(
            placement.floorplan(),
            tech,
            cfg.route_cfg().target_gcells,
            cfg.route_cfg().pdn_top_util_logic,
            cfg.route_cfg().pdn_top_util_memory,
        );
        s.field_u64("mls_nets", routes.summary.mls_net_count as u64);
        s.field_u64(
            "pattern_fallback_sinks",
            routes.summary.pattern_fallback_sinks as u64,
        );
        (routes, grid)
    };
    // Post-stage audit: whether the DB was just routed or resumed from
    // a checkpoint, prove its invariants before STA consumes it.
    {
        let _s = gnnmls_obs::span("audit_routes");
        crate::audit::check_routes(
            &netlist,
            &grid,
            &route_policy,
            &routes,
            gnnmls_route::AuditMode::Full,
            &format!("routes-{slug}"),
        )?;
    }
    let mut timing = {
        let mut s = gnnmls_obs::span("sta");
        let timing = analyze(&netlist, &routes, sta_cfg)?;
        s.field_u64("endpoints", timing.endpoint_count() as u64);
        s.field_u64("violating", timing.violating_endpoints() as u64);
        timing
    };

    // Optional MLS DFT ECO: logical coverage first (pre-ECO routes define
    // the opens), then the physical insertion + re-route + re-STA.
    let mut coverage = None;
    let mut faults = None;
    let mut dft_cells = 0;
    if let Some(mode) = cfg.dft {
        let mut dft_span = gnnmls_obs::span("dft_eco");
        let rec = insert_mls_dft(&mut netlist, &mut placement, &routes, &grid, tech, mode)?;
        dft_span.field_u64("added_cells", rec.added_cells.len() as u64);
        dft_cells = rec.added_cells.len();
        if !rec.added_cells.is_empty() {
            // Preserve MLS permission for the split nets and their
            // children, then re-route the modified design.
            let mut allowed: HashSet<NetId> = match &route_policy {
                MlsPolicy::PerNet(flags) => flags
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| NetId::new(i as u32))
                    .collect(),
                _ => routes
                    .nets
                    .iter()
                    .filter(|r| r.is_mls)
                    .map(|r| r.net)
                    .collect(),
            };
            for &(parent, child) in &rec.mls_nets {
                allowed.insert(parent);
                allowed.insert(child);
            }
            let post_policy = MlsPolicy::per_net_from(&netlist, allowed.iter().copied());
            let (r2, post_grid) = route_design(
                &netlist,
                &placement,
                tech,
                post_policy.clone(),
                cfg.route_cfg(),
            )?;
            crate::audit::check_routes(
                &netlist,
                &post_grid,
                &post_policy,
                &r2,
                gnnmls_route::AuditMode::Full,
                "dft-reroute",
            )?;
            routes = r2;
            timing = analyze(&netlist, &routes, sta_cfg)?;
        }
        // Coverage on the post-ECO design: the inserted DFT cells add
        // their own faults (Table III counts them) and the mode's test
        // structures bridge the remaining opens.
        let cov = analyze_coverage(&netlist, &routes, mode);
        coverage = Some(cov.coverage_pct());
        faults = Some((cov.total_faults, cov.detected_faults));
        // Scan stitching (full-scan model; chain length sanity only).
        let _ = ScanChain::build(&netlist, &placement, 5.0);
    }

    // Power.
    let power = {
        let _s = gnnmls_obs::span("power");
        PowerReport::compute(
            &netlist,
            &routes,
            tech,
            &PowerConfig {
                activity: cfg.activity,
                freq_mhz: cfg.target_freq_mhz,
            },
        )
    };

    // PDN + IR.
    let (ir_drop_pct, pdn) = if cfg.analyze_pdn {
        let mut s = gnnmls_obs::span("pdn");
        let (spec, worst, converged) = pdn_for_design(&netlist, &placement, tech, &power, cfg);
        s.field_bool("converged", converged);
        if !converged {
            gnnmls_obs::warn(
                "gnn-mls",
                "IR solve hit its iteration cap without converging; \
                 reported drop may be optimistic",
            );
            degradation.ir_nonconverged = true;
        }
        (Some(worst), Some(spec))
    } else {
        (None, None)
    };

    degradation.pattern_fallback_nets = routes.summary.pattern_fallback_nets;
    degradation.pattern_fallback_sinks = routes.summary.pattern_fallback_sinks;
    degradation.isolated_route_failures = routes.summary.isolated_failures;
    degradation.recovered_worker_panics = gnnmls_par::recovered_panics() - panics0;

    // The flow span carries every graceful-degradation flag, so a trace
    // alone answers "did this run cut any corners?".
    flow_span.field_bool("model_fallback", degradation.model_fallback);
    flow_span.field_bool("ir_nonconverged", degradation.ir_nonconverged);
    flow_span.field_u64(
        "pattern_fallback_nets",
        degradation.pattern_fallback_nets as u64,
    );
    flow_span.field_u64(
        "isolated_route_failures",
        degradation.isolated_route_failures as u64,
    );
    flow_span.field_u64(
        "recovered_worker_panics",
        degradation.recovered_worker_panics as u64,
    );

    let fp: &Floorplan = placement.floorplan();
    let report = FlowReport {
        design: netlist.name().to_string(),
        policy: policy.name().to_string(),
        tech: tech.name.clone(),
        target_freq_mhz: cfg.target_freq_mhz,
        fp_mm2: fp.area_mm2(),
        wirelength_m: routes.summary.total_wirelength_m,
        f2f_pads: routes.summary.f2f_pads,
        wns_ps: timing.wns_ps(),
        tns_ns: timing.tns_ns(),
        violating_paths: timing.violating_endpoints(),
        endpoints: timing.endpoint_count(),
        mls_nets: routes.summary.mls_net_count,
        power_mw: power.total_mw + ls.power_mw,
        eff_freq_mhz: timing.eff_freq_mhz(),
        runtime_s,
        ir_drop_pct,
        pdn,
        ls_power_mw: if ls.count > 0 {
            Some(ls.power_mw)
        } else {
            None
        },
        level_shifters: ls.count,
        test_coverage_pct: coverage,
        faults,
        dft_cells,
        train: train_summary,
        degradation,
    };
    if let Some(dir) = &cfg.resume {
        save_stage(dir, &report_stage, &report)?;
        gnnmls_obs::event(
            "checkpoint",
            &[
                ("stage", gnnmls_obs::FieldValue::from(report_stage)),
                ("action", gnnmls_obs::FieldValue::Str("save".to_string())),
            ],
        );
    }
    Ok(report)
}

/// The learning phase: baseline route/STA, oracle labels, DGI + MLP
/// training, per-net decisions.
///
/// An unusable model — a pre-trained checkpoint that does not restore,
/// or training that diverges past its retry budget — degrades to the
/// heuristic policy (`model_fallback` in the returned checkpoint)
/// instead of failing the flow.
fn learn_decisions(
    netlist: &Netlist,
    placement: &Placement,
    tech: &gnnmls_netlist::TechConfig,
    cfg: &FlowConfig,
    sta_cfg: StaConfig,
) -> Result<DecisionsCheckpoint, FlowError> {
    learn_decisions_with_model(netlist, placement, tech, cfg, sta_cfg).map(|(d, _)| d)
}

/// [`learn_decisions`] keeping the trained (or restored) model, so a
/// warm serve session can answer inference requests without retraining.
/// The model is `None` under the heuristic fallback.
pub(crate) fn learn_decisions_with_model(
    netlist: &Netlist,
    placement: &Placement,
    tech: &gnnmls_netlist::TechConfig,
    cfg: &FlowConfig,
    sta_cfg: StaConfig,
) -> Result<(DecisionsCheckpoint, Option<GnnMls>), FlowError> {
    let fallback = |retries: u32| DecisionsCheckpoint {
        selected: Vec::new(),
        train: None,
        runtime_s: None,
        model_fallback: true,
        training_retries: retries,
    };
    let mut router = Router::new(
        netlist,
        placement,
        tech,
        MlsPolicy::Disabled,
        cfg.route_cfg(),
    )?;
    router.route_all()?;
    let routes = router.db()?;
    let baseline = analyze(netlist, &routes, sta_cfg)?;

    let total = baseline.endpoint_count();
    let infer_k = cfg.inference_paths.min(total);
    let mut infer = {
        let mut s = gnnmls_obs::span("paths");
        let infer =
            extract_path_samples_par(netlist, placement, tech, &baseline, infer_k, cfg.threads);
        s.field_u64("samples", infer.len() as u64);
        s.field_u64("nodes", infer.iter().map(|p| p.len() as u64).sum());
        infer
    };

    // A pre-trained checkpoint skips the oracle and training entirely;
    // an unusable one falls back to the heuristic policy.
    if let Some(cp) = &cfg.pretrained {
        let restored = GnnMls::from_checkpoint(cp.clone())
            .map_err(|e| e.to_string())
            .and_then(|mut model| {
                model.set_threads(cfg.threads);
                let selected = decide(&model, &infer).map_err(|e| e.to_string())?;
                Ok((selected, model))
            });
        return Ok(match restored {
            Ok((selected, model)) => (
                DecisionsCheckpoint {
                    selected,
                    train: Some(TrainSummary::default()),
                    runtime_s: None,
                    model_fallback: false,
                    training_retries: 0,
                },
                Some(model),
            ),
            Err(e) => {
                gnnmls_obs::warn(
                    "gnn-mls",
                    &format!(
                        "pretrained model unusable ({e}); \
                         falling back to the heuristic MLS policy"
                    ),
                );
                (fallback(0), None)
            }
        });
    }

    let train_k = cfg.train_paths.min(total);
    let eval_k = cfg.eval_paths.min(total.saturating_sub(train_k));

    // Training set = the worst `train_k` paths; evaluation set = the next
    // `eval_k`.
    let mut labeled: Vec<_> = infer.iter().take(train_k + eval_k).cloned().collect();
    let stats = {
        let mut s = gnnmls_obs::span("oracle");
        let stats = label_paths(&mut labeled, netlist, &router, &routes, &cfg.oracle)?;
        s.field_u64("what_ifs", stats.what_ifs as u64);
        stats
    };
    let (train_set, eval_set) = labeled.split_at(train_k);

    let mut model = GnnMls::new(cfg.model.clone());
    model.set_threads(cfg.threads);
    let pretrained = {
        let mut s = gnnmls_obs::span("pretrain");
        let loss = model.pretrain(&infer);
        if s.is_active() {
            // DGI trains on the paths with at least two nodes.
            let epochs = if cfg.model.use_dgi {
                cfg.model.pretrain_epochs
            } else {
                0
            };
            let paths = infer.iter().filter(|p| p.len() >= 2).count();
            s.field_u64("epochs", epochs as u64);
            s.field_u64("steps", (epochs * paths) as u64);
            if let Ok(loss) = &loss {
                s.field_f64("loss", f64::from(*loss));
            }
            s.field_u64("retries", u64::from(model.divergence_retries()));
        }
        loss
    };
    let trained = pretrained.and_then(|pretrain_loss| {
        let mut s = gnnmls_obs::span("finetune");
        s.field_u64("samples", train_set.len() as u64);
        let train_metrics = model.finetune(train_set)?;
        Ok((pretrain_loss, train_metrics))
    });
    let (pretrain_loss, train_metrics) = match trained {
        Ok(t) => t,
        // Divergence past the retry budget is recoverable: route with
        // the heuristic policy instead. Anything else is a caller bug.
        Err(e @ ModelError::Diverged { .. }) => {
            gnnmls_obs::warn(
                "gnn-mls",
                &format!(
                    "training failed ({e}); \
                     falling back to the heuristic MLS policy"
                ),
            );
            return Ok((fallback(model.divergence_retries()), None));
        }
        Err(e) => return Err(FlowError::Model(e)),
    };
    let eval_metrics = if eval_set.is_empty() {
        Default::default()
    } else {
        let mut s = gnnmls_obs::span("evaluate");
        s.field_u64("samples", eval_set.len() as u64);
        model.evaluate(eval_set)?
    };
    if let Some(path) = &cfg.save_model {
        model.save_json(path)?;
    }

    // Decide over the full inference set; for the paths the oracle
    // already labeled, use the exact labels (the model's job is to extend
    // them to unlabeled paths, not to re-predict known answers).
    infer.truncate(infer_k);
    let mut selected: HashSet<NetId> = decide(&model, &infer)?.into_iter().collect();
    for s in &labeled {
        if s.path.slack_ps >= 0.0 {
            continue;
        }
        if let Some(l) = &s.labels {
            for (i, &net) in s.nets.iter().enumerate() {
                if l[i] {
                    selected.insert(net);
                }
            }
        }
    }
    let mut selected: Vec<NetId> = selected.into_iter().collect();
    selected.sort();
    let retries = model.divergence_retries();
    Ok((
        DecisionsCheckpoint {
            selected,
            train: Some(TrainSummary {
                oracle: stats,
                pretrain_loss,
                train_metrics,
                eval_metrics,
            }),
            runtime_s: None,
            model_fallback: false,
            training_retries: retries,
        },
        Some(model),
    ))
}

/// [`GnnMls::decide`] under a `decide` span.
fn decide(model: &GnnMls, infer: &[PathSample]) -> Result<Vec<NetId>, ModelError> {
    let mut s = gnnmls_obs::span("decide");
    let selected = model.decide(infer)?;
    s.field_u64("selected", selected.len() as u64);
    Ok(selected)
}

/// Sizes the PDN per tier to the IR budget; returns the memory-die
/// top-metal summary (the paper's `M-T` row), the worst IR % across
/// tiers, and whether every tier's final solve converged.
fn pdn_for_design(
    netlist: &Netlist,
    placement: &Placement,
    tech: &gnnmls_netlist::TechConfig,
    power: &PowerReport,
    cfg: &FlowConfig,
) -> (PdnSummary, f64, bool) {
    let fp = placement.floorplan();
    let vdd_ref = tech.min_vdd();
    let mut worst = 0.0f64;
    let mut converged = true;
    let mut mem_summary = PdnSummary::default();
    for tier in Tier::BOTH {
        let (spec, rep) = size_for_budget(
            fp,
            tech,
            tier,
            netlist,
            placement,
            power,
            vdd_ref,
            cfg.ir_budget_pct,
            cfg.pdn_pitch_um,
        );
        worst = worst.max(rep.pct_of_vdd);
        converged &= rep.converged;
        if tier == Tier::Memory {
            mem_summary = PdnSummary {
                width_um: spec.width_um,
                pitch_um: spec.pitch_um,
                utilization: spec.utilization(),
            };
        }
    }
    (mem_summary, worst, converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmls_netlist::generators::{generate_maeri, MaeriConfig};
    use gnnmls_netlist::tech::TechConfig;

    fn design() -> GeneratedDesign {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap()
    }

    #[test]
    fn no_mls_flow_produces_a_report() {
        let d = design();
        let cfg = FlowConfig::fast_test(2500.0);
        let r = run_flow(&d, &cfg, FlowPolicy::NoMls).unwrap();
        assert_eq!(r.policy, "No MLS");
        assert_eq!(r.mls_nets, 0);
        assert!(r.wirelength_m > 0.0);
        assert!(r.endpoints > 0);
        assert!(r.power_mw > 0.0);
        assert!(r.level_shifters > 0, "hetero stack needs level shifters");
        assert!(r.runtime_s.is_none());
    }

    #[test]
    fn gnn_mls_flow_trains_and_decides() {
        let d = design();
        let cfg = FlowConfig::fast_test(2500.0);
        let r = run_flow(&d, &cfg, FlowPolicy::GnnMls).unwrap();
        assert_eq!(r.policy, "GNN-MLS");
        assert!(r.runtime_s.is_some());
        let t = r.train.expect("training summary present");
        assert!(t.oracle.paths > 0);
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn policy_names_match_paper_headers() {
        assert_eq!(FlowPolicy::NoMls.name(), "No MLS");
        assert_eq!(FlowPolicy::Sota.name(), "SOTA");
        assert_eq!(FlowPolicy::GnnMls.name(), "GNN-MLS");
    }
}
