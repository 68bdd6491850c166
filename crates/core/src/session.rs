//! Run descriptions and warm design sessions.
//!
//! A [`SessionSpec`] names one run the way the paper keys a table row:
//! design, technology stack, target clock and MLS policy. It is the one
//! run description. The CLI `flow` verb, the serve daemon, `bench
//! suite` and the paper experiments all check it with
//! [`SessionSpec::validate`] and resolve it with
//! [`SessionSpec::generate`], so a named design, its stack and its
//! default clock are written once, here.
//!
//! A [`DesignSession`] is everything a long-lived server needs to answer
//! what-if and inference queries without re-paying the cold start: the
//! prepared netlist and placement, the audited route DB, the routing
//! state its router left behind (usage maps and the congestion scale it
//! settled at), the extracted inference path samples, and (for the
//! GNN-MLS policy) the trained model. [`DesignSession::build`] runs the
//! flow's own stages — [`crate::flow::prepare`], the GNN-MLS learning
//! stage, and [`crate::flow::route_and_time`] — so it costs a full
//! place + route + audit + STA; answering a what-if against it costs
//! one detached search, which is what makes the `gnnmls-serve` warm
//! cache ≥10× cheaper than a one-shot CLI run.
//!
//! Determinism contract: a warm session's [`DesignSession::what_if`] is
//! bit-identical to the live router's
//! [`gnnmls_route::Router::what_if_budgeted`], because the session keeps
//! that router's [`RouteState`] (moved out by
//! [`gnnmls_route::Router::into_state`], not rebuilt) and searches it
//! through the same [`RouteView`], given the net's tree from the route
//! DB.

use std::fmt;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use gnnmls_netlist::generators::{
    generate_a7, generate_maeri, generate_noc, A7Config, GeneratedDesign, MaeriConfig, NocConfig,
};
use gnnmls_netlist::tech::TechConfig;
use gnnmls_netlist::{NetId, Netlist};
use gnnmls_phys::Placement;
use gnnmls_route::{AuditMode, MlsOverride, MlsPolicy, NetRoute, RouteDb, RouteState, RouteView};

use crate::checkpoint::fnv1a64;
use crate::flow::{
    learn_decisions_with_model, prepare, route_and_time, FlowConfig, FlowError, FlowPolicy, Routed,
};
use crate::model::{select_mls_nets, GnnMls};
use crate::paths::{extract_path_samples_par, PathSample};

/// The named designs the CLI and the serve daemon can build.
pub const DESIGNS: &[(&str, &str)] = &[
    ("maeri16", "MAERI 16PE 4BW (Table III scale)"),
    ("maeri64", "MAERI 64PE 16BW (suite mid-scale)"),
    ("maeri128", "MAERI 128PE 32BW (Table IV)"),
    ("maeri256", "MAERI 256PE 64BW (Table V)"),
    ("a7", "Cortex-A7-style dual-core (Tables IV/V)"),
    (
        "a7mini",
        "Cortex-A7-style single core, reduced stages (suite scale)",
    ),
    ("noc4x4", "4x4 mesh NoC with registered links (suite scale)"),
    (
        "noc8x8",
        "8x8 mesh NoC with registered links (suite full scale)",
    ),
];

/// Builds a named design against a technology; `None` for an unknown
/// name.
pub fn build_design(name: &str, tech: &TechConfig) -> Option<GeneratedDesign> {
    let d = match name {
        "maeri16" => generate_maeri(&MaeriConfig::pe16_bw4(), tech),
        "maeri64" => generate_maeri(&MaeriConfig::new(64, 16), tech),
        "maeri128" => generate_maeri(&MaeriConfig::pe128_bw32(), tech),
        "maeri256" => generate_maeri(&MaeriConfig::pe256_bw64(), tech),
        "a7" => generate_a7(&A7Config::dual_core(), tech),
        "a7mini" => generate_a7(&A7Config::new(1).with_gates_per_stage(300), tech),
        "noc4x4" => generate_noc(&NocConfig::mesh4x4(), tech),
        "noc8x8" => generate_noc(&NocConfig::mesh8x8(), tech),
        _ => return None,
    };
    // Generators are infallible for the known configs above.
    d.ok()
}

/// The design families the model zoo trains and serves per-family
/// models for. Every name in [`DESIGNS`] maps to exactly one family.
pub const FAMILIES: &[&str] = &["maeri", "a7", "noc"];

/// Maps a design name onto its zoo family (`maeri16` → `maeri`,
/// `a7mini` → `a7`, `noc8x8` → `noc`); `None` for an unknown design.
pub fn design_family(design: &str) -> Option<&'static str> {
    if !DESIGNS.iter().any(|&(name, _)| name == design) {
        return None;
    }
    FAMILIES
        .iter()
        .copied()
        .filter(|fam| design.starts_with(fam))
        // `a7` vs a hypothetical `a` prefix: the longest match wins.
        .max_by_key(|fam| fam.len())
}

/// Resolves a technology name (`hetero` | `homo`) for a design; `None`
/// for an unknown name. The a7 designs use 8 metal layers per die, the
/// MAERI and NoC designs 6 (matching the paper's stacks).
pub fn build_tech(tech: &str, design: &str) -> Option<TechConfig> {
    let layers = if design.starts_with("a7") { 8 } else { 6 };
    match tech {
        "hetero" => Some(TechConfig::heterogeneous_16_28(layers, layers)),
        "homo" => Some(TechConfig::homogeneous_28_28(layers, layers)),
        _ => None,
    }
}

/// Upper bound on a plausible target frequency, MHz. Anything above
/// this is a garbled request, not an aggressive design.
pub const MAX_FREQ_MHZ: f64 = 100_000.0;

/// Why a spec or request was refused at admission, before any build
/// work (or queue slot) was spent on it. This is the typed taxonomy a
/// serve client sees for a bad request: deterministic, permanent
/// (retrying the same request cannot succeed), and never a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// The design name is not in [`DESIGNS`].
    UnknownDesign(String),
    /// The technology name is not `hetero` or `homo`.
    UnknownTech(String),
    /// The target frequency is not a finite positive number within
    /// [`MAX_FREQ_MHZ`].
    BadFrequency(f64),
    /// A what-if request without a net id.
    MissingNet,
    /// A request deadline of zero expansions (nothing can route) or
    /// beyond any configured budget.
    BadDeadline(u64),
    /// An inference path count of zero or beyond the server's limit.
    BadPaths {
        /// Requested count.
        got: u64,
        /// The server's limit.
        max: u64,
    },
    /// A config-builder field outside its valid domain (the serve
    /// daemon's and the cluster front's config builders report here).
    BadConfig {
        /// The offending field.
        field: &'static str,
        /// The value as given.
        got: String,
        /// What the field requires.
        want: &'static str,
    },
    /// A `LoadModel` checkpoint refused before it could reach any
    /// session: corrupt envelope, wrong architecture, or a family tag
    /// that does not match the targeted design family.
    BadModel {
        /// The family the request targeted.
        family: String,
        /// Why the checkpoint was refused.
        why: String,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnknownDesign(d) => write!(f, "unknown design `{d}`"),
            ValidationError::UnknownTech(t) => write!(f, "unknown tech `{t}` (hetero|homo)"),
            ValidationError::BadFrequency(v) => write!(
                f,
                "target frequency {v} MHz is not a finite positive value <= {MAX_FREQ_MHZ}"
            ),
            ValidationError::MissingNet => write!(f, "what-if request carries no net id"),
            ValidationError::BadDeadline(d) => {
                write!(f, "deadline of {d} expansions is outside 1..=10000000")
            }
            ValidationError::BadPaths { got, max } => {
                write!(f, "paths {got} outside 1..={max}")
            }
            ValidationError::BadConfig { field, got, want } => {
                write!(f, "config field `{field}` = {got} (want {want})")
            }
            ValidationError::BadModel { family, why } => {
                write!(f, "model checkpoint refused for family `{family}`: {why}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Everything that identifies a warm session: the same spec always
/// builds the same session, so it doubles as the cache key.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Design name (see [`DESIGNS`]).
    pub design: String,
    /// Technology name (`hetero` | `homo`).
    pub tech: String,
    /// MLS policy the session routes under.
    pub policy: FlowPolicy,
    /// Target clock frequency, MHz.
    pub target_freq_mhz: f64,
    /// Use the down-scaled [`FlowConfig::fast_test`] configuration.
    pub fast: bool,
}

impl SessionSpec {
    /// Paper-scale spec for a named design (hetero stack, No-MLS
    /// policy, default frequency).
    pub fn new(design: &str) -> Self {
        let freq = if design.starts_with("a7") {
            2000.0
        } else {
            2500.0
        };
        Self {
            design: design.to_string(),
            tech: "hetero".to_string(),
            policy: FlowPolicy::NoMls,
            target_freq_mhz: freq,
            fast: false,
        }
    }

    /// [`SessionSpec::new`] with the fast-test flow configuration.
    pub fn fast(design: &str) -> Self {
        Self {
            fast: true,
            ..Self::new(design)
        }
    }

    /// Sets the policy (builder-style).
    pub fn with_policy(mut self, policy: FlowPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Deep-validates the spec without doing any build work: the design
    /// and tech names must resolve, and the frequency must be a sane
    /// finite positive value. This is the admission check the serve
    /// daemon runs *before* taking a queue slot or the build lock.
    ///
    /// # Errors
    ///
    /// Returns the first failing [`ValidationError`].
    pub fn validate(&self) -> Result<(), ValidationError> {
        if !self.target_freq_mhz.is_finite()
            || self.target_freq_mhz <= 0.0
            || self.target_freq_mhz > MAX_FREQ_MHZ
        {
            return Err(ValidationError::BadFrequency(self.target_freq_mhz));
        }
        if build_tech(&self.tech, &self.design).is_none() {
            return Err(ValidationError::UnknownTech(self.tech.clone()));
        }
        // Existence only — don't generate the design, just check the name
        // (generation is the expensive part admission must not pay).
        if !DESIGNS.iter().any(|&(name, _)| name == self.design) {
            return Err(ValidationError::UnknownDesign(self.design.clone()));
        }
        Ok(())
    }

    /// Resolves the spec into its generated design: validates, then
    /// builds the named technology stack and design. This is the one
    /// place a named spec becomes a [`GeneratedDesign`].
    ///
    /// # Errors
    ///
    /// Returns the [`SessionError`] of the first failing
    /// [`SessionSpec::validate`] check.
    pub fn generate(&self) -> Result<GeneratedDesign, SessionError> {
        self.validate()?;
        let tech = build_tech(&self.tech, &self.design)
            .ok_or_else(|| SessionError::UnknownTech(self.tech.clone()))?;
        build_design(&self.design, &tech)
            .ok_or_else(|| SessionError::UnknownDesign(self.design.clone()))
    }

    /// The flow configuration this spec builds with.
    pub fn flow_config(&self) -> FlowConfig {
        if self.fast {
            FlowConfig::fast_test(self.target_freq_mhz)
        } else {
            FlowConfig::new(self.target_freq_mhz)
        }
    }

    /// Stable cache key: FNV-1a over the canonical field encoding.
    pub fn cache_key(&self) -> u64 {
        let canon = format!(
            "{}|{}|{}|{}|{}",
            self.design,
            self.tech,
            self.policy.name(),
            self.target_freq_mhz,
            self.fast
        );
        fnv1a64(canon.as_bytes())
    }
}

/// Errors raised building or querying a session.
#[derive(Debug)]
pub enum SessionError {
    /// The design name is not in [`DESIGNS`].
    UnknownDesign(String),
    /// The technology name is not `hetero` or `homo`.
    UnknownTech(String),
    /// The requested net id is out of range for the design.
    UnknownNet {
        /// Requested net id.
        net: u32,
        /// Nets in the design.
        nets: usize,
    },
    /// Inference was requested on a session without a trained model
    /// (only `GnnMls`-policy sessions carry one).
    NoModel,
    /// The spec or request failed admission validation (permanent —
    /// retrying the same request cannot succeed).
    Invalid(ValidationError),
    /// The `build-fail` fault seam fired (deterministic build bomb used
    /// to exercise the serve quarantine circuit breaker).
    InjectedBuildFailure,
    /// A flow stage failed while building or querying.
    Flow(FlowError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownDesign(d) => write!(f, "unknown design `{d}`"),
            SessionError::UnknownTech(t) => write!(f, "unknown tech `{t}` (hetero|homo)"),
            SessionError::UnknownNet { net, nets } => {
                write!(f, "net {net} out of range (design has {nets} nets)")
            }
            SessionError::NoModel => {
                write!(f, "session has no trained model (policy is not gnn-mls)")
            }
            SessionError::Invalid(e) => write!(f, "invalid request: {e}"),
            SessionError::InjectedBuildFailure => {
                write!(f, "session build failed (injected build-fail fault)")
            }
            SessionError::Flow(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<FlowError> for SessionError {
    fn from(e: FlowError) -> Self {
        SessionError::Flow(e)
    }
}
impl From<ValidationError> for SessionError {
    fn from(e: ValidationError) -> Self {
        // Keep the long-standing variants for the two name failures so
        // callers matching on them keep working.
        match e {
            ValidationError::UnknownDesign(d) => SessionError::UnknownDesign(d),
            ValidationError::UnknownTech(t) => SessionError::UnknownTech(t),
            other => SessionError::Invalid(other),
        }
    }
}
impl From<gnnmls_route::RouteError> for SessionError {
    fn from(e: gnnmls_route::RouteError) -> Self {
        SessionError::Flow(FlowError::Route(e))
    }
}

/// The answer to a what-if query: the route this net would get under
/// the requested MLS override, summarized. Deterministic — a warm and
/// a cold session produce bit-identical results for the same spec.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WhatIfResult {
    /// The queried net.
    pub net: u32,
    /// Detached-route wirelength, µm.
    pub wirelength_um: f64,
    /// F2F bond crossings the route would consume.
    pub f2f_crossings: u32,
    /// Whether the route borrows the other die's metals.
    pub is_mls: bool,
    /// Sinks that fell back maze → pattern (non-zero when the expansion
    /// budget ran out, e.g. under a tight request deadline).
    pub pattern_sinks: u32,
    /// Total load the driver would see, fF.
    pub total_cap_ff: f64,
    /// Wire Elmore delay to each sink, ps.
    pub sink_elmore_ps: Vec<f64>,
}

impl WhatIfResult {
    fn from_route(r: NetRoute) -> Self {
        Self {
            net: r.net.index() as u32,
            wirelength_um: r.wirelength_um,
            f2f_crossings: r.f2f_crossings,
            is_mls: r.is_mls,
            pattern_sinks: r.pattern_sinks,
            total_cap_ff: r.total_cap_ff,
            sink_elmore_ps: r.sink_elmore_ps,
        }
    }
}

/// The answer to an inference query over the session's worst paths.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InferResult {
    /// Paths actually inferred (requested count clamped to the sample
    /// set).
    pub paths: u64,
    /// Nets the model selects for MLS (max probability over eligible
    /// nodes of violating paths > 0.5), sorted.
    pub selected_nets: Vec<u32>,
    /// Highest per-node probability seen.
    pub max_prob: f64,
}

/// Small timing summary captured at session build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionTiming {
    /// Worst negative slack, ps.
    pub wns_ps: f64,
    /// Total endpoints analyzed.
    pub endpoints: u64,
    /// Violating endpoints.
    pub violating: u64,
}

/// Stats snapshot for one warm session.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// The spec this session was built from.
    pub spec: SessionSpec,
    /// Nets in the prepared (post-ECO) netlist.
    pub nets: u64,
    /// Inference path samples held warm.
    pub samples: u64,
    /// Timing at build.
    pub timing: SessionTiming,
    /// Whether the session carries a trained model.
    pub has_model: bool,
    /// Wall time the cold build took, seconds.
    pub build_seconds: f64,
}

/// A warm design session (see the module docs).
pub struct DesignSession {
    spec: SessionSpec,
    netlist: Netlist,
    placement: Placement,
    routes: RouteDb,
    route_state: RouteState,
    timing: SessionTiming,
    samples: Vec<PathSample>,
    model: Option<GnnMls>,
    build_seconds: f64,
}

impl DesignSession {
    /// Cold build: generate, prepare, (for GNN-MLS: label + train),
    /// route, audit, run STA, and extract the inference sample set.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] for unknown names or any failing flow
    /// stage.
    pub fn build(spec: &SessionSpec) -> Result<Self, SessionError> {
        let t0 = Instant::now();
        let design = spec.generate()?;
        // Fault seam: a spec that validates but whose build bombs —
        // the input the quarantine circuit breaker exists for.
        if gnnmls_faults::fire(gnnmls_faults::FaultSite::SessionBuildFail) {
            return Err(SessionError::InjectedBuildFailure);
        }
        let cfg = spec.flow_config();
        let (netlist, placement) = prepare(&design, &cfg)?;
        let tech = design.tech;

        let (route_policy, model) = match spec.policy {
            FlowPolicy::NoMls => (MlsPolicy::Disabled, None),
            FlowPolicy::Sota => (MlsPolicy::sota(), None),
            FlowPolicy::GnnMls => {
                let (d, model) = learn_decisions_with_model(&netlist, &placement, &tech, &cfg)?;
                (d.route_policy(&netlist), model)
            }
        };

        // The audited DB and the state its router leaves behind are what
        // every warm what-if later searches.
        let Routed {
            router,
            routes,
            timing: report,
        } = route_and_time(
            &netlist,
            &placement,
            &tech,
            &route_policy,
            &cfg,
            "session-build",
        )?;
        let route_state = router.into_state();
        let timing = SessionTiming {
            wns_ps: report.wns_ps(),
            endpoints: report.endpoint_count() as u64,
            violating: report.violating_endpoints() as u64,
        };
        let k = cfg.inference_paths.min(report.endpoint_count());
        let samples =
            extract_path_samples_par(&netlist, &placement, &tech, &report, k, cfg.threads);

        Ok(Self {
            spec: spec.clone(),
            netlist,
            placement,
            routes,
            route_state,
            timing,
            samples,
            model,
            build_seconds: t0.elapsed().as_secs_f64(),
        })
    }

    /// The spec this session was built from.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Re-audits the session's route DB. The serve daemon's watchdog
    /// runs [`AuditMode::Cheap`] — O(nets) recount consistency, no
    /// global usage replay — on its cached sessions in the background,
    /// so a session corrupted in memory is found and evicted.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Flow`] wrapping
    /// [`FlowError::AuditFailed`] when an invariant is violated.
    pub fn audit(&self, mode: AuditMode) -> Result<(), SessionError> {
        crate::audit::check_routes(
            &self.netlist,
            self.route_state.grid(),
            self.route_state.policy(),
            &self.routes,
            mode,
            "warm-session",
        )
        .map_err(SessionError::Flow)
    }

    /// The trained model, when the policy carries one.
    pub fn model(&self) -> Option<&GnnMls> {
        self.model.as_ref()
    }

    /// The read-only search over the routing state the build's router
    /// left behind: nothing is rebuilt, restored or re-routed. What-if
    /// answers through it, given each net's tree from the route DB, are
    /// bit-identical to the live router's.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` keeps the signature callers match on.
    pub fn router(&self) -> Result<RouteView<'_>, SessionError> {
        Ok(self.route_state.view(&self.netlist, &self.placement))
    }

    /// Answers a what-if query: the route `net` would get with MLS
    /// forced on (`allow_mls`) or off, optionally under a reduced A*
    /// expansion budget (the serve daemon's deadline hook; clamped to
    /// the session's configured budget).
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::UnknownNet`] for an out-of-range id and
    /// [`SessionError::Flow`] when the detached route fails.
    pub fn what_if(
        &self,
        net: u32,
        allow_mls: bool,
        max_expansions: Option<usize>,
    ) -> Result<WhatIfResult, SessionError> {
        if net as usize >= self.netlist.net_count() {
            return Err(SessionError::UnknownNet {
                net,
                nets: self.netlist.net_count(),
            });
        }
        let view = self.router()?;
        let full = self.route_state.config().max_expansions;
        let budget = max_expansions.unwrap_or(full).min(full).max(1);
        let ov = if allow_mls {
            MlsOverride::Allow
        } else {
            MlsOverride::Deny
        };
        let net_id = NetId::new(net);
        let committed = &self.routes.route(net_id).tree;
        let r = view.what_if(&mut view.scratch(), net_id, Some(committed), ov, budget)?;
        Ok(WhatIfResult::from_route(r))
    }

    /// Runs MLS inference over the worst `k` warm samples with the
    /// session's own trained model (see [`DesignSession::infer_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::NoModel`] unless the session's policy is
    /// `GnnMls` with a usable model.
    pub fn infer(&self, k: usize) -> Result<InferResult, SessionError> {
        let model = self.model.as_ref().ok_or(SessionError::NoModel)?;
        self.infer_with(model, k)
    }

    /// Runs MLS inference over the worst `k` warm samples (clamped to
    /// the sample set) with `model`, in one forward pass. The serve
    /// daemon passes a hot-swapped zoo model here. A net is selected by
    /// the rule of [`GnnMls::decide`]: its maximum probability over
    /// eligible nodes of violating paths exceeds 0.5.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Flow`] wrapping [`FlowError::Model`]
    /// when the forward pass fails.
    pub fn infer_with(&self, model: &GnnMls, k: usize) -> Result<InferResult, SessionError> {
        let samples = &self.samples[..k.min(self.samples.len())];
        let probs = model.predict_paths(samples).map_err(FlowError::Model)?;
        let max_prob = probs.iter().flatten().fold(0.0f32, |m, &v| m.max(v));
        let probs: Vec<Option<Vec<f32>>> = probs.into_iter().map(Some).collect();
        Ok(InferResult {
            paths: samples.len() as u64,
            selected_nets: select_mls_nets(samples, &probs)
                .into_iter()
                .map(|n| n.index() as u32)
                .collect(),
            max_prob: f64::from(max_prob),
        })
    }

    /// Stats snapshot.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            spec: self.spec.clone(),
            nets: self.netlist.net_count() as u64,
            samples: self.samples.len() as u64,
            timing: self.timing,
            has_model: self.model.is_some(),
            build_seconds: self.build_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_spec() -> SessionSpec {
        SessionSpec::fast("maeri16")
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let mut spec = fast_spec();
        spec.design = "nope".into();
        assert!(matches!(
            DesignSession::build(&spec),
            Err(SessionError::UnknownDesign(_))
        ));
        let mut spec = fast_spec();
        spec.tech = "nope".into();
        assert!(matches!(
            DesignSession::build(&spec),
            Err(SessionError::UnknownTech(_))
        ));
    }

    #[test]
    fn generate_validates_before_work() {
        let mut spec = fast_spec();
        spec.design = "nope".into();
        assert!(matches!(
            spec.generate(),
            Err(SessionError::UnknownDesign(_))
        ));
        let mut spec = fast_spec();
        spec.tech = "nope".into();
        assert!(matches!(spec.generate(), Err(SessionError::UnknownTech(_))));
        let mut spec = fast_spec();
        spec.target_freq_mhz = f64::INFINITY;
        assert!(matches!(
            spec.generate(),
            Err(SessionError::Invalid(ValidationError::BadFrequency(_)))
        ));
        let design = fast_spec().generate().unwrap();
        assert_eq!(design.netlist.name(), "maeri16pe_4bw");
    }

    #[test]
    fn validation_catches_boundary_frequencies() {
        for freq in [0.0, -5.0, f64::NAN, f64::INFINITY, MAX_FREQ_MHZ * 10.0] {
            let mut spec = fast_spec();
            spec.target_freq_mhz = freq;
            assert!(
                matches!(spec.validate(), Err(ValidationError::BadFrequency(_))),
                "freq {freq} must be refused"
            );
            assert!(
                matches!(
                    DesignSession::build(&spec),
                    Err(SessionError::Invalid(ValidationError::BadFrequency(_)))
                ),
                "build must refuse freq {freq} before any work"
            );
        }
        fast_spec().validate().unwrap();
        for (design, _) in DESIGNS {
            SessionSpec::fast(design).validate().unwrap();
        }
    }

    #[test]
    fn every_design_maps_to_exactly_one_family() {
        for (design, _) in DESIGNS {
            let fam = design_family(design)
                .unwrap_or_else(|| panic!("design `{design}` must belong to a family"));
            assert!(FAMILIES.contains(&fam));
            assert!(design.starts_with(fam));
        }
        assert_eq!(design_family("maeri256"), Some("maeri"));
        assert_eq!(design_family("a7mini"), Some("a7"));
        assert_eq!(design_family("noc8x8"), Some("noc"));
        assert_eq!(design_family("nope"), None);
    }

    #[test]
    fn bad_model_validation_error_displays_family_and_reason() {
        let e = ValidationError::BadModel {
            family: "maeri".into(),
            why: "checksum mismatch".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("maeri") && msg.contains("checksum mismatch"),
            "{msg}"
        );
    }

    #[test]
    fn injected_build_failure_is_typed() {
        let guard = gnnmls_faults::install(&gnnmls_faults::FaultPlan::single(
            gnnmls_faults::FaultSite::SessionBuildFail,
            1,
        ));
        assert!(matches!(
            DesignSession::build(&fast_spec()),
            Err(SessionError::InjectedBuildFailure)
        ));
        drop(guard);
    }

    #[test]
    fn fresh_session_audits_clean_and_catches_corruption() {
        let mut session = DesignSession::build(&fast_spec()).unwrap();
        session.audit(AuditMode::Cheap).unwrap();
        session.audit(AuditMode::Full).unwrap();
        // Corrupt one edge count in memory: the Cheap audit the daemon
        // re-runs in the background must catch it.
        let idx = session
            .routes
            .nets
            .iter()
            .position(|r| r.tree.nodes.len() > 1)
            .unwrap();
        session.routes.nets[idx].f2f_crossings += 1;
        match session.audit(AuditMode::Cheap) {
            Err(SessionError::Flow(FlowError::AuditFailed { stage, .. })) => {
                assert_eq!(stage, "warm-session");
            }
            other => panic!("expected AuditFailed, got {other:?}"),
        }
    }

    #[test]
    fn cache_key_separates_specs() {
        let a = fast_spec();
        let mut b = fast_spec();
        assert_eq!(a.cache_key(), b.cache_key());
        b.policy = FlowPolicy::Sota;
        assert_ne!(a.cache_key(), b.cache_key());
        let mut c = fast_spec();
        c.fast = false;
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = fast_spec().with_policy(FlowPolicy::GnnMls);
        let json = serde_json::to_string(&spec).unwrap();
        let back: SessionSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn warm_what_if_is_bit_identical_to_cold() {
        let spec = fast_spec();
        let session = DesignSession::build(&spec).unwrap();
        // "Cold" = an independently built session of the same spec; its
        // first what-if is exactly what a one-shot CLI run computes.
        let cold = DesignSession::build(&spec).unwrap();
        let mut nets_checked = 0;
        for net in 0..64u32 {
            let a = session.what_if(net, true, None);
            let b = cold.what_if(net, true, None);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "warm/cold diverged on net {net}");
                    nets_checked += 1;
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("outcome diverged on net {net}: {a:?} vs {b:?}"),
            }
        }
        assert!(nets_checked > 0, "no nets compared");
        // Out-of-range nets are typed errors.
        assert!(matches!(
            session.what_if(u32::MAX, true, None),
            Err(SessionError::UnknownNet { .. })
        ));
    }

    #[test]
    fn warm_what_if_equals_the_live_routers() {
        // The router that routed the design, kept alive, is the ground
        // truth a warm session's kept state must reproduce.
        let spec = fast_spec();
        let session = DesignSession::build(&spec).unwrap();
        let design = spec.generate().unwrap();
        let cfg = spec.flow_config();
        let (netlist, placement) = prepare(&design, &cfg).unwrap();
        let live = route_and_time(
            &netlist,
            &placement,
            &design.tech,
            &MlsPolicy::Disabled,
            &cfg,
            "live",
        )
        .unwrap()
        .router;
        let full = live.config().max_expansions;
        let mut scratch = live.scratch();
        for id in netlist.net_ids() {
            let net = id.index() as u32;
            for (allow, ov) in [(false, MlsOverride::Deny), (true, MlsOverride::Allow)] {
                for budget in [full, 50] {
                    let want = live
                        .what_if_budgeted(&mut scratch, id, ov, budget)
                        .map(WhatIfResult::from_route);
                    match (session.what_if(net, allow, Some(budget)), want) {
                        (Ok(got), Ok(want)) => assert_eq!(got, want, "net {net} allow {allow}"),
                        (Err(_), Err(_)) => {}
                        (got, want) => panic!("net {net} allow {allow}: {got:?} vs {want:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn no_model_session_refuses_inference() {
        let session = DesignSession::build(&fast_spec()).unwrap();
        assert!(matches!(session.infer(5), Err(SessionError::NoModel)));
        let stats = session.stats();
        assert!(!stats.has_model);
        assert!(stats.nets > 0);
        assert!(stats.samples > 0);
        assert!(stats.build_seconds >= 0.0);
        // Stats round-trip through the wire encoding.
        let json = serde_json::to_string(&stats).unwrap();
        let back: SessionStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }

    #[test]
    fn gnnmls_session_infer_with_restored_model_matches_infer() {
        let spec = fast_spec().with_policy(FlowPolicy::GnnMls);
        let session = DesignSession::build(&spec).unwrap();
        let model = session.model().expect("gnn-mls session keeps its model");
        // What a hot swap serves: the same weights, restored from a
        // checkpoint into a model the session does not own.
        let swapped = GnnMls::from_checkpoint(model.to_checkpoint()).unwrap();
        let samples = usize::try_from(session.stats().samples).unwrap();
        for k in [1, 20, samples + 5] {
            let own = session.infer(k).unwrap();
            assert_eq!(session.infer_with(&swapped, k).unwrap(), own, "k = {k}");
            assert_eq!(own.paths, k.min(samples) as u64);
        }
    }

    #[test]
    fn gnnmls_session_serves_the_models_own_decisions() {
        // Fast maeri16 sessions select no net; fast noc4x4 ones do.
        let spec = SessionSpec::fast("noc4x4").with_policy(FlowPolicy::GnnMls);
        let session = DesignSession::build(&spec).unwrap();
        let model = session.model().expect("gnn-mls session keeps its model");
        for k in [1, 20, session.samples.len()] {
            let served = session.infer_with(model, k).unwrap().selected_nets;
            let decided: Vec<u32> = model
                .decide(&session.samples[..k])
                .unwrap()
                .into_iter()
                .map(|n| n.index() as u32)
                .collect();
            assert!(!served.is_empty(), "k = {k}: no net selected");
            assert_eq!(served, decided, "k = {k}");
        }
    }

    #[test]
    fn deadline_budget_degrades_gracefully() {
        let session = DesignSession::build(&fast_spec()).unwrap();
        let net = (0..u32::try_from(session.stats().nets).unwrap())
            .find(|&n| session.what_if(n, false, None).is_ok())
            .expect("some net answers");
        let starved = session.what_if(net, false, Some(1)).unwrap();
        assert!(starved.pattern_sinks > 0, "starved budget must degrade");
    }
}
