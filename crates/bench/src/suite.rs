//! The benchmark suite: a versioned scenario manifest, a runner that
//! drives every scenario through the full flow, and the machine-readable
//! PPA ledger (`BENCH_suite.json`) the CI regression gate diffs.
//!
//! The manifest (`bench/suite.toml`) enumerates designs × policies as
//! `[[scenario]]` tables. It is parsed by a deliberately small TOML
//! subset reader (comments, `key = value`, `[[scenario]]` array tables;
//! strings, integers, floats, booleans, and string arrays) so the
//! workspace stays dependency-free. Each scenario names a design from
//! [`gnn_mls::session::DESIGNS`], a technology, an MLS policy, and the
//! per-scenario flow knobs (PDN analysis, DFT mode, fast/full config).
//! [`Scenario::spec`] turns it into the same [`SessionSpec`] the CLI
//! and the serve daemon run, which validates and generates the design.
//!
//! [`run_suite`] executes the scenarios selected by a profile and
//! returns a [`SuiteReport`]: per-scenario PPA metrics (WNS/TNS,
//! wirelength, F2F pad count, MLS gain vs. the same group's No-MLS
//! baseline, IR drop, fault coverage) plus advisory wall-clock. The
//! report is what `gnnmls bench diff` (see [`crate::diff`]) compares
//! against the committed baseline.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use gnn_mls::flow::{run_flow, FlowConfig, FlowPolicy};
use gnn_mls::session::SessionSpec;
use gnn_mls::FlowReport;
use gnnmls_dft::DftMode;

/// Version of the [`SuiteReport`] JSON schema. Bump on any
/// shape-incompatible change; `bench diff` refuses to compare across
/// schema versions.
pub const SUITE_SCHEMA_VERSION: u64 = 1;

/// Errors raised parsing a manifest or running the suite.
#[derive(Debug)]
pub enum SuiteError {
    /// A manifest syntax or validation error, with the 1-based line.
    Parse {
        /// 1-based line number in the manifest text.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A scenario references an unknown design/tech/policy/dft name.
    BadScenario {
        /// The scenario's `name`.
        scenario: String,
        /// What is wrong with it.
        msg: String,
    },
    /// No scenario in the manifest matches the requested profile.
    EmptyProfile(String),
    /// A flow stage failed while running a scenario.
    Flow {
        /// The scenario's `name`.
        scenario: String,
        /// The flow error, rendered.
        msg: String,
    },
    /// Reading or writing a suite JSON file failed.
    Io(String),
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Parse { line, msg } => write!(f, "manifest line {line}: {msg}"),
            SuiteError::BadScenario { scenario, msg } => {
                write!(f, "scenario `{scenario}`: {msg}")
            }
            SuiteError::EmptyProfile(p) => {
                write!(f, "no scenario in the manifest selects profile `{p}`")
            }
            SuiteError::Flow { scenario, msg } => {
                write!(f, "scenario `{scenario}` failed: {msg}")
            }
            SuiteError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SuiteError {}

/// One scenario of the manifest: a design × policy × knobs cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Unique scenario name (the diff key).
    pub name: String,
    /// Design name (must be in [`gnn_mls::session::DESIGNS`]).
    pub design: String,
    /// Technology name (`hetero` | `homo`).
    pub tech: String,
    /// MLS policy (`no-mls` | `sota` | `gnn-mls` in the manifest).
    pub policy: FlowPolicy,
    /// Profiles this scenario belongs to (e.g. `ci`, `full`).
    pub profiles: Vec<String>,
    /// Use the down-scaled fast-test flow configuration.
    pub fast: bool,
    /// Run PDN synthesis + IR-drop analysis.
    pub pdn: bool,
    /// MLS DFT mode (`none` | `net` | `wire`).
    pub dft: String,
    /// Target frequency, MHz; `0` (or absent) = the design's default.
    pub freq_mhz: f64,
    /// MLS-gain group: scenarios sharing a group are compared against
    /// the group's `no-mls` member. Empty = no gain computed.
    pub group: String,
}

impl Scenario {
    fn empty() -> Self {
        Self {
            name: String::new(),
            design: String::new(),
            tech: "hetero".into(),
            policy: FlowPolicy::NoMls,
            profiles: Vec::new(),
            fast: true,
            pdn: false,
            dft: "none".into(),
            freq_mhz: 0.0,
            group: String::new(),
        }
    }

    /// The run this scenario describes: its design, stack, policy and
    /// flow scale, at `freq_mhz` or (when that is 0) the design's
    /// default clock.
    pub fn spec(&self) -> SessionSpec {
        let mut spec = SessionSpec::new(&self.design).with_policy(self.policy);
        spec.tech.clone_from(&self.tech);
        spec.fast = self.fast;
        if self.freq_mhz != 0.0 {
            spec.target_freq_mhz = self.freq_mhz;
        }
        spec
    }

    /// The DFT mode this scenario inserts post-route.
    fn dft_mode(&self) -> Result<Option<DftMode>, String> {
        match self.dft.as_str() {
            "none" => Ok(None),
            mode => mode.parse().map(Some),
        }
    }

    fn validate(&self) -> Result<(), SuiteError> {
        let bad = |msg: String| SuiteError::BadScenario {
            scenario: self.name.clone(),
            msg,
        };
        if self.name.is_empty() {
            return Err(bad("missing `name`".into()));
        }
        self.spec().validate().map_err(|e| bad(e.to_string()))?;
        self.dft_mode().map_err(bad)?;
        if self.profiles.is_empty() {
            return Err(bad("scenario selects no profiles".into()));
        }
        Ok(())
    }

    /// The flow configuration this scenario runs with: its spec's, plus
    /// the scenario's PDN and DFT knobs.
    pub fn flow_config(&self) -> FlowConfig {
        let mut cfg = self.spec().flow_config();
        cfg.analyze_pdn = self.pdn;
        cfg.dft = self.dft_mode().unwrap_or(None);
        cfg
    }
}

/// The parsed, validated manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteManifest {
    /// Manifest schema version (the `version` key).
    pub version: u64,
    /// All scenarios, in file order.
    pub scenarios: Vec<Scenario>,
}

impl SuiteManifest {
    /// The scenarios selected by `profile`, in file order.
    pub fn select(&self, profile: &str) -> Vec<&Scenario> {
        self.scenarios
            .iter()
            .filter(|s| s.profiles.iter().any(|p| p == profile))
            .collect()
    }
}

/// One TOML-subset value.
enum TomlValue {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    StrArray(Vec<String>),
}

/// Strips a `#` comment that is not inside a double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(raw: &str, line: usize) -> Result<TomlValue, SuiteError> {
    let err = |msg: String| SuiteError::Parse { line, msg };
    let raw = raw.trim();
    if let Some(s) = raw.strip_prefix('"') {
        let s = s
            .strip_suffix('"')
            .ok_or_else(|| err(format!("unterminated string `{raw}`")))?;
        if s.contains('"') {
            return Err(err("escaped quotes are not supported".into()));
        }
        return Ok(TomlValue::Str(s.to_string()));
    }
    if let Some(inner) = raw.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| err(format!("unterminated array `{raw}`")))?;
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part, line)? {
                TomlValue::Str(s) => items.push(s),
                _ => return Err(err("only string arrays are supported".into())),
            }
        }
        return Ok(TomlValue::StrArray(items));
    }
    match raw {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Ok(TomlValue::Int(i));
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Ok(TomlValue::Float(f));
    }
    Err(err(format!("unparsable value `{raw}`")))
}

/// Parses and validates a manifest from TOML-subset text.
///
/// # Errors
///
/// Returns [`SuiteError::Parse`] with the offending line, or
/// [`SuiteError::BadScenario`] when a scenario fails validation.
pub fn parse_manifest(text: &str) -> Result<SuiteManifest, SuiteError> {
    let mut version: Option<u64> = None;
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut current: Option<Scenario> = None;

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let err = |msg: String| SuiteError::Parse { line: lineno, msg };
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[scenario]]" {
            if let Some(s) = current.take() {
                scenarios.push(s);
            }
            current = Some(Scenario::empty());
            continue;
        }
        if line.starts_with('[') {
            return Err(err(format!("unsupported table `{line}`")));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(format!("expected `key = value`, got `{line}`")))?;
        let key = key.trim();
        let value = parse_value(value, lineno)?;
        match (&mut current, key) {
            (None, "version") => match value {
                TomlValue::Int(v) if v > 0 => version = Some(v as u64),
                _ => return Err(err("`version` must be a positive integer".into())),
            },
            (None, other) => {
                return Err(err(format!(
                    "unknown top-level key `{other}` (only `version` and `[[scenario]]` tables)"
                )))
            }
            (Some(s), key) => {
                let type_err = || err(format!("wrong type for `{key}`"));
                match (key, value) {
                    ("name", TomlValue::Str(v)) => s.name = v,
                    ("design", TomlValue::Str(v)) => s.design = v,
                    ("tech", TomlValue::Str(v)) => s.tech = v,
                    ("policy", TomlValue::Str(v)) => s.policy = v.parse().map_err(err)?,
                    ("profiles", TomlValue::StrArray(v)) => s.profiles = v,
                    ("fast", TomlValue::Bool(v)) => s.fast = v,
                    ("pdn", TomlValue::Bool(v)) => s.pdn = v,
                    ("dft", TomlValue::Str(v)) => s.dft = v,
                    ("freq_mhz", TomlValue::Float(v)) => s.freq_mhz = v,
                    ("freq_mhz", TomlValue::Int(v)) => s.freq_mhz = v as f64,
                    ("group", TomlValue::Str(v)) => s.group = v,
                    (
                        "name" | "design" | "tech" | "policy" | "profiles" | "fast" | "pdn" | "dft"
                        | "freq_mhz" | "group",
                        _,
                    ) => return Err(type_err()),
                    (other, _) => {
                        return Err(err(format!("unknown scenario key `{other}`")));
                    }
                }
            }
        }
    }
    if let Some(s) = current.take() {
        scenarios.push(s);
    }

    let version = version.ok_or(SuiteError::Parse {
        line: 1,
        msg: "manifest has no `version` key".into(),
    })?;
    let mut seen = std::collections::BTreeSet::new();
    for s in &scenarios {
        s.validate()?;
        if !seen.insert(s.name.clone()) {
            return Err(SuiteError::BadScenario {
                scenario: s.name.clone(),
                msg: "duplicate scenario name".into(),
            });
        }
    }
    Ok(SuiteManifest { version, scenarios })
}

/// Loads and parses a manifest file.
///
/// # Errors
///
/// Returns [`SuiteError::Io`] when the file cannot be read, or any
/// [`parse_manifest`] error.
pub fn load_manifest(path: &std::path::Path) -> Result<SuiteManifest, SuiteError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SuiteError::Io(format!("cannot read {}: {e}", path.display())))?;
    parse_manifest(&text)
}

/// One scenario's results: the PPA ledger row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario name (the diff key).
    pub name: String,
    /// Design name.
    pub design: String,
    /// Technology name.
    pub tech: String,
    /// Policy name.
    pub policy: String,
    /// QoR metrics, keyed by stable snake_case names. Deterministic
    /// under a fixed seed; diffed exactly (counts) or with a float
    /// tolerance by `bench diff`.
    pub metrics: BTreeMap<String, f64>,
    /// Wall-clock seconds for the scenario (advisory: machine-local,
    /// never gates).
    pub wall_clock_s: f64,
}

/// The suite ledger `BENCH_suite.json` holds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// [`SUITE_SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// The manifest's `version` key.
    pub manifest_version: u64,
    /// The profile that selected the scenarios.
    pub profile: String,
    /// Per-scenario results, in manifest order.
    pub scenarios: Vec<ScenarioResult>,
}

/// Extracts the suite's QoR metric map from a flow report. Counts stay
/// integral (stored as `f64` for a uniform ledger); optional stages
/// (IR drop, DFT coverage) appear only when the scenario ran them.
pub fn suite_metrics(report: &FlowReport) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    m.insert("wirelength_m".into(), report.wirelength_m);
    m.insert("wns_ps".into(), report.wns_ps);
    m.insert("tns_ns".into(), report.tns_ns);
    m.insert("violating_paths".into(), report.violating_paths as f64);
    m.insert("endpoints".into(), report.endpoints as f64);
    m.insert("mls_nets".into(), report.mls_nets as f64);
    m.insert("f2f_pads".into(), report.f2f_pads as f64);
    m.insert("power_mw".into(), report.power_mw);
    m.insert("eff_freq_mhz".into(), report.eff_freq_mhz);
    if let Some(ir) = report.ir_drop_pct {
        m.insert("ir_drop_pct".into(), ir);
    }
    if let Some(cov) = report.test_coverage_pct {
        m.insert("test_coverage_pct".into(), cov);
        m.insert("dft_cells".into(), report.dft_cells as f64);
    }
    m
}

/// Adds MLS-gain metrics to every grouped non-baseline scenario:
/// `mls_wl_gain_pct` (wirelength saved vs. the group's `no-mls` run, %)
/// and `mls_wns_gain_ps` (WNS improvement, ps).
fn add_mls_gains(manifest_rows: &[(&Scenario, usize)], results: &mut [ScenarioResult]) {
    // Group name -> index of the group's no-mls result.
    let mut baselines: BTreeMap<String, usize> = BTreeMap::new();
    for (scn, i) in manifest_rows {
        if !scn.group.is_empty() && scn.policy == FlowPolicy::NoMls {
            baselines.entry(scn.group.clone()).or_insert(*i);
        }
    }
    for (scn, i) in manifest_rows {
        if scn.group.is_empty() || scn.policy == FlowPolicy::NoMls {
            continue;
        }
        let Some(&b) = baselines.get(&scn.group) else {
            continue;
        };
        let base_wl = results[b].metrics["wirelength_m"];
        let base_wns = results[b].metrics["wns_ps"];
        let wl = results[*i].metrics["wirelength_m"];
        let wns = results[*i].metrics["wns_ps"];
        let wl_gain = if base_wl.abs() > 1e-12 {
            (base_wl - wl) / base_wl * 100.0
        } else {
            0.0
        };
        results[*i]
            .metrics
            .insert("mls_wl_gain_pct".into(), wl_gain);
        results[*i]
            .metrics
            .insert("mls_wns_gain_ps".into(), wns - base_wns);
    }
}

/// Runs every scenario the profile selects through the full flow and
/// assembles the suite ledger. Progress goes to stderr; per-scenario
/// counters and QoR gauges are published through `gnnmls-obs`.
///
/// # Errors
///
/// Returns [`SuiteError::EmptyProfile`] when nothing matches the
/// profile and [`SuiteError::Flow`] on the first failing scenario.
pub fn run_suite(manifest: &SuiteManifest, profile: &str) -> Result<SuiteReport, SuiteError> {
    let selected = manifest.select(profile);
    if selected.is_empty() {
        return Err(SuiteError::EmptyProfile(profile.to_string()));
    }
    let mut results: Vec<ScenarioResult> = Vec::with_capacity(selected.len());
    let mut rows: Vec<(&Scenario, usize)> = Vec::with_capacity(selected.len());
    for (i, scn) in selected.iter().enumerate() {
        let _ = writeln!(
            std::io::stderr(),
            "[suite {}/{}] {} ({} / {} / {})",
            i + 1,
            selected.len(),
            scn.name,
            scn.design,
            scn.tech,
            scn.policy.cli_name()
        );
        let flow_err = |msg: String| SuiteError::Flow {
            scenario: scn.name.clone(),
            msg,
        };
        let spec = scn.spec();
        let design = spec.generate().map_err(|e| flow_err(e.to_string()))?;
        let cfg = scn.flow_config();
        let t0 = Instant::now();
        let report = run_flow(&design, &cfg, spec.policy).map_err(|e| flow_err(e.to_string()))?;
        let wall = t0.elapsed().as_secs_f64();
        let metrics = suite_metrics(&report);

        gnnmls_obs::counter_add(
            "bench_suite_scenarios_total",
            &[("profile", profile), ("policy", scn.policy.cli_name())],
            1,
        );
        gnnmls_obs::gauge_set(
            "bench_suite_wns_ps",
            &[("scenario", &scn.name)],
            report.wns_ps.round() as i64,
        );
        gnnmls_obs::gauge_set(
            "bench_suite_f2f_pads",
            &[("scenario", &scn.name)],
            report.f2f_pads as i64,
        );

        rows.push((scn, results.len()));
        results.push(ScenarioResult {
            name: scn.name.clone(),
            design: scn.design.clone(),
            tech: scn.tech.clone(),
            policy: scn.policy.cli_name().to_string(),
            metrics,
            wall_clock_s: wall,
        });
    }
    add_mls_gains(&rows, &mut results);
    Ok(SuiteReport {
        schema_version: SUITE_SCHEMA_VERSION,
        manifest_version: manifest.version,
        profile: profile.to_string(),
        scenarios: results,
    })
}

/// Serializes a suite report to pretty JSON.
pub fn report_to_json(report: &SuiteReport) -> String {
    serde_json::to_string_pretty(report).unwrap_or_else(|_| "{}".into())
}

/// Reads a suite report back from a JSON file.
///
/// # Errors
///
/// Returns [`SuiteError::Io`] on a read or parse failure.
pub fn load_report(path: &std::path::Path) -> Result<SuiteReport, SuiteError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SuiteError::Io(format!("cannot read {}: {e}", path.display())))?;
    serde_json::from_str(&text)
        .map_err(|e| SuiteError::Io(format!("cannot parse {}: {e}", path.display())))
}

/// Writes a suite report as pretty JSON, creating parent directories.
///
/// # Errors
///
/// Returns [`SuiteError::Io`] on any filesystem failure.
pub fn write_report(report: &SuiteReport, path: &std::path::Path) -> Result<(), SuiteError> {
    gnn_mls::checkpoint::write_json_file(path, report)
        .map_err(|e| SuiteError::Io(format!("cannot write {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"
# Suite manifest (test copy).
version = 3

[[scenario]]
name = "maeri16-nomls"          # trailing comment
design = "maeri16"
policy = "no-mls"
profiles = ["ci", "full"]
group = "m16"

[[scenario]]
name = "maeri16-gnn"
design = "maeri16"
policy = "gnn-mls"
profiles = ["ci"]
group = "m16"
pdn = true
dft = "net"
freq_mhz = 2400

[[scenario]]
name = "noc-sota"
design = "noc4x4"
tech = "homo"
policy = "sota"
profiles = ["full"]
fast = false
"#;

    #[test]
    fn manifest_parses_fields_and_profiles() {
        let m = parse_manifest(MANIFEST).unwrap();
        assert_eq!(m.version, 3);
        assert_eq!(m.scenarios.len(), 3);
        let ci = m.select("ci");
        assert_eq!(ci.len(), 2);
        assert_eq!(m.select("full").len(), 2);
        assert!(m.select("nightly").is_empty());

        let s = &m.scenarios[1];
        assert_eq!(s.name, "maeri16-gnn");
        assert!(s.pdn);
        assert_eq!(s.dft, "net");
        assert_eq!(s.freq_mhz, 2400.0);
        assert_eq!(s.policy, FlowPolicy::GnnMls);
        let cfg = s.flow_config();
        assert!(cfg.analyze_pdn);
        assert_eq!(cfg.dft, Some(DftMode::NetBased));
        assert_eq!(cfg.target_freq_mhz, 2400.0);

        let n = &m.scenarios[2];
        assert_eq!(n.tech, "homo");
        assert!(!n.fast);
        assert_eq!(n.spec().target_freq_mhz, 2500.0);
    }

    #[test]
    fn manifest_rejects_bad_input() {
        for (text, needle) in [
            ("[[scenario]]\nname = \"x\"", "no `version` key"),
            ("version = 1\nbogus = 2", "unknown top-level key"),
            (
                "version = 1\n[[scenario]]\nname = \"x\"\nwat = 1",
                "unknown scenario key",
            ),
            (
                "version = 1\n[[scenario]]\nname = \"x\"\ndesign = \"nope\"\nprofiles = [\"ci\"]",
                "unknown design",
            ),
            (
                "version = 1\n[[scenario]]\nname = \"x\"\ndesign = \"maeri16\"\nprofiles = [\"ci\"]\npolicy = \"wat\"",
                "unknown policy",
            ),
            (
                "version = 1\n[[scenario]]\nname = \"x\"\ndesign = \"maeri16\"",
                "no profiles",
            ),
            (
                "version = 1\n[[scenario]]\nname = \"x\"\ndesign = \"maeri16\"\nprofiles = [\"ci\"]\nfreq_mhz = -5",
                "target frequency -5 MHz",
            ),
            (
                "version = 1\n[[scenario]]\nname = \"x\"\ndesign = \"maeri16\"\nprofiles = [\"ci\"]\n[[scenario]]\nname = \"x\"\ndesign = \"maeri16\"\nprofiles = [\"ci\"]",
                "duplicate scenario",
            ),
            ("version = 1\nkey value", "expected `key = value`"),
            ("version = 1\n[table]", "unsupported table"),
            (
                "version = 1\n[[scenario]]\nfast = \"yes\"",
                "wrong type for `fast`",
            ),
        ] {
            let err = parse_manifest(text).unwrap_err().to_string();
            assert!(err.contains(needle), "`{needle}` not in `{err}` for:\n{text}");
        }
    }

    #[test]
    fn comments_inside_strings_survive() {
        let m = parse_manifest(
            "version = 1\n[[scenario]]\nname = \"a#b\"\ndesign = \"maeri16\"\nprofiles = [\"ci\"]\n",
        )
        .unwrap();
        assert_eq!(m.scenarios[0].name, "a#b");
    }

    #[test]
    fn suite_metrics_cover_the_ledger() {
        let mut r = FlowReport {
            design: "x".into(),
            wirelength_m: 1.5,
            wns_ps: -12.0,
            tns_ns: -0.4,
            violating_paths: 9,
            endpoints: 100,
            mls_nets: 7,
            f2f_pads: 321,
            power_mw: 55.0,
            eff_freq_mhz: 2400.0,
            ..Default::default()
        };
        let m = suite_metrics(&r);
        assert_eq!(m["f2f_pads"], 321.0);
        assert_eq!(m["wns_ps"], -12.0);
        assert!(!m.contains_key("ir_drop_pct"));
        assert!(!m.contains_key("test_coverage_pct"));
        r.ir_drop_pct = Some(8.5);
        r.test_coverage_pct = Some(97.5);
        r.dft_cells = 12;
        let m = suite_metrics(&r);
        assert_eq!(m["ir_drop_pct"], 8.5);
        assert_eq!(m["dft_cells"], 12.0);
    }

    #[test]
    fn mls_gains_compare_against_group_baseline() {
        let manifest = parse_manifest(
            r#"
version = 1
[[scenario]]
name = "base"
design = "maeri16"
policy = "no-mls"
profiles = ["t"]
group = "g"
[[scenario]]
name = "ours"
design = "maeri16"
policy = "sota"
profiles = ["t"]
group = "g"
"#,
        )
        .unwrap();
        let mk = |name: &str, wl: f64, wns: f64| ScenarioResult {
            name: name.into(),
            design: "maeri16".into(),
            tech: "hetero".into(),
            policy: if name == "base" { "no-mls" } else { "sota" }.into(),
            metrics: BTreeMap::from([("wirelength_m".into(), wl), ("wns_ps".into(), wns)]),
            wall_clock_s: 0.0,
        };
        let mut results = vec![mk("base", 2.0, -50.0), mk("ours", 1.5, -20.0)];
        let rows: Vec<(&Scenario, usize)> = manifest.scenarios.iter().zip(0usize..).collect();
        add_mls_gains(&rows, &mut results);
        assert!(!results[0].metrics.contains_key("mls_wl_gain_pct"));
        assert_eq!(results[1].metrics["mls_wl_gain_pct"], 25.0);
        assert_eq!(results[1].metrics["mls_wns_gain_ps"], 30.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = SuiteReport {
            schema_version: SUITE_SCHEMA_VERSION,
            manifest_version: 2,
            profile: "ci".into(),
            scenarios: vec![ScenarioResult {
                name: "s".into(),
                design: "maeri16".into(),
                tech: "hetero".into(),
                policy: "no-mls".into(),
                metrics: BTreeMap::from([("wns_ps".into(), -1.25)]),
                wall_clock_s: 3.5,
            }],
        };
        let json = report_to_json(&report);
        let back: SuiteReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
