//! The repository benchmark: three named workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow-gnn-maeri64 --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`); the
//! lines before it name every metric with its unit plus the run's
//! context (seed, cores, thread knob, source revision). A full copy of
//! each result goes to `<target-dir>/perfbench/`. See `README.md` for
//! the workloads, the metric definitions and the layer map.

mod flow;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported by every workload on untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("rps", "1/s"),
];

/// Per-layer metrics, reported by every workload on traced runs; a
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("phys.place_s", "s"),
    ("phys.repeaters_s", "s"),
    ("pdn.level_shifters_s", "s"),
    ("decisions_s", "s"),
    ("route.baseline_s", "s"),
    ("sta.baseline_s", "s"),
    ("paths.extract_s", "s"),
    ("paths.samples", "count"),
    ("paths.nodes", "count"),
    ("oracle.label_s", "s"),
    ("oracle.what_ifs", "count"),
    ("oracle.positive_frac", "ratio"),
    ("model.pretrain_s", "s"),
    ("model.pretrain_us_per_node_epoch", "us"),
    ("model.finetune_s", "s"),
    ("model.finetune_us_per_node_epoch", "us"),
    ("model.evaluate_s", "s"),
    ("model.decide_s", "s"),
    ("route.new_s", "s"),
    ("route.route_all_s", "s"),
    ("route.db_s", "s"),
    ("route.astar_searches", "count"),
    ("route.astar_expansions", "count"),
    ("route.ripup_rounds", "count"),
    ("route.expansions_per_s", "1/s"),
    ("route.mls_nets", "count"),
    ("route.pattern_fallback_sinks", "count"),
    ("route.overflowed_nets", "count"),
    ("audit.routes_s", "s"),
    ("sta.final_s", "s"),
    ("pdn.power_s", "s"),
    ("pdn.ir_s", "s"),
    ("flow.traced_s", "s"),
    ("flow.unattributed_frac", "ratio"),
    ("flow.trace_matches", "bool"),
    ("flow.trace_overhead_frac", "ratio"),
    ("session.build_s", "s"),
    ("session.restore_p50_ms", "ms"),
    ("session.whatif_p50_ms", "ms"),
    ("session.whatif_p99_ms", "ms"),
    ("session.audit_p50_ms", "ms"),
    ("session.infer_p50_ms", "ms"),
    ("protocol.encode_p50_us", "us"),
    ("protocol.decode_p50_us", "us"),
    ("server.whatif_overhead_p50_ms", "ms"),
    ("server.infer_overhead_p50_ms", "ms"),
    ("server.cache_hit_frac", "ratio"),
    ("server.infer_batch_mean", "count"),
    ("server.busy", "count"),
    ("server.served", "count"),
    ("loadgen.lag_p99_ms", "ms"),
];

/// Command-line arguments of one benchmark run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (errors, refusals, wrong answers).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub wrong: Vec<String>,
    /// Gated metrics: end-to-end on untraced runs, per-layer on traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific results printed beside the gated metrics.
    pub report: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    pub fn note(&mut self, name: &str, v: f64, unit: &'static str) {
        self.report.push((name.to_string(), v, unit));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"))
    };
    let trace = match num("trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = num("seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// Where full results and the fingerprint ledger go: `perfbench/` in
/// the cargo target directory this binary was built into.
pub fn results_dir() -> std::path::PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    // <target>/release/gnnmls-perfbench -> <target>/perfbench
    match exe.parent().and_then(|p| p.parent()) {
        Some(target) => target.join("perfbench"),
        None => std::path::PathBuf::from("perfbench-results"),
    }
}

/// The revision being measured: the git HEAD when the working directory
/// is a git checkout, plus an FNV-1a digest of the Rust sources and
/// manifests under `crates/` and of `perfbench/src/` (a plain source
/// export has no git data).
pub fn revision() -> (String, String) {
    let head = std::fs::read_to_string(".git/HEAD")
        .ok()
        .map(|h| {
            let h = h.trim().to_string();
            match h.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(format!(".git/{r}"))
                    .map(|s| s.trim().to_string())
                    .unwrap_or(h),
                None => h,
            }
        })
        .unwrap_or_else(|| "none".to_string());
    let mut files = Vec::new();
    let mut stack = vec!["crates".into(), std::path::PathBuf::from("perfbench/src")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut digest = Vec::new();
    for f in &files {
        digest.extend_from_slice(f.to_string_lossy().as_bytes());
        digest.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    (
        head,
        format!("{:016x}", gnn_mls::checkpoint::fnv1a64(&digest)),
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn emit(args: &Args, out: &Outcome) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env_threads = std::env::var("GNNMLS_THREADS").unwrap_or_else(|_| "unset".into());
    let (head, src) = revision();
    // Flows pin their knob; the serve daemon keeps its default (0 = all cores).
    let threads = if args.workload.starts_with("flow") {
        flow::FLOW_THREADS
    } else {
        0
    };
    let context = format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} threads_knob={threads} \
         GNNMLS_THREADS={env_threads} commit={head} source_fnv={src}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
    );
    println!("# {context}");
    for (name, v, unit) in &out.report {
        println!("# {name} = {v} {unit}");
    }
    for w in &out.wrong {
        println!("# WRONG: {w}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let v = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        println!("# {name} = {v} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        ));
    }
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.wrong.is_empty() && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    let dir = results_dir();
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let report: Vec<String> = out
        .report
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    let full = format!(
        "{{\"context\": \"{context}\", \"report\": {{{}}}, \"result\": {line}}}\n",
        report.join(", ")
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, full)) {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--daemon") {
        return serve::daemon();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <flow-gnn-maeri64|flow-route-noc8x8|serve-warm-mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload.as_str() {
        "flow-gnn-maeri64" => flow::run(flow::Kind::Gnn, &args),
        "flow-route-noc8x8" => flow::run(flow::Kind::Route, &args),
        "serve-warm-mix" => serve::run(&args),
        w => Err(format!("unknown workload `{w}`")),
    };
    match outcome.and_then(|o| emit(&args, &o)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
