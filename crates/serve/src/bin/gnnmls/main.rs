//! `gnnmls` — command-line front end to the GNN-MLS flow and daemon.
//!
//! `gnnmls` with no arguments prints `usage()`: every verb, flag and
//! environment variable the binary takes, and the one list CI checks
//! the docs against.
//!
//! Argument parsing is hand-rolled (the workspace is dependency-minimal).
//! Every verb returns its failure as a message, a failed stdout write
//! included; `main` prints it to stderr and exits 1.

use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use gnn_mls::checkpoint::ModelVersion;
use gnn_mls::flow::{run_flow, FlowPolicy};
use gnn_mls::session::{SessionSpec, DESIGNS};
use gnn_mls::{GnnMls, ModelConfig};
use gnnmls_netlist::verilog::write_verilog;
use gnnmls_serve::cluster::{ClusterConfig, ClusterFront, ShardBackendSpec, ShardSpawnSpec};
use gnnmls_serve::protocol::{Request, ResponseKind};
use gnnmls_serve::{Client, RetryPolicy, ServeConfig, Server};
use gnnmls_zoo::{CorpusConfig, Registry};

mod loadgen;
mod zoobench;

use loadgen::{run_cluster_bench, ClusterBenchConfig};
use zoobench::{run_zoo_bench, ZooBenchConfig};

const DEFAULT_ADDR: &str = "127.0.0.1:7117";

/// The binary's stdout: `writeln!(Out, ..)` writes and flushes, and
/// hands a failed write (a closed pipe, a full disk under a redirect)
/// to the verb's `Result`, so `main` reports it on stderr with exit 1
/// where `println!` would panic. Every stdout line goes through here.
struct Out;

impl Out {
    /// What `write!` and `writeln!` call.
    fn write_fmt(&mut self, args: fmt::Arguments<'_>) -> Result<(), String> {
        let mut stdout = std::io::stdout().lock();
        stdout
            .write_fmt(args)
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("gnnmls: could not write to stdout: {e}"))
    }
}

fn usage() -> &'static str {
    "usage:\n  gnnmls flow --design <name> [--tech hetero|homo] [--policy no-mls|sota|gnn-mls]\n              [--freq <MHz>] [--dft net|wire] [--json <path>] [--verilog <path>]\n              [--save-model <path>] [--load-model <path>] [--resume <dir>] [--fast]\n  gnnmls serve [--addr 127.0.0.1:7117] [--queue <jobs>] [--workers <n>]\n               [--cache <sessions>] [--checkpoint <dir>] [--admit <cost units>]\n  gnnmls serve --cluster [--shards <n>] [--addr 127.0.0.1:7117]\n               [--queue <jobs>] [--workers <n>] [--cache <sessions>]\n               [--admit <cost units>] [--checkpoint <dir>]\n               # spawns <n> shard daemons, routes v2 frames by spec hash,\n               # fails over through per-shard circuit breakers\n  gnnmls bench suite [--manifest bench/suite.toml] [--profile ci]\n                     [--out target/bench/BENCH_suite.json] [--commit-baseline]\n  gnnmls bench diff  [--baseline bench/baseline.json]\n                     [--fresh target/bench/BENCH_suite.json]\n                     [--perturb <scenario>:<metric>:<delta>]   # gate self-test\n  gnnmls bench cluster [--shards <n>] [--clients <n>] [--requests <n>]\n                       [--seed <n>] [--no-kill]\n                       # mixed whatif/infer load with a kill-one-shard\n                       # schedule; writes target/bench/BENCH_cluster.json\n  gnnmls bench zoo [--swap-iters <n>] [--target-accuracy <frac>] [--max-epochs <n>]\n                   # pretrain-vs-scratch convergence + warm-swap latency;\n                   # writes target/bench/BENCH_zoo.json\n  gnnmls model train   [--corpus tiny|full] [--dir zoo] [--threads <n>]\n                       # build the cross-design corpus, DGI-pretrain once,\n                       # fine-tune per family, publish versioned checkpoints\n  gnnmls model list    [--dir zoo]\n  gnnmls model inspect --family <f> [--version <x.y.z>] [--dir zoo]\n  gnnmls model verify  [--dir zoo]    # re-hash every checkpoint vs the manifest\n  gnnmls fsck <dir> [--json <path>]   # crash-recovery scrub of a checkpoint,\n                       # registry, or ledger directory: deletes orphan *.tmp,\n                       # quarantines torn/hash-mismatched files to *.damaged,\n                       # rolls the zoo manifest back to last-good; exits\n                       # nonzero when <dir> is not a directory or when\n                       # damage was unrepairable\n  gnnmls client whatif   [--addr <addr>] <spec flags> --net <id> [--no-mls] [--budget <expansions>]\n  gnnmls client infer    [--addr <addr>] <spec flags> [--paths <k>]\n  gnnmls client stats    [--addr <addr>] [<spec flags>]\n  gnnmls client flow     [--addr <addr>] <spec flags>\n  gnnmls client health   [--addr <addr>]\n  gnnmls client metrics  [--addr <addr>]\n  gnnmls client load-model [--addr <addr>] --model <checkpoint.ckpt>\n                       # hot-swap the checkpoint's family on a live daemon\n                       # (broadcasts to every shard through a cluster front)\n  gnnmls client shutdown [--addr <addr>]\n  gnnmls designs\n\n<spec flags>: [--design <name>] [--tech hetero|homo] [--policy no-mls|sota|gnn-mls]\n              [--freq <MHz>] [--fast]\nclient flags: [--retries <n>] [--retry-seed <n>] retry shed/stalled requests\n              with capped exponential backoff and deterministic jitter\n\nGNNMLS_THREADS=<n> caps worker-thread fan-out. Precedence: an explicit\nnon-zero FlowConfig::threads (or RouteConfig::threads) knob wins; when\nthe knob is 0 (auto, the default everywhere), GNNMLS_THREADS overrides\nthe all-cores default. A non-numeric value is rejected at startup.\nGNNMLS_FAULTS=<site:shots,...|seed:N> arms the deterministic fault harness.\nGNNMLS_TRACE=<path> appends structured spans/events/metrics as JSONL;\n`gnnmls client metrics` scrapes a live daemon's registry as text exposition.\n"
}

fn main() -> ExitCode {
    // Armed only when GNNMLS_FAULTS is set; the guard must outlive the run.
    let _faults = gnnmls_faults::install_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        ExitCode::FAILURE
    })
}

/// Checks the environment, then runs the verb `args` names.
fn run(args: &[String]) -> Result<ExitCode, String> {
    // Armed only when GNNMLS_TRACE is set: every span/event/metric from
    // this process appends to that JSONL file.
    gnnmls_obs::init_from_env()
        .map_err(|e| format!("gnnmls: could not open {} sink: {e}", gnnmls_obs::TRACE_ENV))?;
    // Reject a malformed GNNMLS_THREADS up front with a typed message
    // instead of silently running on all cores.
    gnnmls_par::env_threads().map_err(|e| format!("gnnmls: {e}"))?;
    match args.first().map(String::as_str) {
        Some("designs") => {
            for (name, desc) in DESIGNS {
                writeln!(Out, "{name:10} {desc}")?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("flow") => run_flow_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("client") => client_cmd(&args[1..]),
        Some("bench") => bench_cmd(&args[1..]),
        Some("model") => model_cmd(&args[1..]),
        Some("fsck") => fsck_cmd(&args[1..]),
        // `main` adds back the one newline the usage text ends in.
        _ => Err(usage().trim_end().to_string()),
    }
}

/// Exit 0 when `ok`, else 1: the verb has already printed its verdict
/// (a refused request, a failed gate, an inconsistent scrub).
fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Opts<'a> = HashMap<&'a str, &'a str>;

/// Parses `--key value` pairs (plus bare flags listed in `flags`).
fn split_opts<'a>(
    args: &'a [String],
    keys: &[&str],
    flags: &[&str],
) -> Result<(Opts<'a>, Vec<&'a str>), String> {
    let mut opts = HashMap::new();
    let mut seen_flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        if flags.contains(&key) {
            seen_flags.push(key);
            continue;
        }
        if !keys.contains(&key) {
            return Err(format!("unknown option --{key}"));
        }
        let Some(v) = it.next() else {
            return Err(format!("missing value for --{key}"));
        };
        opts.insert(key, v.as_str());
    }
    Ok((opts, seen_flags))
}

/// [`split_opts`], failing with the usage text after the message.
fn parse_opts<'a>(
    args: &'a [String],
    keys: &[&str],
    flags: &[&str],
) -> Result<(Opts<'a>, Vec<&'a str>), String> {
    split_opts(args, keys, flags).map_err(|e| format!("{e}\n{}", usage()))
}

/// Reads `--key` as a `T` that `accept` admits; a value that does not
/// parse, or that `accept` refuses, fails with `message`.
fn opt<T: FromStr>(
    opts: &Opts,
    key: &str,
    accept: impl FnOnce(&T) -> bool,
    message: &str,
) -> Result<Option<T>, String> {
    opts.get(key)
        .map(|v| {
            v.parse()
                .ok()
                .filter(accept)
                .ok_or_else(|| message.to_string())
        })
        .transpose()
}

/// [`opt`] predicate: any value that parses.
fn any<T>(_: &T) -> bool {
    true
}

/// [`opt`] predicate: a value above zero.
fn positive<T: PartialOrd + Default>(n: &T) -> bool {
    *n > T::default()
}

/// Builds a [`SessionSpec`] from the shared spec flags and checks it
/// with [`SessionSpec::validate`].
fn spec_from_opts(opts: &Opts, fast: bool) -> Result<SessionSpec, String> {
    let design = opts.get("design").copied().unwrap_or("maeri16");
    let mut spec = SessionSpec::new(design);
    spec.fast = fast;
    if let Some(tech) = opts.get("tech") {
        spec.tech = (*tech).to_string();
    }
    if let Some(policy) = opts.get("policy") {
        spec.policy = policy.parse()?;
    }
    if let Some(freq) = opts.get("freq") {
        spec.target_freq_mhz = freq
            .parse()
            .map_err(|_| format!("--freq must be a number (MHz), got `{freq}`"))?;
    }
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

fn serve_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (opts, flags) = parse_opts(
        args,
        &[
            "addr",
            "queue",
            "workers",
            "cache",
            "checkpoint",
            "admit",
            "shards",
        ],
        &["cluster"],
    )?;
    if flags.contains(&"cluster") {
        return serve_cluster_cmd(&opts);
    }
    if opts.contains_key("shards") {
        return Err("--shards only applies with --cluster".to_string());
    }
    let server = Server::start(serve_config(&opts)?)
        .map_err(|e| format!("gnnmls serve: could not bind: {e}"))?;
    writeln!(Out, "gnnmls-serve listening on {}", server.local_addr())?;
    let stats = server.wait();
    eprintln!(
        "gnnmls-serve drained: {} served, {} busy, {} errors, {} cache hits / {} misses",
        stats.served, stats.busy, stats.errors, stats.cache_hits, stats.cache_misses
    );
    match serde_json::to_string_pretty(&stats) {
        Ok(json) => writeln!(Out, "{json}")?,
        Err(e) => eprintln!("could not serialize final stats: {e}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// The daemon's knobs, checked: `serve` runs with them, and `serve
/// --cluster` checks them before it forwards them to its shards.
fn serve_config(opts: &Opts) -> Result<ServeConfig, String> {
    let count = |key: &str| {
        let message = format!("--{key} must be a positive integer");
        opt(opts, key, positive, &message)
    };
    let admit = "--admit must be a positive cost-unit count";
    let addr = opts.get("addr").copied().unwrap_or(DEFAULT_ADDR);
    let defaults = ServeConfig::default();
    ServeConfig::builder()
        .addr(addr.to_string())
        .queue_capacity(count("queue")?.unwrap_or(defaults.queue_capacity))
        .workers(count("workers")?.unwrap_or(defaults.workers))
        .cache_capacity(count("cache")?.unwrap_or(defaults.cache_capacity))
        .admission_budget(opt(opts, "admit", positive, admit)?.unwrap_or(defaults.admission_budget))
        .checkpoint_dir(opts.get("checkpoint").map(PathBuf::from))
        .build()
        .map_err(|e| format!("gnnmls serve: {e}"))
}

/// `gnnmls serve --cluster`: spawn `--shards` copies of this binary as
/// backend daemons (forwarding the serve knobs), route by spec hash,
/// and print the merged stats envelope after drain.
fn serve_cluster_cmd(opts: &Opts) -> Result<ExitCode, String> {
    let bad_shards = "--shards must be a positive shard count";
    let shards = opt(opts, "shards", positive, bad_shards)?.unwrap_or(3);
    // A shard that refuses a knob exits unseen: refuse it here, with the
    // daemon's own message, before any shard is spawned.
    serve_config(opts)?;
    let mut shard_args = vec!["serve".to_string()];
    for key in ["queue", "workers", "cache", "admit"] {
        if let Some(v) = opts.get(key) {
            shard_args.push(format!("--{key}"));
            shard_args.push((*v).to_string());
        }
    }
    let exe = std::env::current_exe()
        .map_err(|e| format!("gnnmls serve --cluster: cannot locate own binary: {e}"))?;
    let addr = opts.get("addr").copied().unwrap_or(DEFAULT_ADDR);
    let cfg = ClusterConfig {
        addr: addr.to_string(),
        checkpoint_dir: opts.get("checkpoint").map(PathBuf::from),
        ..ClusterConfig::default()
    };
    let backends = (0..shards)
        .map(|_| {
            ShardBackendSpec::Spawn(ShardSpawnSpec {
                exe: exe.clone(),
                args: shard_args.clone(),
            })
        })
        .collect();
    let front =
        ClusterFront::start(cfg, backends).map_err(|e| format!("gnnmls serve --cluster: {e}"))?;
    writeln!(
        Out,
        "gnnmls-cluster front listening on {}",
        front.local_addr()
    )?;
    for ((id, addr), pid) in front
        .shard_addrs()
        .iter()
        .enumerate()
        .zip(front.shard_pids())
    {
        match pid {
            Some(pid) => eprintln!("  shard {id}: {addr} (pid {pid})"),
            None => eprintln!("  shard {id}: {addr}"),
        }
    }
    let stats = front.wait();
    eprintln!(
        "gnnmls-cluster drained: {} requests, {} ok, {} failovers ({} cold), \
         {} lost after retry, {} shard crashes / {} respawns",
        stats.requests,
        stats.relayed_ok,
        stats.failovers,
        stats.failover_cold,
        stats.lost_after_retry,
        stats.shard_crashes,
        stats.shard_respawns
    );
    match serde_json::to_string_pretty(&stats) {
        Ok(json) => writeln!(Out, "{json}")?,
        Err(e) => eprintln!("could not serialize final cluster stats: {e}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn client_cmd(args: &[String]) -> Result<ExitCode, String> {
    let Some(verb) = args.first().map(String::as_str) else {
        return Err(usage().trim_end().to_string());
    };
    let (opts, flags) = parse_opts(
        &args[1..],
        &[
            "addr",
            "design",
            "tech",
            "policy",
            "freq",
            "net",
            "budget",
            "paths",
            "model",
            "retries",
            "retry-seed",
        ],
        &["fast", "no-mls"],
    )?;
    let spec = spec_from_opts(&opts, flags.contains(&"fast"))?;
    let mut retry = RetryPolicy::default();
    let bad_retries = "--retries must be a positive attempt count";
    retry.max_attempts =
        opt(&opts, "retries", positive, bad_retries)?.unwrap_or(retry.max_attempts);
    let bad_seed = "--retry-seed must be an integer";
    retry.seed = opt(&opts, "retry-seed", any, bad_seed)?.unwrap_or(retry.seed);
    let req = match verb {
        "whatif" => {
            let need_net = "whatif requires --net <id>";
            let net = opt(&opts, "net", any, need_net)?.ok_or(need_net)?;
            let bad_budget = "--budget must be an integer expansion count";
            let budget = opt(&opts, "budget", any, bad_budget)?;
            Request::what_if(1, spec, net, !flags.contains(&"no-mls"), budget)
        }
        "infer" => {
            let paths = opt(&opts, "paths", any, "--paths must be an integer")?;
            Request::infer(1, spec, paths)
        }
        "stats" => Request::stats(1, spec),
        "flow" => Request::run_flow(1, spec),
        "health" => Request::health(1),
        "metrics" => Request::metrics(1),
        "load-model" => {
            let path = opts
                .get("model")
                .ok_or("load-model requires --model <checkpoint.ckpt>")?;
            Request::load_model(1, *path)
        }
        "shutdown" => Request::shutdown(1),
        other => return Err(format!("unknown client verb `{other}`\n{}", usage())),
    };
    // Connect only once there is a request to send.
    let addr = opts.get("addr").copied().unwrap_or(DEFAULT_ADDR);
    let mut client = Client::connect(addr)
        .map_err(|e| format!("gnnmls client: could not connect to {addr}: {e}"))?;
    // Shutdown is not retried: resending it to a draining daemon only
    // races the drain.
    let resp = if verb == "shutdown" {
        client
            .request(&req)
            .map_err(|e| format!("gnnmls client: {e}"))?
    } else {
        client
            .request_with_retry(&req, &retry)
            .map_err(|e| format!("gnnmls client: {e}"))?
    };
    // Metrics prints the exposition text raw so the output pipes
    // straight into a Prometheus-style scraper.
    if verb == "metrics" && resp.kind == ResponseKind::Ok {
        write!(Out, "{}", resp.metrics.unwrap_or_default())?;
        return Ok(ExitCode::SUCCESS);
    }
    let json = serde_json::to_string_pretty(&resp)
        .map_err(|e| format!("could not serialize response: {e}"))?;
    writeln!(Out, "{json}")?;
    Ok(exit_code(resp.kind == ResponseKind::Ok))
}

/// Default output path for a fresh suite run — under `target/` so local
/// runs never dirty the committed ledger; `--commit-baseline` is the
/// only way to update `bench/baseline.json`.
const SUITE_FRESH_PATH: &str = "target/bench/BENCH_suite.json";
/// The committed regression baseline `bench diff` gates against.
const SUITE_BASELINE_PATH: &str = "bench/baseline.json";
/// The committed scenario manifest.
const SUITE_MANIFEST_PATH: &str = "bench/suite.toml";

fn bench_cmd(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("suite") => bench_suite_cmd(&args[1..]),
        Some("diff") => bench_diff_cmd(&args[1..]),
        Some("cluster") => bench_cluster_cmd(&args[1..]),
        Some("zoo") => bench_zoo_cmd(&args[1..]),
        other => Err(format!(
            "unknown bench verb `{}` (suite|diff|cluster|zoo)\n{}",
            other.unwrap_or(""),
            usage()
        )),
    }
}

fn bench_suite_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (opts, flags) = parse_opts(args, &["manifest", "profile", "out"], &["commit-baseline"])?;
    let fail = |e: gnnmls_bench::SuiteError| format!("gnnmls bench suite: {e}");
    let manifest_path = opts.get("manifest").copied().unwrap_or(SUITE_MANIFEST_PATH);
    let profile = opts.get("profile").copied().unwrap_or("ci");
    let out = opts.get("out").copied().unwrap_or(SUITE_FRESH_PATH);
    let manifest = gnnmls_bench::load_manifest(Path::new(manifest_path)).map_err(fail)?;
    let report = gnnmls_bench::run_suite(&manifest, profile).map_err(fail)?;
    for s in &report.scenarios {
        let wns = s.metrics.get("wns_ps").copied().unwrap_or(f64::NAN);
        let wl = s.metrics.get("wirelength_m").copied().unwrap_or(f64::NAN);
        let f2f = s.metrics.get("f2f_pads").copied().unwrap_or(f64::NAN);
        writeln!(
            Out,
            "{:24} {:8} {:8} WNS {wns:9.1} ps  WL {wl:7.3} m  F2F {f2f:6.0}  ({:.1}s)",
            s.name, s.design, s.policy, s.wall_clock_s
        )?;
    }
    let mut targets = vec![PathBuf::from(out)];
    if flags.contains(&"commit-baseline") {
        targets.push(PathBuf::from(SUITE_BASELINE_PATH));
    }
    for path in targets {
        gnnmls_bench::write_report(&report, &path).map_err(fail)?;
        eprintln!("suite ledger written to {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// `gnnmls bench cluster`: spawn a front + shards, drive mixed load
/// with a kill-one-shard-mid-run schedule, and write the latency /
/// failover ledger to `target/bench/BENCH_cluster.json`.
fn bench_cluster_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (opts, flags) = parse_opts(
        args,
        &["shards", "clients", "requests", "specs", "seed"],
        &["no-kill"],
    )?;
    let mut cfg = ClusterBenchConfig::default();
    for (key, slot) in [
        ("shards", &mut cfg.shards),
        ("clients", &mut cfg.clients),
        ("requests", &mut cfg.requests),
        ("specs", &mut cfg.specs),
    ] {
        let message = format!("--{key} must be a positive integer");
        *slot = opt(&opts, key, positive, &message)?.unwrap_or(*slot);
    }
    cfg.seed = opt(&opts, "seed", any, "--seed must be an integer")?.unwrap_or(cfg.seed);
    cfg.kill_mid_run = !flags.contains(&"no-kill");
    cfg.shard_exe = std::env::current_exe()
        .map_err(|e| format!("gnnmls bench cluster: cannot locate own binary: {e}"))?;
    let report = run_cluster_bench(&cfg).map_err(|e| format!("gnnmls bench cluster: {e}"))?;
    writeln!(
        Out,
        "cluster bench: {} shards, {} clients, {} requests  p50 {:.1} ms  p99 {:.1} ms",
        report.shards, report.clients, report.requests, report.p50_ms, report.p99_ms
    )?;
    writeln!(
        Out,
        "  ok {}  shed {}  errored {}  shed-rate {:.3}  failovers {} ({} cold)  \
         respawns {}  lost-after-retry {}",
        report.ok,
        report.shed,
        report.errored,
        report.shed_rate,
        report.failovers,
        report.failover_cold,
        report.shard_respawns,
        report.lost_after_retry
    )?;
    for s in &report.per_shard {
        writeln!(
            Out,
            "  shard {}: served {}  hit-rate {:.3}  crashes {}  respawns {}",
            s.id, s.served, s.hit_rate, s.crashes, s.respawns
        )?;
    }
    eprintln!("cluster ledger written to target/bench/BENCH_cluster.json");
    // The run is a robustness gate, not just a ledger: a request lost
    // after exhausting retries fails the command.
    if report.lost_after_retry > 0 {
        return Err(format!(
            "gnnmls bench cluster: {} request(s) lost after retry",
            report.lost_after_retry
        ));
    }
    Ok(ExitCode::SUCCESS)
}

/// `gnnmls bench zoo`: pretrain-vs-scratch convergence probe plus
/// warm-swap latency against a freshly booted daemon; writes
/// `target/bench/BENCH_zoo.json`.
fn bench_zoo_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (opts, _) = parse_opts(
        args,
        &["swap-iters", "target-accuracy", "max-epochs", "threads"],
        &[],
    )?;
    let mut cfg = ZooBenchConfig::default();
    let count = |key: &str, accept: fn(&usize) -> bool| {
        let message = format!("--{key} must be a positive integer");
        opt(&opts, key, accept, &message)
    };
    cfg.swap_iters = count("swap-iters", positive)?.unwrap_or(cfg.swap_iters);
    cfg.max_epochs = count("max-epochs", positive)?.unwrap_or(cfg.max_epochs);
    // `--threads 0` is auto.
    cfg.threads = count("threads", any)?.unwrap_or(cfg.threads);
    let in_unit = |f: &f64| *f > 0.0 && *f <= 1.0;
    let bad_accuracy = "--target-accuracy must be in (0, 1]";
    cfg.target_accuracy =
        opt(&opts, "target-accuracy", in_unit, bad_accuracy)?.unwrap_or(cfg.target_accuracy);
    let report = run_zoo_bench(&cfg).map_err(|e| format!("gnnmls bench zoo: {e}"))?;
    writeln!(
        Out,
        "zoo bench: {} designs / {} samples, families {:?}, DGI loss {:.4}",
        report.corpus_designs, report.corpus_samples, report.families, report.pretrain_loss
    )?;
    writeln!(
        Out,
        "  to {:.0}% accuracy: scratch {} epochs (acc {:.3}, converged {})  \
         pretrained {} epochs (acc {:.3}, converged {})",
        report.target_accuracy * 100.0,
        report.scratch.epochs,
        report.scratch.accuracy,
        report.scratch.converged,
        report.pretrained.epochs,
        report.pretrained.accuracy,
        report.pretrained.converged
    )?;
    writeln!(
        Out,
        "  warm swap over {} iters: p50 {} us  max {} us",
        report.swap_iters, report.swap_p50_us, report.swap_max_us
    )?;
    eprintln!("zoo ledger written to target/bench/BENCH_zoo.json");
    Ok(ExitCode::SUCCESS)
}

/// Default on-disk model registry directory.
const ZOO_DIR: &str = "zoo";

fn model_cmd(args: &[String]) -> Result<ExitCode, String> {
    let Some(verb) = args.first().map(String::as_str) else {
        return Err(format!(
            "model wants a verb (train|list|inspect|verify)\n{}",
            usage()
        ));
    };
    let (opts, _) = parse_opts(
        &args[1..],
        &["corpus", "dir", "threads", "family", "version"],
        &[],
    )?;
    let registry = Registry::open(opts.get("dir").copied().unwrap_or(ZOO_DIR));
    match verb {
        "train" => model_train_cmd(&registry, &opts),
        "list" => model_list_cmd(&registry),
        "inspect" => model_inspect_cmd(&registry, &opts),
        "verify" => model_verify_cmd(&registry),
        other => Err(format!(
            "unknown model verb `{other}` (train|list|inspect|verify)"
        )),
    }
}

/// `gnnmls model train`: sweep the seeded generators into a corpus,
/// DGI-pretrain across every design, fine-tune per family, and publish
/// each model at the registry's next version.
fn model_train_cmd(registry: &Registry, opts: &Opts) -> Result<ExitCode, String> {
    let fail = |e: gnnmls_zoo::ZooError| format!("gnnmls model train: {e}");
    let mut corpus_cfg = match opts.get("corpus").copied().unwrap_or("tiny") {
        "tiny" => CorpusConfig::tiny(),
        "full" => CorpusConfig::full(),
        other => return Err(format!("unknown corpus `{other}` (tiny|full)")),
    };
    let bad_threads = "--threads must be an integer (0 = auto)";
    corpus_cfg.threads = opt(opts, "threads", any, bad_threads)?.unwrap_or(corpus_cfg.threads);
    eprintln!(
        "building corpus: families {:?}, {} seed(s) x {} variant(s)...",
        corpus_cfg.families,
        corpus_cfg.seeds.len(),
        corpus_cfg.variants_per_family
    );
    let corpus = gnnmls_zoo::build_corpus(&corpus_cfg).map_err(fail)?;
    eprintln!(
        "corpus: {} designs, {} unlabeled samples; pretraining...",
        corpus.designs.len(),
        corpus.len()
    );
    let models = gnnmls_zoo::train_zoo(&corpus, &ModelConfig::default(), corpus_cfg.threads)
        .map_err(fail)?;
    for fam in &models {
        let version = registry.next_version(&fam.family).map_err(fail)?;
        let entry = registry
            .publish(&fam.to_zoo_checkpoint(version))
            .map_err(|e| format!("gnnmls model train: publish {}: {e}", fam.family))?;
        writeln!(
            Out,
            "{:6} v{}  {} params  f1 {:.3}  -> {}",
            entry.family,
            entry.version,
            entry.parameter_count,
            fam.metrics.f1(),
            registry.entry_path(&entry).display()
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn model_list_cmd(registry: &Registry) -> Result<ExitCode, String> {
    let manifest = registry
        .manifest()
        .map_err(|e| format!("gnnmls model list: {e}"))?;
    if manifest.entries.is_empty() {
        eprintln!("no models published under {}", registry.dir().display());
    }
    for e in &manifest.entries {
        writeln!(
            Out,
            "{:6} v{:8} {:10} params  {} corpus design(s)  {}",
            e.family, e.version, e.parameter_count, e.corpus_designs, e.file
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn model_inspect_cmd(registry: &Registry, opts: &Opts) -> Result<ExitCode, String> {
    let family = opts
        .get("family")
        .ok_or("model inspect requires --family <f>")?;
    let version = opts
        .get("version")
        .map(|v| ModelVersion::parse(v).ok_or("--version wants <major>.<minor>.<patch>"))
        .transpose()?;
    let cp = registry
        .load(family, version)
        .map_err(|e| format!("gnnmls model inspect: {e}"))?;
    writeln!(Out, "family:           {}", cp.family)?;
    writeln!(Out, "version:          {}", cp.version)?;
    writeln!(Out, "pretrain epochs:  {}", cp.pretrain_epochs)?;
    writeln!(Out, "finetune epochs:  {}", cp.finetune_epochs)?;
    writeln!(Out, "corpus designs:   {}", cp.corpus_hashes.len())?;
    for h in &cp.corpus_hashes {
        writeln!(Out, "  content hash:   {h:016x}")?;
    }
    let model = GnnMls::from_checkpoint(cp.model)
        .map_err(|e| format!("gnnmls model inspect: checkpoint does not restore: {e}"))?;
    writeln!(Out, "parameters:       {}", model.parameter_count())?;
    Ok(ExitCode::SUCCESS)
}

fn model_verify_cmd(registry: &Registry) -> Result<ExitCode, String> {
    let report = registry
        .verify()
        .map_err(|e| format!("gnnmls model verify: {e}"))?;
    writeln!(
        Out,
        "checked {} checkpoint(s) under {}",
        report.checked,
        registry.dir().display()
    )?;
    if !report.ok() {
        let problems: Vec<String> = report
            .problems
            .iter()
            .map(|p| format!("  PROBLEM: {p}"))
            .collect();
        return Err(problems.join("\n"));
    }
    writeln!(Out, "all checkpoints match the manifest")?;
    Ok(ExitCode::SUCCESS)
}

const FSCK_USAGE: &str = "usage: gnnmls fsck <dir> [--json <path>]";

fn fsck_cmd(args: &[String]) -> Result<ExitCode, String> {
    let Some(dir) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(FSCK_USAGE.to_string());
    };
    let (opts, _) =
        split_opts(&args[1..], &["json"], &[]).map_err(|e| format!("{e}\n{FSCK_USAGE}"))?;
    let path = Path::new(dir);
    // The scrub treats a missing directory as an empty one, which a first
    // `--resume` run relies on; named here, it is a typo to report.
    if !path.is_dir() {
        return Err(format!("gnnmls fsck: {dir}: no such directory"));
    }
    // A directory that carries (or carried) a zoo manifest gets the
    // registry-aware scrub — rollback to last-good, orphan adoption,
    // manifest rebuild. Anything else (resume dirs, bench ledgers,
    // drain-stats dirs) gets the generic artifact scrub.
    let manifest = path.join(gnnmls_zoo::MANIFEST_FILE);
    let registry_mode = manifest.exists()
        || gnn_mls::store::damaged_path(&manifest).exists()
        || gnn_mls::store::tmp_path(&manifest).exists();
    let report = if registry_mode {
        Registry::open_unscrubbed(path)
            .scrub()
            .map_err(|e| format!("gnnmls fsck: {e}"))?
    } else {
        gnn_mls::store::scrub_dir(path).map_err(|e| format!("gnnmls fsck: {e}"))?
    };
    writeln!(
        Out,
        "fsck {}: {} artifact(s) scanned, {} valid, {} repaired, {} unrepairable",
        report.dir, report.scanned, report.valid, report.repaired, report.unrepairable
    )?;
    for f in &report.findings {
        writeln!(
            Out,
            "  {:<16} {:<16} {}  ({})",
            f.class, f.action, f.file, f.detail
        )?;
    }
    if let Some(out) = opts.get("json") {
        gnn_mls::checkpoint::write_json_file(Path::new(out), &report)
            .map_err(|e| format!("gnnmls fsck: could not write report to {out}: {e}"))?;
        eprintln!("fsck report written to {out}");
    }
    Ok(exit_code(report.consistent()))
}

fn bench_diff_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (opts, _) = parse_opts(args, &["baseline", "fresh", "perturb"], &[])?;
    let load = |key, default| {
        let path = opts.get(key).copied().unwrap_or(default);
        gnnmls_bench::load_report(Path::new(path)).map_err(|e| format!("gnnmls bench diff: {e}"))
    };
    let baseline = load("baseline", SUITE_BASELINE_PATH)?;
    let mut fresh = load("fresh", SUITE_FRESH_PATH)?;
    // Gate self-test: inject a known QoR drift into the fresh report and
    // prove the diff catches it (used by CI to keep the gate honest).
    if let Some(spec) = opts.get("perturb") {
        let parts: Vec<&str> = spec.splitn(3, ':').collect();
        let &[scenario, metric, delta] = parts.as_slice() else {
            return Err(format!(
                "--perturb wants <scenario>:<metric>:<delta> (got `{spec}`)"
            ));
        };
        let delta: f64 = delta
            .parse()
            .map_err(|_| format!("--perturb delta must be a number (got `{spec}`)"))?;
        let v = fresh
            .scenarios
            .iter_mut()
            .find(|s| s.name == scenario)
            .and_then(|s| s.metrics.get_mut(metric))
            .ok_or_else(|| {
                format!("--perturb target `{scenario}:{metric}` not in the fresh report")
            })?;
        *v += delta;
        eprintln!("perturbed {scenario}:{metric} by {delta:+}");
    }
    let diff = gnnmls_bench::diff_reports(&baseline, &fresh);
    writeln!(Out, "{diff}")?;
    Ok(exit_code(diff.passed()))
}

fn run_flow_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (opts, flags) = parse_opts(
        args,
        &[
            "design",
            "tech",
            "policy",
            "freq",
            "dft",
            "json",
            "verilog",
            "save-model",
            "load-model",
            "resume",
        ],
        &["fast"],
    )?;
    let mut spec = spec_from_opts(&opts, flags.contains(&"fast"))?;
    // The flow verb runs the paper's contribution unless told otherwise.
    if !opts.contains_key("policy") {
        spec.policy = FlowPolicy::GnnMls;
    }
    let design = spec.generate().map_err(|e| format!("gnnmls flow: {e}"))?;

    let mut cfg = spec.flow_config();
    if let Some(mode) = opts.get("dft") {
        cfg.dft = Some(mode.parse()?);
    }
    cfg.save_model = opts.get("save-model").map(PathBuf::from);
    cfg.resume = opts.get("resume").map(PathBuf::from);
    if let Some(path) = opts.get("load-model") {
        let model = GnnMls::load_json(path)
            .map_err(|e| format!("could not load model from {path}: {e}"))?;
        cfg.pretrained = Some(model.to_checkpoint());
    }

    if let Some(path) = opts.get("verilog") {
        let verilog = write_verilog(&design.netlist);
        gnn_mls::store::durable_write(Path::new(path), verilog.as_bytes())
            .map_err(|e| format!("could not write verilog to {path}: {e}"))?;
        eprintln!("netlist written to {path}");
    }

    eprintln!(
        "running {} [{}] @ {} MHz ({})...",
        design.netlist.name(),
        spec.policy.name(),
        spec.target_freq_mhz,
        design.tech.name
    );
    let report = run_flow(&design, &cfg, spec.policy).map_err(|e| format!("flow failed: {e}"))?;
    writeln!(Out, "{report}")?;

    if let Some(path) = opts.get("json") {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => {
                gnn_mls::store::durable_write(Path::new(path), s.as_bytes())
                    .map_err(|e| format!("could not write {path}: {e}"))?;
                eprintln!("report written to {path}");
            }
            Err(e) => eprintln!("serialize failed: {e}"),
        }
    }
    if let Some(path) = opts.get("save-model") {
        eprintln!("trained model checkpointed to {path}");
    }
    Ok(ExitCode::SUCCESS)
}
