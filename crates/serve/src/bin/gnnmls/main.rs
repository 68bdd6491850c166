//! `gnnmls` — command-line front end to the GNN-MLS flow and daemon.
//!
//! ```sh
//! gnnmls flow --design maeri128 --tech hetero --policy gnn-mls --freq 2500 \
//!        [--dft net|wire] [--json report.json] [--save-model model.json] \
//!        [--load-model model.json] [--verilog netlist.v]
//! gnnmls serve  [--addr 127.0.0.1:7117] [--queue N] [--workers N] [--cache N]
//! gnnmls client <whatif|infer|stats|flow|shutdown> [--addr ...] [--design ...]
//! gnnmls bench suite [--manifest bench/suite.toml] [--profile ci]
//!                    [--out target/bench/BENCH_suite.json] [--commit-baseline]
//! gnnmls bench diff  [--baseline bench/baseline.json] [--fresh target/bench/BENCH_suite.json]
//! gnnmls designs      # list available designs
//! ```
//!
//! Argument parsing is hand-rolled (the workspace is dependency-minimal).

use std::collections::HashMap;
use std::process::ExitCode;

use gnn_mls::checkpoint::ModelVersion;
use gnn_mls::flow::{run_flow, FlowPolicy};
use gnn_mls::session::{SessionSpec, DESIGNS};
use gnn_mls::{GnnMls, ModelConfig};
use gnnmls_netlist::verilog::write_verilog;
use gnnmls_serve::cluster::{ClusterConfig, ClusterFront, ShardBackendSpec, ShardSpawnSpec};
use gnnmls_serve::protocol::{Request, Response, ResponseKind};
use gnnmls_serve::{Client, RetryPolicy, ServeConfig, ServeConfigBuilder, Server};
use gnnmls_zoo::{CorpusConfig, Registry};

mod loadgen;
mod zoobench;

use loadgen::{run_cluster_bench, ClusterBenchConfig};
use zoobench::{run_zoo_bench, ZooBenchConfig};

const DEFAULT_ADDR: &str = "127.0.0.1:7117";

fn usage() -> &'static str {
    "usage:\n  gnnmls flow --design <name> [--tech hetero|homo] [--policy no-mls|sota|gnn-mls]\n              [--freq <MHz>] [--dft net|wire] [--json <path>] [--verilog <path>]\n              [--save-model <path>] [--load-model <path>] [--resume <dir>] [--fast]\n  gnnmls serve [--addr 127.0.0.1:7117] [--queue <jobs>] [--workers <n>]\n               [--cache <sessions>] [--checkpoint <dir>] [--admit <cost units>]\n  gnnmls serve --cluster [--shards <n>] [--addr 127.0.0.1:7117]\n               [--queue <jobs>] [--workers <n>] [--cache <sessions>]\n               [--admit <cost units>] [--checkpoint <dir>]\n               # spawns <n> shard daemons, routes v2 frames by spec hash,\n               # fails over through per-shard circuit breakers\n  gnnmls bench suite [--manifest bench/suite.toml] [--profile ci]\n                     [--out target/bench/BENCH_suite.json] [--commit-baseline]\n  gnnmls bench diff  [--baseline bench/baseline.json]\n                     [--fresh target/bench/BENCH_suite.json]\n                     [--perturb <scenario>:<metric>:<delta>]   # gate self-test\n  gnnmls bench cluster [--shards <n>] [--clients <n>] [--requests <n>]\n                       [--seed <n>] [--no-kill]\n                       # mixed whatif/infer load with a kill-one-shard\n                       # schedule; writes target/bench/BENCH_cluster.json\n  gnnmls bench zoo [--swap-iters <n>] [--target-accuracy <frac>] [--max-epochs <n>]\n                   # pretrain-vs-scratch convergence + warm-swap latency;\n                   # writes target/bench/BENCH_zoo.json\n  gnnmls model train   [--corpus tiny|full] [--dir zoo] [--threads <n>]\n                       # build the cross-design corpus, DGI-pretrain once,\n                       # fine-tune per family, publish versioned checkpoints\n  gnnmls model list    [--dir zoo]\n  gnnmls model inspect --family <f> [--version <x.y.z>] [--dir zoo]\n  gnnmls model verify  [--dir zoo]    # re-hash every checkpoint vs the manifest\n  gnnmls fsck <dir> [--json <path>]   # crash-recovery scrub of a checkpoint,\n                       # registry, or ledger directory: deletes orphan *.tmp,\n                       # quarantines torn/hash-mismatched files to *.damaged,\n                       # rolls the zoo manifest back to last-good; exits\n                       # nonzero only when damage was unrepairable\n  gnnmls client whatif   [--addr <addr>] <spec flags> --net <id> [--no-mls] [--budget <expansions>]\n  gnnmls client infer    [--addr <addr>] <spec flags> [--paths <k>]\n  gnnmls client stats    [--addr <addr>] [<spec flags>]\n  gnnmls client flow     [--addr <addr>] <spec flags>\n  gnnmls client health   [--addr <addr>]\n  gnnmls client metrics  [--addr <addr>]\n  gnnmls client load-model [--addr <addr>] --model <checkpoint.ckpt>\n                       # hot-swap the checkpoint's family on a live daemon\n                       # (broadcasts to every shard through a cluster front)\n  gnnmls client shutdown [--addr <addr>]\n  gnnmls designs\n\n<spec flags>: [--design <name>] [--tech hetero|homo] [--policy no-mls|sota|gnn-mls]\n              [--freq <MHz>] [--fast]\nclient flags: [--retries <n>] [--retry-seed <n>] retry shed/stalled requests\n              with capped exponential backoff and deterministic jitter\n\nGNNMLS_THREADS=<n> caps worker-thread fan-out. Precedence: an explicit\nnon-zero FlowConfig::threads (or RouteConfig::threads) knob wins; when\nthe knob is 0 (auto, the default everywhere), GNNMLS_THREADS overrides\nthe all-cores default. A non-numeric value is rejected at startup.\nGNNMLS_FAULTS=<site:shots,...|seed:N> arms the deterministic fault harness.\nGNNMLS_TRACE=<path> appends structured spans/events/metrics as JSONL;\n`gnnmls client metrics` scrapes a live daemon's registry as text exposition.\n"
}

fn main() -> ExitCode {
    // Armed only when GNNMLS_FAULTS is set; the guard must outlive the run.
    let _faults = gnnmls_faults::install_from_env();
    // Armed only when GNNMLS_TRACE is set: every span/event/metric from
    // this process appends to that JSONL file.
    if let Err(e) = gnnmls_obs::init_from_env() {
        eprintln!("gnnmls: could not open {} sink: {e}", gnnmls_obs::TRACE_ENV);
        return ExitCode::FAILURE;
    }
    // Reject a malformed GNNMLS_THREADS up front with a typed message
    // instead of silently running on all cores.
    if let Err(e) = gnnmls_par::env_threads() {
        eprintln!("gnnmls: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("designs") => {
            for (name, desc) in DESIGNS {
                println!("{name:10} {desc}");
            }
            ExitCode::SUCCESS
        }
        Some("flow") => run_flow_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("client") => client_cmd(&args[1..]),
        Some("bench") => bench_cmd(&args[1..]),
        Some("model") => model_cmd(&args[1..]),
        Some("fsck") => fsck_cmd(&args[1..]),
        _ => {
            eprint!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// Parses `--key value` pairs (plus bare flags listed in `flags`).
fn parse_opts<'a>(
    args: &'a [String],
    keys: &[&str],
    flags: &[&str],
) -> Result<(HashMap<&'a str, &'a str>, Vec<&'a str>), String> {
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

/// Builds a [`SessionSpec`] from the shared spec flags and checks it
/// with [`SessionSpec::validate`].
fn spec_from_opts(opts: &HashMap<&str, &str>, fast: bool) -> Result<SessionSpec, String> {
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

fn serve_cmd(args: &[String]) -> ExitCode {
    let (opts, flags) = match parse_opts(
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
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if flags.contains(&"cluster") {
        return serve_cluster_cmd(&opts);
    }
    if opts.contains_key("shards") {
        eprintln!("--shards only applies with --cluster");
        return ExitCode::FAILURE;
    }
    let mut builder = ServeConfig::builder().addr(
        opts.get("addr")
            .copied()
            .unwrap_or(DEFAULT_ADDR)
            .to_string(),
    );
    for (key, set) in [
        (
            "queue",
            (|b: ServeConfigBuilder, n| b.queue_capacity(n)) as fn(ServeConfigBuilder, usize) -> _,
        ),
        ("workers", |b, n| b.workers(n)),
        ("cache", |b, n| b.cache_capacity(n)),
    ] {
        if let Some(v) = opts.get(key) {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => builder = set(builder, n),
                _ => {
                    eprintln!("--{key} must be a positive integer");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(v) = opts.get("admit") {
        match v.parse::<u64>() {
            Ok(n) if n > 0 => builder = builder.admission_budget(n),
            _ => {
                eprintln!("--admit must be a positive cost-unit count");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = opts.get("checkpoint") {
        builder = builder.checkpoint_dir(Some(std::path::PathBuf::from(dir)));
    }
    let cfg = match builder.build() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("gnnmls serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gnnmls serve: could not bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("gnnmls-serve listening on {}", server.local_addr());
    let stats = server.wait();
    eprintln!(
        "gnnmls-serve drained: {} served, {} busy, {} errors, {} cache hits / {} misses",
        stats.served, stats.busy, stats.errors, stats.cache_hits, stats.cache_misses
    );
    match serde_json::to_string_pretty(&stats) {
        Ok(json) => println!("{json}"),
        Err(e) => eprintln!("could not serialize final stats: {e}"),
    }
    ExitCode::SUCCESS
}

/// `gnnmls serve --cluster`: spawn `--shards` copies of this binary as
/// backend daemons (forwarding the serve knobs), route by spec hash,
/// and print the merged stats envelope after drain.
fn serve_cluster_cmd(opts: &HashMap<&str, &str>) -> ExitCode {
    let shards = match opts.get("shards").map(|v| v.parse::<usize>()) {
        None => 3,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("--shards must be a positive shard count");
            return ExitCode::FAILURE;
        }
    };
    // Serve knobs are forwarded verbatim to every shard; each shard
    // validates them itself at startup.
    let mut shard_args = vec!["serve".to_string()];
    for key in ["queue", "workers", "cache", "admit"] {
        if let Some(v) = opts.get(key) {
            shard_args.push(format!("--{key}"));
            shard_args.push((*v).to_string());
        }
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gnnmls serve --cluster: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = ClusterConfig {
        addr: opts
            .get("addr")
            .copied()
            .unwrap_or(DEFAULT_ADDR)
            .to_string(),
        checkpoint_dir: opts.get("checkpoint").map(std::path::PathBuf::from),
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
    let front = match ClusterFront::start(cfg, backends) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("gnnmls serve --cluster: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("gnnmls-cluster front listening on {}", front.local_addr());
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
        Ok(json) => println!("{json}"),
        Err(e) => eprintln!("could not serialize final cluster stats: {e}"),
    }
    ExitCode::SUCCESS
}

fn print_response(resp: &Response) -> ExitCode {
    match serde_json::to_string_pretty(resp) {
        // Tolerate a closed stdout (e.g. `gnnmls client stats | head`).
        Ok(json) => {
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{json}");
        }
        Err(e) => {
            eprintln!("could not serialize response: {e}");
            return ExitCode::FAILURE;
        }
    }
    match resp.kind {
        ResponseKind::Ok => ExitCode::SUCCESS,
        ResponseKind::Busy
        | ResponseKind::Rejected
        | ResponseKind::Quarantined
        | ResponseKind::Error => ExitCode::FAILURE,
    }
}

fn client_cmd(args: &[String]) -> ExitCode {
    let Some(verb) = args.first().map(String::as_str) else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let (opts, flags) = match parse_opts(
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
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let spec = match spec_from_opts(&opts, flags.contains(&"fast")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = opts.get("addr").copied().unwrap_or(DEFAULT_ADDR);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gnnmls client: could not connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut retry = RetryPolicy::default();
    if let Some(v) = opts.get("retries") {
        match v.parse::<u32>() {
            Ok(n) if n > 0 => retry.max_attempts = n,
            _ => {
                eprintln!("--retries must be a positive attempt count");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(v) = opts.get("retry-seed") {
        match v.parse::<u64>() {
            Ok(n) => retry.seed = n,
            Err(_) => {
                eprintln!("--retry-seed must be an integer");
                return ExitCode::FAILURE;
            }
        }
    }
    let req = match verb {
        "whatif" => {
            let net = match opts.get("net").map(|v| v.parse::<u32>()) {
                Some(Ok(n)) => n,
                _ => {
                    eprintln!("whatif requires --net <id>");
                    return ExitCode::FAILURE;
                }
            };
            let budget = match opts.get("budget").map(|v| v.parse::<u64>()) {
                None => None,
                Some(Ok(b)) => Some(b),
                Some(Err(_)) => {
                    eprintln!("--budget must be an integer expansion count");
                    return ExitCode::FAILURE;
                }
            };
            Request::what_if(1, spec, net, !flags.contains(&"no-mls"), budget)
        }
        "infer" => {
            let paths = match opts.get("paths").map(|v| v.parse::<u64>()) {
                None => None,
                Some(Ok(k)) => Some(k),
                Some(Err(_)) => {
                    eprintln!("--paths must be an integer");
                    return ExitCode::FAILURE;
                }
            };
            Request::infer(1, spec, paths)
        }
        "stats" => Request::stats(1, spec),
        "flow" => Request::run_flow(1, spec),
        "health" => Request::health(1),
        "metrics" => Request::metrics(1),
        "load-model" => {
            let Some(path) = opts.get("model") else {
                eprintln!("load-model requires --model <checkpoint.ckpt>");
                return ExitCode::FAILURE;
            };
            Request::load_model(1, *path)
        }
        "shutdown" => Request::shutdown(1),
        other => {
            eprintln!("unknown client verb `{other}`\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    // Shutdown is not retried: resending it to a draining daemon only
    // races the drain.
    if verb == "shutdown" {
        return match client.request(&req) {
            Ok(resp) => print_response(&resp),
            Err(e) => {
                eprintln!("gnnmls client: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match client.request_with_retry(&req, &retry) {
        // Metrics prints the exposition text raw so the output pipes
        // straight into a Prometheus-style scraper.
        Ok(resp) if verb == "metrics" && resp.kind == ResponseKind::Ok => {
            use std::io::Write;
            let text = resp.metrics.unwrap_or_default();
            let _ = write!(std::io::stdout(), "{text}");
            ExitCode::SUCCESS
        }
        Ok(resp) => print_response(&resp),
        Err(e) => {
            eprintln!("gnnmls client: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Default output path for a fresh suite run — under `target/` so local
/// runs never dirty the committed ledger; `--commit-baseline` is the
/// only way to update `bench/baseline.json`.
const SUITE_FRESH_PATH: &str = "target/bench/BENCH_suite.json";
/// The committed regression baseline `bench diff` gates against.
const SUITE_BASELINE_PATH: &str = "bench/baseline.json";
/// The committed scenario manifest.
const SUITE_MANIFEST_PATH: &str = "bench/suite.toml";

fn bench_cmd(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("suite") => bench_suite_cmd(&args[1..]),
        Some("diff") => bench_diff_cmd(&args[1..]),
        Some("cluster") => bench_cluster_cmd(&args[1..]),
        Some("zoo") => bench_zoo_cmd(&args[1..]),
        other => {
            eprintln!(
                "unknown bench verb `{}` (suite|diff|cluster|zoo)\n{}",
                other.unwrap_or(""),
                usage()
            );
            ExitCode::FAILURE
        }
    }
}

fn bench_suite_cmd(args: &[String]) -> ExitCode {
    let (opts, flags) =
        match parse_opts(args, &["manifest", "profile", "out"], &["commit-baseline"]) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                return ExitCode::FAILURE;
            }
        };
    let manifest_path = opts.get("manifest").copied().unwrap_or(SUITE_MANIFEST_PATH);
    let profile = opts.get("profile").copied().unwrap_or("ci");
    let out = opts.get("out").copied().unwrap_or(SUITE_FRESH_PATH);
    let manifest = match gnnmls_bench::load_manifest(std::path::Path::new(manifest_path)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("gnnmls bench suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match gnnmls_bench::run_suite(&manifest, profile) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gnnmls bench suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    for s in &report.scenarios {
        let wns = s.metrics.get("wns_ps").copied().unwrap_or(f64::NAN);
        let wl = s.metrics.get("wirelength_m").copied().unwrap_or(f64::NAN);
        let f2f = s.metrics.get("f2f_pads").copied().unwrap_or(f64::NAN);
        println!(
            "{:24} {:8} {:8} WNS {wns:9.1} ps  WL {wl:7.3} m  F2F {f2f:6.0}  ({:.1}s)",
            s.name, s.design, s.policy, s.wall_clock_s
        );
    }
    let mut targets = vec![std::path::PathBuf::from(out)];
    if flags.contains(&"commit-baseline") {
        targets.push(std::path::PathBuf::from(SUITE_BASELINE_PATH));
    }
    for path in targets {
        if let Err(e) = gnnmls_bench::write_report(&report, &path) {
            eprintln!("gnnmls bench suite: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("suite ledger written to {}", path.display());
    }
    ExitCode::SUCCESS
}

/// `gnnmls bench cluster`: spawn a front + shards, drive mixed load
/// with a kill-one-shard-mid-run schedule, and write the latency /
/// failover ledger to `target/bench/BENCH_cluster.json`.
fn bench_cluster_cmd(args: &[String]) -> ExitCode {
    let (opts, flags) = match parse_opts(
        args,
        &["shards", "clients", "requests", "specs", "seed"],
        &["no-kill"],
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = ClusterBenchConfig::default();
    for (key, slot) in [
        ("shards", &mut cfg.shards as &mut usize),
        ("clients", &mut cfg.clients),
        ("requests", &mut cfg.requests),
        ("specs", &mut cfg.specs),
    ] {
        if let Some(v) = opts.get(key) {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => *slot = n,
                _ => {
                    eprintln!("--{key} must be a positive integer");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(v) = opts.get("seed") {
        match v.parse::<u64>() {
            Ok(n) => cfg.seed = n,
            Err(_) => {
                eprintln!("--seed must be an integer");
                return ExitCode::FAILURE;
            }
        }
    }
    cfg.kill_mid_run = !flags.contains(&"no-kill");
    cfg.shard_exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gnnmls bench cluster: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match run_cluster_bench(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gnnmls bench cluster: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "cluster bench: {} shards, {} clients, {} requests  p50 {:.1} ms  p99 {:.1} ms",
        report.shards, report.clients, report.requests, report.p50_ms, report.p99_ms
    );
    println!(
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
    );
    for s in &report.per_shard {
        println!(
            "  shard {}: served {}  hit-rate {:.3}  crashes {}  respawns {}",
            s.id, s.served, s.hit_rate, s.crashes, s.respawns
        );
    }
    eprintln!("cluster ledger written to target/bench/BENCH_cluster.json");
    // The run is a robustness gate, not just a ledger: a request lost
    // after exhausting retries fails the command.
    if report.lost_after_retry > 0 {
        eprintln!(
            "gnnmls bench cluster: {} request(s) lost after retry",
            report.lost_after_retry
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `gnnmls bench zoo`: pretrain-vs-scratch convergence probe plus
/// warm-swap latency against a freshly booted daemon; writes
/// `target/bench/BENCH_zoo.json`.
fn bench_zoo_cmd(args: &[String]) -> ExitCode {
    let (opts, _) = match parse_opts(
        args,
        &["swap-iters", "target-accuracy", "max-epochs", "threads"],
        &[],
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = ZooBenchConfig::default();
    for (key, slot) in [
        ("swap-iters", &mut cfg.swap_iters as &mut usize),
        ("max-epochs", &mut cfg.max_epochs),
        ("threads", &mut cfg.threads),
    ] {
        if let Some(v) = opts.get(key) {
            match v.parse::<usize>() {
                Ok(n) if n > 0 || key == "threads" => *slot = n,
                _ => {
                    eprintln!("--{key} must be a positive integer");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(v) = opts.get("target-accuracy") {
        match v.parse::<f64>() {
            Ok(f) if f > 0.0 && f <= 1.0 => cfg.target_accuracy = f,
            _ => {
                eprintln!("--target-accuracy must be in (0, 1]");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = match run_zoo_bench(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gnnmls bench zoo: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "zoo bench: {} designs / {} samples, families {:?}, DGI loss {:.4}",
        report.corpus_designs, report.corpus_samples, report.families, report.pretrain_loss
    );
    println!(
        "  to {:.0}% accuracy: scratch {} epochs (acc {:.3}, converged {})  \
         pretrained {} epochs (acc {:.3}, converged {})",
        report.target_accuracy * 100.0,
        report.scratch.epochs,
        report.scratch.accuracy,
        report.scratch.converged,
        report.pretrained.epochs,
        report.pretrained.accuracy,
        report.pretrained.converged
    );
    println!(
        "  warm swap over {} iters: p50 {} us  max {} us",
        report.swap_iters, report.swap_p50_us, report.swap_max_us
    );
    eprintln!("zoo ledger written to target/bench/BENCH_zoo.json");
    ExitCode::SUCCESS
}

/// Default on-disk model registry directory.
const ZOO_DIR: &str = "zoo";

fn model_cmd(args: &[String]) -> ExitCode {
    let Some(verb) = args.first().map(String::as_str) else {
        eprintln!(
            "model wants a verb (train|list|inspect|verify)\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    };
    let (opts, _) = match parse_opts(
        &args[1..],
        &["corpus", "dir", "threads", "family", "version"],
        &[],
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let registry = Registry::open(opts.get("dir").copied().unwrap_or(ZOO_DIR));
    match verb {
        "train" => model_train_cmd(&registry, &opts),
        "list" => model_list_cmd(&registry),
        "inspect" => model_inspect_cmd(&registry, &opts),
        "verify" => model_verify_cmd(&registry),
        other => {
            eprintln!("unknown model verb `{other}` (train|list|inspect|verify)");
            ExitCode::FAILURE
        }
    }
}

/// `gnnmls model train`: sweep the seeded generators into a corpus,
/// DGI-pretrain across every design, fine-tune per family, and publish
/// each model at the registry's next version.
fn model_train_cmd(registry: &Registry, opts: &HashMap<&str, &str>) -> ExitCode {
    let mut corpus_cfg = match opts.get("corpus").copied().unwrap_or("tiny") {
        "tiny" => CorpusConfig::tiny(),
        "full" => CorpusConfig::full(),
        other => {
            eprintln!("unknown corpus `{other}` (tiny|full)");
            return ExitCode::FAILURE;
        }
    };
    if let Some(v) = opts.get("threads") {
        match v.parse::<usize>() {
            Ok(n) => corpus_cfg.threads = n,
            Err(_) => {
                eprintln!("--threads must be an integer (0 = auto)");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "building corpus: families {:?}, {} seed(s) x {} variant(s)...",
        corpus_cfg.families,
        corpus_cfg.seeds.len(),
        corpus_cfg.variants_per_family
    );
    let corpus = match gnnmls_zoo::build_corpus(&corpus_cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gnnmls model train: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "corpus: {} designs, {} unlabeled samples; pretraining...",
        corpus.designs.len(),
        corpus.len()
    );
    let models = match gnnmls_zoo::train_zoo(&corpus, &ModelConfig::default(), corpus_cfg.threads) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("gnnmls model train: {e}");
            return ExitCode::FAILURE;
        }
    };
    for fam in &models {
        let version = match registry.next_version(&fam.family) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("gnnmls model train: {e}");
                return ExitCode::FAILURE;
            }
        };
        match registry.publish(&fam.to_zoo_checkpoint(version)) {
            Ok(entry) => println!(
                "{:6} v{}  {} params  f1 {:.3}  -> {}",
                entry.family,
                entry.version,
                entry.parameter_count,
                fam.metrics.f1(),
                registry.entry_path(&entry).display()
            ),
            Err(e) => {
                eprintln!("gnnmls model train: publish {}: {e}", fam.family);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn model_list_cmd(registry: &Registry) -> ExitCode {
    let manifest = match registry.manifest() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("gnnmls model list: {e}");
            return ExitCode::FAILURE;
        }
    };
    if manifest.entries.is_empty() {
        eprintln!("no models published under {}", registry.dir().display());
        return ExitCode::SUCCESS;
    }
    for e in &manifest.entries {
        println!(
            "{:6} v{:8} {:10} params  {} corpus design(s)  {}",
            e.family, e.version, e.parameter_count, e.corpus_designs, e.file
        );
    }
    ExitCode::SUCCESS
}

fn model_inspect_cmd(registry: &Registry, opts: &HashMap<&str, &str>) -> ExitCode {
    let Some(family) = opts.get("family") else {
        eprintln!("model inspect requires --family <f>");
        return ExitCode::FAILURE;
    };
    let version = match opts.get("version") {
        None => None,
        Some(v) => match ModelVersion::parse(v) {
            Some(v) => Some(v),
            None => {
                eprintln!("--version wants <major>.<minor>.<patch>");
                return ExitCode::FAILURE;
            }
        },
    };
    let cp = match registry.load(family, version) {
        Ok(cp) => cp,
        Err(e) => {
            eprintln!("gnnmls model inspect: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("family:           {}", cp.family);
    println!("version:          {}", cp.version);
    println!("pretrain epochs:  {}", cp.pretrain_epochs);
    println!("finetune epochs:  {}", cp.finetune_epochs);
    println!("corpus designs:   {}", cp.corpus_hashes.len());
    for h in &cp.corpus_hashes {
        println!("  content hash:   {h:016x}");
    }
    match GnnMls::from_checkpoint(cp.model) {
        Ok(model) => {
            println!("parameters:       {}", model.parameter_count());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gnnmls model inspect: checkpoint does not restore: {e}");
            ExitCode::FAILURE
        }
    }
}

fn model_verify_cmd(registry: &Registry) -> ExitCode {
    let report = match registry.verify() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gnnmls model verify: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "checked {} checkpoint(s) under {}",
        report.checked,
        registry.dir().display()
    );
    if report.ok() {
        println!("all checkpoints match the manifest");
        ExitCode::SUCCESS
    } else {
        for p in &report.problems {
            eprintln!("  PROBLEM: {p}");
        }
        ExitCode::FAILURE
    }
}

fn fsck_cmd(args: &[String]) -> ExitCode {
    let Some(dir) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: gnnmls fsck <dir> [--json <path>]");
        return ExitCode::FAILURE;
    };
    let (opts, _) = match parse_opts(&args[1..], &["json"], &[]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\nusage: gnnmls fsck <dir> [--json <path>]");
            return ExitCode::FAILURE;
        }
    };
    let path = std::path::Path::new(dir);
    // A directory that carries (or carried) a zoo manifest gets the
    // registry-aware scrub — rollback to last-good, orphan adoption,
    // manifest rebuild. Anything else (resume dirs, bench ledgers,
    // drain-stats dirs) gets the generic artifact scrub.
    let manifest = path.join(gnnmls_zoo::MANIFEST_FILE);
    let registry_mode = manifest.exists()
        || gnn_mls::store::damaged_path(&manifest).exists()
        || gnn_mls::store::tmp_path(&manifest).exists();
    let report = if registry_mode {
        match Registry::open_unscrubbed(path).scrub() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("gnnmls fsck: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match gnn_mls::store::scrub_dir(path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("gnnmls fsck: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!(
        "fsck {}: {} artifact(s) scanned, {} valid, {} repaired, {} unrepairable",
        report.dir, report.scanned, report.valid, report.repaired, report.unrepairable
    );
    for f in &report.findings {
        println!(
            "  {:<16} {:<16} {}  ({})",
            f.class, f.action, f.file, f.detail
        );
    }
    if let Some(out) = opts.get("json") {
        if let Err(e) = gnn_mls::checkpoint::write_json_file(std::path::Path::new(out), &report) {
            eprintln!("gnnmls fsck: could not write report to {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("fsck report written to {out}");
    }
    if report.consistent() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn bench_diff_cmd(args: &[String]) -> ExitCode {
    let (opts, _) = match parse_opts(args, &["baseline", "fresh", "perturb"], &[]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let baseline_path = opts.get("baseline").copied().unwrap_or(SUITE_BASELINE_PATH);
    let fresh_path = opts.get("fresh").copied().unwrap_or(SUITE_FRESH_PATH);
    let baseline = match gnnmls_bench::load_report(std::path::Path::new(baseline_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gnnmls bench diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut fresh = match gnnmls_bench::load_report(std::path::Path::new(fresh_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gnnmls bench diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Gate self-test: inject a known QoR drift into the fresh report and
    // prove the diff catches it (used by CI to keep the gate honest).
    if let Some(spec) = opts.get("perturb") {
        let parts: Vec<&str> = spec.splitn(3, ':').collect();
        let (scenario, metric, delta) = match parts.as_slice() {
            [s, m, d] => match d.parse::<f64>() {
                Ok(delta) => (*s, *m, delta),
                Err(_) => {
                    eprintln!("--perturb delta must be a number (got `{spec}`)");
                    return ExitCode::FAILURE;
                }
            },
            _ => {
                eprintln!("--perturb wants <scenario>:<metric>:<delta> (got `{spec}`)");
                return ExitCode::FAILURE;
            }
        };
        let Some(v) = fresh
            .scenarios
            .iter_mut()
            .find(|s| s.name == scenario)
            .and_then(|s| s.metrics.get_mut(metric))
        else {
            eprintln!("--perturb target `{scenario}:{metric}` not in the fresh report");
            return ExitCode::FAILURE;
        };
        *v += delta;
        eprintln!("perturbed {scenario}:{metric} by {delta:+}");
    }
    let diff = gnnmls_bench::diff_reports(&baseline, &fresh);
    println!("{diff}");
    if diff.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_flow_cmd(args: &[String]) -> ExitCode {
    let (opts, flags) = match parse_opts(
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
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let mut spec = match spec_from_opts(&opts, flags.contains(&"fast")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // The flow verb runs the paper's contribution unless told otherwise.
    if !opts.contains_key("policy") {
        spec.policy = FlowPolicy::GnnMls;
    }
    let design = match spec.generate() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("gnnmls flow: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = spec.flow_config();
    if let Some(mode) = opts.get("dft") {
        match mode.parse() {
            Ok(mode) => cfg.dft = Some(mode),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = opts.get("save-model") {
        cfg.save_model = Some(std::path::PathBuf::from(path));
    }
    if let Some(dir) = opts.get("resume") {
        cfg.resume = Some(std::path::PathBuf::from(dir));
    }
    if let Some(path) = opts.get("load-model") {
        match GnnMls::load_json(path) {
            Ok(m) => cfg.pretrained = Some(m.to_checkpoint()),
            Err(e) => {
                eprintln!("could not load model from {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = opts.get("verilog") {
        let verilog = write_verilog(&design.netlist);
        if let Err(e) =
            gnn_mls::store::durable_write(std::path::Path::new(path), verilog.as_bytes())
        {
            eprintln!("could not write verilog to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("netlist written to {path}");
    }

    eprintln!(
        "running {} [{}] @ {} MHz ({})...",
        design.netlist.name(),
        spec.policy.name(),
        spec.target_freq_mhz,
        design.tech.name
    );
    let report = match run_flow(&design, &cfg, spec.policy) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flow failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{report}");

    if let Some(path) = opts.get("json") {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => {
                if let Err(e) =
                    gnn_mls::store::durable_write(std::path::Path::new(path), s.as_bytes())
                {
                    eprintln!("could not write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("report written to {path}");
            }
            Err(e) => eprintln!("serialize failed: {e}"),
        }
    }
    if let Some(path) = opts.get("save-model") {
        eprintln!("trained model checkpointed to {path}");
    }
    ExitCode::SUCCESS
}
