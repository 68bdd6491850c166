//! Cold-start vs warm-daemon what-if latency for `gnnmls-serve`.
//!
//! The daemon exists because the cold start (generate, place, train,
//! route, analyze) dwarfs the marginal cost of a what-if query. This
//! bench keeps that claim honest: it measures the cold path (fresh
//! [`DesignSession::build`] plus the first query) against the warm path
//! (a TCP round-trip to an already-loaded daemon), asserts the warm
//! answer is bit-identical to the cold one and **at least 10× faster**,
//! and holds an idle-connection storm open to show what it does to the
//! warm p99 and the RSS. Results land in `target/bench/BENCH_serve.json`
//! (the committed root-level ledger only behind `--commit-baseline`).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;

use gnn_mls::session::{DesignSession, SessionSpec};
use gnnmls_reactor::net::raise_nofile_limit;
use gnnmls_serve::protocol::ResponseKind;
use gnnmls_serve::{Client, ServeConfig, Server};

const NET: u32 = 0;
/// Idle connections held open during the reactor soak (full mode).
const SOAK_CONNECTIONS: usize = 10_000;
/// Soak size in smoke mode (CI test runs).
const SOAK_CONNECTIONS_SMOKE: usize = 512;
/// Round-trips per p99 measurement.
const P99_SAMPLES: usize = 200;

/// What lands in `BENCH_serve.json`.
#[derive(Serialize)]
struct ServeBenchReport {
    design: String,
    /// Fresh session build + first what-if, in milliseconds.
    cold_ms: f64,
    /// One TCP round-trip what-if against the warm daemon, in ms.
    warm_ms: f64,
    /// cold / warm; the acceptance bar is >= 10.
    cold_over_warm: f64,
    /// Warm answers match the cold session bit-for-bit (asserted).
    warm_bit_identical: bool,
    /// Idle connections held open during the reactor soak (0 when the
    /// fd limit could not be raised).
    soak_connections: usize,
    /// p99 warm what-if with no idle storm, ms.
    soak_baseline_p99_ms: f64,
    /// p99 warm what-if with the full idle storm connected, ms.
    soak_p99_ms: f64,
    /// soak / baseline; the acceptance bar is <= 1.10.
    soak_p99_ratio: f64,
    /// Process RSS with the storm connected, MiB (Linux; 0 elsewhere) —
    /// the bounded-memory evidence for the connection state machines.
    soak_rss_mb: f64,
    smoke_mode: bool,
}

/// Minimum wall time of `iters` runs of `f`.
fn min_wall<F: FnMut()>(iters: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// p99 wall time of `iters` runs of `f`, in milliseconds.
fn p99_wall_ms<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() * 99 / 100]
}

/// Resident set size of `pid` (or this process) in MiB (Linux `/proc`;
/// 0 elsewhere).
fn rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    if let Ok(status) = std::fs::read_to_string(path) {
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmRSS:") {
                if let Some(kb) = rest.trim().strip_suffix("kB") {
                    if let Ok(kb) = kb.trim().parse::<f64>() {
                        return kb / 1024.0;
                    }
                }
            }
        }
    }
    0.0
}

/// Spawns `gnnmls serve` on a free port when the CLI binary sits in
/// this bench's target profile directory, and waits for readiness.
/// `None` when the binary is not built or never comes up.
fn spawn_soak_daemon() -> Option<(std::process::Child, std::net::SocketAddr)> {
    let exe = std::env::current_exe().ok()?;
    let bin = exe.parent()?.parent()?.join("gnnmls");
    if !bin.exists() {
        return None;
    }
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .ok()?
        .local_addr()
        .ok()?;
    let mut child = std::process::Command::new(bin)
        .args(["serve", "--addr", &addr.to_string()])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .ok()?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Ok(mut c) = Client::connect(addr) {
            if matches!(c.health(), Ok(r) if r.kind == ResponseKind::Ok) {
                return Some((child, addr));
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

fn bench_serve(c: &mut Criterion) {
    let smoke = c.is_test_mode();
    let iters = if smoke { 3 } else { 20 };
    let spec = SessionSpec::fast("maeri16");

    // --- Cold path: what a one-shot CLI invocation pays. -------------
    let t0 = Instant::now();
    let cold_session = DesignSession::build(&spec).unwrap();
    let cold_answer = cold_session.what_if(NET, true, None).unwrap();
    let cold = t0.elapsed();

    // --- Warm path: the same query as a daemon round-trip. -----------
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Prime the daemon's cache so every timed round-trip is warm.
    let primed = client.what_if(&spec, NET, true, None).unwrap();
    assert_eq!(primed.kind, ResponseKind::Ok);
    assert_eq!(
        primed.what_if.as_ref(),
        Some(&cold_answer),
        "warm daemon answer must be bit-identical to the cold session"
    );
    let warm = min_wall(iters, || {
        let resp = client.what_if(&spec, NET, true, None).unwrap();
        assert_eq!(resp.kind, ResponseKind::Ok);
    });
    let cold_over_warm = cold.as_secs_f64() / warm.as_secs_f64().max(1e-12);
    assert!(
        cold_over_warm >= 10.0,
        "warm what-if must be >= 10x faster than cold start \
         (cold {:.1} ms, warm {:.3} ms)",
        cold.as_secs_f64() * 1e3,
        warm.as_secs_f64() * 1e3,
    );

    // --- Reactor soak: idle-plus-trickle concurrency. ----------------
    // The readiness-driven I/O plane claims thousands of idle
    // connections cost epoll registrations, not threads. Hold the storm
    // open and measure what it does to the warm p99 and the RSS. The
    // full-size storm runs the daemon out of process (one process
    // cannot hold both ends of 10k sockets under a 20k fd hard limit)
    // when the CLI binary is built; otherwise it degrades to what the
    // in-process fd budget allows — `soak_connections` records reality.
    let want = if smoke {
        SOAK_CONNECTIONS_SMOKE
    } else {
        SOAK_CONNECTIONS
    };
    let mut soak_child: Option<std::process::Child> = None;
    let (soak_addr, conns) = match (smoke, spawn_soak_daemon()) {
        (false, Some((child, addr))) => {
            let achieved = raise_nofile_limit(want as u64 + 2_048).unwrap_or(0);
            soak_child = Some(child);
            (addr, want.min((achieved as usize).saturating_sub(2_048)))
        }
        (_, other) => {
            if let Some((mut child, _)) = other {
                let _ = child.kill();
                let _ = child.wait();
            }
            let achieved = raise_nofile_limit(want as u64 * 2 + 1_024).unwrap_or(0);
            let cap = want.min(((achieved / 2) as usize).saturating_sub(512));
            (server.local_addr(), cap)
        }
    };
    let mut soak_client = Client::connect(soak_addr).unwrap();
    let primed = soak_client.what_if(&spec, NET, true, None).unwrap();
    assert_eq!(primed.kind, ResponseKind::Ok);
    let baseline_p99 = p99_wall_ms(P99_SAMPLES, || {
        let resp = soak_client.what_if(&spec, NET, true, None).unwrap();
        assert_eq!(resp.kind, ResponseKind::Ok);
    });
    let idle: Vec<std::net::TcpStream> = (0..conns)
        .map(|i| {
            std::net::TcpStream::connect(soak_addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}"))
        })
        .collect();
    let soak_p99 = p99_wall_ms(P99_SAMPLES, || {
        let resp = soak_client.what_if(&spec, NET, true, None).unwrap();
        assert_eq!(resp.kind, ResponseKind::Ok);
    });
    let soak_rss = rss_mb(soak_child.as_ref().map(std::process::Child::id));
    let soak_ratio = soak_p99 / baseline_p99.max(1e-9);
    if !idle.is_empty() {
        // Sanity backstop, deliberately loose against scheduler noise;
        // the committed ledger carries the precise numbers.
        assert!(
            soak_ratio <= 3.0,
            "warm p99 collapsed under {} idle connections: \
             {baseline_p99:.3} ms -> {soak_p99:.3} ms",
            idle.len(),
        );
    }
    drop(idle);
    if let Some(mut child) = soak_child {
        let r = soak_client.shutdown().unwrap();
        assert_eq!(r.kind, ResponseKind::Ok);
        let status = child.wait().unwrap();
        assert!(status.success(), "soak daemon drain failed: {status:?}");
    }
    drop(soak_client);
    server.shutdown();

    let report = ServeBenchReport {
        design: "MAERI 16PE (fast)".into(),
        cold_ms: cold.as_secs_f64() * 1e3,
        warm_ms: warm.as_secs_f64() * 1e3,
        cold_over_warm,
        warm_bit_identical: true,
        soak_connections: conns,
        soak_baseline_p99_ms: baseline_p99,
        soak_p99_ms: soak_p99,
        soak_p99_ratio: soak_ratio,
        soak_rss_mb: soak_rss,
        smoke_mode: smoke,
    };
    // Bench binaries run with the package dir as cwd; anchor at the
    // workspace root. Output lands under target/bench/ unless
    // --commit-baseline asks for the committed root-level ledger.
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    if let Some(out) = gnnmls_bench::render::write_bench_json(root, "BENCH_serve.json", &report) {
        println!(
            "cold {:.1} ms, warm {:.3} ms ({:.0}x) -> {}",
            report.cold_ms,
            report.warm_ms,
            report.cold_over_warm,
            out.display(),
        );
    }

    // Standard criterion entries for trend tracking.
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut g = c.benchmark_group("serve");
    g.bench_function("warm_what_if_roundtrip", |b| {
        b.iter(|| client.what_if(&spec, NET, true, None).unwrap().kind)
    });
    g.finish();
    server.shutdown();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5))
}

criterion_group! {
    name = serve;
    config = config();
    targets = bench_serve
}
criterion_main!(serve);
