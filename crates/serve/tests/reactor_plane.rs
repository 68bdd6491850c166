//! Reactor I/O-plane contracts that a thread-per-connection server
//! cannot honor: slow-loris clients hold sockets, not worker threads;
//! thousands of idle connections coexist with a live request trickle.
//!
//! The storm tests are ignored by default: the CI soak job runs the two
//! 2k variants (daemon and cluster front) explicitly, and the 10k
//! variant is the local evidence run behind the `BENCH_serve.json` soak
//! numbers. The 10k storm runs the daemon as a child process — one
//! process cannot hold both ends of 10k sockets under a 20k
//! `RLIMIT_NOFILE` hard limit.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gnn_mls::session::SessionSpec;
use gnnmls_reactor::net::raise_nofile_limit;
use gnnmls_serve::cluster::{ClusterConfig, ClusterFront, ShardBackendSpec};
use gnnmls_serve::protocol::{ResponseKind, PROTOCOL_VERSION};
use gnnmls_serve::{Client, ServeConfig, Server};

fn spec() -> SessionSpec {
    SessionSpec::fast("maeri16")
}

/// 100 slow-loris connections — each dribbles one byte of a frame and
/// then stalls — must not consume worker threads: a real client's
/// queries complete promptly while every loris is still connected.
/// (The threaded server parked one thread per loris; with 2 workers it
/// would have wedged at loris #2. The reactor parks them in epoll and
/// reaps them with the per-connection stall timer.)
#[test]
fn slow_loris_clients_do_not_consume_workers() {
    let server = Server::start(
        ServeConfig::builder()
            .workers(2)
            .read_timeout_ms(5_000)
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();

    let lorises: Vec<TcpStream> = (0..100)
        .map(|i| {
            let mut s = TcpStream::connect(addr).unwrap_or_else(|e| panic!("loris {i}: {e}"));
            // One byte of the 5-byte header: mid-frame forever (until
            // the stall timer fires, well after this test's asserts).
            s.write_all(&[PROTOCOL_VERSION]).unwrap();
            s
        })
        .collect();

    // With all 100 lorises mid-frame, a real client must still be
    // served: health inline, what-if through the worker pool.
    let mut client = Client::connect(addr).unwrap();
    let t0 = Instant::now();
    let h = client.health().unwrap().health.unwrap();
    assert!(h.ready, "healthy under loris load");
    let r = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok, "{r:?}");
    for _ in 0..10 {
        let r = client.health().unwrap();
        assert_eq!(r.kind, ResponseKind::Ok);
    }
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "real work starved by slow-loris connections: {:?}",
        t0.elapsed()
    );

    drop(lorises);
    server.shutdown();
}

/// Opens `n` idle connections against `addr`, interleaving a request
/// trickle, then measures warm what-if latency with the whole storm
/// still connected. Returns (p50, p99) in milliseconds.
fn idle_storm_against(addr: SocketAddr, n: usize) -> (f64, f64) {
    // Prime the session cache so the measured trickle is warm.
    let mut client = Client::connect(addr).unwrap();
    let r = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok, "{r:?}");

    let mut idle: Vec<TcpStream> = Vec::with_capacity(n);
    for i in 0..n {
        idle.push(TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")));
        // A request trickle interleaved with the ramp: the plane keeps
        // answering while it accepts.
        if i % 1_000 == 999 {
            let r = client.what_if(&spec(), 0, true, None).unwrap();
            assert_eq!(r.kind, ResponseKind::Ok, "trickle during ramp: {r:?}");
        }
    }

    // p50/p99 of warm what-if with every idle connection still open.
    let mut lat_ms: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            let r = client.what_if(&spec(), 0, true, None).unwrap();
            assert_eq!(r.kind, ResponseKind::Ok);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    lat_ms.sort_by(f64::total_cmp);
    let p50 = lat_ms[lat_ms.len() / 2];
    let p99 = lat_ms[lat_ms.len() * 99 / 100];

    let h = client.health().unwrap().health.unwrap();
    assert!(h.ready, "healthy with {n} idle connections");
    (p50, p99)
}

/// The CI soak job's high-concurrency step: 2k idle connections plus a
/// trickle against an in-process daemon (≈4k fds, inside any sane
/// rlimit).
#[test]
#[ignore = "2k-connection storm; the CI soak job runs it explicitly"]
fn idle_storm_2k_connections_keep_serving() {
    const N: usize = 2_000;
    if let Err(e) = raise_nofile_limit((N as u64) * 2 + 1_024) {
        eprintln!("skipping idle storm: cannot raise RLIMIT_NOFILE: {e}");
        return;
    }
    let server = Server::start(ServeConfig::default()).unwrap();
    let (p50, p99) = idle_storm_against(server.local_addr(), N);
    println!("idle storm 2k: warm what-if p50 {p50:.3} ms, p99 {p99:.3} ms");
    server.shutdown();
}

/// The same 2k storm against a cluster front over one in-process
/// daemon: the front's client plane holds the idle sockets while the
/// trickle is forwarded to the shard.
#[test]
#[ignore = "2k-connection storm; the CI soak job runs it explicitly"]
fn idle_storm_2k_through_the_cluster_front() {
    const N: usize = 2_000;
    if let Err(e) = raise_nofile_limit((N as u64) * 2 + 1_024) {
        eprintln!("skipping idle storm: cannot raise RLIMIT_NOFILE: {e}");
        return;
    }
    let server = Server::start(ServeConfig::default()).unwrap();
    let front = ClusterFront::start(
        ClusterConfig::default(),
        vec![ShardBackendSpec::External(server.local_addr())],
    )
    .unwrap();
    let (p50, p99) = idle_storm_against(front.local_addr(), N);
    println!("idle storm 2k via front: warm what-if p50 {p50:.3} ms, p99 {p99:.3} ms");
    // The front's drain shuts its shard down over the wire.
    front.shutdown();
    server.wait();
}

/// Spawns `gnnmls serve` as a child on a free port and waits until it
/// answers health.
// The child escapes to the caller, which reaps it; the failure path
// below kills and waits. The lint cannot see through the ready-loop.
#[allow(clippy::zombie_processes)]
fn spawn_daemon() -> (Child, SocketAddr) {
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap()
    };
    let mut child = Command::new(env!("CARGO_BIN_EXE_gnnmls"))
        .args(["serve", "--addr", &addr.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gnnmls serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            if matches!(c.health(), Ok(r) if r.kind == ResponseKind::Ok) {
                return (child, addr);
            }
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("spawned daemon never became ready");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The local evidence run behind the `BENCH_serve.json` soak numbers:
/// 10k idle connections plus a trickle, daemon out of process.
#[test]
#[ignore = "10k-connection storm; run locally for soak evidence"]
fn idle_storm_10k_connections_keep_serving() {
    const N: usize = 10_000;
    if let Err(e) = raise_nofile_limit((N as u64) + 2_048) {
        eprintln!("skipping idle storm: cannot raise RLIMIT_NOFILE: {e}");
        return;
    }
    let (mut child, addr) = spawn_daemon();
    let (p50, p99) = idle_storm_against(addr, N);
    println!("idle storm 10k: warm what-if p50 {p50:.3} ms, p99 {p99:.3} ms");
    let mut client = Client::connect(addr).unwrap();
    let r = client.shutdown().unwrap();
    assert_eq!(r.kind, ResponseKind::Ok);
    let status = child.wait().expect("daemon exit status");
    assert!(status.success(), "daemon drain failed: {status:?}");
}
