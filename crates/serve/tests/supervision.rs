//! Self-healing supervision contracts: the quarantine circuit breaker
//! provably prevents rebuilding a poisoned spec until its cooldown
//! expires, the watchdog respawns a dead worker without losing its
//! in-flight job, a panic while a job is handled still answers that job
//! once, and shutdown during an open quarantine cooldown drains
//! promptly (the drain-deadlock regression).

use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gnn_mls::session::SessionSpec;
use gnnmls_faults::{install_global, FaultPlan, FaultSite};
use gnnmls_serve::protocol::{read_frame_idle, write_frame, Request, Response, ResponseKind};
use gnnmls_serve::{Client, ServeConfig, Server};

/// The seams fire on daemon threads, so these tests arm global fault
/// plans, which reach every thread of the process; serialize the file's
/// tests so one test's armed seam can never leak into another's traffic.
fn serialize_tests() -> MutexGuard<'static, ()> {
    static SER: Mutex<()> = Mutex::new(());
    SER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spec() -> SessionSpec {
    SessionSpec::fast("maeri16")
}

#[test]
fn quarantine_prevents_rebuilding_a_poisoned_spec_until_cooldown() {
    let _serial = serialize_tests();
    let server = Server::start(
        ServeConfig::builder()
            .read_timeout_ms(50)
            .quarantine_threshold(2)
            .quarantine_cooldown_ms(400)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Two injected build failures strike the spec out.
    let guard = install_global(&FaultPlan::single(FaultSite::SessionBuildFail, 2));
    for attempt in 0..2 {
        let r = client.what_if(&spec(), 0, true, None).unwrap();
        assert_eq!(r.kind, ResponseKind::Error, "attempt {attempt}: {r:?}");
        assert!(
            r.error.unwrap().contains("injected"),
            "attempt {attempt} must surface the injected failure"
        );
    }
    drop(guard);

    // The circuit is open: a third request is refused with a typed
    // Quarantined and a bounded retry_after_ms — and, decisively, no
    // third build happens (the seam is disarmed, so an attempted build
    // would have *succeeded* and answered Ok).
    let r = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Quarantined, "{r:?}");
    let retry_after = r.retry_after_ms.unwrap();
    assert!((1..=1_000).contains(&retry_after), "{retry_after}");
    assert!(r.error.unwrap().contains("circuit-broken"));

    let stats = client.stats(&spec()).unwrap().stats.unwrap();
    assert_eq!(
        stats.cache_misses, 2,
        "no build may happen while the circuit is open"
    );
    assert_eq!(stats.quarantined, 1);

    // Health reports the open circuit without taking a queue slot.
    let h = client.health().unwrap().health.unwrap();
    assert!(h.ready);
    assert_eq!(h.quarantine.len(), 1);
    assert!(h.quarantine[0].open);
    assert_eq!(h.quarantine[0].strikes, 2);

    // Once the cooldown (400ms base + at most ~101ms jitter) expires,
    // the half-open probe builds for real and closes the circuit.
    std::thread::sleep(Duration::from_millis(650));
    let r = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok, "half-open probe must succeed");
    let h = client.health().unwrap().health.unwrap();
    assert!(h.quarantine.is_empty(), "success closes the circuit");
    let stats = client.stats(&spec()).unwrap().stats.unwrap();
    assert_eq!(stats.cache_misses, 3, "exactly one post-cooldown build");
    server.shutdown();
}

#[test]
fn watchdog_respawns_a_dead_worker_without_losing_the_job() {
    let _serial = serialize_tests();
    let server = Server::start(
        ServeConfig::builder()
            .read_timeout_ms(50)
            .workers(1)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Warm the session first so the replayed job is cheap.
    let r = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok);

    // One armed panic kills the only worker the moment it picks up the
    // next job. The watchdog must requeue that job and respawn — the
    // same connection still gets its typed answer.
    let guard = install_global(&FaultPlan::single(FaultSite::WorkerPanic, 1));
    let r = client.what_if(&spec(), 1, true, None).unwrap();
    drop(guard);
    assert_eq!(r.kind, ResponseKind::Ok, "job survived the dead worker");

    let stats = client.stats(&spec()).unwrap().stats.unwrap();
    assert_eq!(stats.watchdog_restarts, 1, "exactly one respawn");
    let h = client.health().unwrap().health.unwrap();
    assert_eq!(h.watchdog_restarts, 1);

    // The respawned worker keeps serving.
    let r = client.what_if(&spec(), 2, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok);
    server.shutdown();
}

#[test]
fn a_panic_while_handling_answers_the_job_once_and_frees_its_cost() {
    let _serial = serialize_tests();
    let server = Server::start(
        ServeConfig::builder()
            .read_timeout_ms(50)
            .workers(1)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let r = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok);

    // The only worker panics inside the handler. The job must come back
    // as one typed error well before this read deadline, not be lost.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let guard = install_global(&FaultPlan::single(FaultSite::HandlerPanic, 1));
    write_frame(&mut raw, &Request::what_if(7, spec(), 1, true, None)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let answer = read_frame_idle::<Response, _, _>(&mut raw, || Instant::now() < deadline);
    drop(guard);
    let r = answer.unwrap().expect("a frame before the deadline");
    assert_eq!((r.id, r.kind), (7, ResponseKind::Error), "{r:?}");
    assert!(r.error.unwrap().contains("panicked"));

    let h = client.health().unwrap().health.unwrap();
    assert_eq!(h.admitted_cost, 0, "the job's admission cost was released");
    assert_eq!(h.watchdog_restarts, 0, "the worker survived its panic");
    let r = client.what_if(&spec(), 1, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok, "the worker keeps serving");
    server.shutdown();
}

#[test]
fn shutdown_during_quarantine_cooldown_drains_promptly() {
    let _serial = serialize_tests();
    // A cooldown far longer than the test: if the drain ever waited on
    // quarantine state, this would hang.
    let server = Server::start(
        ServeConfig::builder()
            .read_timeout_ms(50)
            .quarantine_threshold(1)
            .quarantine_cooldown_ms(600_000)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let guard = install_global(&FaultPlan::single(FaultSite::SessionBuildFail, 1));
    let r = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Error);
    drop(guard);
    let r = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Quarantined);

    let t0 = Instant::now();
    assert_eq!(client.shutdown().unwrap().kind, ResponseKind::Ok);
    let stats = server.wait();
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "drain must not wait out the quarantine cooldown"
    );
    assert_eq!(stats.quarantined, 1);
}
