//! Threaded stress and determinism contracts: N clients × M requests
//! with no lost or duplicated responses, `Busy` exactly when the queue
//! is full, warm what-if answers bit-identical to a single-shot run,
//! one worker answering pipelined jobs in job order, and
//! drain-on-shutdown writing a decodable final stats envelope.

use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};

use gnn_mls::checkpoint::load_stage;
use gnn_mls::flow::FlowPolicy;
use gnn_mls::session::{DesignSession, SessionSpec};
use gnnmls_faults::{install_global, FaultPlan, FaultSite};
use gnnmls_serve::client::{ClientError, RetryPolicy};
use gnnmls_serve::protocol::{read_frame, write_frame, Request, Response, ResponseKind};
use gnnmls_serve::{Client, ServeConfig, Server, ServerStats};

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
fn stress_no_lost_or_duplicated_responses() {
    let _serial = serialize_tests();
    const CLIENTS: u64 = 6;
    const REQUESTS: u64 = 20;
    let server = Server::start(
        ServeConfig::builder()
            .queue_capacity(8)
            .workers(4)
            .read_timeout_ms(50)
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..REQUESTS {
                    let id = c * 1000 + i;
                    let req = gnnmls_serve::Request::stats(id, SessionSpec::fast("maeri16"));
                    let resp = client.request(&req).expect("response for every request");
                    // Exactly one response per request, echoing its id.
                    assert_eq!(resp.id, id, "response for the wrong request");
                    assert!(
                        matches!(resp.kind, ResponseKind::Ok | ResponseKind::Busy),
                        "stats can only succeed or be shed: {resp:?}"
                    );
                }
            });
        }
    });

    // Conservation: every request was either served by a worker or shed
    // as Busy — nothing lost, nothing double-counted. (The final stats
    // request snapshots the counters before counting itself.)
    let mut client = Client::connect(addr).unwrap();
    let resp = client.stats(&spec()).unwrap();
    let stats = resp.stats.expect("stats payload");
    assert_eq!(
        stats.served + stats.busy,
        CLIENTS * REQUESTS,
        "lost or duplicated responses: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn busy_exactly_when_queue_full() {
    let _serial = serialize_tests();
    const SHED: u64 = 3;
    let server =
        Server::start(ServeConfig::builder().read_timeout_ms(50).build().unwrap()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // The QueueOverflow seam forces try_push to report a full queue for
    // exactly SHED pushes — each must surface as a typed Busy, and the
    // moment the queue has room again the same request succeeds.
    let guard = install_global(&FaultPlan::single(FaultSite::QueueOverflow, SHED as u32));
    let mut busy = 0u64;
    let mut ok = 0u64;
    for _ in 0..SHED + 2 {
        match client.stats(&spec()).unwrap().kind {
            ResponseKind::Busy => busy += 1,
            ResponseKind::Ok => ok += 1,
            other => panic!("unexpected response kind {other:?}"),
        }
    }
    drop(guard);
    assert_eq!(busy, SHED, "Busy exactly when the queue reports full");
    assert_eq!(ok, 2);

    let stats = client.stats(&spec()).unwrap().stats.unwrap();
    assert_eq!(stats.busy, SHED);
    server.shutdown();
}

#[test]
fn retry_rides_through_shed_requests_and_gives_up_typed() {
    let _serial = serialize_tests();
    let server =
        Server::start(ServeConfig::builder().read_timeout_ms(50).build().unwrap()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Three forced sheds, then room: the retrying client never surfaces
    // a Busy — the fourth attempt lands.
    let guard = install_global(&FaultPlan::single(FaultSite::QueueOverflow, 3));
    let req = gnnmls_serve::Request::stats(77, spec());
    let policy = RetryPolicy {
        max_attempts: 5,
        base_delay_ms: 1,
        max_delay_ms: 5,
        seed: 1,
    };
    let resp = client.request_with_retry(&req, &policy).unwrap();
    assert_eq!(resp.kind, ResponseKind::Ok);
    assert_eq!(resp.id, 77);
    drop(guard);

    // More sheds than attempts: a typed GaveUp carrying the count, not
    // a hang and not an untyped error.
    let guard = install_global(&FaultPlan::single(FaultSite::QueueOverflow, 10));
    let err = client
        .request_with_retry(
            &req,
            &RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 1,
                max_delay_ms: 2,
                seed: 2,
            },
        )
        .unwrap_err();
    match err {
        ClientError::GaveUp { attempts, last } => {
            assert_eq!(attempts, 3);
            assert!(last.contains("busy"), "{last}");
        }
        other => panic!("expected GaveUp, got {other:?}"),
    }
    drop(guard);
    server.shutdown();
}

#[test]
fn warm_what_if_matches_single_shot_run() {
    let _serial = serialize_tests();
    let spec = spec();
    // The single-shot reference: exactly what `gnnmls client whatif`
    // against a freshly started daemon computes, minus the socket.
    let oneshot = DesignSession::build(&spec).unwrap();

    let server =
        Server::start(ServeConfig::builder().read_timeout_ms(50).build().unwrap()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut compared = 0u64;
    for net in 0..24u32 {
        for allow in [true, false] {
            let served = client.what_if(&spec, net, allow, None).unwrap();
            let local = oneshot.what_if(net, allow, None);
            match (served.kind, local) {
                (ResponseKind::Ok, Ok(expect)) => {
                    assert_eq!(
                        served.what_if,
                        Some(expect),
                        "daemon diverged from single-shot on net {net} allow={allow}"
                    );
                    compared += 1;
                }
                (ResponseKind::Error, Err(_)) => {}
                (kind, local) => {
                    panic!("outcome diverged on net {net}: served {kind:?} vs local {local:?}")
                }
            }
        }
    }
    assert!(compared > 0, "no nets compared");

    // Warm cache: the build happened exactly once for all 48 queries
    // (the first query is the miss, every later one is a hit).
    let stats = client.stats(&spec).unwrap().stats.unwrap();
    assert_eq!(stats.cache_misses, 1, "one cold build");
    assert!(stats.cache_hits >= compared - 1, "the rest were warm");
    assert_eq!(stats.cached_sessions, 1);
    server.shutdown();
}

#[test]
fn deadline_budget_degrades_over_the_wire() {
    let _serial = serialize_tests();
    let spec = spec();
    let server =
        Server::start(ServeConfig::builder().read_timeout_ms(50).build().unwrap()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Find a routable net, then starve its budget: the answer must
    // degrade to pattern routes (pattern_sinks > 0), not hang or error.
    let net = (0..64u32)
        .find(|&n| {
            client
                .what_if(&spec, n, false, None)
                .is_ok_and(|r| r.kind == ResponseKind::Ok)
        })
        .expect("some net answers");
    let starved = client.what_if(&spec, net, false, Some(1)).unwrap();
    assert_eq!(starved.kind, ResponseKind::Ok);
    assert!(
        starved.what_if.unwrap().pattern_sinks > 0,
        "a starved deadline must degrade gracefully"
    );
    server.shutdown();
}

#[test]
fn one_worker_answers_queued_jobs_in_job_order() {
    let _serial = serialize_tests();
    let server = Server::start(
        ServeConfig::builder()
            .workers(1)
            .read_timeout_ms(50)
            .build()
            .unwrap(),
    )
    .unwrap();
    // The first what-if cold-builds the GNN-MLS session, so the three
    // jobs pipelined behind it are all queued before the one worker is
    // free again.
    let gnn = spec().with_policy(FlowPolicy::GnnMls);
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    for req in [
        Request::what_if(1, gnn.clone(), 0, true, None),
        Request::infer(2, gnn.clone(), Some(8)),
        Request::what_if(3, gnn.clone(), 1, true, None),
        Request::infer(4, gnn, Some(8)),
    ] {
        write_frame(&mut raw, &req).unwrap();
    }
    let ids: Vec<u64> = (0..4)
        .map(|_| {
            let resp: Response = read_frame(&mut raw).unwrap();
            assert_eq!(resp.kind, ResponseKind::Ok, "{resp:?}");
            resp.id
        })
        .collect();
    assert_eq!(ids, [1, 2, 3, 4], "one worker must answer in job order");
    server.shutdown();
}

#[test]
fn shutdown_drains_and_checkpoints_final_stats() {
    let _serial = serialize_tests();
    let dir = std::env::temp_dir().join("gnnmls_serve_drain_test");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(
        ServeConfig::builder()
            .read_timeout_ms(50)
            .checkpoint_dir(Some(dir.clone()))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.stats(&spec()).unwrap().kind, ResponseKind::Ok);
    // Client-initiated graceful drain.
    let resp = client.shutdown().unwrap();
    assert_eq!(resp.kind, ResponseKind::Ok);
    let final_stats = server.wait();
    assert!(final_stats.served >= 1);

    // The drain wrote the final stats as a versioned, checksummed stage
    // envelope that decodes back to exactly what `wait` returned.
    let from_disk: ServerStats = load_stage(&dir, gnnmls_serve::server::STATS_STAGE)
        .expect("envelope decodes")
        .expect("envelope exists");
    assert_eq!(from_disk, final_stats);
    let _ = std::fs::remove_dir_all(&dir);
}
