//! The typed serving facade against a live daemon and a live cluster
//! front: per-request-kind methods return typed payloads, transient
//! shed work is retried behind the scenes, and permanent refusals
//! surface as the matching [`ServeError`] variant — the same taxonomy
//! against both serving topologies.

use std::sync::{Mutex, MutexGuard, PoisonError};

use gnn_mls::session::SessionSpec;
use gnnmls_faults::{install_global, FaultPlan, FaultSite};
use gnnmls_serve::api;
use gnnmls_serve::cluster::{ClusterConfig, ClusterFront, ShardBackendSpec};
use gnnmls_serve::{RetryPolicy, ServeConfig, ServeError, Server};

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
fn typed_methods_return_typed_payloads() {
    let _serial = serialize_tests();
    let server =
        Server::start(ServeConfig::builder().read_timeout_ms(50).build().unwrap()).unwrap();
    let mut client = api::Client::connect(server.local_addr()).unwrap();

    let w = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(w.net, 0);
    assert!(w.wirelength_um > 0.0, "typed what-if payload: {w:?}");

    let inference = client
        .infer(
            &spec().with_policy(gnn_mls::flow::FlowPolicy::GnnMls),
            Some(4),
        )
        .unwrap();
    assert!(
        inference.result.paths >= 1,
        "typed inference payload: {:?}",
        inference.result
    );

    let h = client.health().unwrap();
    assert!(h.ready && h.workers > 0, "typed health payload: {h:?}");

    let m = client.metrics().unwrap();
    assert!(m.contains("gnnmls"), "metrics text exposition");

    let s = client.stats(&spec()).unwrap();
    assert!(s.served >= 1, "typed stats payload: {s:?}");

    let report = client.run_flow(&spec()).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&report).unwrap();
    assert!(
        parsed.get("design").is_some(),
        "flow report JSON: {parsed:?}"
    );

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn transient_shed_is_retried_and_permanent_refusal_is_typed() {
    let _serial = serialize_tests();
    let server =
        Server::start(ServeConfig::builder().read_timeout_ms(50).build().unwrap()).unwrap();
    let mut client = api::Client::connect(server.local_addr())
        .unwrap()
        .with_policy(RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 5,
            max_delay_ms: 25,
            seed: 11,
        });

    // Two shed responses are absorbed by the facade's retry loop; the
    // caller only sees the eventual typed answer.
    let guard = install_global(&FaultPlan::single(FaultSite::QueueOverflow, 2));
    let s = client.stats(&spec()).unwrap();
    drop(guard);
    assert!(s.busy >= 2, "the shed attempts were counted: {s:?}");

    // A malformed request fails admission permanently: no retries, a
    // typed Rejected with the server's reason.
    let bad = SessionSpec {
        design: "no-such-design".into(),
        ..spec()
    };
    match client.stats(&bad) {
        Err(ServeError::Rejected { why }) => {
            assert!(!why.is_empty(), "refusal carries the server's reason")
        }
        other => panic!("admission refusal must be typed Rejected: {other:?}"),
    }
    // Rejected is permanent; the taxonomy says so.
    let e = client.stats(&bad).unwrap_err();
    assert!(!e.is_transient());
    assert_eq!(e.retry_after_ms(), None);

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn facade_speaks_to_the_cluster_front_unchanged() {
    let _serial = serialize_tests();
    let mut servers = Vec::new();
    let mut backends = Vec::new();
    for _ in 0..2 {
        let server = Server::start(
            ServeConfig::builder()
                .read_timeout_ms(50)
                .workers(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        backends.push(ShardBackendSpec::External(server.local_addr()));
        servers.push(server);
    }
    let front = ClusterFront::start(
        ClusterConfig::builder()
            .probe_interval_ms(50)
            .retry_base_ms(5)
            .retry_max_ms(50)
            .build()
            .unwrap(),
        backends,
    )
    .unwrap();

    let mut client = api::Client::connect(front.local_addr()).unwrap();
    let w = client.what_if(&spec(), 0, true, None).unwrap();
    assert!(
        w.wirelength_um > 0.0,
        "typed answer through the front: {w:?}"
    );
    let h = client.health().unwrap();
    assert_eq!(h.workers, 2, "front health reports healthy shards: {h:?}");

    front.shutdown();
    for server in servers {
        server.wait();
    }
}
