//! Cluster front-tier contracts, exercised against in-process backend
//! shards (spawn-free, so the suite stays fast in the dev profile):
//! routing and relay for every request kind, bit-identity with a
//! single daemon, failover to the deterministic secondary when the
//! primary dies, the three injected fault seams, the merged drain
//! envelope, and the drain-refusal regression for `client metrics`
//! against a draining server.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gnn_mls::checkpoint::load_stage;
use gnn_mls::session::SessionSpec;
use gnnmls_faults::{install_global, FaultPlan, FaultSite};
use gnnmls_serve::cluster::{ClusterConfig, ClusterFront, ShardBackendSpec, CLUSTER_STATS_STAGE};
use gnnmls_serve::protocol::ResponseKind;
use gnnmls_serve::{Client, ClusterStats, ServeConfig, Server};

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

/// A spec whose session trains the GNN model, so inference requests
/// are answerable.
fn mls_spec() -> SessionSpec {
    spec().with_policy(gnn_mls::flow::FlowPolicy::GnnMls)
}

/// Starts `n` in-process shard daemons and a front routing to them.
/// Returns the servers in ring-id order (backend `i` is shard id `i`).
fn start_cluster(n: usize, cfg: ClusterConfig) -> (Vec<Option<Server>>, ClusterFront) {
    let mut servers = Vec::with_capacity(n);
    let mut backends = Vec::with_capacity(n);
    for _ in 0..n {
        let server = Server::start(
            ServeConfig::builder()
                .read_timeout_ms(50)
                .workers(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        backends.push(ShardBackendSpec::External(server.local_addr()));
        servers.push(Some(server));
    }
    let front = ClusterFront::start(cfg, backends).unwrap();
    (servers, front)
}

fn fast_cfg() -> ClusterConfig {
    ClusterConfig {
        probe_interval_ms: 50,
        breaker_cooldown_ms: 200,
        retry_base_ms: 5,
        retry_max_ms: 50,
        ..ClusterConfig::default()
    }
}

/// Drains the front, then reaps any shard daemons the front's drain
/// shut down over the wire.
fn teardown(servers: Vec<Option<Server>>, front: ClusterFront) -> ClusterStats {
    let stats = front.shutdown();
    for server in servers.into_iter().flatten() {
        server.wait();
    }
    stats
}

#[test]
fn front_routes_every_request_kind_and_merges_drain_stats() {
    let _serial = serialize_tests();
    let (servers, front) = start_cluster(3, fast_cfg());
    let mut client = Client::connect(front.local_addr()).unwrap();

    let r = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok, "{r:?}");
    assert!(r.what_if.is_some());

    let r = client.infer(&mls_spec(), Some(4)).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok, "{r:?}");
    assert!(r.infer.is_some());

    // Health and metrics are answered by the front itself.
    let h = client.health().unwrap().health.unwrap();
    assert!(h.ready);
    assert_eq!(h.workers, 3, "all shards healthy");
    let m = client.metrics().unwrap();
    assert_eq!(m.kind, ResponseKind::Ok);
    assert!(m.metrics.unwrap().contains("gnnmls"));

    let stats = teardown(servers, front);
    assert!(stats.requests >= 2, "{stats:?}");
    assert!(stats.relayed_ok >= 2, "{stats:?}");
    assert_eq!(stats.lost_after_retry, 0, "{stats:?}");
    assert_eq!(stats.shards.len(), 3);
    // The merged envelope carries each shard's own final stats; the
    // two routed requests landed somewhere.
    let served: u64 = stats
        .shards
        .iter()
        .filter_map(|s| s.stats.as_ref())
        .map(|s| s.served)
        .sum();
    assert!(served >= 2, "{stats:?}");
}

#[test]
fn cluster_answers_are_bit_identical_to_a_single_daemon() {
    let _serial = serialize_tests();
    let solo = Server::start(ServeConfig::builder().read_timeout_ms(50).build().unwrap()).unwrap();
    let mut direct = Client::connect(solo.local_addr()).unwrap();
    let (servers, front) = start_cluster(3, fast_cfg());
    let mut routed = Client::connect(front.local_addr()).unwrap();

    for net in [0u32, 3, 7] {
        let a = direct.what_if(&spec(), net, true, None).unwrap();
        let b = routed.what_if(&spec(), net, true, None).unwrap();
        assert_eq!(a.kind, ResponseKind::Ok);
        assert_eq!(b.kind, ResponseKind::Ok);
        assert_eq!(
            serde_json::to_string(&a.what_if).unwrap(),
            serde_json::to_string(&b.what_if).unwrap(),
            "net {net}: the front must relay the shard's answer unchanged"
        );
    }
    let a = direct.infer(&mls_spec(), Some(4)).unwrap();
    let b = routed.infer(&mls_spec(), Some(4)).unwrap();
    assert_eq!(a.kind, ResponseKind::Ok);
    assert_eq!(
        serde_json::to_string(&a.infer).unwrap(),
        serde_json::to_string(&b.infer).unwrap()
    );

    solo.shutdown();
    teardown(servers, front);
}

#[test]
fn failover_answers_from_the_secondary_when_the_primary_dies() {
    let _serial = serialize_tests();
    let (mut servers, front) = start_cluster(3, fast_cfg());
    let key = spec().cache_key();
    let primary = front.primary_shard(key).unwrap();
    let secondary = front.secondary_shard(key).unwrap();
    assert_ne!(primary, secondary);

    // Warm the primary, then kill it for real.
    let mut client = Client::connect(front.local_addr()).unwrap();
    let r = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok);
    servers[primary as usize].take().unwrap().shutdown();

    // The front must absorb the dead primary inside one request's
    // retry budget: cold-build on the deterministic secondary.
    let r = client.what_if(&spec(), 1, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok, "failover must answer: {r:?}");

    let stats = teardown(servers, front);
    assert!(stats.failovers >= 1, "{stats:?}");
    assert!(stats.failover_cold >= 1, "cold build accepted: {stats:?}");
    assert_eq!(stats.lost_after_retry, 0, "{stats:?}");
}

#[test]
fn injected_fault_seams_are_absorbed_by_the_retry_path() {
    let _serial = serialize_tests();
    let (servers, front) = start_cluster(3, fast_cfg());
    let mut client = Client::connect(front.local_addr()).unwrap();
    let r = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok);

    // shard-stall: the forward times out once; the failover path still
    // answers the same request.
    let guard = install_global(&FaultPlan::single(FaultSite::ShardStall, 1));
    let r = client.what_if(&spec(), 1, true, None).unwrap();
    drop(guard);
    assert_eq!(r.kind, ResponseKind::Ok, "stall absorbed: {r:?}");

    // conn-reset: the front↔shard stream dies mid-exchange; same
    // contract.
    let guard = install_global(&FaultPlan::single(FaultSite::ConnReset, 1));
    let r = client.what_if(&spec(), 2, true, None).unwrap();
    drop(guard);
    assert_eq!(r.kind, ResponseKind::Ok, "reset absorbed: {r:?}");

    // shard-crash: the routed-to shard is declared dead before the
    // forward; the crash is counted and the breaker opens, and the
    // request is still answered.
    let guard = install_global(&FaultPlan::single(FaultSite::ShardCrash, 1));
    let r = client.what_if(&spec(), 3, true, None).unwrap();
    drop(guard);
    assert_eq!(r.kind, ResponseKind::Ok, "crash absorbed: {r:?}");

    let stats = teardown(servers, front);
    assert!(
        stats.failovers >= 2,
        "stall + reset each failed over: {stats:?}"
    );
    assert!(stats.shard_crashes >= 1, "{stats:?}");
    assert_eq!(stats.lost_after_retry, 0, "{stats:?}");
}

/// Value of `{metric}{{reason="{reason}"}}` in the exposition text, 0
/// when the series has never been touched.
fn failover_count(metrics: &str, reason: &str) -> u64 {
    let series = format!("gnnmls_cluster_failovers_total{{reason=\"{reason}\"}}");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(series.as_str()))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Regression for the per-forward blocking-stream leak: a backend that
/// stalls mid-forward must surface as a *typed* failover reason and be
/// absorbed inside the request's retry budget — never parked as a
/// thread blocked on a 2-minute read holding the backend stream. The
/// timing asserts are the teeth: with the old leak, the answer waited
/// out the stall and the drain waited out the parked thread.
#[test]
fn shard_stall_fails_over_typed_without_hung_threads() {
    let _serial = serialize_tests();
    let cfg = ClusterConfig::builder()
        .probe_interval_ms(50)
        .breaker_cooldown_ms(200)
        .retry_base_ms(5)
        .retry_max_ms(50)
        .forward_timeout_ms(60_000)
        .build()
        .unwrap();
    let (servers, front) = start_cluster(3, cfg);
    let mut client = Client::connect(front.local_addr()).unwrap();
    let r = client.what_if(&spec(), 0, true, None).unwrap();
    assert_eq!(r.kind, ResponseKind::Ok);
    let before = failover_count(&client.metrics().unwrap().metrics.unwrap(), "stall");

    let guard = install_global(&FaultPlan::single(FaultSite::ShardStall, 1));
    let t0 = Instant::now();
    let r = client.what_if(&spec(), 1, true, None).unwrap();
    let answered_in = t0.elapsed();
    drop(guard);
    assert_eq!(r.kind, ResponseKind::Ok, "stall must fail over: {r:?}");
    assert!(
        answered_in < Duration::from_secs(10),
        "failover must not wait out the 60s forward timeout: {answered_in:?}"
    );

    let after = failover_count(&client.metrics().unwrap().metrics.unwrap(), "stall");
    assert!(
        after > before,
        "stall failover must be counted under its typed reason \
         (before {before}, after {after})"
    );

    // The drain is the leak detector: a thread still parked on the
    // stalled forward's read would hold shutdown for the rest of the
    // 60s timeout.
    let t0 = Instant::now();
    let stats = teardown(servers, front);
    assert!(
        t0.elapsed() < Duration::from_secs(15),
        "drain hung on a leaked forward: {:?}",
        t0.elapsed()
    );
    assert!(stats.failovers >= 1, "{stats:?}");
    assert_eq!(stats.lost_after_retry, 0, "{stats:?}");
}

#[test]
fn drain_checkpoints_the_merged_envelope() {
    let _serial = serialize_tests();
    let dir = std::env::temp_dir().join("gnnmls_cluster_envelope_test");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ClusterConfig {
        checkpoint_dir: Some(dir.clone()),
        ..fast_cfg()
    };
    let (servers, front) = start_cluster(2, cfg);
    let mut client = Client::connect(front.local_addr()).unwrap();
    assert_eq!(
        client.what_if(&spec(), 0, true, None).unwrap().kind,
        ResponseKind::Ok
    );
    let stats = teardown(servers, front);

    let from_disk: ClusterStats = load_stage(&dir, CLUSTER_STATS_STAGE)
        .expect("envelope decodes")
        .expect("envelope exists");
    assert_eq!(from_disk, stats, "disk envelope matches the returned stats");
    assert_eq!(from_disk.schema_version, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `LoadModel` through the front is a broadcast: every live shard
/// swaps, a dead shard is skipped without failing the roll, and a
/// shard's typed refusal (damaged artifact) is relayed naming the
/// shard instead of being half-applied silently.
#[test]
fn load_model_broadcasts_to_every_shard_and_relays_refusals() {
    let _serial = serialize_tests();
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cluster-swap");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt_path = dir.join("maeri-v2.0.0.ckpt");
    gnn_mls::checkpoint::ZooModelCheckpoint {
        family: "maeri".to_string(),
        version: gnn_mls::checkpoint::ModelVersion::new(2, 0, 0),
        corpus_hashes: vec![7],
        pretrain_epochs: 1,
        finetune_epochs: 1,
        model: gnn_mls::GnnMls::new(gnn_mls::ModelConfig::default()).to_checkpoint(),
    }
    .save(&ckpt_path)
    .unwrap();

    let (mut servers, front) = start_cluster(3, fast_cfg());
    let mut client = Client::connect(front.local_addr()).unwrap();

    // All three shards up: the broadcast lands everywhere and answers
    // with the swap payload.
    let resp = client.load_model(ckpt_path.to_string_lossy()).unwrap();
    assert_eq!(resp.kind, ResponseKind::Ok, "{:?}", resp.error);
    let payload = resp.model_swap.expect("swap payload");
    assert_eq!(payload.family, "maeri");
    assert_eq!(payload.version, "2.0.0");

    // Kill one shard: the roll still succeeds across the survivors.
    servers[1].take().unwrap().shutdown();
    let resp = client.load_model(ckpt_path.to_string_lossy()).unwrap();
    assert_eq!(
        resp.kind,
        ResponseKind::Ok,
        "dead shard must be skipped, not fail the roll: {:?}",
        resp.error
    );

    // Damage the artifact: the shards refuse, and the front relays the
    // first refusal naming the shard.
    let mut bytes = std::fs::read(&ckpt_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&ckpt_path, &bytes).unwrap();
    let resp = client.load_model(ckpt_path.to_string_lossy()).unwrap();
    assert_eq!(resp.kind, ResponseKind::Rejected, "{resp:?}");
    assert!(
        resp.error.as_deref().unwrap_or("").contains("shard"),
        "refusal must name the shard: {:?}",
        resp.error
    );

    drop(client);
    teardown(servers, front);
}

#[test]
fn metrics_against_a_draining_server_is_refused_immediately() {
    let _serial = serialize_tests();
    let server =
        Server::start(ServeConfig::builder().read_timeout_ms(50).build().unwrap()).unwrap();
    let addr = server.local_addr();
    server.initiate_shutdown();

    // A new connection during the drain gets a typed `Rejected` at
    // once — not a hang until the drain finishes, not a raw reset.
    let t0 = Instant::now();
    let mut client = Client::connect(addr).unwrap();
    let resp = client.metrics().unwrap();
    assert_eq!(resp.kind, ResponseKind::Rejected, "{resp:?}");
    assert_eq!(resp.id, 0, "connection-level refusal");
    assert!(
        resp.error.unwrap().contains("draining"),
        "the refusal names the cause"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "refusal must be immediate, not wait out the drain"
    );
    server.wait();
}
