//! Cluster chaos soak: a front over three *spawned* shard daemons
//! survives ~60 seconds of mixed traffic with seeded shard kills —
//! every kill is discovered by the prober, failed over, and respawned;
//! zero requests are lost after retry; a `LoadModel` broadcast rolled
//! mid-storm lands without dropping traffic (inference before the roll
//! answers on the built-in weights, after it on the zoo version, and
//! never on anything else); per-version response counters on every
//! shard sum to that shard's total responses; and a respawned shard
//! serves warm cache hits again once traffic returns to it.
//!
//! Long-running and process-spawning, so ignored by default; the CI
//! soak job runs it with
//! `cargo test --release -p gnnmls-serve --test cluster_soak -- --ignored`.
//! Override the duration with `GNNMLS_SOAK_SECS` (seconds, default 60).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gnn_mls::checkpoint::{load_stage, save_stage, ModelVersion};
use gnn_mls::flow::FlowPolicy;
use gnn_mls::session::SessionSpec;
use gnn_mls::store::scrub_dir;
use gnn_mls::ModelConfig;
use gnnmls_faults::{install_global, FaultPlan, FaultSite};
use gnnmls_par::rng::SplitMix64;
use gnnmls_serve::client::RetryPolicy;
use gnnmls_serve::cluster::{ClusterConfig, ClusterFront, ShardBackendSpec, ShardSpawnSpec};
use gnnmls_serve::protocol::ResponseKind;
use gnnmls_serve::{Client, ClientError, ClusterStats, CLUSTER_STATS_STAGE};
use gnnmls_zoo::{build_corpus, train_zoo, CorpusConfig, Registry};

const SHARDS: usize = 3;
/// Version the mid-storm roll publishes and swaps in.
const ROLLED_VERSION: &str = "1.0.0";

/// Trains a real maeri zoo model on a one-design corpus and publishes
/// it under the target tmpdir, returning the checkpoint path.
fn publish_roll_artifact() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("soak-zoo");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let corpus_cfg = CorpusConfig {
        families: vec!["maeri".to_string()],
        ..CorpusConfig::tiny()
    };
    let corpus = build_corpus(&corpus_cfg).unwrap();
    let model_cfg = ModelConfig {
        pretrain_epochs: 2,
        finetune_epochs: 8,
        ..ModelConfig::default()
    };
    let models = train_zoo(&corpus, &model_cfg, 0).unwrap();
    let registry = Registry::open(&dir);
    let entry = registry
        .publish(&models[0].to_zoo_checkpoint(ModelVersion::new(1, 0, 0)))
        .unwrap();
    registry.entry_path(&entry)
}

/// Sums every sample of counter family `name` (labeled or not) in a
/// Prometheus-style text exposition.
fn counter_sum(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Spec variant `i`, gnn-mls policy so the inference share of the mix
/// is answerable. Distinct frequencies spread the ring.
fn soak_spec(i: u64) -> SessionSpec {
    let mut spec = SessionSpec::fast("maeri16");
    spec.policy = FlowPolicy::GnnMls;
    spec.target_freq_mhz = 2500.0 + i as f64;
    spec
}

#[test]
#[ignore = "long-running process-spawning chaos soak; run explicitly or via the CI soak job"]
fn chaos_soak_loses_nothing_and_recovers_warm() {
    let secs: u64 = std::env::var("GNNMLS_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);
    let roll_path = publish_roll_artifact();
    let exe = std::path::PathBuf::from(env!("CARGO_BIN_EXE_gnnmls"));
    let backends = (0..SHARDS)
        .map(|_| {
            ShardBackendSpec::Spawn(ShardSpawnSpec {
                exe: exe.clone(),
                args: vec!["serve".into()],
            })
        })
        .collect();
    let ckpt_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("soak-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let cfg = ClusterConfig {
        probe_interval_ms: 100,
        breaker_cooldown_ms: 300,
        retries: 6,
        retry_base_ms: 10,
        retry_max_ms: 300,
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..ClusterConfig::default()
    };
    let front = ClusterFront::start(cfg, backends).expect("cluster starts");
    let addr = front.local_addr();
    let deadline = Instant::now() + Duration::from_secs(secs);
    let stop = AtomicBool::new(false);
    let answered = AtomicU64::new(0);
    let gave_up = AtomicU64::new(0);
    let builtin_served = AtomicU64::new(0);
    let zoo_served = AtomicU64::new(0);
    let roll_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Mid-storm model roll: once traffic is flowing, broadcast a
        // `LoadModel` through the front. Shard kills may race it, so
        // retry until the broadcast lands; the roll must succeed well
        // before the storm ends.
        {
            let roll_done = &roll_done;
            let roll_path = &roll_path;
            scope.spawn(move || {
                std::thread::sleep(Duration::from_secs((secs / 3).max(2)));
                for _ in 0..40 {
                    let Ok(mut client) = Client::connect(addr) else {
                        std::thread::sleep(Duration::from_millis(250));
                        continue;
                    };
                    match client.load_model(roll_path.to_string_lossy()) {
                        Ok(resp) if resp.kind == ResponseKind::Ok => {
                            let swap = resp.model_swap.expect("swap payload");
                            assert_eq!(swap.family, "maeri");
                            assert_eq!(swap.version, ROLLED_VERSION);
                            roll_done.store(true, Ordering::SeqCst);
                            return;
                        }
                        // Shard mid-kill or transport hiccup: go again.
                        Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(250)),
                    }
                }
                panic!("the mid-storm model roll never landed");
            });
        }
        // Chaos driver: a seeded kill every ~5s, any shard fair game.
        // The prober must notice, fail traffic over, and respawn.
        scope.spawn(|| {
            let mut rng = SplitMix64::new(0x000C_1A05);
            while Instant::now() < deadline {
                for _ in 0..50 {
                    if Instant::now() >= deadline {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                if Instant::now() >= deadline {
                    break;
                }
                let victim = rng.next_below(SHARDS as u64) as u16;
                front.kill_shard(victim);
            }
            stop.store(true, Ordering::SeqCst);
        });
        // Traffic: three clients, mixed what-if / infer / stats over
        // six specs, through the retrying client path.
        for c in 0..3u64 {
            let stop = &stop;
            let answered = &answered;
            let gave_up = &gave_up;
            let builtin_served = &builtin_served;
            let zoo_served = &zoo_served;
            scope.spawn(move || {
                let policy = RetryPolicy {
                    max_attempts: 8,
                    base_delay_ms: 10,
                    max_delay_ms: 200,
                    seed: c + 1,
                };
                let mut i = c * 1_000_000;
                while !stop.load(Ordering::SeqCst) {
                    let Ok(mut client) = Client::connect(addr) else {
                        std::thread::sleep(Duration::from_millis(50));
                        continue;
                    };
                    for _ in 0..16 {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        i += 1;
                        let spec = soak_spec(i % 6);
                        let req = match i % 10 {
                            0..=6 => {
                                gnnmls_serve::Request::what_if(i, spec, (i % 16) as u32, true, None)
                            }
                            7 | 8 => gnnmls_serve::Request::infer(i, spec, Some(8)),
                            _ => gnnmls_serve::Request::stats(i, spec),
                        };
                        match client.request_with_retry(&req, &policy) {
                            Ok(resp) => {
                                assert_eq!(resp.id, req.id, "mismatched response");
                                assert!(matches!(
                                    resp.kind,
                                    ResponseKind::Ok
                                        | ResponseKind::Error
                                        | ResponseKind::Rejected
                                        | ResponseKind::Quarantined
                                ));
                                // Every answered inference names the
                                // weights it ran on: the session's
                                // built-in model or the rolled zoo
                                // version — never anything else, even
                                // across the swap.
                                if resp.kind == ResponseKind::Ok && resp.infer.is_some() {
                                    match resp.model_version.as_deref() {
                                        Some("builtin") => {
                                            builtin_served.fetch_add(1, Ordering::SeqCst);
                                        }
                                        Some(ROLLED_VERSION) => {
                                            zoo_served.fetch_add(1, Ordering::SeqCst);
                                        }
                                        other => panic!("unexpected model version {other:?}"),
                                    }
                                }
                                answered.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(ClientError::GaveUp { .. }) => {
                                gave_up.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(ClientError::Frame(_)) => break, // reconnect
                        }
                    }
                }
            });
        }
    });

    // Recovery: wait for every breaker to close (all shards respawned
    // and probing healthy again).
    let mut client = Client::connect(addr).expect("front alive after the storm");
    let recovered = Instant::now() + Duration::from_secs(15);
    loop {
        let h = client.health().expect("health answered").health.unwrap();
        if h.workers == SHARDS as u64 {
            break;
        }
        assert!(
            Instant::now() < recovered,
            "all shards must probe healthy again after the storm: {h:?}"
        );
        std::thread::sleep(Duration::from_millis(200));
    }

    // Warm-hit recovery: drive one spec twice, then read its shard's
    // stats through the front — the second answer must have been a
    // cache hit on whichever (possibly respawned) shard owns it now.
    let spec = soak_spec(0);
    for net in [0u32, 1] {
        let r = client.what_if(&spec, net, true, None).expect("routed");
        assert_eq!(r.kind, ResponseKind::Ok, "{r:?}");
    }
    let stats = client.stats(&spec).expect("routed").stats.unwrap();
    assert!(
        stats.cache_hits >= 1,
        "the owning shard must serve warm again after respawn: {stats:?}"
    );

    // The roll landed, traffic answered on both sides of it, and no
    // response ever named a third set of weights (asserted inline).
    assert!(
        roll_done.load(Ordering::SeqCst),
        "the mid-storm model roll must have succeeded"
    );
    assert!(
        builtin_served.load(Ordering::SeqCst) > 0,
        "inference before the roll must answer on the built-in weights"
    );
    assert!(
        zoo_served.load(Ordering::SeqCst) > 0,
        "inference after the roll must answer on the zoo version"
    );

    // Per-version accounting: on every shard, the responses-by-model
    // counter family sums to exactly the shard's total responses — the
    // swap never leaks a response outside the versioned ledger.
    for (id, shard_addr) in front.shard_addrs().iter().enumerate() {
        let mut shard_client = Client::connect(shard_addr).expect("shard reachable");
        let text = shard_client
            .metrics()
            .expect("shard metrics")
            .metrics
            .expect("exposition text");
        let total = counter_sum(&text, "gnnmls_serve_responses_total");
        let by_model = counter_sum(&text, "gnnmls_serve_responses_by_model_total");
        assert_eq!(
            by_model, total,
            "shard {id}: per-version response counters must sum to the total"
        );
    }

    // Kill-9-mid-envelope-write round: the drain's final stats envelope
    // crashes between fsync and rename — exactly the residue a kill -9
    // at that instant leaves (complete, fsynced tmp; untouched dest).
    // The drain itself must survive (the write is logged, not fatal),
    // fsck must delete the orphan, and a restart rewriting the envelope
    // from the returned stats must leave the directory fsck-clean.
    let seam = install_global(&FaultPlan::single(FaultSite::RenameCrash, 1));
    let cluster = front.shutdown();
    drop(seam);
    assert!(
        ckpt_dir.join("cluster-stats.ckpt.tmp").exists(),
        "the crashed envelope write must leave its orphan tmp behind"
    );
    assert!(
        !ckpt_dir.join("cluster-stats.ckpt").exists(),
        "the crashed rename must not have landed"
    );
    let fsck = scrub_dir(&ckpt_dir).expect("fsck scans the checkpoint dir");
    assert!(
        fsck.consistent() && fsck.repaired >= 1,
        "fsck must repair the crash residue: {:?}",
        fsck.findings
    );
    assert!(!ckpt_dir.join("cluster-stats.ckpt.tmp").exists());
    save_stage(&ckpt_dir, CLUSTER_STATS_STAGE, &cluster)
        .expect("a restarted front rewrites the envelope durably");
    let replayed: ClusterStats = load_stage(&ckpt_dir, CLUSTER_STATS_STAGE)
        .expect("envelope decodes")
        .expect("envelope present");
    assert_eq!(replayed.schema_version, cluster.schema_version);
    assert!(
        scrub_dir(&ckpt_dir).expect("rescan").clean(),
        "the rewritten checkpoint dir must be fsck-clean"
    );

    let answered = answered.load(Ordering::SeqCst);
    let gave_up = gave_up.load(Ordering::SeqCst);
    assert!(answered > 0, "the soak must answer traffic");
    assert_eq!(
        cluster.lost_after_retry, 0,
        "no request may be lost after retry: {cluster:?}"
    );
    assert!(
        cluster.shard_respawns >= 1,
        "the storm must have respawned at least one shard: {cluster:?}"
    );
    println!(
        "cluster soak: {secs}s — {answered} answered, {gave_up} gave up, \
         {} requests / {} ok / {} failovers ({} cold) / {} crashes / \
         {} respawns / {} lost",
        cluster.requests,
        cluster.relayed_ok,
        cluster.failovers,
        cluster.failover_cold,
        cluster.shard_crashes,
        cluster.shard_respawns,
        cluster.lost_after_retry
    );
}
