//! Hot model swap against a live daemon: a published zoo checkpoint is
//! loaded over the wire, inference flips to the new version without the
//! session being rebuilt, repeated swaps report what they replaced,
//! and damaged or unknown-family artifacts are refused with typed
//! `Rejected` responses that never disturb serving traffic.

use std::fs;
use std::path::{Path, PathBuf};

use gnn_mls::checkpoint::{ModelVersion, ZooModelCheckpoint};
use gnn_mls::flow::FlowPolicy;
use gnn_mls::session::SessionSpec;
use gnn_mls::{GnnMls, ModelConfig};
use gnnmls_faults::{install_global, FaultPlan, FaultSite};
use gnnmls_serve::protocol::ResponseKind;
use gnnmls_serve::{Client, ServeConfig, Server};
use gnnmls_zoo::{build_corpus, train_zoo, CorpusConfig, Registry};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("hotswap-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn mls_spec() -> SessionSpec {
    SessionSpec::fast("maeri16").with_policy(FlowPolicy::GnnMls)
}

/// Trains a real maeri zoo model on a one-design corpus and publishes
/// it, returning the registry and the checkpoint path.
fn publish_maeri_model(dir: &Path) -> (Registry, PathBuf) {
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
    let registry = Registry::open(dir);
    let entry = registry
        .publish(&models[0].to_zoo_checkpoint(ModelVersion::new(1, 0, 0)))
        .unwrap();
    let path = registry.entry_path(&entry);
    (registry, path)
}

#[test]
fn daemon_hot_swaps_refuses_damage_and_keeps_serving() {
    let dir = scratch_dir("swap");
    let (_registry, ckpt_path) = publish_maeri_model(&dir);

    let server = Server::start(
        ServeConfig::builder()
            .read_timeout_ms(50)
            .workers(2)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let spec = mls_spec();

    // Before any swap the session's own trained model answers.
    let before = client.infer(&spec, Some(4)).unwrap();
    assert_eq!(before.kind, ResponseKind::Ok, "{:?}", before.error);
    assert_eq!(before.model_version.as_deref(), Some("builtin"));

    // First swap: fresh slot, nothing replaced.
    let swap = client.load_model(ckpt_path.to_string_lossy()).unwrap();
    assert_eq!(swap.kind, ResponseKind::Ok, "{:?}", swap.error);
    let payload = swap.model_swap.expect("swap payload");
    assert_eq!(payload.family, "maeri");
    assert_eq!(payload.version, "1.0.0");
    assert!(payload.parameter_count > 0);
    assert_eq!(payload.replaced, None);
    assert_eq!(swap.model_version.as_deref(), Some("1.0.0"));

    // Inference now answers with the zoo model — same warm session, new
    // weights — and stays deterministic call to call.
    let after = client.infer(&spec, Some(4)).unwrap();
    assert_eq!(after.kind, ResponseKind::Ok, "{:?}", after.error);
    assert_eq!(after.model_version.as_deref(), Some("1.0.0"));
    let again = client.infer(&spec, Some(4)).unwrap();
    assert_eq!(
        again.infer, after.infer,
        "swapped model must serve deterministically"
    );

    // Re-swapping the same artifact reports what it displaced.
    let reswap = client.load_model(ckpt_path.to_string_lossy()).unwrap();
    assert_eq!(reswap.kind, ResponseKind::Ok);
    assert_eq!(
        reswap.model_swap.expect("swap payload").replaced.as_deref(),
        Some("1.0.0")
    );

    // A damaged artifact is refused with a typed rejection and the live
    // slot keeps the healthy weights.
    let bad_path = dir.join("damaged.ckpt");
    let mut bytes = fs::read(&ckpt_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    fs::write(&bad_path, &bytes).unwrap();
    let refused = client.load_model(bad_path.to_string_lossy()).unwrap();
    assert_eq!(refused.kind, ResponseKind::Rejected, "{:?}", refused.kind);
    assert!(refused.error.is_some());

    // An unknown family is refused up front.
    let alien_path = dir.join("warp9-v1.0.0.ckpt");
    ZooModelCheckpoint {
        family: "warp9".to_string(),
        version: ModelVersion::new(1, 0, 0),
        corpus_hashes: vec![],
        pretrain_epochs: 0,
        finetune_epochs: 0,
        model: GnnMls::new(ModelConfig::default()).to_checkpoint(),
    }
    .save(&alien_path)
    .unwrap();
    let alien = client.load_model(alien_path.to_string_lossy()).unwrap();
    assert_eq!(alien.kind, ResponseKind::Rejected);

    // The injected read-side corruption seam: typed refusal while the
    // shot is armed, clean swap right after — the daemon never wedges.
    {
        let _guard = install_global(&FaultPlan::single(FaultSite::ModelSwapCorrupt, 1));
        let seamed = client.load_model(ckpt_path.to_string_lossy()).unwrap();
        assert_eq!(seamed.kind, ResponseKind::Rejected, "{:?}", seamed.kind);
    }
    let healed = client.load_model(ckpt_path.to_string_lossy()).unwrap();
    assert_eq!(healed.kind, ResponseKind::Ok, "{:?}", healed.error);

    // Serving traffic was never disturbed by the refused swaps.
    let still = client.infer(&spec, Some(4)).unwrap();
    assert_eq!(still.kind, ResponseKind::Ok);
    assert_eq!(still.model_version.as_deref(), Some("1.0.0"));
    assert_eq!(still.infer, after.infer);

    // The swap and per-version serving counters are visible to a scrape.
    let metrics = client.metrics().unwrap().metrics.unwrap();
    assert!(
        metrics.contains("gnnmls_model_swaps_total{"),
        "swap counter missing from exposition"
    );
    assert!(
        metrics.contains("gnnmls_serve_responses_by_model_total{"),
        "per-version response counter missing from exposition"
    );
    assert!(metrics.contains("version=\"1.0.0\""));

    drop(client);
    server.shutdown();
}
