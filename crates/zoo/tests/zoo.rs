//! End-to-end zoo tests: corpus determinism, cross-corpus training,
//! registry integrity, and the checkpoint-restore bit-identity
//! regression (including under divergence-retry RNG perturbation).

use std::fs;
use std::path::PathBuf;

use gnn_mls::checkpoint::{ModelVersion, ZooModelCheckpoint};
use gnn_mls::model::GnnMls;
use gnn_mls::{FlowError, ModelConfig};
use gnnmls_faults::{install, FaultPlan, FaultSite};
use gnnmls_zoo::{build_corpus, train_zoo, CorpusConfig, Registry, ZooError};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("zoo-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn fast_model_cfg() -> ModelConfig {
    ModelConfig {
        pretrain_epochs: 2,
        finetune_epochs: 8,
        ..ModelConfig::default()
    }
}

/// An unlabeled noc-only corpus is cheap enough to build twice; the
/// sweep must be bit-deterministic (same content hashes, same sample
/// counts) run to run.
#[test]
fn corpus_build_is_deterministic() {
    let mut cfg = CorpusConfig::tiny();
    cfg.families = vec!["noc".to_string()];
    cfg.paths_per_design = 20;
    cfg.labeled_per_design = 0;
    let a = build_corpus(&cfg).unwrap();
    let b = build_corpus(&cfg).unwrap();
    assert_eq!(a.designs.len(), 1);
    assert_eq!(a.all_hashes(), b.all_hashes());
    assert_eq!(a.len(), b.len());
    assert!(!a.is_empty());
    assert!(a.labeled("noc").is_empty());
    assert_eq!(a.families(), vec!["noc".to_string()]);
}

/// The corpus is every zoo checkpoint's ground truth, so each design's
/// baseline route DB is audited before paths are extracted or labeled
/// from it: one corrupting shot must fail the build typed.
#[test]
fn corrupted_corpus_route_fails_typed() {
    let guard = install(&FaultPlan::single(FaultSite::RouteAuditCorrupt, 1));
    let result = build_corpus(&CorpusConfig::tiny());
    drop(guard);
    match result {
        Err(ZooError::Flow(FlowError::AuditFailed { stage, .. })) => assert_eq!(stage, "corpus"),
        Err(e) => panic!("expected a corpus audit failure, got {e}"),
        Ok(c) => panic!(
            "built a corpus on a corrupted DB ({} designs)",
            c.designs.len()
        ),
    }
}

/// The tentpole pipeline: tiny two-family corpus → cross-corpus DGI
/// pretrain + per-family fine-tune → versioned publish → integrity
/// verify → restore. The restored model's inference must be
/// bit-identical to the in-memory model that saved it, at 1 and N
/// worker threads, and that must still hold for a model whose training
/// went through a divergence-retry (which consumes extra RNG draws) —
/// the model-zoo regression the issue calls out.
#[test]
fn zoo_trains_publishes_and_restores_bit_identically() {
    let corpus = build_corpus(&CorpusConfig::tiny()).unwrap();
    assert_eq!(corpus.designs.len(), 2, "two families × one seed/variant");
    assert_eq!(
        corpus.families(),
        vec!["maeri".to_string(), "noc".to_string()]
    );
    for d in &corpus.designs {
        assert!(!d.samples.is_empty(), "{} produced no paths", d.variant);
        assert!(!d.labeled.is_empty(), "{} produced no labels", d.variant);
        assert!(d.oracle.paths > 0);
    }
    assert_eq!(corpus.all_hashes().len(), 2);

    let models = train_zoo(&corpus, &fast_model_cfg(), 0).unwrap();
    assert_eq!(models.len(), 2, "one model per family");

    let dir = scratch_dir("publish");
    let registry = Registry::open(&dir);
    let probe: Vec<_> = corpus.designs[0].samples.iter().take(8).cloned().collect();

    for fam in &models {
        assert!(fam.metrics.total() > 0);
        assert_eq!(fam.corpus_hashes, corpus.all_hashes());

        let version = registry.next_version(&fam.family).unwrap();
        assert_eq!(version, ModelVersion::new(1, 0, 0));
        let entry = registry.publish(&fam.to_zoo_checkpoint(version)).unwrap();
        assert_eq!(entry.version, version);
        assert!(entry.parameter_count > 0);
        assert_eq!(entry.corpus_designs, 2);
        assert_eq!(
            registry.next_version(&fam.family).unwrap(),
            ModelVersion::new(1, 1, 0)
        );

        // Restore and compare inference bit for bit, serial vs parallel.
        let restored_cp = registry.load(&fam.family, None).unwrap();
        assert_eq!(restored_cp.family, fam.family);
        let mut restored = GnnMls::from_checkpoint(restored_cp.model).unwrap();
        let want = fam.model.predict_paths(&probe).unwrap();
        restored.set_threads(1);
        assert_eq!(restored.predict_paths(&probe).unwrap(), want);
        restored.set_threads(4);
        assert_eq!(restored.predict_paths(&probe).unwrap(), want);
    }

    let report = registry.verify().unwrap();
    assert_eq!(report.checked, 2);
    assert!(
        report.ok(),
        "fresh registry must verify: {:?}",
        report.problems
    );

    // Divergence-retry regression: force one NaN-gradient rollback
    // during training so the RNG stream diverges from the clean run,
    // then prove save → restore still reproduces the in-memory model
    // exactly at every thread count.
    let perturbed = {
        let _guard = install(&FaultPlan::single(FaultSite::NanGradient, 1));
        train_zoo(&corpus, &fast_model_cfg(), 0).unwrap()
    };
    let fam = &perturbed[0];
    let version = registry.next_version(&fam.family).unwrap();
    registry.publish(&fam.to_zoo_checkpoint(version)).unwrap();
    let restored_cp = registry.load(&fam.family, Some(version)).unwrap();
    let mut restored = GnnMls::from_checkpoint(restored_cp.model).unwrap();
    let want = fam.model.predict_paths(&probe).unwrap();
    restored.set_threads(1);
    assert_eq!(restored.predict_paths(&probe).unwrap(), want);
    restored.set_threads(4);
    assert_eq!(restored.predict_paths(&probe).unwrap(), want);
}

/// Registry integrity: damaged bytes, swapped files, and a
/// wrong-schema manifest are all refused with typed errors, and
/// `verify` pinpoints the broken entry without failing the healthy one.
#[test]
fn registry_refuses_damage_and_mismatch() {
    let dir = scratch_dir("integrity");
    let registry = Registry::open(&dir);

    // Empty registry: readable, nothing published.
    assert!(registry.manifest().unwrap().entries.is_empty());
    assert!(registry.latest("maeri").unwrap().is_none());
    assert!(matches!(
        registry.load("maeri", None),
        Err(ZooError::Registry(_))
    ));

    let cp = |family: &str, version: ModelVersion| ZooModelCheckpoint {
        family: family.to_string(),
        version,
        corpus_hashes: vec![1, 2, 3],
        pretrain_epochs: 2,
        finetune_epochs: 8,
        model: GnnMls::new(ModelConfig::default()).to_checkpoint(),
    };
    let v1 = ModelVersion::new(1, 0, 0);
    let v11 = ModelVersion::new(1, 1, 0);
    registry.publish(&cp("maeri", v1)).unwrap();
    registry.publish(&cp("maeri", v11)).unwrap();
    registry.publish(&cp("noc", v1)).unwrap();

    assert_eq!(registry.latest("maeri").unwrap().unwrap().version, v11);
    assert_eq!(registry.load("maeri", Some(v1)).unwrap().version, v1);
    assert!(registry.verify().unwrap().ok());

    // Flip one byte mid-file: load refuses (manifest hash), verify
    // reports exactly one problem and still checks the other entries.
    let victim = registry.entry_path(&registry.entry("maeri", Some(v11)).unwrap());
    let mut bytes = fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&victim, &bytes).unwrap();
    assert!(matches!(
        registry.load("maeri", Some(v11)),
        Err(ZooError::Registry(_))
    ));
    let report = registry.verify().unwrap();
    assert_eq!(report.checked, 3);
    assert_eq!(report.problems.len(), 1, "{:?}", report.problems);

    // Swap in a different family's valid checkpoint: the manifest hash
    // no longer matches, so the swap cannot be served.
    let noc_path = registry.entry_path(&registry.entry("noc", None).unwrap());
    fs::copy(&noc_path, &victim).unwrap();
    assert!(matches!(
        registry.load("maeri", Some(v11)),
        Err(ZooError::Registry(_))
    ));

    // A future-schema manifest is refused, not misread.
    let manifest_path = dir.join(gnnmls_zoo::MANIFEST_FILE);
    fs::write(&manifest_path, "{\"schema_version\": 99, \"entries\": []}").unwrap();
    assert!(matches!(registry.manifest(), Err(ZooError::Registry(_))));
}

fn cheap_cp(family: &str, version: ModelVersion) -> ZooModelCheckpoint {
    ZooModelCheckpoint {
        family: family.to_string(),
        version,
        corpus_hashes: vec![1, 2, 3],
        pretrain_epochs: 2,
        finetune_epochs: 8,
        model: GnnMls::new(ModelConfig::default()).to_checkpoint(),
    }
}

/// Seeded-damage fsck: one registry with all four damage classes at
/// once. `scrub` must detect each, repair what the rules allow (delete
/// the orphan tmp, quarantine + roll back the torn and hash-mismatched
/// entries), leave the future-version file intact, and end consistent.
#[test]
fn scrub_detects_and_repairs_all_damage_classes() {
    use gnn_mls::store::{ArtifactClass, RepairAction};

    let dir = scratch_dir("fsck");
    let registry = Registry::open_unscrubbed(&dir);
    let v1 = ModelVersion::new(1, 0, 0);
    let v11 = ModelVersion::new(1, 1, 0);
    registry.publish(&cheap_cp("maeri", v1)).unwrap();
    registry.publish(&cheap_cp("maeri", v11)).unwrap();
    registry.publish(&cheap_cp("noc", v1)).unwrap();

    // Class 1 — orphan-tmp: residue of a crashed write.
    fs::write(dir.join("junk.ckpt.tmp"), b"partial garbage").unwrap();
    // Class 2 — torn: truncate the latest maeri checkpoint in place.
    let torn = registry.entry_path(&registry.entry("maeri", Some(v11)).unwrap());
    let bytes = fs::read(&torn).unwrap();
    fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    // Class 3 — hash-mismatch: flip one payload byte of noc v1.
    let flipped = registry.entry_path(&registry.entry("noc", Some(v1)).unwrap());
    let mut bytes = fs::read(&flipped).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    fs::write(&flipped, &bytes).unwrap();
    // Class 4 — unknown-version: a well-formed envelope from the future.
    fs::write(
        dir.join("future.ckpt"),
        "GNNMLS-CKPT v1 model-zoo 9 0123456789abcdef 2 future-field\n{}",
    )
    .unwrap();

    let report = registry.scrub().unwrap();
    let class_action = |c: ArtifactClass| {
        report
            .findings
            .iter()
            .find(|f| f.class == c)
            .map(|f| f.action)
    };
    assert_eq!(
        class_action(ArtifactClass::OrphanTmp),
        Some(RepairAction::DeletedTmp)
    );
    assert_eq!(
        class_action(ArtifactClass::Torn),
        Some(RepairAction::RolledBack)
    );
    assert_eq!(
        class_action(ArtifactClass::HashMismatch),
        Some(RepairAction::RolledBack)
    );
    assert_eq!(
        class_action(ArtifactClass::UnknownVersion),
        Some(RepairAction::None)
    );
    assert!(report.consistent(), "{:?}", report.findings);

    // Repairs landed: tmp gone, damage quarantined, future file intact.
    assert!(!dir.join("junk.ckpt.tmp").exists());
    assert!(!torn.exists());
    assert!(gnn_mls::store::damaged_path(&torn).exists());
    assert!(!flipped.exists());
    assert!(gnn_mls::store::damaged_path(&flipped).exists());
    assert!(dir.join("future.ckpt").exists());

    // Rollback semantics: maeri fell back to v1.0.0, noc to nothing.
    assert_eq!(registry.latest("maeri").unwrap().unwrap().version, v1);
    assert!(registry.latest("noc").unwrap().is_none());
    assert!(registry.load("maeri", None).is_ok());
    assert!(registry.verify().unwrap().ok());

    // Idempotent: a second pass finds only the (intact) future file.
    let again = registry.scrub().unwrap();
    assert!(
        again
            .findings
            .iter()
            .all(|f| f.class == ArtifactClass::UnknownVersion),
        "{:?}",
        again.findings
    );
}

/// A publish that crashes between fsync(tmp) and the rename leaves the
/// complete new bytes orphaned. Scrub rolls *forward*: the rename is
/// finished and the checkpoint adopted into the manifest.
#[test]
fn scrub_rolls_forward_a_rename_crashed_publish() {
    let dir = scratch_dir("rollforward");
    let registry = Registry::open_unscrubbed(&dir);
    let v1 = ModelVersion::new(1, 0, 0);
    {
        let _guard = install(&FaultPlan::single(FaultSite::RenameCrash, 1));
        assert!(matches!(
            registry.publish(&cheap_cp("maeri", v1)),
            Err(ZooError::Checkpoint(_))
        ));
    }
    // The crash left a complete orphan tmp and no manifest entry.
    assert!(dir.join("maeri-v1.0.0.ckpt.tmp").exists());
    assert!(registry.latest("maeri").unwrap().is_none());

    let report = registry.scrub().unwrap();
    assert!(report.consistent(), "{:?}", report.findings);
    assert!(report.repaired >= 1);
    assert!(!dir.join("maeri-v1.0.0.ckpt.tmp").exists());
    assert!(dir.join("maeri-v1.0.0.ckpt").exists());
    assert_eq!(registry.latest("maeri").unwrap().unwrap().version, v1);
    let cp = registry.load("maeri", Some(v1)).unwrap();
    assert_eq!(cp.corpus_hashes, vec![1, 2, 3]);
}

/// A publish that crashed between the data write and the index write
/// (valid checkpoint on disk, manifest never updated) is adopted on
/// scrub — simulated by rolling the manifest text back after a
/// successful publish.
#[test]
fn scrub_adopts_an_unindexed_checkpoint() {
    let dir = scratch_dir("adopt");
    let registry = Registry::open_unscrubbed(&dir);
    let v1 = ModelVersion::new(1, 0, 0);
    let v11 = ModelVersion::new(1, 1, 0);
    registry.publish(&cheap_cp("maeri", v1)).unwrap();
    let manifest_before = fs::read_to_string(dir.join(gnnmls_zoo::MANIFEST_FILE)).unwrap();
    registry.publish(&cheap_cp("maeri", v11)).unwrap();
    fs::write(dir.join(gnnmls_zoo::MANIFEST_FILE), manifest_before).unwrap();
    assert_eq!(registry.latest("maeri").unwrap().unwrap().version, v1);

    let report = registry.scrub().unwrap();
    assert!(report.consistent(), "{:?}", report.findings);
    let entry = registry.latest("maeri").unwrap().unwrap();
    assert_eq!(entry.version, v11, "adopted entry must win latest()");
    assert!(entry.parameter_count > 0);
    assert!(registry.verify().unwrap().ok());
}

/// `Registry::open` runs the scrub automatically: opening a registry
/// whose manifest was destroyed and whose newest checkpoint was torn
/// degrades to the last-good version instead of failing reads.
#[test]
fn open_scrubs_and_degrades_to_last_good() {
    let dir = scratch_dir("open-scrub");
    let v1 = ModelVersion::new(1, 0, 0);
    let v11 = ModelVersion::new(1, 1, 0);
    {
        let seed = Registry::open_unscrubbed(&dir);
        seed.publish(&cheap_cp("maeri", v1)).unwrap();
        seed.publish(&cheap_cp("maeri", v11)).unwrap();
        // Tear the newest checkpoint and the manifest.
        let path = seed.entry_path(&seed.entry("maeri", Some(v11)).unwrap());
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let manifest = fs::read_to_string(dir.join(gnnmls_zoo::MANIFEST_FILE)).unwrap();
        fs::write(dir.join(gnnmls_zoo::MANIFEST_FILE), &manifest[..20]).unwrap();
    }
    let registry = Registry::open(&dir);
    let scrub = registry.last_scrub().expect("open must have scrubbed");
    assert!(scrub.consistent(), "{:?}", scrub.findings);
    assert!(scrub.repaired >= 2, "{:?}", scrub.findings);
    // The manifest was rebuilt from the surviving good checkpoint.
    assert_eq!(registry.latest("maeri").unwrap().unwrap().version, v1);
    assert!(registry.load("maeri", None).is_ok());
    assert!(registry.verify().unwrap().ok());
}

/// Forward compatibility: a checkpoint written by a future format
/// version is a typed refusal from `Registry::load` — and fsck leaves
/// both the file and its manifest entry in place for the newer build.
#[test]
fn future_version_checkpoint_is_a_typed_error_from_load() {
    use gnn_mls::checkpoint::{fnv1a64, CheckpointError};

    let dir = scratch_dir("future-load");
    let registry = Registry::open_unscrubbed(&dir);
    let v1 = ModelVersion::new(1, 0, 0);
    registry.publish(&cheap_cp("maeri", v1)).unwrap();

    // Replace the published file with a future-version envelope and
    // re-point the manifest hash at the new bytes, so the integrity
    // check passes and the version check is what fires.
    let path = registry.entry_path(&registry.entry("maeri", Some(v1)).unwrap());
    let payload = "{}";
    let future = format!(
        "GNNMLS-CKPT v1 model-zoo 9 {:016x} {} future-field\n{payload}",
        fnv1a64(payload.as_bytes()),
        payload.len()
    );
    fs::write(&path, &future).unwrap();
    let mut manifest = registry.manifest().unwrap();
    for e in &mut manifest.entries {
        e.file_hash = fnv1a64(future.as_bytes());
    }
    gnn_mls::checkpoint::write_json_file(&dir.join(gnnmls_zoo::MANIFEST_FILE), &manifest).unwrap();

    match registry.load("maeri", Some(v1)) {
        Err(ZooError::Checkpoint(CheckpointError::Version { found, supported })) => {
            assert_eq!(found, 9);
            assert!(supported >= 1);
        }
        other => panic!("expected a typed version error, got {other:?}"),
    }
    // fsck classifies, reports, and leaves it for the newer build.
    let report = registry.scrub().unwrap();
    assert!(report
        .findings
        .iter()
        .any(|f| f.class == gnn_mls::store::ArtifactClass::UnknownVersion));
    assert!(path.exists());
    assert!(registry.latest("maeri").unwrap().is_some());
}
