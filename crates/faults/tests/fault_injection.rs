//! Integration suite: every fault class the harness can inject either
//! recovers (and the recovery is recorded in the [`FlowReport`]'s
//! degradation summary) or surfaces as a typed [`FlowError`] — the flow
//! never panics, serial or parallel.
//!
//! The suite drives the real end-to-end flow on the MAERI 16PE design
//! at test scale; the rip-up-isolation fault additionally uses a
//! deliberately congested two-pin design because the benchmark designs
//! never overflow (so rip-up has no victims to fail).

use std::path::PathBuf;

use gnn_mls::flow::{run_flow, FlowConfig, FlowError, FlowPolicy};
use gnn_mls::report::FlowReport;
use gnn_mls::CheckpointError;
use gnnmls_faults::{install, FaultPlan, FaultSite};
use gnnmls_netlist::generators::{generate_maeri, GeneratedDesign, MaeriConfig};
use gnnmls_netlist::tech::TechConfig;

fn design() -> GeneratedDesign {
    let tech = TechConfig::heterogeneous_16_28(6, 6);
    generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap()
}

fn fast_cfg() -> FlowConfig {
    FlowConfig::fast_test(2500.0)
}

/// A fresh scratch directory under the target dir (no tempfile crate in
/// the offline workspace). Unique per tag; wiped before use.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fault-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn corrupted_stage_checkpoint_is_scrubbed_and_recomputed_on_resume() {
    // A clean reference run (no resume dir) to compare the degraded
    // resume against.
    let d = design();
    let reference = run_flow(&d, &fast_cfg(), FlowPolicy::NoMls).unwrap();

    let mut cfg = fast_cfg();
    let dir = scratch_dir("corrupt");
    cfg.resume = Some(dir.clone());
    // NoMls writes exactly two stages (routes, report); corrupt both so
    // the resumed run faces damage on its very first load.
    let guard = install(&FaultPlan::single(FaultSite::CheckpointCorrupt, 2));
    let first = run_flow(&d, &cfg, FlowPolicy::NoMls);
    assert!(first.is_ok(), "the corrupting run itself must succeed");
    let resumed = run_flow(&d, &cfg, FlowPolicy::NoMls);
    drop(guard);
    // The resume scrub quarantines the damaged checkpoints and the run
    // degrades to recomputation — same result as a clean run, never a
    // torn read, never an opaque failure.
    let resumed = resumed.expect("resume must degrade to recompute, not fail");
    assert_eq!(comparable_json(&resumed), comparable_json(&reference));
    let damaged: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".damaged"))
        .collect();
    assert!(
        !damaged.is_empty(),
        "scrub must quarantine the corrupt checkpoints"
    );
}

#[test]
fn truncated_stage_checkpoint_is_scrubbed_and_recomputed_on_resume() {
    let d = design();
    let reference = run_flow(&d, &fast_cfg(), FlowPolicy::NoMls).unwrap();

    let mut cfg = fast_cfg();
    let dir = scratch_dir("truncate");
    cfg.resume = Some(dir.clone());
    let guard = install(&FaultPlan::single(FaultSite::CheckpointTruncate, 2));
    assert!(run_flow(&d, &cfg, FlowPolicy::NoMls).is_ok());
    let resumed = run_flow(&d, &cfg, FlowPolicy::NoMls);
    drop(guard);
    let resumed = resumed.expect("resume must degrade to recompute, not fail");
    assert_eq!(comparable_json(&resumed), comparable_json(&reference));
    // A third run resumes from the recomputed (clean) checkpoints
    // without touching the quarantine files.
    let third = run_flow(&d, &cfg, FlowPolicy::NoMls).unwrap();
    assert_eq!(comparable_json(&third), comparable_json(&reference));
}

/// A write cut short by the disk (ENOSPC / power loss / crash before
/// rename) fails the writing run with a typed storage error, and the
/// next `--resume` lands on a complete state: scrub removes the
/// residue, the flow recomputes, and the report matches a clean run
/// bit-for-bit.
#[test]
fn disk_seam_crash_then_resume_is_bit_identical() {
    let d = design();
    let reference = run_flow(&d, &fast_cfg(), FlowPolicy::NoMls).unwrap();
    for site in [
        FaultSite::DiskFull,
        FaultSite::TornWrite,
        FaultSite::RenameCrash,
    ] {
        let mut cfg = fast_cfg();
        let dir = scratch_dir(&format!("disk-{site}"));
        cfg.resume = Some(dir.clone());
        let guard = install(&FaultPlan::single(site, 1));
        let crashed = run_flow(&d, &cfg, FlowPolicy::NoMls);
        drop(guard);
        match crashed {
            Err(FlowError::Checkpoint(CheckpointError::Storage(_))) => {}
            other => panic!("{site}: expected a typed storage error, got {other:?}"),
        }
        let resumed = run_flow(&d, &cfg, FlowPolicy::NoMls)
            .unwrap_or_else(|e| panic!("{site}: resume after crash failed: {e}"));
        assert_eq!(
            comparable_json(&resumed),
            comparable_json(&reference),
            "{site}: resumed report drifted from the clean run"
        );
        // The read-side seam on the same directory: one EIO is typed,
        // the retry resumes from the intact checkpoints.
        let guard = install(&FaultPlan::single(FaultSite::ReadEio, 1));
        let eio = run_flow(&d, &cfg, FlowPolicy::NoMls);
        drop(guard);
        assert!(
            matches!(eio, Err(FlowError::Checkpoint(CheckpointError::Io(_)))),
            "{site}: injected EIO must surface typed"
        );
        let retried = run_flow(&d, &cfg, FlowPolicy::NoMls).unwrap();
        assert_eq!(comparable_json(&retried), comparable_json(&reference));
    }
}

#[test]
fn injected_unroutable_nets_are_isolated_per_net() {
    use gnnmls_netlist::tech::TechNode;
    use gnnmls_netlist::{CellLibrary, NetlistBuilder, Tier};
    use gnnmls_phys::place::Point;
    use gnnmls_phys::{Floorplan, Placement};
    use gnnmls_route::{route_design, MlsPolicy, RouteConfig};

    // 48 two-pin nets pinched through the same pair of g-cells: far
    // more demand than capacity, so rip-up rounds always have victims
    // for the injected failures to hit.
    let lib = CellLibrary::for_node(&TechNode::n16());
    let mut b = NetlistBuilder::new("pinch");
    let mut locs = Vec::new();
    for i in 0..48 {
        let a = b
            .add_cell(format!("a{i}"), lib.expect("PI"), Tier::Logic)
            .unwrap();
        let z = b
            .add_cell(format!("z{i}"), lib.expect("PO"), Tier::Logic)
            .unwrap();
        let n = b.add_net(format!("n{i}")).unwrap();
        b.connect_output(n, a, 0).unwrap();
        b.connect_input(n, z, 0).unwrap();
        locs.push(Point::new(2.0, 20.0));
        locs.push(Point::new(38.0, 20.0));
    }
    let netlist = b.finish().unwrap();
    let fp = Floorplan {
        width_um: 40.0,
        height_um: 40.0,
    };
    let placement = Placement::from_locations(locs, fp);
    let tech = TechConfig::heterogeneous_16_28(6, 6);

    let guard = install(&FaultPlan::single(FaultSite::UnroutableNet, 3));
    let (db, _) = route_design(
        &netlist,
        &placement,
        &tech,
        MlsPolicy::Disabled,
        RouteConfig::builder()
            .target_gcells(64)
            .ripup_rounds(2)
            .build()
            .unwrap(),
    )
    .unwrap();
    drop(guard);
    assert_eq!(
        db.summary.isolated_failures, 3,
        "each injected reroute failure must restore the victim and be counted"
    );
    for net in netlist.net_ids() {
        assert_eq!(
            db.route(net).tree.sink_node.len(),
            netlist.sinks(net).len(),
            "isolated nets keep a complete route"
        );
    }
}

#[test]
fn route_budget_exhaustion_degrades_to_pattern_and_is_reported() {
    let d = design();
    let guard = install(&FaultPlan::single(FaultSite::RouteBudgetExhausted, 5));
    let report = run_flow(&d, &fast_cfg(), FlowPolicy::NoMls).unwrap();
    drop(guard);
    assert!(
        report.degradation.pattern_fallback_sinks >= 1,
        "injected budget exhaustion must be recorded in the report"
    );
    assert!(!report.degradation.is_clean());
}

/// GNN-MLS learns from oracle labels taken on the No-MLS baseline
/// route, so that DB is audited before anything reads it: one
/// corrupting shot lands in the baseline snapshot, and the flow must
/// refuse there instead of training on it.
#[test]
fn corrupted_baseline_route_fails_typed_before_training() {
    let d = design();
    let guard = install(&FaultPlan::single(FaultSite::RouteAuditCorrupt, 1));
    let result = run_flow(&d, &fast_cfg(), FlowPolicy::GnnMls);
    drop(guard);
    match result {
        Err(FlowError::AuditFailed { stage, .. }) => assert_eq!(stage, "baseline"),
        Err(e) => panic!("expected a baseline audit failure, got {e}"),
        Ok(r) => panic!("trained on a corrupted baseline ({} MLS nets)", r.mls_nets),
    }
}

#[test]
fn nan_gradient_retries_and_the_retry_is_reported() {
    let d = design();
    let guard = install(&FaultPlan::single(FaultSite::NanGradient, 1));
    let report = run_flow(&d, &fast_cfg(), FlowPolicy::GnnMls).unwrap();
    drop(guard);
    assert!(
        report.degradation.training_retries >= 1,
        "a single NaN epoch must be retried from the last good snapshot"
    );
    assert!(
        !report.degradation.model_fallback,
        "one poisoned epoch is recoverable without abandoning the model"
    );
}

#[test]
fn unrecoverable_divergence_falls_back_to_heuristic_policy() {
    let d = design();
    let guard = install(&FaultPlan::single(FaultSite::NanGradient, u32::MAX));
    let report = run_flow(&d, &fast_cfg(), FlowPolicy::GnnMls).unwrap();
    drop(guard);
    assert!(
        report.degradation.model_fallback,
        "divergence past the retry budget must degrade to the heuristic policy"
    );
    assert!(report.degradation.training_retries >= 1);
    // The flow still produces a full routed+timed report.
    assert!(report.endpoints > 0);
}

#[test]
fn ir_nonconvergence_is_flagged_not_fatal() {
    let d = design();
    let mut cfg = fast_cfg();
    cfg.analyze_pdn = true;
    let guard = install(&FaultPlan::single(FaultSite::IrNonConvergence, 1_000));
    let report = run_flow(&d, &cfg, FlowPolicy::NoMls).unwrap();
    drop(guard);
    assert!(
        report.degradation.ir_nonconverged,
        "a capped CG solve must be flagged in the report"
    );
    assert!(
        report.ir_drop_pct.is_some(),
        "the best-effort drop is still reported"
    );
}

#[test]
fn worker_panic_is_recovered_and_counted() {
    let d = design();
    for threads in [1usize, 0] {
        let mut cfg = fast_cfg();
        cfg.threads = threads;
        let guard = install(&FaultPlan::single(FaultSite::WorkerPanic, 1));
        let report = run_flow(&d, &cfg, FlowPolicy::GnnMls).unwrap();
        drop(guard);
        assert!(
            report.degradation.recovered_worker_panics >= 1,
            "threads={threads}: the panicked item must be retried and counted"
        );
    }
}

#[test]
fn seeded_fault_storms_never_panic() {
    let d = design();
    for seed in [1u64, 7, 42] {
        let guard = install(&FaultPlan::from_seed(seed));
        let result = run_flow(&d, &fast_cfg(), FlowPolicy::GnnMls);
        drop(guard);
        // Recover-or-typed-error: reaching this line at all proves no
        // panic escaped; an Err must be the typed flow error.
        if let Err(e) = result {
            let _typed: &FlowError = &e;
            eprintln!("seed {seed}: typed flow error (acceptable): {e}");
        }
    }
}

#[test]
fn kill_after_any_stage_resumes_bit_identical() {
    let d = design();
    // An empty fault scope of its own: no global plan reaches these
    // runs, and their recovery tally starts from zero.
    let guard = install(&FaultPlan::none());

    let cfg_ref = fast_cfg();
    let reference = run_flow(&d, &cfg_ref, FlowPolicy::GnnMls).unwrap();
    let ref_json = comparable_json(&reference);

    let dir = scratch_dir("resume");
    let mut cfg = fast_cfg();
    cfg.resume = Some(dir.clone());
    let full = run_flow(&d, &cfg, FlowPolicy::GnnMls).unwrap();
    assert_eq!(comparable_json(&full), ref_json, "checkpointed run drifted");

    // Simulate a kill after each stage by keeping only that prefix of
    // stage files, then resuming. Every resume must reproduce the
    // uninterrupted report bit-for-bit (modulo wall time).
    let stages = ["decisions-gnnmls", "routes-gnnmls", "report-gnnmls"];
    for kill_after in 0..stages.len() {
        for stale in &stages[kill_after..] {
            let _ = std::fs::remove_file(dir.join(format!("{stale}.ckpt")));
        }
        let resumed = run_flow(&d, &cfg, FlowPolicy::GnnMls).unwrap();
        assert_eq!(
            comparable_json(&resumed),
            ref_json,
            "resume after killing post-stage-{kill_after} checkpoints must be bit-identical"
        );
    }
    drop(guard);
}

fn comparable_json(r: &FlowReport) -> String {
    serde_json::to_string(&r.comparable()).unwrap()
}

/// The model-swap seam: a zoo checkpoint damaged between the read and
/// the envelope check (one shot bit-flips, two shots truncate) must
/// surface as a typed [`CheckpointError`], and the very next load of
/// the untouched file must recover — the artifact on disk is never
/// harmed by the injected read-side damage.
#[test]
fn model_swap_corruption_surfaces_typed_error_then_recovers() {
    use gnn_mls::checkpoint::{ModelVersion, ZooModelCheckpoint};
    use gnn_mls::{GnnMls, ModelConfig};

    let dir = scratch_dir("model-swap");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("maeri-v1.0.0.ckpt");
    ZooModelCheckpoint {
        family: "maeri".to_string(),
        version: ModelVersion::new(1, 0, 0),
        corpus_hashes: vec![42],
        pretrain_epochs: 1,
        finetune_epochs: 1,
        model: GnnMls::new(ModelConfig::default()).to_checkpoint(),
    }
    .save(&path)
    .unwrap();

    // One shot: the first load sees a bit-flip and must refuse with the
    // envelope's checksum error; the second load recovers.
    let guard = install(&FaultPlan::single(FaultSite::ModelSwapCorrupt, 1));
    let flipped = ZooModelCheckpoint::load(&path);
    let recovered = ZooModelCheckpoint::load(&path);
    drop(guard);
    match flipped {
        Err(CheckpointError::Corrupt(_)) => {}
        other => panic!("bit-flip must surface as Corrupt, got {other:?}"),
    }
    let recovered = recovered.unwrap();
    assert_eq!(recovered.family, "maeri");
    assert_eq!(recovered.version, ModelVersion::new(1, 0, 0));

    // Two shots: the first load sees a truncation instead; still a
    // typed refusal, still recoverable once the shots are spent.
    let guard = install(&FaultPlan::single(FaultSite::ModelSwapCorrupt, 2));
    let truncated = ZooModelCheckpoint::load(&path);
    let recovered = ZooModelCheckpoint::load(&path);
    drop(guard);
    match truncated {
        Err(CheckpointError::Corrupt(_)) => {}
        other => panic!("truncation must surface as Corrupt, got {other:?}"),
    }
    assert_eq!(recovered.unwrap().family, "maeri");
}
