//! `gnnmls bench zoo` — the model-zoo benchmark ledger.
//!
//! Two measurements, one JSON artifact (`BENCH_zoo.json`):
//!
//! 1. **Pretrain value**: fine-tune epochs needed to reach a hold-out
//!    accuracy target starting from a cross-corpus DGI snapshot versus
//!    from scratch, on the same labeled split with the same config —
//!    the paper's transfer claim as a tracked number.
//! 2. **Warm-swap latency**: wall time of a `LoadModel` round-trip
//!    against a live daemon (checkpoint read + integrity check +
//!    restore + atomic slot swap), sampled over `swap_iters`
//!    iterations; served inline, so it holds under queue pressure.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use gnn_mls::checkpoint::ModelVersion;
use gnn_mls::model::GnnMls;
use gnnmls_zoo::{build_corpus, epochs_to_converge, train_zoo, CorpusConfig, Registry};

use gnnmls_serve::protocol::ResponseKind;
use gnnmls_serve::{Client, ServeConfig, Server};

/// Knobs for [`run_zoo_bench`]; the defaults fit a CI budget.
#[derive(Clone, Debug)]
pub struct ZooBenchConfig {
    /// Workspace root; the ledger lands under `target/bench/` and the
    /// scratch registry under `target/bench/zoo-registry/`.
    pub workspace_root: PathBuf,
    /// `LoadModel` round-trips to sample.
    pub swap_iters: usize,
    /// Hold-out accuracy the convergence probe races toward.
    pub target_accuracy: f64,
    /// Fine-tune epoch budget per convergence probe.
    pub max_epochs: usize,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for ZooBenchConfig {
    fn default() -> Self {
        Self {
            workspace_root: PathBuf::from("."),
            swap_iters: 10,
            target_accuracy: 0.9,
            max_epochs: 40,
            threads: 0,
        }
    }
}

/// One convergence probe's outcome (see `gnnmls_zoo::epochs_to_converge`).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ConvergenceSummary {
    /// Fine-tune epochs consumed.
    pub epochs: u64,
    /// Hold-out accuracy after the last chunk.
    pub accuracy: f64,
    /// Whether the target was reached within the budget.
    pub converged: bool,
}

/// The `BENCH_zoo.json` ledger.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ZooBenchReport {
    /// Ledger schema version.
    pub schema_version: u32,
    /// Designs in the training corpus.
    pub corpus_designs: u64,
    /// Unlabeled path samples pretrained on.
    pub corpus_samples: u64,
    /// Families a model was trained for.
    pub families: Vec<String>,
    /// Final cross-corpus DGI loss.
    pub pretrain_loss: f64,
    /// Accuracy target both convergence probes raced toward.
    pub target_accuracy: f64,
    /// From-scratch fine-tuning probe.
    pub scratch: ConvergenceSummary,
    /// DGI-pretrained fine-tuning probe (same split, same config).
    pub pretrained: ConvergenceSummary,
    /// `LoadModel` round-trips sampled.
    pub swap_iters: u64,
    /// Median warm-swap latency, microseconds.
    pub swap_p50_us: u64,
    /// Worst warm-swap latency, microseconds.
    pub swap_max_us: u64,
}

/// Trains the tiny zoo, probes pretrain-vs-scratch convergence, samples
/// warm-swap latency against a freshly booted daemon, and writes
/// `BENCH_zoo.json` under `target/bench/`.
///
/// # Errors
///
/// Returns a human-readable message when the corpus, training, registry
/// publish, daemon boot, or any swap round-trip fails.
pub fn run_zoo_bench(cfg: &ZooBenchConfig) -> Result<ZooBenchReport, String> {
    let mut corpus_cfg = CorpusConfig::tiny();
    corpus_cfg.threads = cfg.threads;
    let corpus = build_corpus(&corpus_cfg).map_err(|e| format!("corpus: {e}"))?;

    // --- pretrain-vs-scratch convergence, per-epoch resolution -------
    let model_cfg = gnn_mls::ModelConfig {
        pretrain_epochs: 2,
        // Chunk size 1 gives the convergence probe per-epoch resolution.
        finetune_epochs: 1,
        ..Default::default()
    };
    let mut base = GnnMls::new(model_cfg.clone());
    base.set_threads(cfg.threads);
    let pretrain_loss = base
        .pretrain(&corpus.unlabeled())
        .map_err(|e| format!("pretrain: {e}"))?;
    let snapshot = base.to_checkpoint();

    let family = corpus
        .families()
        .into_iter()
        .next()
        .ok_or("corpus has no families")?;
    let labeled = corpus.labeled(&family);
    if labeled.len() < 4 {
        return Err(format!(
            "family {family} has too few labels: {}",
            labeled.len()
        ));
    }
    // Deterministic 3:1 train/eval split by position.
    let (train, eval): (Vec<_>, Vec<_>) = labeled.iter().enumerate().partition(|(i, _)| i % 4 != 3);
    let train: Vec<_> = train.into_iter().map(|(_, s)| s.clone()).collect();
    let eval: Vec<_> = eval.into_iter().map(|(_, s)| s.clone()).collect();

    let probe = |pretrained: Option<&gnn_mls::checkpoint::ModelCheckpoint>| {
        epochs_to_converge(
            &model_cfg,
            pretrained,
            &train,
            &eval,
            cfg.target_accuracy,
            cfg.max_epochs,
            cfg.threads,
        )
        .map(|r| ConvergenceSummary {
            epochs: r.epochs as u64,
            accuracy: r.accuracy,
            converged: r.converged,
        })
        .map_err(|e| format!("convergence probe: {e}"))
    };
    let scratch = probe(None)?;
    let pretrained = probe(Some(&snapshot))?;

    // --- warm-swap latency against a live daemon ---------------------
    let models = train_zoo(&corpus, &model_cfg, cfg.threads).map_err(|e| format!("train: {e}"))?;
    let registry_dir = cfg.workspace_root.join("target/bench/zoo-registry");
    let registry = Registry::open(&registry_dir);
    let fam = models.first().ok_or("train_zoo returned no models")?;
    let entry = registry
        .publish(&fam.to_zoo_checkpoint(ModelVersion::new(1, 0, 0)))
        .map_err(|e| format!("publish: {e}"))?;
    let ckpt_path = registry.entry_path(&entry);

    let serve_cfg = ServeConfig::builder()
        .addr("127.0.0.1:0".to_string())
        .workers(1)
        .build()
        .map_err(|e| format!("serve config: {e}"))?;
    let server = Server::start(serve_cfg).map_err(|e| format!("daemon boot: {e}"))?;
    let swap_us = {
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let mut samples = Vec::with_capacity(cfg.swap_iters.max(1));
        for i in 0..cfg.swap_iters.max(1) {
            let t0 = Instant::now();
            let resp = client
                .load_model(ckpt_path.to_string_lossy())
                .map_err(|e| format!("swap {i}: {e}"))?;
            if resp.kind != ResponseKind::Ok {
                return Err(format!("swap {i} refused: {:?}", resp.error));
            }
            samples.push(t0.elapsed().as_micros() as u64);
        }
        samples.sort_unstable();
        samples
    };
    server.shutdown();

    let report = ZooBenchReport {
        schema_version: 1,
        corpus_designs: corpus.designs.len() as u64,
        corpus_samples: corpus.len() as u64,
        families: corpus.families(),
        pretrain_loss: f64::from(pretrain_loss),
        target_accuracy: cfg.target_accuracy,
        scratch,
        pretrained,
        swap_iters: swap_us.len() as u64,
        swap_p50_us: swap_us[swap_us.len() / 2],
        swap_max_us: *swap_us.last().unwrap_or(&0),
    };
    write_zoo_report(&cfg.workspace_root, &report)?;
    Ok(report)
}

/// Writes the ledger to `target/bench/BENCH_zoo.json`.
fn write_zoo_report(workspace_root: &Path, report: &ZooBenchReport) -> Result<(), String> {
    gnnmls_bench::render::write_bench_json(workspace_root, "BENCH_zoo.json", report)
        .map(|_| ())
        .ok_or_else(|| "could not write BENCH_zoo.json".to_string())
}
