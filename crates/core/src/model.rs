//! The GNN-MLS model: graph-Transformer encoder + 2-layer MLP head,
//! pretrained with Deep Graph Infomax, fine-tuned on oracle labels
//! (Algorithm 1 of the paper).
//!
//! Encoder and head keep *separate* parameter stores: DGI pretraining
//! updates only the encoder, fine-tuning updates only the MLP head (the
//! paper passes "DGI-pretrained node embeddings" through the MLP). A
//! frozen encoder is therefore run once per path per
//! [`GnnMls::finetune`] call, and every fine-tuning step trains the head
//! on those cached embeddings. Both choices are ablation knobs
//! ([`ModelConfig::use_dgi`], [`ModelConfig::finetune_encoder`],
//! [`ModelConfig::encoder`]).

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use gnnmls_netlist::NetId;
use gnnmls_nn::layers::{GcnEncoder, TransformerEncoder};
use gnnmls_nn::loss::{corrupt_features, dgi_loss};
use gnnmls_nn::{Adam, Classification, Mlp, Params, Tape, Tensor, Var};

use crate::features::{FeatureScaler, FEATURE_DIM};
use crate::paths::PathSample;

/// How many times a diverged training stage is retried (from the last
/// good epoch, with the learning rate halved each time) before the model
/// is declared unusable.
const MAX_DIVERGENCE_RETRIES: u32 = 3;

/// The probability above which the model says "MLS helps this node":
/// the threshold of the MLS decision rule ([`select_mls_nets`]) and of
/// the metrics [`GnnMls::evaluate`] reports.
pub(crate) const MLS_THRESHOLD: f32 = 0.5;

/// The one MLS decision rule. A net is selected when its highest
/// probability over the eligible nodes of violating paths exceeds
/// [`MLS_THRESHOLD`]; `probs[i]` holds the per-node probabilities of
/// `samples[i]`, or `None` where none were computed. Non-violating paths
/// carry no decision: MLS exists to fix timing, and leaving passing
/// paths alone is what keeps GNN-MLS from the indiscriminate regressions
/// the SOTA shows (Table I). [`GnnMls::decide`],
/// [`crate::DesignSession::infer_with`] and the flow's decisions stage
/// all select through here. Returns the selected nets, sorted.
pub(crate) fn select_mls_nets(samples: &[PathSample], probs: &[Option<Vec<f32>>]) -> Vec<NetId> {
    let mut selected: Vec<NetId> = samples
        .iter()
        .zip(probs)
        .filter(|(s, _)| s.path.slack_ps < 0.0)
        .filter_map(|(s, p)| p.as_ref().map(|p| (s, p)))
        .flat_map(|(s, p)| s.nets.iter().zip(&s.eligible).zip(p))
        .filter(|&((_, &eligible), &p)| eligible && p > MLS_THRESHOLD)
        .map(|((&net, _), _)| net)
        .collect();
    selected.sort_unstable();
    selected.dedup();
    selected
}

/// Typed model failures; the flow falls back to the heuristic policy on
/// [`ModelError::Diverged`] instead of shipping NaN decisions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// Inference was requested before the feature scaler was fit (train
    /// or restore a checkpoint first).
    NotTrained,
    /// A supervised stage was handed samples without oracle labels.
    MissingLabels,
    /// Training produced non-finite losses or parameters and could not
    /// recover within `MAX_DIVERGENCE_RETRIES` LR-backoff retries.
    Diverged {
        /// Which stage diverged (`"pretrain"` or `"finetune"`).
        stage: &'static str,
        /// Epoch at which the last retry gave up.
        epoch: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NotTrained => write!(f, "model is not trained (no feature scaler)"),
            ModelError::MissingLabels => write!(f, "sample lacks oracle labels"),
            ModelError::Diverged { stage, epoch } => {
                write!(
                    f,
                    "{stage} diverged at epoch {epoch} after {MAX_DIVERGENCE_RETRIES} \
                     LR-backoff retries"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Which encoder architecture to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncoderKind {
    /// The paper's graph Transformer (3 layers × 3 heads by default).
    Transformer,
    /// Plain mean-aggregation GNN over the path chain (ablation baseline).
    Gcn,
}

/// Model hyperparameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Embedding width (divisible by `heads`).
    pub d_model: usize,
    /// Attention heads (the paper uses 3).
    pub heads: usize,
    /// Encoder layers (the paper uses 3).
    pub layers: usize,
    /// MLP head hidden width.
    pub head_hidden: usize,
    /// DGI pretraining epochs over the sample set.
    pub pretrain_epochs: usize,
    /// Fine-tuning epochs over the labeled set.
    pub finetune_epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Init/corruption seed.
    pub seed: u64,
    /// Keep sinusoidal positional encodings (ablation knob).
    pub use_positional: bool,
    /// Run DGI pretraining at all (ablation knob).
    pub use_dgi: bool,
    /// Also update the encoder during fine-tuning (ablation knob; the
    /// paper freezes it). Frozen, the encoder runs once per path per
    /// [`GnnMls::finetune`] call; trained, it runs on every step.
    pub finetune_encoder: bool,
    /// Encoder architecture.
    pub encoder: EncoderKind,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            d_model: 24,
            heads: 3,
            layers: 3,
            head_hidden: 16,
            pretrain_epochs: 8,
            finetune_epochs: 30,
            lr: 3e-3,
            seed: 0,
            use_positional: true,
            use_dgi: true,
            finetune_encoder: false,
            encoder: EncoderKind::Transformer,
        }
    }
}

enum Encoder {
    Transformer(TransformerEncoder),
    Gcn(GcnEncoder),
}

/// The trained (or trainable) GNN-MLS model.
pub struct GnnMls {
    cfg: ModelConfig,
    enc_params: Params,
    head_params: Params,
    encoder: Encoder,
    head: Mlp,
    scaler: Option<FeatureScaler>,
    rng: StdRng,
    /// Worker threads for the per-path forward fan-out (`0` = all
    /// cores). Runtime state, not a hyperparameter: never checkpointed,
    /// never affects results — a path's forward pass is pure, so
    /// [`GnnMls::decide`], [`GnnMls::evaluate`] and the frozen-encoder
    /// embedding pass of [`GnnMls::finetune`] are bit-identical for any
    /// value. The SGD steps stay serial: their updates are
    /// order-dependent.
    threads: usize,
    /// Divergence recoveries performed across all training stages
    /// (reported in the flow's degradation summary).
    divergence_retries: u32,
}

impl GnnMls {
    /// A freshly initialized model.
    pub fn new(cfg: ModelConfig) -> Self {
        let mut enc_params = Params::new(cfg.seed);
        let encoder = match cfg.encoder {
            EncoderKind::Transformer => {
                let mut t = TransformerEncoder::new(
                    &mut enc_params,
                    FEATURE_DIM,
                    cfg.d_model,
                    cfg.heads,
                    cfg.layers,
                );
                t.use_positional = cfg.use_positional;
                Encoder::Transformer(t)
            }
            EncoderKind::Gcn => Encoder::Gcn(GcnEncoder::new(
                &mut enc_params,
                FEATURE_DIM,
                cfg.d_model,
                cfg.layers,
            )),
        };
        let mut head_params = Params::new(cfg.seed ^ 0x5EED);
        let head = Mlp::new(&mut head_params, cfg.d_model, cfg.head_hidden, 1);
        Self {
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(17)),
            cfg,
            enc_params,
            head_params,
            encoder,
            head,
            scaler: None,
            threads: 0,
            divergence_retries: 0,
        }
    }

    /// The configuration used.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Sets the forward fan-out thread count (`0` = all cores, `1` =
    /// serial).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Fits the feature scaler (idempotent; called by training). Without
    /// a single feature row there is nothing to fit, and the model stays
    /// untrained.
    pub fn fit_scaler(&mut self, samples: &[PathSample]) {
        if self.scaler.is_some() {
            return;
        }
        let rows: Vec<[f32; FEATURE_DIM]> = samples
            .iter()
            .flat_map(|s| s.features.iter().copied())
            .collect();
        if !rows.is_empty() {
            self.scaler = Some(FeatureScaler::fit(&rows));
        }
    }

    fn features_of(&self, sample: &PathSample) -> Result<Tensor, ModelError> {
        Ok(self
            .scaler
            .as_ref()
            .ok_or(ModelError::NotTrained)?
            .apply_matrix(&sample.features))
    }

    /// Divergence recoveries performed so far (degradation reporting).
    pub fn divergence_retries(&self) -> u32 {
        self.divergence_retries
    }

    fn params_finite(params: &Params) -> bool {
        params
            .tensors()
            .iter()
            .all(|t| t.as_slice().iter().all(|v| v.is_finite()))
    }

    /// Replaces one parameter scalar with NaN — the `NanGradient` fault
    /// seam's way of simulating an exploding update.
    fn poison_params(params: &mut Params) {
        let mut snap = params.tensors().to_vec();
        if let Some(t) = snap.first_mut() {
            t.set(0, 0, f32::NAN);
        }
        // Restoring same-shaped tensors cannot fail.
        let _ = params.restore(snap);
    }

    fn encode(&self, tape: &mut Tape, pv: &gnnmls_nn::optim::ParamVars, x: Var, n: usize) -> Var {
        match &self.encoder {
            Encoder::Transformer(t) => t.forward(tape, pv, x),
            Encoder::Gcn(g) => {
                // Path chain adjacency, row-normalized.
                let mut adj = Tensor::zeros(n, n);
                for i in 0..n.saturating_sub(1) {
                    adj.set(i, i + 1, 0.5);
                    adj.set(i + 1, i, 0.5);
                }
                g.forward(tape, pv, x, &adj)
            }
        }
    }

    /// Encoder embeddings (`n × d_model`) of one path. Both
    /// [`GnnMls::predict_path`] and the frozen-encoder cache of
    /// [`GnnMls::finetune`] go through here, so the head always sees the
    /// same bits for a path.
    fn embed(&self, sample: &PathSample) -> Result<Tensor, ModelError> {
        let x = self.features_of(sample)?;
        let mut tape = Tape::new();
        let pv = self.enc_params.bind(&mut tape);
        let xv = tape.constant(x);
        let h = self.encode(&mut tape, &pv, xv, sample.len());
        Ok(tape.value(h).clone())
    }

    /// Maps `f` over `samples` on the `gnnmls-par` pool, in input order,
    /// so the result is bit-identical for any thread count. A worker
    /// panic is retried serially; if even that fails, the plain serial
    /// loop runs (a panic there is a real bug).
    fn map_samples<R: Send>(
        &self,
        samples: &[PathSample],
        f: impl Fn(&PathSample) -> R + Sync,
    ) -> Vec<R> {
        match gnnmls_par::recovering_par_map(self.threads, samples, &f) {
            Ok(v) => v,
            Err(_) => samples.iter().map(f).collect(),
        }
    }

    /// DGI self-supervised pretraining over unlabeled path samples.
    /// Returns the mean loss of the final epoch over the paths it trained
    /// on (those with at least two nodes); 0 when there are none or when
    /// [`ModelConfig::use_dgi`] is off.
    ///
    /// A non-finite epoch (NaN loss or parameters — including the
    /// `gnnmls-faults` `NanGradient` seam) is rolled back to the last
    /// good epoch and retried with the learning rate halved, up to
    /// `MAX_DIVERGENCE_RETRIES` times.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Diverged`] if the retries are exhausted.
    pub fn pretrain(&mut self, samples: &[PathSample]) -> Result<f32, ModelError> {
        self.fit_scaler(samples);
        if !self.cfg.use_dgi || samples.is_empty() {
            return Ok(0.0);
        }
        let mut lr = self.cfg.lr;
        let mut adam = Adam::new(lr);
        let mut retries = 0u32;
        let mut last_epoch_loss = 0.0;
        let mut epoch = 0;
        while epoch < self.cfg.pretrain_epochs {
            let snapshot = self.enc_params.tensors().to_vec();
            let mut sum = 0.0f32;
            let mut trained = 0usize;
            for s in samples {
                if s.len() < 2 {
                    continue;
                }
                trained += 1;
                let x = self.features_of(s)?;
                let xc = corrupt_features(&x, &mut self.rng);
                let mut tape = Tape::new();
                let pv = self.enc_params.bind(&mut tape);
                let xv = tape.constant(x);
                let cv = tape.constant(xc);
                let h = self.encode(&mut tape, &pv, xv, s.len());
                let hc = self.encode(&mut tape, &pv, cv, s.len());
                let loss = dgi_loss(&mut tape, h, hc);
                sum += tape.value(loss).get(0, 0);
                let mut grads = tape.backward(loss);
                let g = pv.collect_grads(&mut grads, &self.enc_params);
                adam.step(&mut self.enc_params, &g);
            }
            if gnnmls_faults::fire(gnnmls_faults::FaultSite::NanGradient) {
                Self::poison_params(&mut self.enc_params);
                sum = f32::NAN;
            }
            if !sum.is_finite() || !Self::params_finite(&self.enc_params) {
                if retries >= MAX_DIVERGENCE_RETRIES {
                    return Err(ModelError::Diverged {
                        stage: "pretrain",
                        epoch,
                    });
                }
                retries += 1;
                self.divergence_retries += 1;
                lr *= 0.5;
                adam = Adam::new(lr);
                let _ = self.enc_params.restore(snapshot);
                gnnmls_obs::warn(
                    "gnn-mls",
                    &format!(
                        "pretrain epoch {epoch} diverged; retrying from last good epoch \
                         at lr {lr:e}"
                    ),
                );
                continue;
            }
            last_epoch_loss = sum / trained.max(1) as f32;
            epoch += 1;
        }
        Ok(last_epoch_loss)
    }

    /// Supervised fine-tuning on labeled samples; returns final-epoch
    /// training metrics (empty when no sample has a node).
    ///
    /// Divergent epochs roll back and retry at a halved learning rate,
    /// exactly as in [`GnnMls::pretrain`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MissingLabels`] if any non-empty sample
    /// lacks labels, and [`ModelError::Diverged`] if the divergence
    /// retries are exhausted.
    pub fn finetune(&mut self, samples: &[PathSample]) -> Result<Classification, ModelError> {
        if samples.iter().any(|s| !s.is_empty() && s.labels.is_none()) {
            return Err(ModelError::MissingLabels);
        }
        self.fit_scaler(samples);
        if self.scaler.is_none() {
            return Ok(Classification::default());
        }
        let mut head_lr = self.cfg.lr;
        let mut enc_lr = self.cfg.lr * 0.3;
        let mut head_adam = Adam::new(head_lr);
        let mut enc_adam = Adam::new(enc_lr);
        let mut retries = 0u32;
        let mut metrics = Classification::default();
        // Positive labels are rare (most nets don't benefit from MLS);
        // oversample the paths that carry positives so the head does not
        // collapse to the majority class.
        let (mut pos_nodes, mut neg_nodes) = (0usize, 0usize);
        for s in samples {
            if let Some(l) = &s.labels {
                pos_nodes += l.iter().filter(|&&b| b).count();
                neg_nodes += l.iter().filter(|&&b| !b).count();
            }
        }
        let repeat = neg_nodes
            .checked_div(pos_nodes)
            .map_or(1, |r| (r / 3).clamp(1, 6));
        let order: Vec<usize> = samples
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                let has_pos = s.labels.as_ref().is_some_and(|l| l.iter().any(|&b| b));
                std::iter::repeat_n(i, if has_pos { repeat } else { 1 })
            })
            .collect();
        // A frozen encoder gives a path the same embedding on every step,
        // so encode each path once; the steps then only run the head.
        let frozen: Option<Vec<Tensor>> = if self.cfg.finetune_encoder {
            None
        } else {
            let embeddings = self.map_samples(samples, |s| self.embed(s));
            Some(embeddings.into_iter().collect::<Result<_, _>>()?)
        };
        let mut epoch = 0;
        while epoch < self.cfg.finetune_epochs {
            let head_snap = self.head_params.tensors().to_vec();
            let enc_snap = self.enc_params.tensors().to_vec();
            metrics = Classification::default();
            let mut loss_sum = 0.0f32;
            for &i in &order {
                let s = &samples[i];
                if s.is_empty() {
                    continue;
                }
                let Some(labels) = s.labels.as_ref() else {
                    return Err(ModelError::MissingLabels);
                };
                let targets: Vec<f32> = labels.iter().map(|&b| f32::from(b)).collect();
                let mut tape = Tape::new();
                let (h, pv_enc) = match &frozen {
                    Some(embeddings) => (tape.constant(embeddings[i].clone()), None),
                    None => {
                        let pv_enc = self.enc_params.bind(&mut tape);
                        let xv = tape.constant(self.features_of(s)?);
                        (self.encode(&mut tape, &pv_enc, xv, s.len()), Some(pv_enc))
                    }
                };
                let pv_head = self.head_params.bind(&mut tape);
                let z = self.head.forward(&mut tape, &pv_head, h);
                let loss = tape.bce_with_logits(z, &targets);
                loss_sum += tape.value(loss).get(0, 0);
                if epoch + 1 == self.cfg.finetune_epochs {
                    metrics = metrics.merge(&Classification::from_logits(tape.value(z), labels));
                }
                let mut grads = tape.backward(loss);
                let gh = pv_head.collect_grads(&mut grads, &self.head_params);
                head_adam.step(&mut self.head_params, &gh);
                if let Some(pv_enc) = pv_enc {
                    let ge = pv_enc.collect_grads(&mut grads, &self.enc_params);
                    enc_adam.step(&mut self.enc_params, &ge);
                }
            }
            if gnnmls_faults::fire(gnnmls_faults::FaultSite::NanGradient) {
                Self::poison_params(&mut self.head_params);
                loss_sum = f32::NAN;
            }
            if !loss_sum.is_finite()
                || !Self::params_finite(&self.head_params)
                || !Self::params_finite(&self.enc_params)
            {
                if retries >= MAX_DIVERGENCE_RETRIES {
                    return Err(ModelError::Diverged {
                        stage: "finetune",
                        epoch,
                    });
                }
                retries += 1;
                self.divergence_retries += 1;
                head_lr *= 0.5;
                enc_lr *= 0.5;
                head_adam = Adam::new(head_lr);
                enc_adam = Adam::new(enc_lr);
                let _ = self.head_params.restore(head_snap);
                let _ = self.enc_params.restore(enc_snap);
                gnnmls_obs::warn(
                    "gnn-mls",
                    &format!(
                        "finetune epoch {epoch} diverged; retrying from last good epoch \
                         at lr {head_lr:e}"
                    ),
                );
                continue;
            }
            epoch += 1;
        }
        Ok(metrics)
    }

    /// Per-node MLS probabilities for one path.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotTrained`] if the scaler has not been fit
    /// (train or restore a checkpoint first).
    pub fn predict_path(&self, sample: &PathSample) -> Result<Vec<f32>, ModelError> {
        let h = self.embed(sample)?;
        let mut tape = Tape::new();
        let pv_head = self.head_params.bind(&mut tape);
        let hv = tape.constant(h);
        let z = self.head.forward(&mut tape, &pv_head, hv);
        Ok(tape
            .value(z)
            .as_slice()
            .iter()
            .map(|&v| 1.0 / (1.0 + (-v).exp()))
            .collect())
    }

    /// Per-node MLS probabilities for every sample, fanned once across
    /// the `gnnmls-par` pool and returned in input order, so the result
    /// is bit-identical to separate [`GnnMls::predict_path`] calls for
    /// any thread count. A warm session's inference runs through here.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotTrained`] if the scaler has not been fit
    /// (train or restore a checkpoint first).
    pub fn predict_paths(&self, samples: &[PathSample]) -> Result<Vec<Vec<f32>>, ModelError> {
        if self.scaler.is_none() {
            return Err(ModelError::NotTrained);
        }
        self.map_samples(samples, |s| self.predict_path(s))
            .into_iter()
            .collect()
    }

    /// Evaluates classification metrics against oracle labels.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MissingLabels`] if any sample lacks labels
    /// and [`ModelError::NotTrained`] if the model has never been fit.
    pub fn evaluate(&self, samples: &[PathSample]) -> Result<Classification, ModelError> {
        if samples.iter().any(|s| s.labels.is_none()) {
            return Err(ModelError::MissingLabels);
        }
        if self.scaler.is_none() {
            return Err(ModelError::NotTrained);
        }
        // Per-sample prediction is pure; fan it out, fold in input order.
        let per_sample = self.map_samples(samples, |s| {
            let labels = s.labels.as_ref().ok_or(ModelError::MissingLabels)?;
            let probs = self.predict_path(s)?;
            let margins = probs.iter().map(|&p| p - MLS_THRESHOLD).collect();
            let logits = Tensor::from_flat(probs.len(), 1, margins);
            Ok(Classification::from_logits(&logits, labels))
        });
        let mut m = Classification::default();
        for c in per_sample {
            m = m.merge(&c?);
        }
        Ok(m)
    }

    /// Per-net MLS decisions: a net is selected when its highest
    /// probability over the eligible nodes of violating paths exceeds
    /// 0.5. Only the violating paths are predicted.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotTrained`] if the model has never been
    /// fit, even when no path violates.
    pub fn decide(&self, samples: &[PathSample]) -> Result<Vec<NetId>, ModelError> {
        Ok(select_mls_nets(samples, &self.predict_violating(samples)?))
    }

    /// The per-node probabilities of the violating paths of `samples`,
    /// in input order, and `None` for the rest: what [`GnnMls::decide`]
    /// and the flow's decisions stage apply [`select_mls_nets`] to.
    pub(crate) fn predict_violating(
        &self,
        samples: &[PathSample],
    ) -> Result<Vec<Option<Vec<f32>>>, ModelError> {
        if self.scaler.is_none() {
            return Err(ModelError::NotTrained);
        }
        self.map_samples(samples, |s| {
            if s.path.slack_ps < 0.0 {
                self.predict_path(s).map(Some)
            } else {
                Ok(None)
            }
        })
        .into_iter()
        .collect()
    }

    /// Total trainable scalars (encoder + head).
    pub fn parameter_count(&self) -> usize {
        self.enc_params.scalar_count() + self.head_params.scalar_count()
    }

    // ---- checkpointing plumbing (see [`crate::checkpoint`]) ----

    /// Encoder parameter tensors in registration order.
    pub(crate) fn encoder_tensors(&self) -> &[Tensor] {
        self.enc_params.tensors()
    }

    /// Head parameter tensors in registration order.
    pub(crate) fn head_tensors(&self) -> &[Tensor] {
        self.head_params.tensors()
    }

    /// The fitted scaler, if any.
    pub(crate) fn scaler_ref(&self) -> Option<&FeatureScaler> {
        self.scaler.as_ref()
    }

    /// Overwrites the scaler (checkpoint restore).
    pub(crate) fn set_scaler(&mut self, scaler: Option<FeatureScaler>) {
        self.scaler = scaler;
    }

    /// Restores all parameters; returns the offending index on mismatch.
    pub(crate) fn restore_tensors(
        &mut self,
        enc: Vec<Tensor>,
        head: Vec<Tensor>,
    ) -> Result<(), usize> {
        self.enc_params.restore(enc)?;
        let enc_len = self.enc_params.tensors().len();
        self.head_params.restore(head).map_err(|i| enc_len + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmls_netlist::PinId;
    use gnnmls_sta::TimingPath;

    /// Synthetic samples: label = (wirelength feature large AND slack
    /// negative-ish) — a learnable rule in feature space.
    fn synthetic_samples(n: usize, seed: u64) -> Vec<PathSample> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|k| {
                let len = rng.gen_range(4..12);
                let mut features = Vec::new();
                let mut labels = Vec::new();
                let mut nets = Vec::new();
                for i in 0..len {
                    let wl: f32 = rng.gen_range(0.0..200.0);
                    let mut f = [0.0f32; FEATURE_DIM];
                    f[0] = rng.gen_range(0.0..100.0);
                    f[1] = rng.gen_range(0.0..100.0);
                    f[2] = rng.gen_range(5.0..25.0);
                    f[3] = rng.gen_range(1.0..10.0);
                    f[4] = wl;
                    f[5] = wl * 0.2;
                    f[6] = wl * 0.001;
                    f[7] = rng.gen_range(1.0..4.0);
                    f[8] = 0.0;
                    features.push(f);
                    labels.push(wl > 100.0);
                    nets.push(NetId::new((k * 100 + i) as u32));
                }
                PathSample {
                    path: TimingPath {
                        pins: vec![],
                        cells: vec![],
                        nets: nets.clone(),
                        endpoint: PinId::new(0),
                        slack_ps: -10.0,
                        clock_period_ps: 400.0,
                        setup_ps: 10.0,
                    },
                    eligible: vec![true; nets.len()],
                    nets,
                    features,
                    labels: Some(labels),
                }
            })
            .collect()
    }

    #[test]
    fn model_learns_a_feature_rule() {
        let samples = synthetic_samples(40, 1);
        let test = synthetic_samples(15, 2);
        let mut model = GnnMls::new(ModelConfig {
            pretrain_epochs: 3,
            finetune_epochs: 25,
            ..ModelConfig::default()
        });
        model.pretrain(&samples).unwrap();
        let train_m = model.finetune(&samples).unwrap();
        assert!(
            train_m.accuracy() > 0.85,
            "train accuracy {:.2}",
            train_m.accuracy()
        );
        let test_m = model.evaluate(&test).unwrap();
        assert!(
            test_m.accuracy() > 0.8,
            "test accuracy {:.2}",
            test_m.accuracy()
        );
    }

    #[test]
    fn dgi_pretraining_runs_and_returns_finite_loss() {
        let samples = synthetic_samples(10, 3);
        let mut model = GnnMls::new(ModelConfig {
            pretrain_epochs: 2,
            ..ModelConfig::default()
        });
        let loss = model.pretrain(&samples).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn decisions_come_from_eligible_high_probability_nets() {
        let mut samples = synthetic_samples(30, 4);
        // Make one node ineligible everywhere.
        for s in &mut samples {
            s.eligible[0] = false;
        }
        let mut model = GnnMls::new(ModelConfig {
            pretrain_epochs: 2,
            finetune_epochs: 20,
            ..ModelConfig::default()
        });
        model.pretrain(&samples).unwrap();
        model.finetune(&samples).unwrap();
        let decided = model.decide(&samples).unwrap();
        for s in &samples {
            assert!(!decided.contains(&s.nets[0]), "ineligible net selected");
        }
    }

    #[test]
    fn batched_forward_matches_per_sample_calls() {
        let samples = synthetic_samples(20, 9);
        let mut model = GnnMls::new(ModelConfig {
            pretrain_epochs: 2,
            finetune_epochs: 10,
            ..ModelConfig::default()
        });
        assert!(matches!(
            model.predict_paths(&samples),
            Err(ModelError::NotTrained)
        ));
        model.pretrain(&samples).unwrap();
        model.finetune(&samples).unwrap();
        let batched = model.predict_paths(&samples).unwrap();
        let single: Vec<Vec<f32>> = samples
            .iter()
            .map(|s| model.predict_path(s).unwrap())
            .collect();
        assert_eq!(batched, single, "micro-batching must not change bits");
    }

    #[test]
    fn gcn_variant_trains_too() {
        let samples = synthetic_samples(30, 5);
        let mut model = GnnMls::new(ModelConfig {
            encoder: EncoderKind::Gcn,
            pretrain_epochs: 2,
            finetune_epochs: 20,
            ..ModelConfig::default()
        });
        model.pretrain(&samples).unwrap();
        let m = model.finetune(&samples).unwrap();
        assert!(m.accuracy() > 0.6, "gcn accuracy {:.2}", m.accuracy());
    }

    #[test]
    fn untrained_model_returns_typed_errors_not_panics() {
        let model = GnnMls::new(ModelConfig::default());
        let samples = synthetic_samples(2, 6);
        assert!(matches!(
            model.predict_path(&samples[0]),
            Err(ModelError::NotTrained)
        ));
        assert!(matches!(
            model.decide(&samples),
            Err(ModelError::NotTrained)
        ));
        assert!(matches!(
            model.evaluate(&samples),
            Err(ModelError::NotTrained)
        ));
    }

    #[test]
    fn training_on_no_nodes_is_a_no_op_not_a_panic() {
        let mut nodeless = synthetic_samples(3, 13);
        for s in &mut nodeless {
            s.features.clear();
            s.nets.clear();
            s.eligible.clear();
            s.labels = Some(Vec::new());
        }
        for samples in [&[][..], &nodeless[..]] {
            let mut model = GnnMls::new(ModelConfig {
                pretrain_epochs: 1,
                finetune_epochs: 1,
                ..ModelConfig::default()
            });
            assert_eq!(model.pretrain(samples), Ok(0.0));
            assert_eq!(model.finetune(samples), Ok(Classification::default()));
            // Nothing was fit, so the model is still untrained.
            assert_eq!(model.decide(samples), Err(ModelError::NotTrained));
            assert_eq!(model.evaluate(samples), Err(ModelError::NotTrained));
            assert_eq!(model.predict_paths(samples), Err(ModelError::NotTrained));
            assert_eq!(
                model.predict_path(&nodeless[0]),
                Err(ModelError::NotTrained)
            );
        }
    }

    #[test]
    fn missing_labels_are_a_typed_error() {
        let mut samples = synthetic_samples(4, 7);
        samples[2].labels = None;
        let mut model = GnnMls::new(ModelConfig::default());
        assert!(matches!(
            model.finetune(&samples),
            Err(ModelError::MissingLabels)
        ));
    }

    #[test]
    fn injected_nan_gradient_recovers_with_lr_backoff() {
        use gnnmls_faults::{install, FaultPlan, FaultSite};
        let samples = synthetic_samples(10, 8);
        let mut model = GnnMls::new(ModelConfig {
            pretrain_epochs: 2,
            finetune_epochs: 3,
            ..ModelConfig::default()
        });
        let _g = install(&FaultPlan::single(FaultSite::NanGradient, 1));
        let loss = model.pretrain(&samples).unwrap();
        assert!(loss.is_finite() && loss > 0.0, "recovered loss {loss}");
        assert_eq!(model.divergence_retries(), 1);
        assert!(GnnMls::params_finite(&model.enc_params));
        let m = model.finetune(&samples).unwrap();
        assert!(m.accuracy() > 0.0);
    }

    #[test]
    fn unrecoverable_divergence_is_a_typed_error() {
        use gnnmls_faults::{install, FaultPlan, FaultSite};
        let samples = synthetic_samples(6, 9);
        let mut model = GnnMls::new(ModelConfig {
            pretrain_epochs: 2,
            ..ModelConfig::default()
        });
        // Every epoch diverges: retries must exhaust into a typed error.
        let _g = install(&FaultPlan::single(FaultSite::NanGradient, u32::MAX));
        assert!(matches!(
            model.pretrain(&samples),
            Err(ModelError::Diverged {
                stage: "pretrain",
                ..
            })
        ));
    }

    /// Fine-tuning with a frozen encoder that re-encodes every path on
    /// every step: encoder and head share one tape, backward runs
    /// through both, and only the head steps. [`GnnMls::finetune`] must
    /// match it bit for bit.
    fn finetune_per_step(model: &mut GnnMls, samples: &[PathSample]) -> Classification {
        model.fit_scaler(samples);
        let mut head_adam = Adam::new(model.cfg.lr);
        let (mut pos, mut neg) = (0usize, 0usize);
        for l in samples.iter().filter_map(|s| s.labels.as_ref()) {
            pos += l.iter().filter(|&&b| b).count();
            neg += l.iter().filter(|&&b| !b).count();
        }
        let repeat = neg.checked_div(pos).map_or(1, |r| (r / 3).clamp(1, 6));
        let order: Vec<&PathSample> = samples
            .iter()
            .flat_map(|s| {
                let has_pos = s.labels.as_ref().is_some_and(|l| l.iter().any(|&b| b));
                std::iter::repeat_n(s, if has_pos { repeat } else { 1 })
            })
            .collect();
        let mut metrics = Classification::default();
        for epoch in 0..model.cfg.finetune_epochs {
            metrics = Classification::default();
            for &s in order.iter().filter(|s| !s.is_empty()) {
                let labels = s.labels.as_ref().unwrap();
                let targets: Vec<f32> = labels.iter().map(|&b| f32::from(b)).collect();
                let x = model.features_of(s).unwrap();
                let mut tape = Tape::new();
                let pv_enc = model.enc_params.bind(&mut tape);
                let pv_head = model.head_params.bind(&mut tape);
                let xv = tape.leaf(x);
                let h = model.encode(&mut tape, &pv_enc, xv, s.len());
                let z = model.head.forward(&mut tape, &pv_head, h);
                let loss = tape.bce_with_logits(z, &targets);
                if epoch + 1 == model.cfg.finetune_epochs {
                    metrics = metrics.merge(&Classification::from_logits(tape.value(z), labels));
                }
                let mut grads = tape.backward(loss);
                let gh = pv_head.collect_grads(&mut grads, &model.head_params);
                head_adam.step(&mut model.head_params, &gh);
            }
        }
        metrics
    }

    fn bits(tensors: &[Tensor]) -> Vec<u32> {
        tensors
            .iter()
            .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn frozen_encoder_finetune_matches_the_per_step_loop_bit_for_bit() {
        let mut samples = synthetic_samples(16, 10);
        // An unlabeled empty path: both loops must skip it.
        let mut empty = samples[0].clone();
        empty.features.clear();
        empty.nets.clear();
        empty.eligible.clear();
        empty.labels = None;
        samples.insert(5, empty);
        for encoder in [EncoderKind::Transformer, EncoderKind::Gcn] {
            let cfg = ModelConfig {
                encoder,
                pretrain_epochs: 1,
                finetune_epochs: 4,
                ..ModelConfig::default()
            };
            let mut cached = GnnMls::new(cfg.clone());
            // Force the parallel embedding pass.
            cached.set_threads(4);
            let mut reference = GnnMls::new(cfg);
            cached.pretrain(&samples).unwrap();
            reference.pretrain(&samples).unwrap();
            let encoder_before = bits(cached.encoder_tensors());

            let got = cached.finetune(&samples).unwrap();
            let want = finetune_per_step(&mut reference, &samples);
            assert_eq!(got, want, "{encoder:?}: final-epoch metrics");
            assert!(got.total() > 0);
            assert_eq!(
                bits(cached.head_tensors()),
                bits(reference.head_tensors()),
                "{encoder:?}: head tensors"
            );
            assert_eq!(
                bits(cached.encoder_tensors()),
                encoder_before,
                "{encoder:?}: a frozen encoder must not move"
            );
        }
    }

    #[test]
    fn finetune_encoder_ablation_still_trains_the_encoder() {
        let samples = synthetic_samples(8, 11);
        let mut model = GnnMls::new(ModelConfig {
            finetune_encoder: true,
            finetune_epochs: 2,
            ..ModelConfig::default()
        });
        let before = bits(model.encoder_tensors());
        model.finetune(&samples).unwrap();
        assert_ne!(
            bits(model.encoder_tensors()),
            before,
            "the ablation must train the encoder, not read cached embeddings"
        );
    }

    #[test]
    fn pretrain_loss_averages_over_the_paths_it_trained_on() {
        let multi = synthetic_samples(8, 12);
        let single = |s: &PathSample| {
            let mut s = s.clone();
            s.features.truncate(1);
            s.nets.truncate(1);
            s.eligible.truncate(1);
            s.labels.as_mut().unwrap().truncate(1);
            s
        };
        // DGI skips single-node paths; interleave some.
        let mut mixed = multi.clone();
        for k in [7, 3, 0] {
            mixed.insert(k, single(&multi[k]));
        }
        let cfg = ModelConfig {
            pretrain_epochs: 2,
            ..ModelConfig::default()
        };
        let (mut a, mut b) = (GnnMls::new(cfg.clone()), GnnMls::new(cfg.clone()));
        a.fit_scaler(&mixed);
        b.fit_scaler(&mixed);
        let loss = a.pretrain(&multi).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
        assert_eq!(b.pretrain(&mixed).unwrap().to_bits(), loss.to_bits());

        let singles: Vec<PathSample> = multi.iter().map(single).collect();
        assert_eq!(GnnMls::new(cfg).pretrain(&singles).unwrap(), 0.0);
    }

    #[test]
    fn parameter_count_is_plausible() {
        let model = GnnMls::new(ModelConfig::default());
        let n = model.parameter_count();
        // 3-layer, d=24 transformer + head: thousands, not millions.
        assert!((1_000..100_000).contains(&n), "params {n}");
    }
}
