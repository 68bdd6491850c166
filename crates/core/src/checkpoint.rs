//! Flow checkpoints.
//!
//! Two layers live here:
//!
//! - [`ModelCheckpoint`] — a serializable snapshot of a trained GNN-MLS
//!   model (architecture config, encoder + head weights, feature
//!   scaler): train once on a family of designs, then make MLS decisions
//!   on new ones without re-running the oracle.
//! - **Stage checkpoints** ([`save_stage`] / [`load_stage`]) — the
//!   resumable on-disk state each flow stage emits (placement, learned
//!   decisions, routing DB, final report), wrapped in a checksummed
//!   envelope so truncation or bit-corruption is always detected as
//!   [`CheckpointError::Corrupt`], never deserialized into silently
//!   wrong data.
//!
//! The envelope is a single header line followed by the JSON payload:
//!
//! ```text
//! GNNMLS-CKPT v1 <stage> <format-version> <fnv1a64-hex> <payload-len>\n{...json...}
//! ```
//!
//! The format-version field (ahead of the checksum) lets both `--resume`
//! and the serve session cache reject envelopes written by an
//! incompatible build with a typed [`CheckpointError::Version`] instead
//! of a confusing decode failure. Version-0 files (the original
//! four-field header without the version) are still read.

use std::fmt;
use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use gnnmls_nn::Tensor;

use crate::features::FeatureScaler;
use crate::model::{GnnMls, ModelConfig};
use crate::store::{durable_read, durable_write, StorageError};

/// Magic prefix of the stage-checkpoint envelope.
pub const STAGE_MAGIC: &str = "GNNMLS-CKPT v1";

/// Format version written by this build. Version 0 is the original
/// envelope without a version field; readers accept `0..=` this value.
pub const STAGE_FORMAT_VERSION: u32 = 1;

/// Stage name of a versioned model-zoo checkpoint envelope.
pub const ZOO_MODEL_STAGE: &str = "model-zoo";

/// A semver-ish model version: versions within one family order by
/// `(major, minor, patch)`; the serve tier reports the active version
/// per family in its metrics.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ModelVersion {
    /// Incompatible retrain (new architecture or feature schema).
    pub major: u32,
    /// Corpus growth or re-finetune, same architecture.
    pub minor: u32,
    /// Metadata-only or re-export.
    pub patch: u32,
}

impl ModelVersion {
    /// Builds a version literal.
    pub const fn new(major: u32, minor: u32, patch: u32) -> Self {
        Self {
            major,
            minor,
            patch,
        }
    }

    /// Parses `major.minor.patch`; `None` on anything else.
    pub fn parse(s: &str) -> Option<Self> {
        let mut it = s.split('.');
        let major = it.next()?.parse().ok()?;
        let minor = it.next()?.parse().ok()?;
        let patch = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(Self {
            major,
            minor,
            patch,
        })
    }
}

impl fmt::Display for ModelVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)
    }
}

/// The `model-zoo` checkpoint payload: a trained model plus the
/// provenance the registry needs — which family it serves, its version,
/// and the content hashes of every corpus design it saw. Written and
/// read through the same checksummed stage envelope as every other
/// checkpoint ([`ZOO_MODEL_STAGE`]), so corruption is a typed refusal.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ZooModelCheckpoint {
    /// Design family this model serves (see
    /// [`crate::session::FAMILIES`]).
    pub family: String,
    /// Version of this model within its family.
    pub version: ModelVersion,
    /// Sorted [`gnnmls_netlist::Netlist::content_hash`] of every design
    /// variant in the training corpus (pretrain + finetune).
    pub corpus_hashes: Vec<u64>,
    /// DGI-pretrain epochs the corpus driver ran.
    pub pretrain_epochs: usize,
    /// Fine-tune epochs the family driver ran.
    pub finetune_epochs: usize,
    /// The trained weights + config + scaler.
    pub model: ModelCheckpoint,
}

impl ZooModelCheckpoint {
    /// Saves the checkpoint at `path` in the [`ZOO_MODEL_STAGE`]
    /// envelope.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on IO or serialization failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        durable_write(path, &encode_stage(ZOO_MODEL_STAGE, self)?)?;
        Ok(())
    }

    /// Loads and envelope-validates a checkpoint from `path`.
    ///
    /// The [`gnnmls_faults::FaultSite::ModelSwapCorrupt`] seam damages
    /// the bytes between the read and the envelope check (one shot
    /// bit-flips, a second in the same plan truncates), standing in for
    /// a torn download or a bad disk serving a `LoadModel` swap.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Corrupt`] for a damaged envelope and
    /// [`CheckpointError::Io`]/[`CheckpointError::Json`] for filesystem
    /// or payload problems.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let mut bytes = durable_read(path)?;
        if gnnmls_faults::fire(gnnmls_faults::FaultSite::ModelSwapCorrupt) {
            if gnnmls_faults::fire(gnnmls_faults::FaultSite::ModelSwapCorrupt) {
                bytes.truncate(bytes.len() / 2);
            } else if let Some(mid) = bytes.len().checked_sub(1).map(|n| n / 2) {
                bytes[mid] ^= 0x04;
            }
        }
        decode_stage(ZOO_MODEL_STAGE, &bytes)
    }
}

/// A serializable snapshot of a trained model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelCheckpoint {
    /// Architecture / training configuration (the restore target must be
    /// rebuilt from exactly this config).
    pub config: ModelConfig,
    /// Encoder parameters in registration order.
    pub encoder_params: Vec<Tensor>,
    /// MLP head parameters in registration order.
    pub head_params: Vec<Tensor>,
    /// The frozen feature normalizer (present after training).
    pub scaler: Option<FeatureScaler>,
}

/// Errors raised restoring a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// File or serialization problem.
    Io(std::io::Error),
    /// JSON problem.
    Json(serde_json::Error),
    /// Parameter count/shape mismatch at the given index (the checkpoint
    /// was produced by a different architecture).
    Shape(usize),
    /// The stage envelope failed validation (bad magic, wrong stage
    /// name, truncated payload, or checksum mismatch).
    Corrupt(String),
    /// The envelope is well-formed but written by an incompatible
    /// format version newer than this build understands.
    Version {
        /// Format version declared by the file.
        found: u32,
        /// Newest format version this build reads.
        supported: u32,
    },
    /// The durable-storage layer refused the write or read (disk full,
    /// torn write, orphaned temp file — see [`StorageError`]).
    Storage(StorageError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::Json(e) => write!(f, "checkpoint json: {e}"),
            CheckpointError::Shape(i) => {
                write!(
                    f,
                    "checkpoint parameter {i} does not match the architecture"
                )
            }
            CheckpointError::Corrupt(why) => write!(f, "checkpoint corrupt: {why}"),
            CheckpointError::Version { found, supported } => write!(
                f,
                "checkpoint format version {found} is newer than this \
                 build supports (max {supported})"
            ),
            CheckpointError::Storage(e) => write!(f, "checkpoint storage: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}
impl From<StorageError> for CheckpointError {
    fn from(e: StorageError) -> Self {
        match e {
            // Plain IO keeps its historical variant so callers that
            // branch on `ErrorKind` (missing file → start fresh) still
            // see the underlying error.
            StorageError::Io { error, .. } => CheckpointError::Io(error),
            other => CheckpointError::Storage(other),
        }
    }
}
impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Json(e)
    }
}

/// FNV-1a 64-bit — tiny, dependency-free, and plenty to catch the
/// torn/truncated/bit-flipped writes stage checkpoints must survive.
/// Also used as the serve session-cache key hash and the model-zoo
/// manifest integrity hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes `value` as pretty-printed JSON to `path`, creating parent
/// directories as needed. The one JSON-manifest writer behind the bench
/// ledgers, the suite report, and the model-zoo `MANIFEST.json` —
/// callers that must not fail (benches on a read-only checkout) wrap it
/// in their own warn-and-continue. The bytes go through
/// [`crate::store::durable_write`], so a crash mid-write leaves the
/// complete old ledger, never a torn one.
///
/// # Errors
///
/// Returns [`CheckpointError::Json`] if serialization fails,
/// [`CheckpointError::Io`] on plain filesystem failure, and
/// [`CheckpointError::Storage`] when the durable-write protocol was cut
/// short (disk full, torn write, crash before rename).
pub fn write_json_file<T: Serialize>(path: &Path, value: &T) -> Result<(), CheckpointError> {
    let json = serde_json::to_string_pretty(value)?;
    durable_write(path, json.as_bytes())?;
    Ok(())
}

/// [`save_stage`], but a write failure is reported as a structured
/// `gnnmls-obs` warning instead of an error — the shape every drain
/// path (serve-stats, cluster-stats) wants: final stats are best-effort
/// and must never turn a clean shutdown into a failure.
pub fn save_stage_logged<T: Serialize>(
    dir: &Path,
    stage: &str,
    value: &T,
    component: &'static str,
) {
    if let Err(e) = save_stage(dir, stage, value) {
        gnnmls_obs::warn(
            component,
            &format!("could not write final `{stage}` checkpoint: {e}"),
        );
    }
}

/// Serializes `value` into the checksummed stage envelope.
///
/// # Errors
///
/// Returns [`CheckpointError::Json`] if serialization fails.
pub fn encode_stage<T: Serialize>(stage: &str, value: &T) -> Result<Vec<u8>, CheckpointError> {
    let json = serde_json::to_string(value)?;
    let mut out = format!(
        "{STAGE_MAGIC} {stage} {STAGE_FORMAT_VERSION} {:016x} {}\n",
        fnv1a64(json.as_bytes()),
        json.len()
    )
    .into_bytes();
    out.extend_from_slice(json.as_bytes());
    Ok(out)
}

/// Validates the envelope and deserializes the payload of `stage`.
///
/// # Errors
///
/// Returns [`CheckpointError::Corrupt`] for any framing problem (bad
/// magic, wrong stage, truncated payload, checksum mismatch),
/// [`CheckpointError::Version`] for a well-formed envelope from a newer
/// format, and [`CheckpointError::Json`] if the verified payload does
/// not parse.
pub fn decode_stage<T: Deserialize>(stage: &str, bytes: &[u8]) -> Result<T, CheckpointError> {
    let corrupt = |why: &str| CheckpointError::Corrupt(format!("stage `{stage}`: {why}"));
    match inspect_envelope(bytes) {
        EnvelopeStatus::Valid { stage: name, .. } if name != stage => {
            Err(corrupt(&format!("holds stage `{name}`")))
        }
        EnvelopeStatus::Valid { .. } => {
            // The payload is everything after the header line.
            let payload = bytes.splitn(2, |&b| b == b'\n').nth(1).unwrap_or_default();
            let json = std::str::from_utf8(payload).map_err(|_| corrupt("payload is not utf-8"))?;
            Ok(serde_json::from_str(json)?)
        }
        EnvelopeStatus::FutureVersion { found, supported } => {
            Err(CheckpointError::Version { found, supported })
        }
        EnvelopeStatus::ChecksumMismatch => Err(corrupt("checksum mismatch")),
        EnvelopeStatus::Malformed(why) => Err(corrupt(&why)),
    }
}

/// What [`inspect_envelope`] concluded about one artifact's bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeStatus {
    /// A complete, checksum-verified envelope.
    Valid {
        /// Stage name the header declares.
        stage: String,
        /// Format version the header declares (0 for legacy headers).
        version: u32,
    },
    /// Well-formed, but written by a newer format than this build.
    FutureVersion {
        /// Version the file declares.
        found: u32,
        /// Newest version this build reads.
        supported: u32,
    },
    /// The framing parsed but the payload does not hash to the header's
    /// checksum (bit rot or a swapped payload).
    ChecksumMismatch,
    /// The framing itself is damaged: missing or truncated header,
    /// non-UTF-8, bad magic, or a payload shorter/longer than declared
    /// — the residue of a torn write.
    Malformed(String),
}

/// Stage-agnostic envelope triage, the one parser of the envelope
/// header: `fsck` calls it directly, and [`decode_stage`] calls it
/// before checking the stage name and deserializing the payload. It
/// only answers "is this artifact intact, and which stage/version does
/// it claim?".
pub fn inspect_envelope(bytes: &[u8]) -> EnvelopeStatus {
    let bad = |why: &str| EnvelopeStatus::Malformed(why.to_string());
    let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
        return bad("missing header line");
    };
    let Ok(header) = std::str::from_utf8(&bytes[..nl]) else {
        return bad("header is not utf-8");
    };
    let Some(rest) = header.strip_prefix(STAGE_MAGIC) else {
        return bad("bad magic");
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Three fields (name, sum, len) is the legacy version-0 header;
    // four or more carries the version ahead of the checksum. A newer
    // version may extend the header, so the version is checked before
    // the field count: a longer future header classifies as
    // FutureVersion, not Malformed.
    let (version, sum, len) = match fields.as_slice() {
        [_, s, l] => (0u32, *s, *l),
        [_, ver, tail @ ..] if !tail.is_empty() => {
            let Ok(ver) = ver.parse::<u32>() else {
                return bad("bad version field");
            };
            if ver > STAGE_FORMAT_VERSION {
                return EnvelopeStatus::FutureVersion {
                    found: ver,
                    supported: STAGE_FORMAT_VERSION,
                };
            }
            match tail {
                [s, l] => (ver, *s, *l),
                _ => return bad("malformed header"),
            }
        }
        _ => return bad("malformed header"),
    };
    let Ok(sum) = u64::from_str_radix(sum, 16) else {
        return bad("bad checksum field");
    };
    let Ok(len) = len.parse::<usize>() else {
        return bad("bad length field");
    };
    let payload = &bytes[nl + 1..];
    if payload.len() != len {
        return EnvelopeStatus::Malformed(format!(
            "payload is {} bytes, header says {len}",
            payload.len()
        ));
    }
    if fnv1a64(payload) != sum {
        return EnvelopeStatus::ChecksumMismatch;
    }
    EnvelopeStatus::Valid {
        stage: fields[0].to_string(),
        version,
    }
}

/// Path of a stage checkpoint inside a resume directory.
pub fn stage_path(dir: &Path, stage: &str) -> std::path::PathBuf {
    dir.join(format!("{stage}.ckpt"))
}

/// Writes `value` as the checkpoint of `stage` under `dir` (created if
/// missing). The write goes through [`crate::store::durable_write`]
/// (tmp in the same dir → write → fsync → atomic rename → fsync parent)
/// so a crash at any point leaves either the complete old checkpoint or
/// the complete new one — never a plausible half-written checkpoint.
///
/// The `gnnmls-faults` seams [`gnnmls_faults::FaultSite::CheckpointCorrupt`]
/// and [`gnnmls_faults::FaultSite::CheckpointTruncate`] damage the bytes
/// on their way to disk, which the next [`load_stage`] must detect; the
/// four disk seams (`disk-full`, `torn-write`, `rename-crash`,
/// `read-eio`) fire inside the durable-write protocol itself.
///
/// # Errors
///
/// Returns [`CheckpointError`] on IO, storage-protocol, or
/// serialization failure.
pub fn save_stage<T: Serialize>(dir: &Path, stage: &str, value: &T) -> Result<(), CheckpointError> {
    fs::create_dir_all(dir)?;
    let mut bytes = encode_stage(stage, value)?;
    if gnnmls_faults::fire(gnnmls_faults::FaultSite::CheckpointCorrupt) {
        if let Some(last) = bytes.last_mut() {
            *last ^= 0x01;
        }
    }
    if gnnmls_faults::fire(gnnmls_faults::FaultSite::CheckpointTruncate) {
        bytes.truncate(bytes.len() / 2);
    }
    durable_write(&stage_path(dir, stage), &bytes)?;
    Ok(())
}

/// Loads the checkpoint of `stage` from `dir`; `Ok(None)` when the stage
/// was never checkpointed (no file).
///
/// # Errors
///
/// Returns [`CheckpointError::Corrupt`] for a damaged envelope and
/// [`CheckpointError::Json`]/[`CheckpointError::Io`] for payload or
/// filesystem problems.
pub fn load_stage<T: Deserialize>(dir: &Path, stage: &str) -> Result<Option<T>, CheckpointError> {
    let path = stage_path(dir, stage);
    let bytes = match durable_read(&path) {
        Ok(b) => b,
        Err(StorageError::Io { error, .. }) if error.kind() == std::io::ErrorKind::NotFound => {
            return Ok(None)
        }
        Err(e) => return Err(e.into()),
    };
    decode_stage(stage, &bytes).map(Some)
}

impl GnnMls {
    /// Snapshots the model.
    pub fn to_checkpoint(&self) -> ModelCheckpoint {
        ModelCheckpoint {
            config: self.config().clone(),
            encoder_params: self.encoder_tensors().to_vec(),
            head_params: self.head_tensors().to_vec(),
            scaler: self.scaler_ref().cloned(),
        }
    }

    /// Rebuilds a model from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Shape`] if the snapshot does not match
    /// the architecture its config describes.
    pub fn from_checkpoint(cp: ModelCheckpoint) -> Result<Self, CheckpointError> {
        let mut model = GnnMls::new(cp.config);
        model
            .restore_tensors(cp.encoder_params, cp.head_params)
            .map_err(CheckpointError::Shape)?;
        model.set_scaler(cp.scaler);
        Ok(model)
    }

    /// Saves the model in the checksummed stage envelope (stage
    /// `model`), so later loads can tell corruption from a valid file.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on IO or serialization failure.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let bytes = encode_stage("model", &self.to_checkpoint())?;
        durable_write(path.as_ref(), &bytes)?;
        Ok(())
    }

    /// Loads a model saved by [`GnnMls::save_json`]. Bare-JSON files
    /// from before the envelope are still accepted.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on IO, corruption, parse, or shape
    /// mismatch.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let bytes = durable_read(path.as_ref())?;
        let cp: ModelCheckpoint = if bytes.starts_with(STAGE_MAGIC.as_bytes()) {
            decode_stage("model", &bytes)?
        } else {
            let s = std::str::from_utf8(&bytes)
                .map_err(|_| CheckpointError::Corrupt("model checkpoint is not utf-8".into()))?;
            serde_json::from_str(s)?
        };
        Self::from_checkpoint(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FEATURE_DIM;
    use crate::model::EncoderKind;
    use crate::paths::PathSample;
    use gnnmls_netlist::{NetId, PinId};
    use gnnmls_sta::TimingPath;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn samples(n: usize, seed: u64) -> Vec<PathSample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|k| {
                let len = rng.gen_range(4..10);
                let mut features = Vec::new();
                let mut labels = Vec::new();
                let mut nets = Vec::new();
                for i in 0..len {
                    let mut f = [0.0f32; FEATURE_DIM];
                    for v in f.iter_mut() {
                        *v = rng.gen_range(-1.0..1.0);
                    }
                    labels.push(f[4] > 0.0);
                    features.push(f);
                    nets.push(NetId::new((k * 64 + i) as u32));
                }
                PathSample {
                    path: TimingPath {
                        pins: vec![],
                        cells: vec![],
                        nets: nets.clone(),
                        endpoint: PinId::new(0),
                        slack_ps: -5.0,
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
    fn checkpoint_roundtrip_preserves_predictions() {
        let train = samples(25, 1);
        let mut model = GnnMls::new(ModelConfig {
            pretrain_epochs: 2,
            finetune_epochs: 10,
            ..ModelConfig::default()
        });
        model.pretrain(&train).unwrap();
        model.finetune(&train).unwrap();
        let before: Vec<Vec<f32>> = train
            .iter()
            .map(|s| model.predict_path(s).unwrap())
            .collect();

        let restored = GnnMls::from_checkpoint(model.to_checkpoint()).unwrap();
        let after: Vec<Vec<f32>> = train
            .iter()
            .map(|s| restored.predict_path(s).unwrap())
            .collect();
        assert_eq!(before, after, "restored model must predict identically");
        assert_eq!(
            model.decide(&train).unwrap(),
            restored.decide(&train).unwrap()
        );
    }

    #[test]
    fn json_roundtrip_via_disk() {
        let train = samples(15, 2);
        let mut model = GnnMls::new(ModelConfig {
            pretrain_epochs: 1,
            finetune_epochs: 5,
            ..ModelConfig::default()
        });
        model.pretrain(&train).unwrap();
        model.finetune(&train).unwrap();
        let dir = std::env::temp_dir().join("gnnmls_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save_json(&path).unwrap();
        let restored = GnnMls::load_json(&path).unwrap();
        for s in &train {
            assert_eq!(
                model.predict_path(s).unwrap(),
                restored.predict_path(s).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_architecture_is_rejected() {
        let model = GnnMls::new(ModelConfig::default());
        let mut cp = model.to_checkpoint();
        // Claim a different architecture than the weights describe.
        cp.config.encoder = EncoderKind::Gcn;
        assert!(matches!(
            GnnMls::from_checkpoint(cp),
            Err(CheckpointError::Shape(_))
        ));
    }

    #[test]
    fn checkpoint_errors_display() {
        let e = CheckpointError::Shape(3);
        assert!(e.to_string().contains("parameter 3"));
        let e = CheckpointError::Corrupt("checksum mismatch".into());
        assert!(e.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn stage_envelope_roundtrips() {
        let v: Vec<u32> = (0..50).collect();
        let bytes = encode_stage("routes", &v).unwrap();
        let back: Vec<u32> = decode_stage("routes", &bytes).unwrap();
        assert_eq!(v, back);
        // Saving the same value re-encodes bit-identically.
        assert_eq!(bytes, encode_stage("routes", &back).unwrap());
    }

    #[test]
    fn stage_envelope_rejects_damage() {
        let bytes = encode_stage("routes", &vec![1u32, 2, 3]).unwrap();
        // Every single-byte flip and every truncation is a typed error.
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x40;
            if let Ok(v) = decode_stage::<Vec<u32>>("routes", &b) {
                panic!("flip at {i} decoded as {v:?}");
            }
            assert!(decode_stage::<Vec<u32>>("routes", &bytes[..i]).is_err());
        }
        // Wrong stage name is refused even with a valid checksum.
        assert!(matches!(
            decode_stage::<Vec<u32>>("report", &bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn version_zero_envelopes_still_decode() {
        // A file written before the version field existed: four-field
        // header `<magic> <stage> <sum> <len>`.
        let v = vec![9u32, 8, 7];
        let json = serde_json::to_string(&v).unwrap();
        let mut legacy = format!(
            "{STAGE_MAGIC} routes {:016x} {}\n",
            super::fnv1a64(json.as_bytes()),
            json.len()
        )
        .into_bytes();
        legacy.extend_from_slice(json.as_bytes());
        let back: Vec<u32> = decode_stage("routes", &legacy).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn future_format_version_is_a_typed_error() {
        let v = vec![1u32];
        let json = serde_json::to_string(&v).unwrap();
        let mut future = format!(
            "{STAGE_MAGIC} routes 2 {:016x} {} extra-field\n",
            super::fnv1a64(json.as_bytes()),
            json.len()
        )
        .into_bytes();
        future.extend_from_slice(json.as_bytes());
        match decode_stage::<Vec<u32>>("routes", &future) {
            Err(CheckpointError::Version { found, supported }) => {
                assert_eq!(found, 2);
                assert_eq!(supported, STAGE_FORMAT_VERSION);
            }
            other => panic!("expected Version error, got {other:?}"),
        }
        let msg = CheckpointError::Version {
            found: 2,
            supported: STAGE_FORMAT_VERSION,
        }
        .to_string();
        assert!(msg.contains("version 2"), "{msg}");
    }

    #[test]
    fn current_envelopes_carry_the_version_field() {
        let bytes = encode_stage("routes", &vec![1u32]).unwrap();
        let header =
            std::str::from_utf8(&bytes[..bytes.iter().position(|&b| b == b'\n').unwrap()]).unwrap();
        let fields: Vec<&str> = header
            .strip_prefix(STAGE_MAGIC)
            .unwrap()
            .split_whitespace()
            .collect();
        assert_eq!(fields.len(), 4, "stage, version, checksum, length");
        assert_eq!(fields[1], STAGE_FORMAT_VERSION.to_string());
    }

    #[test]
    fn save_and_load_stage_via_disk() {
        let dir = std::env::temp_dir().join("gnnmls_stage_ckpt_test");
        assert!(load_stage::<Vec<u32>>(&dir, "missing").unwrap().is_none());
        save_stage(&dir, "labels", &vec![7u32; 9]).unwrap();
        let back: Vec<u32> = load_stage(&dir, "labels").unwrap().unwrap();
        assert_eq!(back, vec![7u32; 9]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_version_parses_orders_and_displays() {
        let v = ModelVersion::parse("1.2.3").unwrap();
        assert_eq!(v, ModelVersion::new(1, 2, 3));
        assert_eq!(v.to_string(), "1.2.3");
        assert!(ModelVersion::new(1, 10, 0) > v);
        assert!(ModelVersion::new(2, 0, 0) > ModelVersion::new(1, 99, 99));
        for bad in ["", "1", "1.2", "1.2.3.4", "a.b.c", "1.2.-3"] {
            assert!(ModelVersion::parse(bad).is_none(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn zoo_checkpoint_roundtrips_and_detects_damage() {
        let dir = std::env::temp_dir().join("gnnmls_zoo_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let cp = ZooModelCheckpoint {
            family: "maeri".into(),
            version: ModelVersion::new(1, 0, 0),
            corpus_hashes: vec![7, 11, 13],
            pretrain_epochs: 2,
            finetune_epochs: 5,
            model: GnnMls::new(ModelConfig::default()).to_checkpoint(),
        };
        let path = dir.join("maeri-1.0.0.ckpt");
        cp.save(&path).unwrap();
        let back = ZooModelCheckpoint::load(&path).unwrap();
        assert_eq!(back.family, "maeri");
        assert_eq!(back.version, cp.version);
        assert_eq!(back.corpus_hashes, cp.corpus_hashes);
        // A flipped byte is a typed corruption, never silent data.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ZooModelCheckpoint::load(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        // A model-stage envelope is not a zoo envelope.
        let model = GnnMls::new(ModelConfig::default());
        model.save_json(&path).unwrap();
        assert!(matches!(
            ZooModelCheckpoint::load(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_json_file_creates_parents_and_roundtrips() {
        let dir = std::env::temp_dir().join("gnnmls_write_json_file_test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("manifest.json");
        write_json_file(&path, &vec![1u32, 2, 3]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back: Vec<u32> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        // Pretty output, not the compact encoding.
        assert!(text.contains('\n'));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_stage_logged_writes_and_never_fails() {
        let dir = std::env::temp_dir().join("gnnmls_stage_logged_test");
        std::fs::remove_dir_all(&dir).ok();
        save_stage_logged(&dir, "stats", &vec![4u32], "test");
        let back: Vec<u32> = load_stage(&dir, "stats").unwrap().unwrap();
        assert_eq!(back, vec![4]);
        // A doomed write (dir path is a file) only warns.
        let file = dir.join("stats.ckpt");
        save_stage_logged(&file, "stats", &vec![4u32], "test");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_checkpoint_faults_are_detected_on_load() {
        use gnnmls_faults::{install, FaultPlan, FaultSite};
        let dir = std::env::temp_dir().join("gnnmls_stage_fault_test");
        for site in [FaultSite::CheckpointCorrupt, FaultSite::CheckpointTruncate] {
            let guard = install(&FaultPlan::single(site, 1));
            save_stage(&dir, "decisions", &vec![1u8, 2, 3]).unwrap();
            drop(guard);
            assert!(
                matches!(
                    load_stage::<Vec<u8>>(&dir, "decisions"),
                    Err(CheckpointError::Corrupt(_))
                ),
                "{site} must be caught by the envelope"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv1a64_known_vectors() {
        // Pinned against independent FNV-1a 64 implementations: the
        // hash is load-bearing for every on-disk envelope, so a silent
        // change here would orphan every existing checkpoint.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(b"hello world"), 0x779a_65e7_023c_d2e7);
        assert_eq!(fnv1a64(STAGE_MAGIC.as_bytes()), 0x98c7_15c2_b3f8_6f2a);
    }

    #[test]
    fn inspect_envelope_classifies_every_damage_class() {
        let bytes = encode_stage("routes", &vec![1u32, 2, 3]).unwrap();
        assert_eq!(
            inspect_envelope(&bytes),
            EnvelopeStatus::Valid {
                stage: "routes".into(),
                version: STAGE_FORMAT_VERSION,
            }
        );
        // Truncation is framing damage.
        let cut = &bytes[..bytes.len() - 2];
        assert!(matches!(
            inspect_envelope(cut),
            EnvelopeStatus::Malformed(_)
        ));
        // A flipped payload byte with intact framing is a checksum
        // mismatch, distinct from torn.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(inspect_envelope(&flipped), EnvelopeStatus::ChecksumMismatch);
        // Garbage is malformed.
        assert!(matches!(
            inspect_envelope(b"not an envelope at all\n{}"),
            EnvelopeStatus::Malformed(_)
        ));
        // A future version is typed, never a panic or a decode attempt.
        let future = format!("{STAGE_MAGIC} routes 99 0123 7 who knows\npayload");
        assert_eq!(
            inspect_envelope(future.as_bytes()),
            EnvelopeStatus::FutureVersion {
                found: 99,
                supported: STAGE_FORMAT_VERSION,
            }
        );
        // Legacy version-0 headers classify as valid version 0.
        let v = vec![9u32];
        let json = serde_json::to_string(&v).unwrap();
        let mut legacy = format!(
            "{STAGE_MAGIC} routes {:016x} {}\n",
            fnv1a64(json.as_bytes()),
            json.len()
        )
        .into_bytes();
        legacy.extend_from_slice(json.as_bytes());
        assert_eq!(
            inspect_envelope(&legacy),
            EnvelopeStatus::Valid {
                stage: "routes".into(),
                version: 0,
            }
        );
    }

    #[test]
    fn save_stage_leaves_no_tmp_file() {
        let dir = std::env::temp_dir().join("gnnmls_stage_durable_test");
        std::fs::remove_dir_all(&dir).ok();
        save_stage(&dir, "labels", &vec![1u32]).unwrap();
        assert!(stage_path(&dir, "labels").exists());
        assert!(!dir.join("labels.ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_checkpoint_envelope_detects_corruption() {
        let model = GnnMls::new(ModelConfig::default());
        let dir = std::env::temp_dir().join("gnnmls_model_env_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save_json(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            GnnMls::load_json(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
