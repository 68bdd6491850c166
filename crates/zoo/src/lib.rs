//! **gnnmls-zoo** — the GNN-MLS model zoo.
//!
//! The flow trains one model per run, on one design. This crate turns
//! that into an asset pipeline with three layers:
//!
//! 1. [`corpus`] — a deterministic cross-design training corpus swept
//!    from the seeded netlist generators (MAERI / A7 / NoC variants ×
//!    seeds), with [`gnnmls_netlist::Netlist::content_hash`] provenance
//!    per design, unlabeled [`gnn_mls::PathSample`]s for DGI
//!    pretraining and oracle-labeled subsets for fine-tuning;
//! 2. [`train`] — pretrain *once* across the whole corpus, then
//!    fine-tune a per-family copy on that family's labels, all
//!    thread-count independent;
//! 3. [`registry`] — versioned [`gnn_mls::ZooModelCheckpoint`]s under a
//!    `MANIFEST.json` index with content-hash integrity, ready for the
//!    serve tier's hot-swapping `LoadModel` request.
//!
//! Everything is deterministic: the same [`CorpusConfig`] always builds
//! the same corpus (same content hashes), and the same corpus + model
//! config always trains bit-identical weights regardless of the thread
//! count.

// Library code degrades with typed errors, never panics; diagnostics go
// through gnnmls-obs. Tests may unwrap and print freely.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod corpus;
pub mod registry;
pub mod train;

pub use corpus::{build_corpus, Corpus, CorpusConfig, CorpusDesign};
pub use registry::{ManifestEntry, Registry, VerifyReport, ZooManifest, MANIFEST_FILE};
pub use train::{epochs_to_converge, train_zoo, ConvergenceRun, FamilyModel};

use std::fmt;

/// Why a zoo operation failed. Every variant is a typed, printable
/// refusal — the zoo never panics on bad input or a damaged registry.
#[derive(Debug)]
pub enum ZooError {
    /// A flow-level stage (placement, routing, STA, oracle) failed
    /// while building the corpus.
    Flow(gnn_mls::FlowError),
    /// Training or inference failed (shape mismatch, divergence).
    Model(gnn_mls::model::ModelError),
    /// A checkpoint could not be written, read, or validated.
    Checkpoint(gnn_mls::CheckpointError),
    /// A family name outside [`gnn_mls::FAMILIES`].
    UnknownFamily(String),
    /// The corpus has no samples to train on.
    EmptyCorpus,
    /// The registry manifest or a published file is inconsistent
    /// (missing entry, hash mismatch, family mismatch).
    Registry(String),
}

impl fmt::Display for ZooError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZooError::Flow(e) => write!(f, "corpus build failed: {e}"),
            ZooError::Model(e) => write!(f, "training failed: {e}"),
            ZooError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
            ZooError::UnknownFamily(name) => write!(
                f,
                "unknown design family `{name}` (expected one of {})",
                gnn_mls::FAMILIES.join(", ")
            ),
            ZooError::EmptyCorpus => write!(f, "corpus is empty: nothing to train on"),
            ZooError::Registry(why) => write!(f, "registry inconsistent: {why}"),
        }
    }
}

impl std::error::Error for ZooError {}

impl From<gnn_mls::FlowError> for ZooError {
    fn from(e: gnn_mls::FlowError) -> Self {
        ZooError::Flow(e)
    }
}

impl From<gnn_mls::model::ModelError> for ZooError {
    fn from(e: gnn_mls::model::ModelError) -> Self {
        ZooError::Model(e)
    }
}

impl From<gnn_mls::CheckpointError> for ZooError {
    fn from(e: gnn_mls::CheckpointError) -> Self {
        ZooError::Checkpoint(e)
    }
}

impl From<gnnmls_netlist::NetlistError> for ZooError {
    fn from(e: gnnmls_netlist::NetlistError) -> Self {
        ZooError::Flow(e.into())
    }
}
