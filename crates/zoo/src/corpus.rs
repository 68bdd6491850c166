//! Deterministic cross-design training corpus.
//!
//! A corpus is a sweep over the seeded netlist generators: for each
//! requested family (`maeri` / `a7` / `noc`), a couple of design
//! variants at several generator seeds, each taken through the exact
//! baseline pipeline the flow's learning stage uses — place and ECO
//! ([`gnn_mls::flow::prepare`]), then the flow's one route → audit →
//! STA stage ([`gnn_mls::flow::route_and_time`]) with MLS disabled,
//! then worst-path extraction — plus an oracle-labeled subset for
//! fine-tuning. Every design records its
//! [`gnnmls_netlist::Netlist::content_hash`] so a trained checkpoint can name exactly
//! what it was trained on.

use serde::{Deserialize, Serialize};

use gnn_mls::flow::{prepare, route_and_time, FlowConfig};
use gnn_mls::oracle::{label_paths, OracleConfig, OracleStats};
use gnn_mls::paths::{extract_path_samples_par, PathSample};
use gnn_mls::session::build_tech;
use gnn_mls::FAMILIES;
use gnnmls_netlist::generators::{
    generate_a7, generate_maeri, generate_noc, A7Config, GeneratedDesign, MaeriConfig, NocConfig,
};
use gnnmls_netlist::tech::TechConfig;
use gnnmls_route::MlsPolicy;

use crate::ZooError;

/// What to sweep when building a corpus. The same config always builds
/// the same corpus, bit for bit.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Families to include (subset of [`gnn_mls::FAMILIES`]).
    pub families: Vec<String>,
    /// Generator seeds swept per variant.
    pub seeds: Vec<u64>,
    /// Design variants per family (1 or 2; more is clamped to 2).
    pub variants_per_family: usize,
    /// Target frequency for the baseline STA, MHz.
    pub target_freq_mhz: f64,
    /// Worst timing paths extracted per design (the unlabeled DGI
    /// corpus).
    pub paths_per_design: usize,
    /// Of those, how many get oracle labels for fine-tuning.
    pub labeled_per_design: usize,
    /// Worker threads (`0` = all cores). Results are identical for
    /// every value.
    pub threads: usize,
}

impl CorpusConfig {
    /// A full three-family sweep at suite scale.
    pub fn full() -> Self {
        Self {
            families: FAMILIES.iter().map(|f| (*f).to_string()).collect(),
            seeds: vec![1, 2],
            variants_per_family: 2,
            target_freq_mhz: 2500.0,
            paths_per_design: 60,
            labeled_per_design: 16,
            threads: 0,
        }
    }

    /// A two-family, one-seed corpus small enough for CI smoke tests.
    pub fn tiny() -> Self {
        Self {
            families: vec!["maeri".to_string(), "noc".to_string()],
            seeds: vec![1],
            variants_per_family: 1,
            target_freq_mhz: 2500.0,
            paths_per_design: 40,
            labeled_per_design: 10,
            threads: 0,
        }
    }

    /// Rejects unknown families, empty sweeps, and degenerate budgets.
    ///
    /// # Errors
    ///
    /// Returns [`ZooError::UnknownFamily`] or [`ZooError::EmptyCorpus`].
    pub fn validate(&self) -> Result<(), ZooError> {
        for family in &self.families {
            if !FAMILIES.contains(&family.as_str()) {
                return Err(ZooError::UnknownFamily(family.clone()));
            }
        }
        if self.families.is_empty() || self.seeds.is_empty() || self.paths_per_design == 0 {
            return Err(ZooError::EmptyCorpus);
        }
        Ok(())
    }
}

/// One generated design's contribution to the corpus.
#[derive(Clone, Debug)]
pub struct CorpusDesign {
    /// Zoo family (`maeri` | `a7` | `noc`).
    pub family: String,
    /// Variant name (e.g. `maeri16`, `noc4x4`).
    pub variant: String,
    /// Generator seed.
    pub seed: u64,
    /// [`gnnmls_netlist::Netlist::content_hash`] of the generated netlist — the
    /// checkpoint's provenance record.
    pub content_hash: u64,
    /// Worst-path samples (unlabeled; DGI pretraining input).
    pub samples: Vec<PathSample>,
    /// Oracle-labeled prefix of `samples` (fine-tuning input).
    pub labeled: Vec<PathSample>,
    /// What the oracle saw while labeling.
    pub oracle: OracleStats,
}

/// The assembled corpus: designs in deterministic sweep order
/// (family → variant → seed).
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    /// Per-design sample sets.
    pub designs: Vec<CorpusDesign>,
}

impl Corpus {
    /// Families present, in first-appearance order.
    pub fn families(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for d in &self.designs {
            if !out.contains(&d.family) {
                out.push(d.family.clone());
            }
        }
        out
    }

    /// Sorted content hashes of every design (pretraining provenance).
    pub fn all_hashes(&self) -> Vec<u64> {
        let mut h: Vec<u64> = self.designs.iter().map(|d| d.content_hash).collect();
        h.sort_unstable();
        h.dedup();
        h
    }

    /// Every unlabeled sample across all designs, in corpus order —
    /// the cross-design DGI pretraining set.
    pub fn unlabeled(&self) -> Vec<PathSample> {
        self.designs
            .iter()
            .flat_map(|d| d.samples.iter().cloned())
            .collect()
    }

    /// One family's labeled samples, in corpus order — its fine-tuning
    /// set.
    pub fn labeled(&self, family: &str) -> Vec<PathSample> {
        self.designs
            .iter()
            .filter(|d| d.family == family)
            .flat_map(|d| d.labeled.iter().cloned())
            .collect()
    }

    /// Total unlabeled samples.
    pub fn len(&self) -> usize {
        self.designs.iter().map(|d| d.samples.len()).sum()
    }

    /// True when no design contributed samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The generator variants swept per family, smallest first. Index 0 is
/// the family's canonical suite-scale design; index 1 a structurally
/// different sibling so the pretrain set is not one topology repeated.
fn build_variant(
    family: &str,
    variant: usize,
    seed: u64,
    tech: &TechConfig,
) -> Result<(String, GeneratedDesign), ZooError> {
    let (name, design) = match (family, variant) {
        ("maeri", 0) => (
            "maeri16",
            generate_maeri(&MaeriConfig::pe16_bw4().with_seed(seed), tech),
        ),
        ("maeri", _) => (
            "maeri24",
            generate_maeri(&MaeriConfig::new(24, 6).with_seed(seed), tech),
        ),
        ("a7", 0) => (
            "a7mini",
            generate_a7(
                &A7Config::new(1).with_gates_per_stage(300).with_seed(seed),
                tech,
            ),
        ),
        ("a7", _) => (
            "a7mini-deep",
            generate_a7(
                &A7Config::new(1).with_gates_per_stage(450).with_seed(seed),
                tech,
            ),
        ),
        ("noc", 0) => (
            "noc4x4",
            generate_noc(&NocConfig::mesh4x4().with_seed(seed), tech),
        ),
        ("noc", _) => (
            "noc3x4",
            generate_noc(&NocConfig::new(3, 4).with_seed(seed), tech),
        ),
        _ => return Err(ZooError::UnknownFamily(family.to_string())),
    };
    Ok((name.to_string(), design?))
}

/// The heterogeneous stack a family's designs are built against (a7
/// uses 8 metal layers per die, the rest 6 — same rule as the serve
/// tier's `build_tech`).
fn family_tech(family: &str) -> Result<TechConfig, ZooError> {
    let representative = match family {
        "a7" => "a7mini",
        "maeri" => "maeri16",
        "noc" => "noc4x4",
        other => return Err(ZooError::UnknownFamily(other.to_string())),
    };
    build_tech("hetero", representative).ok_or_else(|| ZooError::UnknownFamily(family.to_string()))
}

/// Builds one design's corpus entry: prepare → baseline (no-MLS) route
/// → audit → STA → worst-path extraction → oracle labels on the prefix.
fn build_design_entry(
    family: &str,
    variant: &str,
    seed: u64,
    design: &GeneratedDesign,
    flow_cfg: &FlowConfig,
    cfg: &CorpusConfig,
) -> Result<CorpusDesign, ZooError> {
    let (netlist, placement) = prepare(design, flow_cfg)?;
    let base = route_and_time(
        &netlist,
        &placement,
        &design.tech,
        &MlsPolicy::Disabled,
        flow_cfg,
        "corpus",
    )?;
    let samples = extract_path_samples_par(
        &netlist,
        &placement,
        &design.tech,
        &base.timing,
        cfg.paths_per_design,
        cfg.threads,
    );
    let take = cfg.labeled_per_design.min(samples.len());
    let mut labeled: Vec<PathSample> = samples.iter().take(take).cloned().collect();
    let oracle = label_paths(
        &mut labeled,
        &netlist,
        &base.router,
        &base.routes,
        &OracleConfig::default(),
    )?;
    Ok(CorpusDesign {
        family: family.to_string(),
        variant: variant.to_string(),
        seed,
        content_hash: netlist.content_hash(),
        samples,
        labeled,
        oracle,
    })
}

/// Builds the full corpus described by `cfg`, deterministically.
///
/// Sweep order is family → variant → seed; each design runs the same
/// baseline pipeline as the flow's learning stage. Emits a
/// `gnnmls_zoo_corpus_designs_total{family}` counter per design built.
///
/// # Errors
///
/// Returns [`ZooError`] if the config is invalid or any design's
/// pipeline stage fails.
pub fn build_corpus(cfg: &CorpusConfig) -> Result<Corpus, ZooError> {
    cfg.validate()?;
    let flow_cfg = FlowConfig::fast_test(cfg.target_freq_mhz).with_threads(cfg.threads);
    let variants = cfg.variants_per_family.clamp(1, 2);
    let mut designs = Vec::new();
    for family in &cfg.families {
        let tech = family_tech(family)?;
        for variant in 0..variants {
            for &seed in &cfg.seeds {
                let (name, design) = build_variant(family, variant, seed, &tech)?;
                let entry = build_design_entry(family, &name, seed, &design, &flow_cfg, cfg)?;
                gnnmls_obs::counter_add(
                    "gnnmls_zoo_corpus_designs_total",
                    &[("family", family.as_str())],
                    1,
                );
                designs.push(entry);
            }
        }
    }
    let corpus = Corpus { designs };
    if corpus.is_empty() {
        return Err(ZooError::EmptyCorpus);
    }
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_refuses_garbage() {
        let mut cfg = CorpusConfig::tiny();
        cfg.families = vec!["riscv".to_string()];
        assert!(matches!(
            cfg.validate(),
            Err(ZooError::UnknownFamily(f)) if f == "riscv"
        ));
        let mut cfg = CorpusConfig::tiny();
        cfg.seeds.clear();
        assert!(matches!(cfg.validate(), Err(ZooError::EmptyCorpus)));
        assert!(CorpusConfig::tiny().validate().is_ok());
        assert!(CorpusConfig::full().validate().is_ok());
    }

    #[test]
    fn every_family_has_two_distinct_variants() {
        for family in FAMILIES {
            let tech = family_tech(family).unwrap();
            let (a, da) = build_variant(family, 0, 1, &tech).unwrap();
            let (b, db) = build_variant(family, 1, 1, &tech).unwrap();
            assert_ne!(a, b, "{family} variants must differ in name");
            assert_ne!(
                da.netlist.content_hash(),
                db.netlist.content_hash(),
                "{family} variants must differ structurally"
            );
        }
    }

    #[test]
    fn variant_generation_is_seed_deterministic() {
        let tech = family_tech("noc").unwrap();
        let (_, a) = build_variant("noc", 0, 7, &tech).unwrap();
        let (_, b) = build_variant("noc", 0, 7, &tech).unwrap();
        let (_, c) = build_variant("noc", 0, 8, &tech).unwrap();
        assert_eq!(a.netlist.content_hash(), b.netlist.content_hash());
        assert_ne!(a.netlist.content_hash(), c.netlist.content_hash());
    }
}
