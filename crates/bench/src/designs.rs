//! Canonical experiment setups.
//!
//! The generators reproduce each benchmark's *structure* at a scale that
//! keeps the whole experiment suite in minutes (the paper's RTL is tens
//! of times larger); EXPERIMENTS.md records the scale alongside the
//! results. Each experiment is a [`SessionSpec`] naming a design and a
//! stack; its target clock is the design's default — 2,500 MHz for
//! MAERI, 2,000 MHz for the A7, as in the paper.

use gnn_mls::flow::FlowConfig;
use gnn_mls::session::SessionSpec;
use gnnmls_netlist::generators::GeneratedDesign;

/// One named experiment: a generated design plus its flow configuration.
pub struct Experiment {
    /// Display name (matches the paper's benchmark naming).
    pub name: &'static str,
    /// The generated design (netlist + technology).
    pub design: GeneratedDesign,
    /// Flow configuration (target frequency, training budget, …).
    pub cfg: FlowConfig,
}

impl Experiment {
    /// The experiment a spec describes: its generated design and flow
    /// configuration.
    fn new(name: &'static str, spec: &SessionSpec) -> Self {
        Self {
            name,
            design: spec.generate().expect("paper specs name known designs"),
            cfg: spec.flow_config(),
        }
    }
}

/// A named design on the homogeneous 28 + 28 nm stack.
fn homo(design: &str) -> SessionSpec {
    SessionSpec {
        tech: "homo".into(),
        ..SessionSpec::new(design)
    }
}

/// Table IV / Fig. 2 / Fig. 8-left: MAERI 128PE 32BW, 16 nm logic +
/// 28 nm memory, BEOL 6+6, 2.5 GHz.
pub fn maeri128_hetero() -> Experiment {
    Experiment::new("MAERI 128PE (hetero)", &SessionSpec::new("maeri128"))
}

/// Table IV / Fig. 8: A7 dual-core, heterogeneous, BEOL 8+8, 2.0 GHz.
pub fn a7_hetero() -> Experiment {
    Experiment::new("A7 Dual-Core (hetero)", &SessionSpec::new("a7"))
}

/// Table V: MAERI 256PE 64BW, homogeneous 28 + 28 nm, 2.5 GHz.
pub fn maeri256_homo() -> Experiment {
    Experiment::new("MAERI 256PE (homo)", &homo("maeri256"))
}

/// Table V: A7 dual-core, homogeneous 28 + 28 nm, 2.0 GHz.
pub fn a7_homo() -> Experiment {
    Experiment::new("A7 Dual-Core (homo)", &homo("a7"))
}

/// Table III: MAERI 16PE 4BW (the DFT study design), heterogeneous.
pub fn maeri16_hetero() -> Experiment {
    Experiment::new("MAERI 16PE 4BW (hetero)", &SessionSpec::new("maeri16"))
}

/// A down-scaled experiment for Criterion benches (seconds, not minutes).
pub fn bench_scale() -> Experiment {
    Experiment::new("MAERI 16PE (bench scale)", &SessionSpec::fast("maeri16"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_build_and_follow_paper_targets() {
        let t3 = maeri16_hetero();
        assert_eq!(t3.cfg.target_freq_mhz, 2500.0);
        assert!(t3.design.netlist.cell_count() > 500);
        let a7 = a7_homo();
        assert_eq!(a7.cfg.target_freq_mhz, 2000.0);
        assert!(!a7.design.tech.is_heterogeneous());
        let m = maeri128_hetero();
        assert!(m.design.tech.is_heterogeneous());
        assert!(m.design.netlist.cell_count() > t3.design.netlist.cell_count());
    }
}
