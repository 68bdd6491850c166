//! Guard: every registered fault site is reachable from CI.
//!
//! Two ways a seam can silently rot: no seeded plan ever arms it, or
//! the CI workflow never names it. Both are asserted here, so adding a
//! `FaultSite` without wiring it into coverage fails the test suite
//! instead of shipping a dead seam.

use gnnmls_faults::{FaultPlan, ALL_SITES};

/// Seeds pinned by CI storms and soak runs. Together they must give
/// every registered site at least one shot.
const COVERAGE_SEEDS: [u64; 5] = [1, 7, 42, 3, 21];

#[test]
fn every_site_is_armed_by_at_least_one_coverage_seed() {
    assert_eq!(
        ALL_SITES.len(),
        21,
        "a new site was registered: extend COVERAGE_SEEDS so it gets a shot"
    );
    let plans: Vec<FaultPlan> = COVERAGE_SEEDS
        .iter()
        .map(|&s| FaultPlan::from_seed(s))
        .collect();
    for site in ALL_SITES {
        assert!(
            plans.iter().any(|p| p.shots(site) > 0),
            "site `{site}` is not armed by any coverage seed {COVERAGE_SEEDS:?}"
        );
    }
}

#[test]
fn every_site_appears_in_the_ci_fault_matrix() {
    let workflow = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../.github/workflows/ci.yml"
    );
    let yml =
        std::fs::read_to_string(workflow).unwrap_or_else(|e| panic!("cannot read {workflow}: {e}"));
    for site in ALL_SITES {
        // An armed matrix entry is `<name>:<shots>` — a prose mention
        // without shots does not count as coverage.
        let entry = format!("{site}:");
        assert!(
            yml.contains(&entry),
            "site `{site}` has no armed entry in .github/workflows/ci.yml"
        );
    }
}
