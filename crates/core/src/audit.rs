//! Cross-stage invariant auditing for the flow and the serve daemon.
//!
//! The route-level checks live in [`gnnmls_route::audit`]; this module
//! turns their violation lists into typed [`FlowError::AuditFailed`]
//! values and adds the flow-level checks the route crate cannot see:
//! a resumed report envelope must describe the run that asked for it
//! (same design, same policy) and carry sane aggregate numbers.
//!
//! Where the auditor runs:
//! - inside [`crate::flow::route_and_time`] (full), so on every DB it
//!   routes: the GNN-MLS learning baseline (`baseline`) before the
//!   oracle labels it, the DFT ECO re-route (`dft-reroute`), a
//!   [`crate::session::DesignSession`] build (`session-build`) and each
//!   `gnnmls_zoo` corpus design (`corpus`);
//! - after the routing stage of [`crate::flow::run_flow`] — fresh or
//!   resumed from a checkpoint, the DB is proven before STA reads it;
//! - on a resumed `report-<policy>` stage (consistency, not recount);
//! - on every serve warm cache hit (cheap mode).

use gnnmls_netlist::Netlist;
use gnnmls_route::{audit_route_db, AuditMode, MlsPolicy, RouteDb, RoutingGrid};

use crate::flow::{FlowError, FlowPolicy};
use crate::report::FlowReport;

/// Audits a route DB and converts violations into
/// [`FlowError::AuditFailed`], tagged with the flow stage that
/// produced the DB.
///
/// # Errors
///
/// Returns [`FlowError::AuditFailed`] when any invariant is violated.
pub fn check_routes(
    netlist: &Netlist,
    grid: &RoutingGrid,
    policy: &MlsPolicy,
    db: &RouteDb,
    mode: AuditMode,
    stage: &str,
) -> Result<(), FlowError> {
    let violations = audit_route_db(netlist, grid, policy, db, mode);
    match violations.first() {
        None => Ok(()),
        Some(first) => Err(FlowError::AuditFailed {
            stage: stage.to_string(),
            violations: violations.len(),
            first: first.to_string(),
        }),
    }
}

/// Checks a resumed report envelope against the run that loaded it:
/// the checkpoint must describe this design under this policy, and its
/// aggregates must be internally consistent. Catches a resume directory
/// shared between incompatible runs, which the per-stage checksums
/// cannot (each file is individually valid).
///
/// # Errors
///
/// Returns [`FlowError::AuditFailed`] when the envelope disagrees.
pub fn check_report(
    report: &FlowReport,
    design: &str,
    policy: FlowPolicy,
) -> Result<(), FlowError> {
    let mut problems: Vec<String> = Vec::new();
    if report.policy != policy.name() {
        problems.push(format!(
            "report is for policy `{}`, run requested `{}`",
            report.policy,
            policy.name()
        ));
    }
    if report.design != design {
        problems.push(format!(
            "report is for design `{}`, run requested `{}`",
            report.design, design
        ));
    }
    if report.violating_paths > report.endpoints {
        problems.push(format!(
            "{} violating paths out of {} endpoints",
            report.violating_paths, report.endpoints
        ));
    }
    for (name, v) in [
        ("wirelength_m", report.wirelength_m),
        ("wns_ps", report.wns_ps),
        ("tns_ns", report.tns_ns),
        ("power_mw", report.power_mw),
        ("eff_freq_mhz", report.eff_freq_mhz),
    ] {
        if !v.is_finite() {
            problems.push(format!("{name} is not finite ({v})"));
        }
    }
    if report.wirelength_m < 0.0 || report.power_mw < 0.0 {
        problems.push("negative wirelength or power".to_string());
    }
    match problems.first() {
        None => Ok(()),
        Some(first) => Err(FlowError::AuditFailed {
            stage: "report".to_string(),
            violations: problems.len(),
            first: first.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{run_flow, FlowConfig};
    use gnnmls_netlist::generators::{generate_maeri, MaeriConfig};
    use gnnmls_netlist::tech::TechConfig;

    fn report() -> FlowReport {
        let tech = TechConfig::heterogeneous_16_28(6, 6);
        let d = generate_maeri(&MaeriConfig::pe16_bw4(), &tech).unwrap();
        run_flow(&d, &FlowConfig::fast_test(2500.0), FlowPolicy::NoMls).unwrap()
    }

    #[test]
    fn clean_report_passes_for_its_own_run() {
        let r = report();
        check_report(&r, &r.design.clone(), FlowPolicy::NoMls).unwrap();
    }

    #[test]
    fn report_for_the_wrong_policy_is_caught() {
        let r = report();
        let err = check_report(&r, &r.design.clone(), FlowPolicy::Sota).unwrap_err();
        match err {
            FlowError::AuditFailed { stage, first, .. } => {
                assert_eq!(stage, "report");
                assert!(first.contains("policy"), "{first}");
            }
            other => panic!("expected AuditFailed, got {other}"),
        }
    }

    #[test]
    fn report_with_poisoned_numbers_is_caught() {
        let mut r = report();
        let design = r.design.clone();
        r.wns_ps = f64::NAN;
        assert!(check_report(&r, &design, FlowPolicy::NoMls).is_err());
        let mut r2 = report();
        r2.violating_paths = r2.endpoints + 1;
        assert!(check_report(&r2, &design, FlowPolicy::NoMls).is_err());
    }
}
