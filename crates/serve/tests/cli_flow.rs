//! The `gnnmls flow` verb end to end: a bad run description exits 1
//! with the typed message `SessionSpec` gives it, before any flow work,
//! and a good one writes its report.

use std::process::{Command, Output};

use gnn_mls::FlowReport;

fn gnnmls_flow(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gnnmls"))
        .arg("flow")
        .args(args)
        .output()
        .expect("gnnmls runs")
}

#[test]
fn bad_run_descriptions_exit_1_with_their_message() {
    for (args, message) in [
        (
            &["--freq", "inf"][..],
            "target frequency inf MHz is not a finite positive value",
        ),
        (
            &["--freq", "1e9"][..],
            "target frequency 1000000000 MHz is not a finite positive value",
        ),
        (&["--design", "nope"][..], "unknown design `nope`"),
        (&["--tech", "nope"][..], "unknown tech `nope` (hetero|homo)"),
        (
            &["--policy", "nope"][..],
            "unknown policy `nope` (no-mls|sota|gnn-mls)",
        ),
        (
            &["--fast", "--dft", "nope"][..],
            "unknown dft mode `nope` (net|wire)",
        ),
    ] {
        let out = gnnmls_flow(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(message),
            "{args:?}: `{message}` not in {stderr}"
        );
        assert!(
            !stderr.contains("running"),
            "{args:?} started a flow: {stderr}"
        );
    }
}

#[test]
fn good_run_description_writes_its_report() {
    let path = std::env::temp_dir().join(format!("gnnmls_cli_flow_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let json = path.to_str().expect("utf-8 temp path");
    let out = gnnmls_flow(&[
        "--design", "maeri16", "--fast", "--policy", "no-mls", "--json", json,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("@ 2500 MHz"), "{stderr}");
    let report: FlowReport =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("report written"))
            .expect("report is a FlowReport");
    assert_eq!(report.policy, "No MLS");
    assert_eq!(report.target_freq_mhz, 2500.0);
    assert!(report.endpoints > 0);
    let _ = std::fs::remove_file(&path);
}
