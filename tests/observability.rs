//! Observability contract tests: tracing must be a pure observer.
//!
//! - Running the flow with a trace sink installed must produce a report
//!   bit-identical (modulo wall-clock runtime) to the untraced run.
//! - The emitted JSONL must contain a `flow` root span with every stage
//!   span nested under it, and the metrics registry must expose the
//!   router/flow metric families after one flow.

use std::sync::Arc;

use gnn_mls::flow::{run_flow, FlowConfig, FlowPolicy};
use gnn_mls::FlowReport;
use gnnmls_netlist::generators::{generate_maeri, GeneratedDesign, MaeriConfig};
use gnnmls_netlist::tech::TechConfig;
use gnnmls_obs::{install_guarded, MemorySink};

fn design() -> GeneratedDesign {
    let tech = TechConfig::heterogeneous_16_28(6, 6);
    generate_maeri(&MaeriConfig::pe16_bw4(), &tech).expect("generator succeeds")
}

fn run() -> FlowReport {
    run_flow(
        &design(),
        &FlowConfig::fast_test(2500.0),
        FlowPolicy::GnnMls,
    )
    .expect("flow succeeds")
}

/// Pulls `"key":<integer>` out of a JSONL record.
fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn extract_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

#[test]
fn tracing_on_and_off_are_bit_identical() {
    let untraced = run().comparable();
    let traced = {
        let _guard = install_guarded(Arc::new(MemorySink::new()));
        run().comparable()
    };
    let a = serde_json::to_string(&untraced).expect("serialize untraced");
    let b = serde_json::to_string(&traced).expect("serialize traced");
    assert_eq!(a, b, "a trace sink must never perturb the flow's results");
}

#[test]
fn flow_trace_nests_every_stage_and_registers_metric_families() {
    let sink = Arc::new(MemorySink::new());
    let lines = {
        let _guard = install_guarded(sink.clone());
        // Enable PDN analysis so every stage span (including `pdn`) fires.
        let mut cfg = FlowConfig::fast_test(2500.0);
        cfg.analyze_pdn = true;
        run_flow(&design(), &cfg, FlowPolicy::GnnMls).expect("flow succeeds");
        sink.lines()
    };

    let spans: Vec<&String> = lines
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"span\""))
        .collect();
    let flow = spans
        .iter()
        .find(|l| extract_str(l, "name") == Some("flow"))
        .expect("flow root span emitted");
    let flow_id = extract_u64(flow, "id").expect("flow span id");
    assert!(
        flow.contains("\"parent\":null"),
        "flow span is the root: {flow}"
    );

    // Every stage of this configuration (hetero tech, GnnMls policy,
    // no DFT) must appear as a direct child of the flow span.
    for stage in [
        "place",
        "level_shifters",
        "repeaters",
        "decisions",
        "route",
        "audit_routes",
        "sta",
        "power",
        "pdn",
    ] {
        let s = spans
            .iter()
            .find(|l| extract_str(l, "name") == Some(stage))
            .unwrap_or_else(|| panic!("missing stage span `{stage}`"));
        assert_eq!(
            extract_u64(s, "parent"),
            Some(flow_id),
            "stage `{stage}` must nest under the flow span: {s}"
        );
    }

    // The learning stages nest under `decisions`, and pretraining
    // reports the steps it took.
    let decisions = spans
        .iter()
        .find(|l| extract_str(l, "name") == Some("decisions"))
        .expect("decisions span emitted");
    let decisions_id = extract_u64(decisions, "id").expect("decisions span id");
    for stage in [
        "route_all",
        "paths",
        "oracle",
        "pretrain",
        "finetune",
        "evaluate",
        "decide",
    ] {
        let s = spans
            .iter()
            .find(|l| extract_str(l, "name") == Some(stage))
            .unwrap_or_else(|| panic!("missing decisions stage span `{stage}`"));
        assert_eq!(
            extract_u64(s, "parent"),
            Some(decisions_id),
            "stage `{stage}` must nest under the decisions span: {s}"
        );
    }
    let pretrain = spans
        .iter()
        .find(|l| extract_str(l, "name") == Some("pretrain"))
        .expect("pretrain span");
    assert!(
        extract_u64(pretrain, "steps").is_some_and(|n| n > 0),
        "pretrain reports its steps: {pretrain}"
    );

    // One routed flow touches the router + flow metric families; the
    // acceptance bar is at least 8 distinct names in the exposition.
    let exposition = gnnmls_obs::render();
    let names: std::collections::BTreeSet<&str> = exposition
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| l.split([' ', '{']).next())
        .collect();
    assert!(
        names.len() >= 8,
        "expected >= 8 distinct metric names, got {}: {names:?}",
        names.len()
    );
    for family in [
        "gnnmls_route_astar_searches_total",
        "gnnmls_route_astar_expansions_total",
        "gnnmls_route_ripup_rounds_total",
        "gnnmls_route_gcell_overflow",
        "gnnmls_route_mls_borrow_total",
    ] {
        assert!(
            exposition.contains(family),
            "missing {family} in exposition:\n{exposition}"
        );
    }
}
