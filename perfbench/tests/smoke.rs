//! Smoke test of the benchmark itself: every workload at a tiny size
//! (8-node swarms, a one-day 16-peer trace), untraced and traced. Every
//! metric `BENCHMARK.json` names must come out with its unit, and the
//! traced runs must reproduce the untraced outcomes bitwise (a
//! mismatch fails the run).

use perfbench::bench::{self, Options, WorkloadId};
use perfbench::seeds::instance_seed;
use perfbench::swarm::{self, SwarmKind};
use std::path::Path;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present");
        entry[at..]
            .split('"')
            .nth(3)
            .expect("string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn check(workload: WorkloadId, trace: bool) {
    let outcome = bench::run(&Options {
        workload,
        seed: 1,
        seconds: 0.0,
        trace,
        tiny: true,
    });
    assert!(
        outcome.correct,
        "{} trace={trace}: {:?}",
        workload.name(),
        outcome.error
    );
    assert!(outcome.attempted >= 1);
    assert_eq!(outcome.failed, 0);
    let section = if trace { "per_layer" } else { "end_to_end" };
    let want = listed(section);
    assert!(!want.is_empty());
    for (name, unit) in &want {
        let m = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{} trace={trace}: {name} missing", workload.name()));
        assert_eq!(&m.unit, unit, "{name}");
        assert!(m.value.is_finite(), "{name} = {}", m.value);
    }
    assert_eq!(
        outcome.metrics.len(),
        want.len(),
        "metrics beyond BENCHMARK.json"
    );
    let line = outcome.json();
    for key in [
        "\"correct\": true",
        "\"attempted\"",
        "\"failed\": 0",
        "\"metrics\"",
    ] {
        assert!(line.contains(key), "{line}");
    }
}

#[test]
fn swarm_rank_end_to_end_and_traced() {
    check(WorkloadId::SwarmRank, false);
    check(WorkloadId::SwarmRank, true);
}

#[test]
fn swarm_lossy_churn_end_to_end_and_traced() {
    check(WorkloadId::SwarmLossyChurn, false);
    check(WorkloadId::SwarmLossyChurn, true);
}

#[test]
fn trace_sim_end_to_end_and_traced() {
    check(WorkloadId::TraceSim, false);
    check(WorkloadId::TraceSim, true);
}

/// A known defect of the runtime, kept visible here rather than in the
/// smoke test's inputs: at 8 nodes the first-booted leecher, capped at
/// two sessions and with nobody to dial, ends the 900 s horizon with 1
/// of 32 pieces on this instance, while every other node's dials to it
/// fail about 2,500 times. The sessions it holds never bring it a
/// piece and are never shed.
#[test]
#[ignore = "known defect: a session-capped node can hold sessions that never serve it and starve"]
fn capped_first_node_completes_on_tiny_lossy_churn() {
    let config = swarm::config(SwarmKind::LossyChurn, 8, instance_seed(7, 1));
    let run = swarm::run_untraced(config);
    assert_eq!(run.snapshot.check(SwarmKind::LossyChurn), Ok(()));
}
