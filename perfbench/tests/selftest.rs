//! Self-tests of the benchmark at a tiny database size.

use complexobj::UpdateQuery;
use perfbench::metrics::{Def, END_TO_END, PER_LAYER};
use perfbench::report::Metric;
use perfbench::run::{end_to_end, traced, RunOptions};
use perfbench::workload::{find, set_up, WORKLOADS};
use std::path::PathBuf;

/// 300 parents instead of 10,000; every pool, cache and NumTop shrinks
/// by the same factor.
const TINY: f64 = 0.03;

fn opts(seed: u64, seconds: f64) -> RunOptions {
    RunOptions {
        seed,
        seconds,
        scale: TINY,
    }
}

fn assert_declared(metrics: &[Metric], defs: &[Def], what: &str) {
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    let want: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
    assert_eq!(got, want, "{what}");
    for m in metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for w in &WORKLOADS {
        let e2e = end_to_end(w, &opts(1, 0.3)).expect("end-to-end run");
        assert_declared(&e2e.metrics, &END_TO_END, w.name);
        assert!(
            e2e.correct && e2e.failed == 0,
            "{}: {:?}",
            w.name,
            e2e.report
        );
        for m in &e2e.metrics {
            assert!(
                m.value > 0.0,
                "{}: end-to-end {} must never be 0",
                w.name,
                m.name
            );
        }

        let tr = traced(w, &opts(1, 0.4)).expect("traced run");
        assert_declared(&tr.metrics, &PER_LAYER, w.name);
        assert!(tr.correct && tr.failed == 0, "{}: {:?}", w.name, tr.report);
        assert!(
            tr.report.iter().any(|l| l.ends_with("-> identical")),
            "{}: traced and untraced page I/O must match",
            w.name
        );
    }
}

#[test]
fn benchmark_json_declares_the_same_workloads_and_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in &WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name)),
            "{}",
            w.name
        );
    }
    let declared = text.matches("\"name\": ").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn an_injected_wrong_answer_raises_failed_ratio() {
    let w = find("paper_range").expect("workload");
    let o = opts(7, 1.0);
    let params = w.params(o.seed, o.scale);
    let mut inst = set_up(w, &params, o.scale, false).expect("set-up");
    let clean = inst.run_each(w.strategy, 50, false);
    assert_eq!(clean.failed, 0);
    assert_eq!(clean.failed_ratio(), 0.0);

    // A write the oracle never sees: from now on every answer over ret1
    // differs from the expected one.
    let children = cor_workload::generate(&params)
        .spec
        .child_rels
        .iter()
        .flatten()
        .map(|s| s.oid)
        .collect();
    inst.engine
        .update(&UpdateQuery {
            targets: children,
            new_ret1: 5000,
        })
        .expect("phantom update");
    let after = inst.run_each(w.strategy, 200, false);
    assert!(after.failed > 0, "wrong answers must be counted");
    assert!(after.failed_ratio() > 0.0);
}

#[test]
fn a_second_seed_changes_the_inputs_not_the_metric_set() {
    let w = find("durable_update").expect("workload");
    let (a, b) = (w.params(1, TINY), w.params(2, TINY));
    let (ga, gb) = (cor_workload::generate(&a), cor_workload::generate(&b));
    assert_ne!(ga.spec.parents, gb.spec.parents, "database differs");
    assert_ne!(
        cor_workload::generate_sequence(&a),
        cor_workload::generate_sequence(&b),
        "operation stream differs"
    );
    let ra = end_to_end(w, &opts(1, 0.3)).expect("seed 1");
    let rb = end_to_end(w, &opts(2, 0.3)).expect("seed 2");
    let names = |ms: &[Metric]| ms.iter().map(|m| (m.name, m.unit)).collect::<Vec<_>>();
    assert_eq!(names(&ra.metrics), names(&rb.metrics));
    assert!(ra.correct && rb.correct);
}
