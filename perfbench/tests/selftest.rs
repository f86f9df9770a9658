//! Self-tests of the benchmark: its contract with `BENCHMARK.json`, a
//! tiny-scale run of every workload, and mutation checks showing that a
//! wrong classification is counted and fails the run.
//!
//! Run with `cargo test --release` from this directory.

use classbench::{generate_rules, ClassifierFamily, GeneratorConfig, TrafficSkew};
use dtree::{ClassifierHandle, DecisionTree, RebuildPolicy};
use perfbench::report::{result_line, Check, END_TO_END, PER_LAYER};
use perfbench::setup::{self, Scale};
use perfbench::tracer::Tracer;
use perfbench::{run, serve, Options, Workload};
use serde_json::Value;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let bench = benchmark_json();
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names(bench.get("end_to_end").unwrap()), owned(END_TO_END));
    assert_eq!(names(bench.get("per_layer").unwrap()), owned(PER_LAYER));
    let workloads: Vec<String> = names_only(bench.get("workloads").unwrap());
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

fn names_only(list: &Value) -> Vec<String> {
    list.as_array()
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

/// Tiny-scale options with a work directory of the calling test's own
/// (tests run in parallel).
fn tiny(test: &str, workload: Workload, traced: bool) -> Options {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{test}-{}-{}",
        workload.name(),
        u8::from(traced)
    ));
    Options { workload, seed: 7, seconds: 2.0, traced, work_dir: dir, scale: Scale::tiny() }
}

#[test]
fn every_workload_passes_verification_at_tiny_scale() {
    for workload in Workload::ALL {
        let out = run(&tiny("verify", workload, false))
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(out.check.attempted > 0, "{}: nothing was verified", workload.name());
        assert!(out.check.passed(), "{}: {:?}", workload.name(), out.check.notes);
        for (name, _) in END_TO_END {
            let v = out
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{}: {name} unset", workload.name()));
            assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", workload.name());
        }
        let line = result_line(&out.check, &out.metrics, false);
        let parsed: Value = serde_json::from_str(&line).expect("result line is JSON");
        assert_eq!(parsed.get("failed").and_then(Value::as_f64), Some(0.0));
    }
}

#[test]
fn traced_runs_report_layers_and_match_the_trainer() {
    for workload in Workload::ALL {
        let out = run(&tiny("traced", workload, true))
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        // The mirrored training is one of the checks: it must reproduce
        // the trainer exactly.
        assert!(out.check.passed(), "{}: {:?}", workload.name(), out.check.notes);
        for name in [
            "classbench.generate_rules.ms",
            "core.trainer.step.calls",
            "core.vecenv.collect.us_per_step",
            "nn.policy_value.infer.us_per_row",
            "rl.ppo.update.ms",
            "dtree.flat.compile.ms",
            "dtree.flat.classify_batch.ns_per_pkt",
            "dtree.serve.snapshot.classify_batch.ns_per_pkt",
            "dtree.serve.attempts",
            "dtree.wal.records",
            "core.persist.recover.ms",
            "trace.spans",
        ] {
            let v = out.metrics.get(name).unwrap_or(0.0);
            assert!(v > 0.0, "{}: {name} = {v}", workload.name());
        }
        assert!(out.metrics.get("trace.overhead_frac").is_some_and(f64::is_finite));
        let line = result_line(&out.check, &out.metrics, true);
        let parsed: Value = serde_json::from_str(&line).expect("result line is JSON");
        let metrics = parsed.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
    }
}

#[test]
fn same_seed_repeats_tree_and_traces_exactly() {
    let a = run(&tiny("repeat-a", Workload::Serve, false)).unwrap();
    let b = run(&tiny("repeat-b", Workload::Serve, false)).unwrap();
    let pick = |o: &perfbench::RunOutput, key: &str| {
        o.identity.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).unwrap()
    };
    for key in ["tree_stats_hash", "trace_hash.uniform"] {
        assert_eq!(pick(&a, key), pick(&b, key), "{key}");
    }
    for name in ["tree_time", "tree_bytes_per_rule"] {
        assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name}");
    }
}

fn untraced() -> Tracer {
    Tracer::new(false, Instant::now(), 1)
}

/// Mutation: serve a classifier built over other rules. Its answers are
/// wrong for this trace, and verification must say so.
#[test]
fn a_wrong_classifier_is_counted_and_fails_the_run() {
    let scale = Scale::tiny();
    let rules = generate_rules(&scale.rule_config());
    let mut t = Tracer::new(false, Instant::now(), 0);
    let trace = setup::trace(&rules, scale.trace_len, TrafficSkew::Uniform, 7, 1, &mut t);
    let truth: Vec<_> = trace.iter().map(|p| rules.classify(p)).collect();
    let other =
        generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, scale.rules).with_seed(99));
    let wrong = ClassifierHandle::new(DecisionTree::new(&other), RebuildPolicy::default_policy());
    let out = serve::serve_for(&wrong, &trace, scale.batch, Duration::from_millis(50), untraced());
    let mut check = Check::default();
    out.verify(&truth, scale.batch, &mut check);
    assert!(check.attempted > 0);
    assert!(check.failed > 0, "a classifier over other rules passed verification");
    assert!(!check.passed());
    assert!(result_line(&check, &Default::default(), true).starts_with("{\"correct\": false"));
}

/// Mutation: flip one answer of a correct reader.
#[test]
fn one_flipped_answer_is_one_failure() {
    let scale = Scale::tiny();
    let rules = generate_rules(&scale.rule_config());
    let mut t = Tracer::new(false, Instant::now(), 0);
    let trace = setup::trace(&rules, scale.trace_len, TrafficSkew::Uniform, 7, 1, &mut t);
    let truth: Vec<_> = trace.iter().map(|p| rules.classify(p)).collect();
    let handle = ClassifierHandle::new(DecisionTree::new(&rules), RebuildPolicy::default_policy());
    let mut out =
        serve::serve_for(&handle, &trace, scale.batch, Duration::from_millis(50), untraced());
    let mut clean = Check::default();
    out.verify(&truth, scale.batch, &mut clean);
    assert!(clean.passed() && clean.attempted > 0);
    let i = out.served.iter().position(|&s| s).unwrap() * scale.batch;
    out.results[i] = Some(out.results[i].map_or(0, |r| r + 1));
    let mut mutated = Check::default();
    out.verify(&truth, scale.batch, &mut mutated);
    assert_eq!(mutated.failed, 1);
    assert_eq!(mutated.attempted, clean.attempted);
}
