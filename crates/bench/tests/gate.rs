//! `bench_gate` end to end: the binary runs on temporary baseline and
//! fresh files written by the emitters' [`Report`], and its exit status
//! and summary line are checked.

use nc_bench::emit::Report;
use serde_json::{json, Value};
use std::process::{Command, Output};

/// A `bench_train`-shaped document: `config`, then two gated rows.
fn doc(config: Value, rates: [f64; 2]) -> String {
    let mut r = Report::new("train", config);
    r.set(
        "collect",
        rates.map(|sps| json!({"path": "vecenv", "workers": 1, "steps_per_sec": sps})),
    );
    r.render()
}

fn config() -> Value {
    json!({"family": "acl", "size": 300, "hw_threads": 1, "rule_seed": 1})
}

/// Run `bench_gate <baseline> <fresh>` at a 0.8 ratio floor; `None`
/// leaves the baseline file missing.
fn gate(case: &str, baseline: Option<String>, fresh: String) -> Output {
    let dir = std::env::temp_dir().join(format!("nc-bench-gate-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (base_path, fresh_path) = (dir.join("baseline.json"), dir.join("fresh.json"));
    if let Some(text) = baseline {
        std::fs::write(&base_path, text).unwrap();
    }
    std::fs::write(&fresh_path, fresh).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg(&base_path)
        .arg(&fresh_path)
        .env("NC_GATE_MIN_RATIO", "0.8")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn matching_config_within_ratio_passes() {
    // `hw_threads` describes the host, not the setup: it may differ.
    let mut fresh_config = config();
    fresh_config["hw_threads"] = json!(2);
    let out = gate("pass", Some(doc(config(), [100.0, 200.0])), doc(fresh_config, [90.0, 210.0]));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("2 metrics checked, 0 below"), "{}", stderr(&out));
}

#[test]
fn one_metric_under_the_ratio_fails() {
    let out = gate("regress", Some(doc(config(), [100.0, 200.0])), doc(config(), [70.0, 210.0]));
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("2 metrics checked, 1 below"), "{}", stderr(&out));
}

/// A `bench_sweep`-shaped document: one verified cell per tree shape,
/// at the same throughput.
fn cells(trees: [(u64, u64, u64, &str); 2]) -> String {
    let mut r = Report::new("sweep", config());
    r.set(
        "cells",
        trees.map(|(time, max_depth, nodes, trace_hash)| {
            json!({"family": "acl", "algo": "HiCuts", "mpps": 50.0, "time": time,
                   "max_depth": max_depth, "nodes": nodes, "trace_hash": trace_hash})
        }),
    );
    r.render()
}

#[test]
fn a_changed_tree_column_fails_at_any_throughput() {
    let base = [(3, 2, 81, "b1d9bb35cb1fad35"), (4, 3, 15, "b1d9bb35cb1fad35")];
    let out = gate("trees-same", Some(cells(base)), cells(base));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("8 tree columns checked, 0 changed"), "{}", stderr(&out));
    for (case, i, changed) in [
        ("time", 0, (4, 2, 81, "b1d9bb35cb1fad35")),
        ("max_depth", 1, (4, 4, 15, "b1d9bb35cb1fad35")),
        ("nodes", 0, (3, 2, 80, "b1d9bb35cb1fad35")),
        ("trace_hash", 1, (4, 3, 15, "0000000000000000")),
    ] {
        let mut fresh = base;
        fresh[i] = changed;
        let out = gate(case, Some(cells(base)), cells(fresh));
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{case}: {err}");
        let line = err.lines().find(|l| l.ends_with("CHANGED")).expect("the change is reported");
        assert!(line.starts_with(&format!("cells[{i}]")) && line.contains(case), "{line}");
        assert!(err.contains("0 below") && err.contains("1 changed"), "{case}: {err}");
    }
}

#[test]
fn config_drift_fails() {
    let changed = json!({"family": "acl", "size": 301, "hw_threads": 1, "rule_seed": 1});
    let reordered = json!({"size": 300, "family": "acl", "hw_threads": 1, "rule_seed": 1});
    let retyped = json!({"family": "acl", "size": "300", "hw_threads": 1, "rule_seed": 1});
    let dropped = json!({"family": "acl", "size": 300, "hw_threads": 1});
    for (case, drifted) in
        [("changed", changed), ("reordered", reordered), ("retyped", retyped), ("dropped", dropped)]
    {
        let out = gate(case, Some(doc(config(), [100.0, 200.0])), doc(drifted, [100.0, 200.0]));
        assert!(!out.status.success(), "{case}: {}", stderr(&out));
        assert!(stderr(&out).contains("config drift"), "{case}: {}", stderr(&out));
    }
}

#[test]
fn missing_baseline_skips() {
    let out = gate("missing", None, doc(config(), [100.0, 200.0]));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("skipping gate"), "{}", stderr(&out));
}
