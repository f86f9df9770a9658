//! `bench_sweep` — the scenario-matrix emitter: every ClassBench
//! family × ruleset size × generator seed × traffic skew × algorithm,
//! one consolidated JSON, every cell verified.
//!
//! The figure binaries each reproduce one hand-picked slice of the
//! paper's evaluation; this emitter runs the full matrix through the
//! unified [`Classifier`] trait (NeuroCuts plus all five baselines)
//! the way artifact-grade evaluations do: one harness, one output,
//! nothing unverified. Per cell it records flat-batch throughput
//! (Mpps), the paper's worst-case classification time (`time`, i.e.
//! `T_root`), bytes/rule, compiled footprint, and build time, and —
//! before any number is written — checks **every sampled packet** of
//! the cell's trace against the rule set's linear scan through both
//! the scalar and the batched path. Any mismatch anywhere exits
//! non-zero: the matrix can never outlive correctness.
//!
//! Scale is controlled by environment variables:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `NC_FAMILIES` | comma list of `acl,fw,ipc` | all three |
//! | `NC_SIZES` | comma list of rules-per-classifier | `300,1000,10000` |
//! | `NC_SEEDS` | comma list of generator seeds | `0,1` |
//! | `NC_SKEWS` | comma list of traffic skews (`uniform`, `zipf[:EXP]`, `locality[:SETxBURST]`) | `uniform,zipf,locality` |
//! | `NC_TIMESTEPS` | RL timesteps per NeuroCuts cell | 2000 |
//! | `NC_BENCH_TRACE` | packets per cell (verified + measured) | 2048 |
//! | `NC_BENCH_MS` | target measure time per cell (ms) | 80 |
//! | `NC_BENCH_OUT` | output path | `BENCH_sweep.json` |
//!
//! Each (family, size, seed) rule set runs all six algorithms, built
//! once and re-measured under every skew, so the traffic axis isolates
//! the trace distribution rather than rebuild noise. The JSON carries a
//! `cells` array (one row per matrix cell) and a `summary` array
//! (median flat-batch Mpps per family × algorithm) that CI's
//! `bench_gate` gates against the committed smoke baseline.

use baselines::Classifier;
use classbench::{
    generate_rules, generate_skewed_trace, trace_hash, ClassifierFamily, GeneratorConfig, Packet,
    RuleSet, SkewedTraceConfig, TrafficSkew,
};
use nc_bench::emit::{knob, measure_ns, Report};
use nc_bench::CLASSIFIER_NAMES;
use neurocuts::NeuroCutsConfig;
use serde_json::{json, Value};

/// The comma list in environment variable `name` (or `default`).
fn list(name: &str, default: &str) -> Vec<String> {
    let raw = knob(name, default.to_string());
    raw.split(',').map(|t| t.trim().to_string()).filter(|t| !t.is_empty()).collect()
}

/// Verify one classifier against the linear scan over `trace` through
/// both lookup paths; returns the number of mismatching packets.
fn verify_cell(c: &dyn Classifier, rules: &RuleSet, trace: &[Packet]) -> usize {
    let truth: Vec<Option<usize>> = trace.iter().map(|p| rules.classify(p)).collect();
    let mut batch = vec![None; trace.len()];
    c.classify_batch(trace, &mut batch);
    let mut bad = 0usize;
    for (i, p) in trace.iter().enumerate() {
        let scalar = c.classify(p);
        if scalar != truth[i] || batch[i] != truth[i] {
            if bad < 5 {
                eprintln!(
                    "MISMATCH {}: scalar {scalar:?} batch {:?} truth {:?} at {p}",
                    c.name(),
                    batch[i],
                    truth[i]
                );
            }
            bad += 1;
        }
    }
    bad
}

fn main() {
    let families: Vec<ClassifierFamily> = list("NC_FAMILIES", "acl,fw,ipc")
        .iter()
        .map(|t| {
            ClassifierFamily::ALL
                .into_iter()
                .find(|f| f.tag() == t.as_str())
                .unwrap_or_else(|| panic!("unknown family {t}"))
        })
        .collect();
    let sizes: Vec<usize> = list("NC_SIZES", "300,1000,10000")
        .iter()
        .map(|t| t.parse().unwrap_or_else(|_| panic!("bad size {t}")))
        .collect();
    let seeds: Vec<u64> = list("NC_SEEDS", "0,1")
        .iter()
        .map(|t| t.parse().unwrap_or_else(|_| panic!("bad seed {t}")))
        .collect();
    let skew_tags = list("NC_SKEWS", "uniform,zipf,locality");
    let skews: Vec<(String, TrafficSkew)> = skew_tags
        .iter()
        .map(|t| (t.clone(), TrafficSkew::parse(t).unwrap_or_else(|| panic!("unknown skew {t}"))))
        .collect();
    let timesteps: usize = knob("NC_TIMESTEPS", 2000);
    let trace_len: usize = knob("NC_BENCH_TRACE", 2048);
    let target_ms: u64 = knob("NC_BENCH_MS", 80);

    let total_cells =
        families.len() * sizes.len() * seeds.len() * skews.len() * CLASSIFIER_NAMES.len();
    eprintln!(
        "bench_sweep: {} families x {} sizes x {} seeds x {} skews x {} algorithms = {} cells, \
         {trace_len} packets/cell",
        families.len(),
        sizes.len(),
        seeds.len(),
        skews.len(),
        CLASSIFIER_NAMES.len(),
        total_cells
    );
    let join = |v: Vec<String>| v.join(",");
    let mut report = Report::new(
        "sweep",
        json!({
            "families": join(families.iter().map(|f| f.tag().to_string()).collect()),
            "sizes": join(sizes.iter().map(|s| s.to_string()).collect()),
            "seeds": join(seeds.iter().map(|s| s.to_string()).collect()),
            "skews": join(skew_tags), "algos": CLASSIFIER_NAMES.join(","),
            "timesteps": timesteps, "trace": trace_len, "ms": target_ms,
        }),
    );

    let mut cells: Vec<Value> = Vec::with_capacity(total_cells);
    let mut mismatches = 0usize;
    for &family in &families {
        for &size in &sizes {
            for &seed in &seeds {
                let cfg = GeneratorConfig::new(family, size).with_seed(seed);
                let rules = generate_rules(&cfg);
                eprintln!("== {} ({} rules, seed {seed})", cfg.label(), rules.len());

                // Build each classifier once per rule set; NeuroCuts
                // trains under the env-scaled budget with the cell's
                // seed, so every cell is reproducible from its row.
                let nc_cfg = NeuroCutsConfig::small(timesteps).with_seed(seed);
                let classifiers: Vec<Box<dyn Classifier>> = CLASSIFIER_NAMES
                    .iter()
                    .map(|a| nc_bench::build_classifier(a, &rules, &nc_cfg))
                    .collect();
                for c in &classifiers {
                    let s = c.stats();
                    eprintln!(
                        "   built {:<10} in {:>7.3}s  time {:>3}  bytes/rule {:>9.1}  nodes {:>7}",
                        c.name(),
                        s.build_secs,
                        s.time(),
                        s.tree.bytes_per_rule,
                        s.tree.nodes
                    );
                }

                for (tag, skew) in &skews {
                    // The trace seed folds in the generator seed but
                    // not the skew: the *same* seed under different
                    // skews isolates the distribution change.
                    let tcfg = SkewedTraceConfig::new(trace_len, *skew).with_seed(seed ^ 0x5eed);
                    let trace = generate_skewed_trace(&rules, &tcfg);
                    let thash = trace_hash(&trace);
                    for c in &classifiers {
                        let bad = verify_cell(c.as_ref(), &rules, &trace);
                        mismatches += bad;
                        let mut out = vec![None; trace.len()];
                        let (ns, mpps) = measure_ns(trace.len(), target_ms, || {
                            c.classify_batch(&trace, &mut out);
                            std::hint::black_box(&out);
                        });
                        let s = c.stats();
                        eprintln!(
                            "   {:<10} {tag:<10} {mpps:>8.2} Mpps  ({ns:>7.1} ns/pkt)  {}",
                            c.name(),
                            if bad == 0 { "verified" } else { "MISMATCH" }
                        );
                        cells.push(json!({
                            "family": family.tag(), "size": size, "seed": seed, "skew": tag,
                            "algo": c.name(), "mpps": mpps, "ns_per_packet": ns,
                            "time": s.time(), "max_depth": s.tree.max_depth,
                            "nodes": s.tree.nodes, "bytes_per_rule": s.tree.bytes_per_rule,
                            "resident_bytes": s.resident_bytes, "build_secs": s.build_secs,
                            "trace_hash": format!("{thash:016x}"), "mismatches": bad,
                        }));
                    }
                }
            }
        }
    }

    // Per-family x algorithm flat-batch summary (median over cells) —
    // the rows CI's bench_gate tracks, plus a printed tradeoff table.
    eprintln!("\ntradeoff summary (median over cells, flat-batch path):");
    eprintln!(
        "{:<6} {:<10} {:>6} {:>10} {:>8} {:>12} {:>10}",
        "family", "algo", "cells", "Mpps", "time", "bytes/rule", "build s"
    );
    let mut summary = Vec::new();
    for &family in &families {
        for algo in CLASSIFIER_NAMES {
            let sel: Vec<&Value> = cells
                .iter()
                .filter(|c| c["family"].as_str() == Some(family.tag()))
                .filter(|c| c["algo"].as_str() == Some(algo))
                .collect();
            if sel.is_empty() {
                continue;
            }
            let med = |key: &str| {
                let xs: Vec<f64> =
                    sel.iter().map(|c| c[key].as_f64().expect("numeric cell field")).collect();
                nc_bench::median(&xs)
            };
            let (mpps, time, bpr, build) =
                (med("mpps"), med("time"), med("bytes_per_rule"), med("build_secs"));
            eprintln!(
                "{:<6} {algo:<10} {:>6} {mpps:>10.2} {time:>8.1} {bpr:>12.1} {build:>10.3}",
                family.tag(),
                sel.len()
            );
            summary.push(json!({
                "family": family.tag(), "algo": algo, "path": "flat_batch", "cells": sel.len(),
                "mpps": mpps, "time": time, "bytes_per_rule": bpr, "build_secs": build,
            }));
        }
    }

    eprintln!(
        "\n{mismatches} packets diverged from the linear scan over {} cells ({trace_len} packets \
         each)",
        cells.len()
    );
    let verified =
        json!({"packets_per_cell": trace_len, "cells": cells.len(), "mismatches": mismatches});
    report.set("cells", cells);
    report.set("summary", summary);
    report.set("verified", verified);
    report.check(
        mismatches == 0,
        format!("{mismatches} packets diverged from the linear-scan ground truth"),
    );
    report.finish();
}
