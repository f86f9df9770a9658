//! `bench_updates` — machine-readable live-update benchmark.
//!
//! Measures the update-under-load path: a [`ClassifierHandle`] serving
//! a synthetic trace from epoch-swapped snapshots across reader
//! threads while a seeded insert/delete churn schedule is replayed
//! against it. Reports updates/sec applied and the packet throughput
//! the readers sustained *during* churn, per baseline algorithm, and
//! writes `BENCH_updates.json` so the live-update trajectory is
//! tracked in CI from PR to PR.
//!
//! Correctness is gated like `bench_classify`: at checkpoints and at
//! the end, the served snapshot must be **bit-identical** to a
//! from-scratch `FlatTree::compile` of the handle's updated tree; any
//! divergence exits non-zero so the numbers can never mask a stale
//! snapshot.
//!
//! Scale is controlled by environment variables:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `NC_BENCH_SIZE` | rules in the classifier | 1000 |
//! | `NC_BENCH_TRACE` | packets in the serving trace | 4096 |
//! | `NC_BENCH_UPDATES` | insert/delete updates replayed | 2000 |
//! | `NC_BENCH_READERS` | concurrent reader threads | 2 |
//! | `NC_BENCH_CHURN` | rebuild threshold (fraction) | 0.10 |
//! | `NC_BENCH_ALGOS` | comma list of baselines | all four |
//! | `NC_BENCH_OUT` | output path | `BENCH_updates.json` |

use classbench::{generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, TraceConfig};
use dtree::{serve_during, ChurnSchedule, ClassifierHandle, RebuildPolicy};
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One measured row of the report.
struct Row {
    algo: String,
    updates: usize,
    updates_per_sec: f64,
    readers: usize,
    sustained_mpps: f64,
    rebuilds: u64,
    epoch: u64,
    checkpoints: usize,
}

fn main() {
    let size = env_usize("NC_BENCH_SIZE", 1000);
    let trace_len = env_usize("NC_BENCH_TRACE", 4096);
    let updates = env_usize("NC_BENCH_UPDATES", 2000);
    let readers = env_usize("NC_BENCH_READERS", 2).max(1);
    let max_churn = env_f64("NC_BENCH_CHURN", 0.10);
    let out_path =
        std::env::var("NC_BENCH_OUT").unwrap_or_else(|_| "BENCH_updates.json".to_string());
    let algos: Vec<String> = match std::env::var("NC_BENCH_ALGOS") {
        Ok(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
        Err(_) => nc_bench::BASELINE_NAMES.iter().map(|s| s.to_string()).collect(),
    };

    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, size).with_seed(1));
    let trace = generate_trace(&rules, &TraceConfig::new(trace_len).with_seed(2));
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "bench_updates: acl/{size} rules, {} packets, {updates} updates, {readers} reader(s), \
         rebuild at {:.0}% churn, {hw_threads} hardware thread(s)",
        trace.len(),
        max_churn * 100.0
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut failures = 0usize;
    for name in &algos {
        let tree = nc_bench::build_baseline(name, &rules);
        let policy = RebuildPolicy { max_churn, min_updates: 8, max_overlay: 256 };
        let handle = ClassifierHandle::new(tree, policy);

        let mut schedule =
            ChurnSchedule::new(rules.rules().to_vec(), (0..rules.len()).collect(), 3);
        let checkpoint_every = (updates / 8).max(1);

        let wall_start = Instant::now();
        let ((update_secs, checkpoints, checkpoint_failures), served) =
            serve_during(&handle, &trace, readers, || {
                // Updates/sec excludes the checkpoint verifications
                // (they are harness work, not update-path work); the
                // sustained Mpps uses the full wall clock since the
                // readers never stop.
                let mut update_secs = 0.0f64;
                let mut checkpoints = 0usize;
                let mut checkpoint_failures = 0usize;
                let mut seg_start = Instant::now();
                for i in 0..updates {
                    schedule.step(&handle);
                    if (i + 1).is_multiple_of(checkpoint_every) || i + 1 == updates {
                        update_secs += seg_start.elapsed().as_secs_f64();
                        checkpoints += 1;
                        if let Some(p) = handle.check_divergence(&trace) {
                            eprintln!("MISMATCH {name} snapshot vs rebuild at {p}");
                            checkpoint_failures += 1;
                        }
                        seg_start = Instant::now();
                    }
                }
                (update_secs, checkpoints, checkpoint_failures)
            });
        let churn_secs = wall_start.elapsed().as_secs_f64();

        failures += checkpoint_failures;
        let applied_per_sec = updates as f64 / update_secs.max(1e-9);
        let stats = handle.stats();
        let sustained_mpps = served as f64 / churn_secs.max(1e-9) / 1e6;
        rows.push(Row {
            algo: name.clone(),
            updates,
            updates_per_sec: applied_per_sec,
            readers,
            sustained_mpps,
            rebuilds: stats.rebuilds,
            epoch: stats.epoch,
            checkpoints,
        });
    }

    for r in &rows {
        eprintln!(
            "{:<10} {:>6} updates  {:>9.0} upd/s  {:>7.2} Mpps sustained ({} readers)  \
             {:>2} rebuilds  {} checkpoints",
            r.algo,
            r.updates,
            r.updates_per_sec,
            r.sustained_mpps,
            r.readers,
            r.rebuilds,
            r.checkpoints
        );
    }

    // Hand-rolled JSON: flat structure, no string escapes needed.
    let mut json = String::from("{\n  \"schema\": \"bench_updates/v1\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"family\": \"acl\", \"size\": {size}, \"trace\": {}, \"updates\": \
         {updates}, \"readers\": {readers}, \"max_churn\": {max_churn}, \"rule_seed\": 1, \
         \"trace_seed\": 2, \"schedule_seed\": 3, \"hw_threads\": {hw_threads}}},\n",
        trace.len()
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"algo\": \"{}\", \"updates\": {}, \"updates_per_sec\": {:.1}, \"readers\": \
             {}, \"sustained_mpps\": {:.3}, \"rebuilds\": {}, \"epoch\": {}, \"checkpoints\": \
             {}}}{}\n",
            r.algo,
            r.updates,
            r.updates_per_sec,
            r.readers,
            r.sustained_mpps,
            r.rebuilds,
            r.epoch,
            r.checkpoints,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    eprintln!("wrote {out_path}");

    if failures > 0 {
        eprintln!("{failures} correctness failures — numbers are not trustworthy");
        std::process::exit(1);
    }
}
