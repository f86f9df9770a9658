//! `bench_recovery` — machine-readable crash-recovery latency
//! benchmark.
//!
//! Measures what the durability layer costs at the worst possible
//! moment: the process is gone and a replacement must reach "serving,
//! proven correct" from the on-disk checkpoint + WAL chain. For each
//! target WAL length the harness attaches persistence to a live
//! classifier, churns exactly that many logged updates *without*
//! checkpointing behind them, then times [`neurocuts::recover`] —
//! which includes torn-tail inspection, admission-controlled replay,
//! the linear-scan spot proof over the full trace, and the fresh
//! re-checkpoint. Writes `BENCH_recovery.json` so recovery latency is
//! tracked from PR to PR.
//!
//! The row metrics (`recovery_ms`, `us_per_record`, `wal_records`,
//! `checkpoint_bytes`) are deliberately named outside `bench_gate`'s
//! gated METRICS: recovery latency is reported, never gated — it is a
//! cold-path cost and noisy on shared runners.
//!
//! Correctness gates (exit non-zero, numbers never mask a bug):
//!
//! * every recovered handle must match the live handle it was
//!   persisted from — epoch, tree statistics, and every packet of the
//!   trace;
//! * a clean directory must recover with no torn tail and replay every
//!   logged record.
//!
//! The scale is fixed (ACL-200 rules, a 1024-packet proof trace);
//! `NC_BENCH_OUT` sets the output path (default `BENCH_recovery.json`).

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, Dim, GeneratorConfig, TraceConfig,
};
use dtree::{ChurnSchedule, ClassifierHandle, DecisionTree, RebuildPolicy, TreeStats};
use nc_bench::emit::Report;
use neurocuts::{recover, PersistConfig, Persistence};
use serde_json::json;
use std::time::Instant;

const SIZE: usize = 200;
const TRACE: usize = 1024;
const WAL_TARGETS: [usize; 4] = [0, 128, 512, 1024];
const SEED: u64 = 0xBE9C_0BE5;

fn main() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, SIZE).with_seed(SEED));
    let trace = generate_trace(&rules, &TraceConfig::new(TRACE).with_seed(SEED ^ 0x7ACE));
    eprintln!(
        "bench_recovery: acl/{SIZE} rules, {} probe packets, WAL targets {WAL_TARGETS:?}",
        trace.len()
    );
    let mut report = Report::new(
        "recovery",
        json!({
            "family": "acl", "size": SIZE, "trace": trace.len(), "seed": SEED,
            "wal_targets": WAL_TARGETS,
        }),
    );

    let mut rows = Vec::new();
    for (i, &target) in WAL_TARGETS.iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("nc-bench-recovery-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // A hand-cut starting tree: recovery latency should measure
        // the durability layer, not RL training time.
        let mut tree = DecisionTree::new(&rules);
        for k in tree.cut_node(tree.root(), Dim::SrcIp, 8) {
            if !tree.is_terminal(k, 8) {
                tree.cut_node(k, Dim::DstIp, 4);
            }
        }
        let live = ClassifierHandle::new(tree, RebuildPolicy::default_policy());
        let persistence = Persistence::new(&dir);
        let attach = persistence.checkpoint(&live, SEED).expect("attach checkpoint");

        // Exactly `target` logged updates behind the checkpoint, none
        // folded: the WAL is the whole replay cost.
        let mut churn = ChurnSchedule::new(rules.rules().to_vec(), Vec::new(), SEED ^ i as u64);
        for _ in 0..target {
            churn.step(&live);
        }
        let logged = live.health().wal_len.unwrap_or(0);

        let started = Instant::now();
        let (recovered, recovery) =
            recover(&dir, RebuildPolicy::default_policy(), &trace, &PersistConfig::default())
                .expect("recovery from a clean directory");
        let recovery_ms = started.elapsed().as_secs_f64() * 1e3;

        report.check(
            recovery.truncated_tail.is_none(),
            format!("target {target}: clean directory reported a torn tail"),
        );
        report.check(
            recovery.replayed == logged,
            format!("target {target}: replayed {} of {logged} logged records", recovery.replayed),
        );
        report.check(
            recovered.epoch() == live.epoch(),
            format!(
                "target {target}: recovered epoch {} != live epoch {}",
                recovered.epoch(),
                live.epoch()
            ),
        );
        report.check(
            recovered.with_tree(TreeStats::compute) == live.with_tree(TreeStats::compute),
            format!("target {target}: recovered tree statistics diverged"),
        );
        let mut got = vec![None; trace.len()];
        let mut want = vec![None; trace.len()];
        recovered.snapshot().classify_batch(&trace, &mut got);
        live.snapshot().classify_batch(&trace, &mut want);
        report.check(
            got == want,
            format!("target {target}: recovered classification diverged from live"),
        );

        let us_per_record = recovery_ms * 1e3 / recovery.replayed.max(1) as f64;
        eprintln!(
            "wal {target:>5} -> {:>5} replayed in {recovery_ms:>8.2}ms ({us_per_record:>7.2}us/record, \
             checkpoint {} bytes, epoch {})",
            recovery.replayed,
            attach.bytes,
            recovery.epoch
        );
        rows.push(json!({
            "wal_target": target, "wal_records": recovery.replayed, "recovery_ms": recovery_ms,
            "us_per_record": us_per_record, "checkpoint_bytes": attach.bytes,
            "epoch": recovery.epoch,
        }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let targets = rows.len();
    report.set("rows", rows);
    report.set("verification", json!({"targets": targets, "failures": report.failures()}));
    report.finish();
}
