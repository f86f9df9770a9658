//! A sharded, multi-core serving engine over a published [`Snapshot`].
//!
//! The paper's end product classifies packets on the datapath; this
//! module is the deployment harness around a serving snapshot: a trace
//! is sharded into contiguous chunks, one per worker, and each worker
//! drives the snapshot's batched lookup ([`Snapshot::classify_batch`]:
//! the compiled tree's wavefront, then the insert-overlay merge) over
//! its shard. The snapshot is shared read-only (`&Snapshot` — no
//! locks, no cloning), workers are scoped threads, and results land in
//! disjoint sub-slices of the caller's output buffer, so the combined
//! output is **bit-identical** to running scalar [`Snapshot::classify`]
//! over the whole trace in order.
//!
//! A bare tree is a snapshot with an empty overlay:
//! `ClassifierHandle::new(tree, RebuildPolicy::never()).snapshot()`.
//! Serving while updates land is [`crate::serve_during`]'s job; it
//! re-fetches the newest snapshot before each batch.
//!
//! [`run_engine`] wraps the sharded lookup in a timing loop and
//! reports aggregate packets/sec — the serving-throughput number the
//! `serve-bench` CLI subcommand records per thread count and
//! `bench_train` records for the tree it trained.

use crate::node::RuleId;
use crate::serve::Snapshot;
use classbench::Packet;

/// How a serving run is sharded and measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads the trace is sharded across (min 1).
    pub threads: usize,
    /// Times the whole trace is classified; the report aggregates all
    /// passes. More passes smooth out scheduler noise on short traces.
    pub passes: usize,
}

impl EngineConfig {
    /// `threads` workers, one timing pass.
    pub fn new(threads: usize) -> Self {
        EngineConfig { threads: threads.max(1), passes: 1 }
    }

    /// Set the number of timing passes (min 1).
    pub fn with_passes(mut self, passes: usize) -> Self {
        self.passes = passes.max(1);
        self
    }
}

/// Aggregate result of a timed [`run_engine`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineReport {
    /// Worker threads used.
    pub threads: usize,
    /// Total packets classified across all passes.
    pub packets: usize,
    /// Wall-clock seconds for all passes.
    pub seconds: f64,
    /// Aggregate throughput: `packets / seconds`.
    pub packets_per_sec: f64,
}

/// Classify `trace` into `out` using `threads` workers over the shared
/// snapshot. Shards are contiguous chunks, so `out[i]` is exactly what
/// `snap.classify(&trace[i])` returns regardless of the thread count.
///
/// # Panics
/// Panics if `trace` and `out` have different lengths.
pub fn classify_sharded(
    snap: &Snapshot,
    trace: &[Packet],
    out: &mut [Option<RuleId>],
    threads: usize,
) {
    // nc-lint: allow(no-panic-in-serving, error-taxonomy, reason = "documented length-contract guard (see # Panics); misuse is a caller bug, not runtime input")
    assert_eq!(trace.len(), out.len(), "output slice must match the trace");
    let threads = threads.max(1);
    if threads == 1 || trace.len() < 2 {
        snap.classify_batch(trace, out);
        return;
    }
    // Ceiling division so every packet lands in one of <= `threads`
    // contiguous shards (the last shard may be short).
    let shard = trace.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (pkts, results) in trace.chunks(shard).zip(out.chunks_mut(shard)) {
            scope.spawn(move || snap.classify_batch(pkts, results));
        }
    });
}

/// Time a sharded serving run over `cfg.passes` passes and report the
/// aggregate packets/sec. Returns the classification results (which
/// are identical on every pass, and identical to scalar
/// [`Snapshot::classify`]) alongside the report.
///
/// Workers are spawned **once** and loop their passes internally, so
/// the measurement amortises thread start-up the way a long-lived
/// serving process would, instead of paying it once per pass.
pub fn run_engine(
    snap: &Snapshot,
    trace: &[Packet],
    cfg: EngineConfig,
) -> (Vec<Option<RuleId>>, EngineReport) {
    let threads = cfg.threads.max(1);
    let mut out = vec![None; trace.len()];
    let start = std::time::Instant::now();
    if threads == 1 || trace.len() < 2 {
        for _ in 0..cfg.passes {
            snap.classify_batch(trace, &mut out);
        }
    } else {
        let shard = trace.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (pkts, results) in trace.chunks(shard).zip(out.chunks_mut(shard)) {
                scope.spawn(move || {
                    for _ in 0..cfg.passes {
                        snap.classify_batch(pkts, results);
                    }
                });
            }
        });
    }
    let seconds = start.elapsed().as_secs_f64();
    let packets = trace.len() * cfg.passes;
    let report = EngineReport {
        threads,
        packets,
        seconds,
        packets_per_sec: if seconds > 0.0 { packets as f64 / seconds } else { 0.0 },
    };
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatTree;
    use crate::serve::{ClassifierHandle, RebuildPolicy};
    use crate::tree::DecisionTree;
    use classbench::{
        generate_rules, generate_trace, ClassifierFamily, Dim, GeneratorConfig, Rule, RuleSet,
        TraceConfig,
    };

    /// A handle over a two-level cut tree of `size` ACL rules.
    fn handle(size: usize, seed: u64, policy: RebuildPolicy) -> (ClassifierHandle, RuleSet) {
        let rules =
            generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, size).with_seed(seed));
        let mut tree = DecisionTree::new(&rules);
        for k in tree.cut_node(tree.root(), Dim::SrcIp, 8) {
            if !tree.is_terminal(k, 8) {
                tree.cut_node(k, Dim::DstPort, 4);
            }
        }
        (ClassifierHandle::new(tree, policy), rules)
    }

    #[test]
    fn sharded_results_match_scalar_for_any_thread_count() {
        let (handle, rules) = handle(200, 7, RebuildPolicy::never());
        let snap = handle.snapshot();
        let trace = generate_trace(&rules, &TraceConfig::new(333).with_seed(8));
        let expect: Vec<_> = trace.iter().map(|p| snap.classify(p)).collect();
        for threads in [1, 2, 3, 4, 8, 64, 1000] {
            let mut out = vec![None; trace.len()];
            classify_sharded(&snap, &trace, &mut out, threads);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn sharded_handles_degenerate_traces() {
        let (handle, rules) = handle(200, 7, RebuildPolicy::never());
        let snap = handle.snapshot();
        for len in [0usize, 1, 2] {
            let trace = generate_trace(&rules, &TraceConfig::new(len).with_seed(9));
            let mut out = vec![None; len];
            classify_sharded(&snap, &trace, &mut out, 4);
            for (p, got) in trace.iter().zip(&out) {
                assert_eq!(*got, snap.classify(p));
            }
        }
    }

    #[test]
    fn run_engine_reports_all_passes() {
        let (handle, rules) = handle(200, 7, RebuildPolicy::never());
        let snap = handle.snapshot();
        let trace = generate_trace(&rules, &TraceConfig::new(100).with_seed(10));
        let (out, report) = run_engine(&snap, &trace, EngineConfig::new(2).with_passes(3));
        assert_eq!(report.threads, 2);
        assert_eq!(report.packets, 300);
        assert!(report.seconds >= 0.0);
        assert!(report.packets_per_sec > 0.0);
        let expect: Vec<_> = trace.iter().map(|p| snap.classify(p)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn config_clamps_to_sane_minimums() {
        let cfg = EngineConfig::new(0).with_passes(0);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.passes, 1);
    }

    #[test]
    fn live_sharded_matches_static_engine_when_idle() {
        // A snapshot carrying pending updates (overlay inserts and a
        // patched delete) shards exactly like a from-scratch compile
        // of the updated tree.
        let (handle, rules) = handle(150, 50, RebuildPolicy::never());
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        let mut inserted = Vec::new();
        for (i, k) in [3usize, 40, 90].into_iter().enumerate() {
            let mut r = rules.rule(k).clone();
            r.priority = top + 1 + i as i32;
            inserted.push(handle.insert(r).unwrap());
        }
        handle.delete(7).unwrap();
        let snap = handle.snapshot();
        assert_eq!(snap.overlay_len(), inserted.len());
        let trace = generate_trace(&rules, &TraceConfig::new(257).with_seed(51));
        let flat = handle.with_tree(FlatTree::compile);
        let expect: Vec<_> = trace.iter().map(|p| flat.classify(p)).collect();
        assert!(expect.iter().any(|m| m.is_some_and(|id| inserted.contains(&id))));
        for threads in [1, 2, 5] {
            let mut out = vec![None; trace.len()];
            classify_sharded(&snap, &trace, &mut out, threads);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn live_engine_picks_up_published_updates() {
        let (handle, rules) = handle(150, 50, RebuildPolicy::default_policy());
        let trace = generate_trace(&rules, &TraceConfig::new(120).with_seed(52));
        // Serve a snapshot, publish an update, serve the newest
        // snapshot: the engine serves exactly the snapshot it is given.
        let old = handle.snapshot();
        let (before, _) = run_engine(&old, &trace, EngineConfig::new(2).with_passes(2));
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        let id = handle.insert(Rule::default_rule(top + 1)).unwrap();
        let new = handle.snapshot();
        assert_eq!((old.epoch(), new.epoch()), (0, 1));
        let (after, _) = run_engine(&new, &trace, EngineConfig::new(2).with_passes(2));
        assert!(after.iter().all(|&m| m == Some(id)), "shadowing insert must win everywhere");
        assert_ne!(before, after);
        // The old snapshot still serves the state it was published at.
        assert_eq!(run_engine(&old, &trace, EngineConfig::new(2)).0, before);
        // And the results equal a from-scratch rebuild of the tree.
        let rebuilt = handle.with_tree(FlatTree::compile);
        let want: Vec<_> = trace.iter().map(|p| rebuilt.classify(p)).collect();
        assert_eq!(after, want);
    }

    #[test]
    fn live_engine_survives_concurrent_churn() {
        let (handle, rules) = handle(150, 50, RebuildPolicy::default_policy());
        let trace = generate_trace(&rules, &TraceConfig::new(400).with_seed(53));
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        std::thread::scope(|scope| {
            let h = &handle;
            let t = &trace;
            let reader = scope.spawn(move || {
                let (mut total, mut epoch) = (0usize, 0u64);
                for _ in 0..20 {
                    let snap = h.snapshot();
                    assert!(snap.epoch() >= epoch, "published epochs never go back");
                    epoch = snap.epoch();
                    let (out, rep) = run_engine(&snap, t, EngineConfig::new(2));
                    assert_eq!(rep.packets, out.len());
                    total += out.len();
                }
                total
            });
            let mut inserted = Vec::new();
            for i in 0..30 {
                inserted.push(h.insert(Rule::default_rule(top + 1 + i)).unwrap());
                if i % 3 == 0 {
                    h.delete(inserted[inserted.len() - 1]).unwrap();
                }
            }
            assert_eq!(reader.join().unwrap(), 20 * trace.len());
        });
        // After the dust settles, the handle serves exactly a rebuild.
        let rebuilt = handle.with_tree(FlatTree::compile);
        let snap = handle.snapshot();
        for p in &trace {
            assert_eq!(snap.classify(p), rebuilt.classify(p), "post-churn at {p}");
        }
    }
}
