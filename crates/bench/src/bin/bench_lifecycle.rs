//! `bench_lifecycle` — machine-readable churn → retrain → hot-swap
//! benchmark.
//!
//! Exercises the full classifier lifecycle: train an initial
//! classifier, churn its rule set under concurrent readers, let the
//! background [`LifecycleWorker`] notice the accumulated churn,
//! retrain on a frozen snapshot, verify the grafted winner against the
//! linear-scan ground truth, and publish it through one epoch swap —
//! measuring sustained Mpps in every phase. The four-phase timeline
//! ([`churn_retrain_timeline`]) lives here; `neurocuts update-bench
//! --auto-retrain true` runs the same worker free-running with
//! persistence, and the `chaos_soak` test checks how it heals from
//! retrain panics and corrupted templates.
//! Writes `BENCH_lifecycle.json` so the staleness-recovery trajectory
//! is tracked in CI from PR to PR (the `phases` rows carry `mpps`, so
//! `bench_gate` trips on a sustained-throughput regression in any
//! phase, including *during* the retrain).
//!
//! Correctness gates (exit non-zero, numbers never mask a bug):
//!
//! * every differential check (checkpoints + phase boundaries) must
//!   find the served snapshot bit-identical to a from-scratch
//!   recompile, including probes inside overlay-served inserts;
//! * at least one retrain must be adopted, and every adopted swap must
//!   have run its pre-publish linear-scan spot check;
//! * the auto-retrained depth must be within 10% of a fresh train on
//!   the final rules (the staleness claim this PR exists for), and the
//!   steady-state Mpps within 25% of serving that fresh tree (wider,
//!   because throughput is noisy where depth is deterministic).
//!
//! The scale is fixed (ACL-300 rules, a 4096-packet trace, 600 churn
//! updates under 2 reader threads, 6000 RL timesteps per train, a
//! retrain trigger at 25% churn) so every run compares with the
//! committed baseline; `NC_BENCH_OUT` sets the output path (default
//! `BENCH_lifecycle.json`).

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, Packet, RuleSet, TraceConfig,
};
use dtree::{serve_during, ChurnSchedule, ClassifierHandle, RebuildPolicy, TreeStats};
use nc_bench::emit::{hw_threads, Report};
use neurocuts::{retrain_snapshot, LifecycleConfig, LifecycleWorker, NeuroCutsConfig};
use serde_json::json;
use std::time::{Duration, Instant};

const SIZE: usize = 300;
const TRACE: usize = 4096;
const UPDATES: usize = 600;
const READERS: usize = 2;
const TIMESTEPS: usize = 6000;
const RETRAIN_CHURN: f64 = 0.25;
/// Mpps window of each quiet phase (milliseconds).
const MEASURE_MS: u64 = 400;
/// Seed of the timeline's churn schedule.
const SCHEDULE_SEED: u64 = 3;
/// A differential check runs every this many churn updates.
const CHECK_EVERY: usize = UPDATES / 8;

/// One measured phase of a [`churn_retrain_timeline`] run.
struct PhaseRow {
    /// Phase name (`baseline`, `churn`, `retrain`, `steady`).
    phase: &'static str,
    /// Wall-clock seconds the phase ran.
    secs: f64,
    /// Sustained reader throughput during the phase (million packets
    /// per second, all readers combined).
    mpps: f64,
    /// Updates applied during the phase.
    updates: usize,
    /// Published epoch at phase end.
    epoch: u64,
    /// Cumulative rebuilds at phase end.
    rebuilds: u64,
    /// Cumulative adopted retrains at phase end.
    retrains: u64,
    /// Served worst-case depth (Eq. 1) at phase end.
    depth: usize,
    /// Bytes per rule at phase end.
    bytes_per_rule: f64,
    /// Overlay length at phase end.
    overlay: usize,
}

/// What a [`churn_retrain_timeline`] run produced.
struct TimelineReport {
    /// The measured phases, in order.
    phases: Vec<PhaseRow>,
    /// Differential checks that found a divergence (must be 0).
    divergences: usize,
    /// Differential checks run.
    checks: usize,
}

/// Run `body` while [`READERS`] threads serve `trace`: returns its
/// result, the seconds it took, and the Mpps the readers sustained.
fn serve_while<R>(
    handle: &ClassifierHandle,
    trace: &[Packet],
    body: impl FnOnce() -> R,
) -> (R, f64, f64) {
    let started = Instant::now();
    let (result, served) = serve_during(handle, trace, READERS, body);
    let secs = started.elapsed().as_secs_f64();
    (result, secs, served as f64 / secs.max(1e-9) / 1e6)
}

/// The body of a quiet phase: no updates for [`MEASURE_MS`].
fn quiet() {
    std::thread::sleep(Duration::from_millis(MEASURE_MS));
}

/// The churn-then-retrain timeline: measure a baseline, apply
/// [`UPDATES`] churn updates under concurrent readers, let the worker
/// retrain and hot-swap while readers keep serving, then measure the
/// steady state — with a differential certification
/// ([`ClassifierHandle::check_divergence`]) every [`CHECK_EVERY`]
/// updates and at every phase boundary.
///
/// The worker is polled *synchronously* after the churn phase, so runs
/// are deterministic given (rules, seeds); `LifecycleWorker::run` is the
/// free-running alternative `update-bench --auto-retrain` exercises.
fn churn_retrain_timeline(
    handle: &ClassifierHandle,
    donors: &RuleSet,
    trace: &[Packet],
    worker: &mut LifecycleWorker,
) -> TimelineReport {
    let mut phases = Vec::new();
    let mut divergences = 0usize;
    let mut checks = 0usize;
    let mut check = |handle: &ClassifierHandle| {
        checks += 1;
        if handle.check_divergence(trace).is_some() {
            divergences += 1;
        }
    };
    let row = |phase: &'static str, secs: f64, mpps: f64, updates: usize| {
        let stats = handle.stats();
        let tree_stats = handle.with_tree(TreeStats::compute);
        PhaseRow {
            phase,
            secs,
            mpps,
            updates,
            epoch: stats.epoch,
            rebuilds: stats.rebuilds,
            retrains: stats.retrains,
            depth: tree_stats.time,
            bytes_per_rule: tree_stats.bytes_per_rule,
            overlay: stats.overlay_len,
        }
    };

    // Phase 1: the freshly trained baseline.
    let ((), secs, mpps) = serve_while(handle, trace, quiet);
    check(handle);
    phases.push(row("baseline", secs, mpps, 0));

    // Phase 2: churn under concurrent readers.
    let mut schedule = ChurnSchedule::new(
        donors.rules().to_vec(),
        (0..handle.stats().active_rules).collect(),
        SCHEDULE_SEED,
    );
    let ((), secs, mpps) = serve_while(handle, trace, || {
        for i in 0..UPDATES {
            schedule.step(handle);
            if (i + 1) % CHECK_EVERY == 0 {
                check(handle);
            }
        }
    });
    check(handle);
    phases.push(row("churn", secs, mpps, UPDATES));

    // Phase 3: the background retrain — readers serve the old epoch
    // while the worker trains, verifies, and swaps. A failed attempt
    // backs off and retries, so poll until the worker either publishes
    // (adopt or fallback rebuild) or has nothing left to do.
    let ((), secs, mpps) = serve_while(handle, trace, || {
        while let Some(event) = worker.poll_past_backoff(handle, trace) {
            if event.adopted || event.fallback_rebuild {
                break;
            }
        }
    });
    check(handle);
    phases.push(row("retrain", secs, mpps, 0));

    // Phase 4: steady state on the retrained tree.
    let ((), secs, mpps) = serve_while(handle, trace, quiet);
    check(handle);
    phases.push(row("steady", secs, mpps, 0));

    TimelineReport { phases, divergences, checks }
}

fn main() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, SIZE).with_seed(1));
    let trace = generate_trace(&rules, &TraceConfig::new(TRACE).with_seed(2));
    let hw_threads = hw_threads();
    eprintln!(
        "bench_lifecycle: acl/{SIZE} rules, {} packets, {UPDATES} updates, {READERS} reader(s), \
         retrain at {:.0}% churn, {TIMESTEPS} timesteps/train, {hw_threads} hardware thread(s)",
        trace.len(),
        RETRAIN_CHURN * 100.0
    );
    let mut report = Report::new(
        "lifecycle",
        json!({
            "family": "acl", "size": SIZE, "trace": trace.len(), "updates": UPDATES,
            "readers": READERS, "timesteps": TIMESTEPS, "retrain_churn": RETRAIN_CHURN,
            "rule_seed": 1, "trace_seed": 2, "schedule_seed": 3, "train_seed": 4,
            "hw_threads": hw_threads,
        }),
    );

    let train_cfg = NeuroCutsConfig::small(TIMESTEPS).with_seed(4);
    let (tree, initial_stats, _) =
        retrain_snapshot(&rules, &train_cfg, train_cfg.seed).expect("initial training succeeds");
    eprintln!("initial tree: {initial_stats}");
    let handle = ClassifierHandle::new((*tree).clone(), RebuildPolicy::default_policy());

    let mut lc = LifecycleConfig::new(train_cfg.clone());
    lc.retrain_churn = RETRAIN_CHURN;
    let mut worker = LifecycleWorker::new(lc, &handle);
    let timeline = churn_retrain_timeline(&handle, &rules, &trace, &mut worker);
    let lc_report = worker.into_report();
    let adopted: Vec<_> = lc_report.events.iter().filter(|e| e.adopted).collect();

    // The staleness comparator: train from scratch on the rules the
    // classifier ended up with, using the adopted retrain's own seed —
    // when no updates landed after the swap this must reproduce the
    // served tree exactly (the trainer is deterministic), so the ratio
    // measures precisely the churn the worker did NOT recover from.
    let final_snap = handle.rule_snapshot();
    let fresh_seed = adopted.last().map_or(train_cfg.seed, |e| e.train_seed);
    let (fresh_tree, fresh_stats, _) = retrain_snapshot(final_snap.rules(), &train_cfg, fresh_seed)
        .expect("fresh training on the final rules succeeds");
    let fresh_handle = ClassifierHandle::new((*fresh_tree).clone(), RebuildPolicy::never());
    let ((), _, fresh_mpps) = serve_while(&fresh_handle, &trace, quiet);
    let served_depth = handle.with_tree(TreeStats::compute).time;
    let steady_mpps = timeline.phases.last().map_or(0.0, |p| p.mpps);
    let depth_ratio = served_depth as f64 / fresh_stats.time.max(1) as f64;
    let mpps_ratio = steady_mpps / fresh_mpps.max(1e-9);

    for p in &timeline.phases {
        eprintln!(
            "{:<9} {:>6.2}s {:>8.2} Mpps  depth {:>3}  epoch {:>5}  rebuilds {:>3}  retrains \
             {:>2}  overlay {:>4}",
            p.phase, p.secs, p.mpps, p.depth, p.epoch, p.rebuilds, p.retrains, p.overlay
        );
    }
    eprintln!(
        "auto-retrained depth {served_depth} vs fresh depth {} (ratio {depth_ratio:.3}); \
         steady {steady_mpps:.2} Mpps vs fresh {fresh_mpps:.2} Mpps (ratio {mpps_ratio:.3})",
        fresh_stats.time
    );

    let phases: Vec<_> = timeline
        .phases
        .iter()
        .map(|p| {
            json!({
                "phase": p.phase, "secs": p.secs, "mpps": p.mpps, "updates": p.updates,
                "epoch": p.epoch, "rebuilds": p.rebuilds, "retrains": p.retrains,
                "depth": p.depth, "bytes_per_rule": p.bytes_per_rule, "overlay": p.overlay,
            })
        })
        .collect();
    report.set("phases", phases);
    let retrains: Vec<_> = lc_report
        .events
        .iter()
        .map(|e| {
            json!({
                "train_seed": e.train_seed, "adopted": e.adopted, "churn": e.churn,
                "timesteps": e.timesteps,
                "depth_before": e.depth_before, "depth_after": e.depth_after,
                "reconciled_inserts": e.reconciled_inserts,
                "reconciled_deletes": e.reconciled_deletes, "spot_checked": e.spot_checked,
            })
        })
        .collect();
    report.set("retrains", retrains);
    report.set(
        "verification",
        json!({
            "checks": timeline.checks, "divergences": timeline.divergences,
            "adopted": adopted.len(), "served_depth": served_depth,
            "fresh_depth": fresh_stats.time, "depth_ratio": depth_ratio,
            "steady_mpps": steady_mpps, "fresh_mpps": fresh_mpps, "mpps_ratio": mpps_ratio,
        }),
    );

    report.check(
        timeline.divergences == 0,
        format!("{} differential checks diverged", timeline.divergences),
    );
    report.check(!adopted.is_empty(), "no retrain was adopted");
    report.check(
        adopted.iter().all(|e| e.spot_checked > 0),
        "an adopted swap skipped its spot check",
    );
    report.check(
        depth_ratio <= 1.10,
        format!(
            "auto-retrained depth {served_depth} is more than 10% worse than the fresh-trained \
             depth {} (ratio {depth_ratio:.3})",
            fresh_stats.time
        ),
    );
    report.check(
        mpps_ratio >= 0.75,
        format!(
            "steady-state {steady_mpps:.2} Mpps fell more than 25% below the fresh-trained \
             {fresh_mpps:.2} Mpps"
        ),
    );
    report.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::Dim;
    use dtree::DecisionTree;

    #[test]
    fn timeline_runs_all_phases_and_stays_certified() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 150).with_seed(65));
        let mut tree = DecisionTree::new(&rules);
        for k in tree.cut_node(tree.root(), Dim::SrcIp, 8) {
            if !tree.is_terminal(k, 8) {
                tree.cut_node(k, Dim::DstIp, 4);
            }
        }
        let handle = ClassifierHandle::new(tree, RebuildPolicy::default_policy());
        let mut cfg = LifecycleConfig::new(NeuroCutsConfig::smoke_test());
        cfg.max_retrains = 1;
        let mut worker = LifecycleWorker::new(cfg, &handle);
        let trace = generate_trace(&rules, &TraceConfig::new(128).with_seed(66));
        let report = churn_retrain_timeline(&handle, &rules, &trace, &mut worker);
        assert_eq!(report.phases.len(), 4);
        assert_eq!(report.divergences, 0, "every checkpoint certified");
        assert_eq!(report.checks, UPDATES / CHECK_EVERY + 4);
        let retrain = &report.phases[2];
        assert_eq!(retrain.phase, "retrain");
        assert_eq!(retrain.retrains, 1, "the timeline's poll must adopt");
        assert_eq!(report.phases[3].overlay, 0);
    }
}
