//! `bench_lifecycle` — machine-readable churn → retrain → hot-swap
//! benchmark.
//!
//! Exercises the full classifier lifecycle: train an initial
//! classifier, churn its rule set under concurrent readers, let the
//! background [`LifecycleWorker`] notice the accumulated churn,
//! retrain on a frozen snapshot, verify the grafted winner against the
//! linear-scan ground truth, and publish it through one epoch swap —
//! measuring sustained Mpps in every phase.
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
//!   because throughput is noisy where depth is deterministic);
//! * the fault-injected recovery mini-cycle (two armed retrain panics
//!   after the gated phases) must heal: both failures isolated and
//!   retried, then a clean adopt. Its `recovery` metrics
//!   (`retrain_failures`, `degraded_phases`, `recovery_ms`) are
//!   emitted for tracking but named outside `bench_gate`'s gated
//!   METRICS — recovery latency is reported, never gated.
//!
//! The scale is fixed (ACL-300 rules, a 4096-packet trace, 600 churn
//! updates under 2 reader threads, 6000 RL timesteps per train, a
//! retrain trigger at 25% churn) so every run compares with the
//! committed baseline; `NC_BENCH_OUT` sets the output path (default
//! `BENCH_lifecycle.json`).

use classbench::{generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, TraceConfig};
use dtree::{
    serve_during, ChurnSchedule, ClassifierHandle, FaultPoint, FaultSchedule, RebuildPolicy,
    TreeStats,
};
use nc_bench::emit::{hw_threads, Report};
use neurocuts::{
    churn_retrain_timeline, retrain_snapshot, LifecycleConfig, LifecycleWorker, NeuroCutsConfig,
    RetrainTrigger, RetryPolicy, TimelineConfig,
};
use serde_json::json;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIZE: usize = 300;
const TRACE: usize = 4096;
const UPDATES: usize = 600;
const READERS: usize = 2;
const TIMESTEPS: usize = 6000;
const RETRAIN_CHURN: f64 = 0.25;

/// Serve `trace` from `readers` threads for `millis` and return Mpps —
/// the same measurement the timeline's quiet phases use.
fn measure_mpps(
    handle: &ClassifierHandle,
    trace: &[classbench::Packet],
    readers: usize,
    millis: u64,
) -> f64 {
    let started = Instant::now();
    let ((), served) = serve_during(handle, trace, readers, || {
        std::thread::sleep(Duration::from_millis(millis));
    });
    served as f64 / started.elapsed().as_secs_f64().max(1e-9) / 1e6
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
    lc.trigger =
        RetrainTrigger { min_churn: RETRAIN_CHURN, min_updates: 32, max_drift: f64::INFINITY };
    let mut worker = LifecycleWorker::new(lc, &handle);
    let tl = TimelineConfig {
        updates: UPDATES,
        readers: READERS,
        measure_ms: 400,
        schedule_seed: 3,
        check_every: (UPDATES / 8).max(1),
        faults: None,
    };
    let timeline = churn_retrain_timeline(&handle, &rules, &trace, &mut worker, &tl);
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
    let fresh_mpps = measure_mpps(&fresh_handle, &trace, READERS, tl.measure_ms);
    let served_depth = handle.with_tree(TreeStats::compute).time;
    let steady_mpps = timeline.phases.last().map_or(0.0, |p| p.mpps);
    let depth_ratio = served_depth as f64 / fresh_stats.time.max(1) as f64;
    let mpps_ratio = steady_mpps / fresh_mpps.max(1e-9);

    // Fault-injected recovery mini-cycle: arm two retrain panics, churn
    // the (already measured) handle past a fresh trigger, and time how
    // long the worker takes to heal — both injected failures retried
    // with backoff, then a clean adopt. Runs after every gated
    // measurement; the recovery numbers are tracked in the JSON but
    // deliberately named outside bench_gate's METRICS so they are
    // reported, not gated.
    let faults = Arc::new(
        FaultSchedule::empty()
            .arm(FaultPoint::RetrainPanic, 0)
            .arm(FaultPoint::RetrainPanic, 1)
            .injector(),
    );
    let mut lc = LifecycleConfig::new(train_cfg.clone());
    lc.trigger = RetrainTrigger { min_churn: 0.05, min_updates: 32, max_drift: f64::INFINITY };
    lc.retry = RetryPolicy {
        max_failures: 3,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        attempt_deadline: Duration::from_secs(120),
    };
    lc.faults = Some(faults.clone());
    let mut recovery_worker = LifecycleWorker::new(lc, &handle);
    let mut recovery_churn = ChurnSchedule::new(rules.rules().to_vec(), Vec::new(), 5);
    for _ in 0..80 {
        recovery_churn.step(&handle);
    }
    let recovery_started = Instant::now();
    let (mut retrain_failures, mut degraded_phases, mut fallback_rebuilds) = (0u64, 0u64, 0u64);
    let mut recovered = false;
    for _ in 0..10_000 {
        if recovery_worker.in_backoff() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let Some(event) = recovery_worker.poll(&handle, &trace) else { break };
        if event.adopted {
            recovered = true;
            break;
        }
        retrain_failures += 1;
        degraded_phases += u64::from(event.degraded);
        fallback_rebuilds += u64::from(event.fallback_rebuild);
    }
    let recovery_ms = recovery_started.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "recovery: {} injected fault(s), {retrain_failures} failed attempt(s), \
         {degraded_phases} degraded phase(s), healed in {recovery_ms:.0}ms (recovered: {recovered})",
        faults.total_fired()
    );

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
                "timesteps": e.timesteps, "train_secs": e.train_secs,
                "depth_before": e.depth_before, "depth_after": e.depth_after,
                "reconciled_inserts": e.reconciled_inserts,
                "reconciled_deletes": e.reconciled_deletes, "spot_checked": e.spot_checked,
            })
        })
        .collect();
    report.set("retrains", retrains);
    report.set(
        "recovery",
        json!({
            "injected_faults": faults.total_fired(), "retrain_failures": retrain_failures,
            "degraded_phases": degraded_phases, "fallback_rebuilds": fallback_rebuilds,
            "recovery_ms": recovery_ms, "recovered": recovered,
        }),
    );
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
        recovered,
        format!("the fault-injected worker never recovered ({retrain_failures} failed attempts)"),
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
