//! Chaos soak: the self-healing claims under injected faults.
//!
//! The fault-injection facility (`dtree::faults`) arms every fault
//! class at least twice and the tests here pin the recovery contract:
//!
//! 1. **Isolation** — an injected retrain panic or corrupted template
//!    never unwinds past the worker and never publishes: the served
//!    epoch (and the exact snapshot `Arc`) is byte-identical across
//!    every failed non-fallback attempt.
//! 2. **Bounded retry** — consecutive transient failures back off for a
//!    doubling number of polls and, at the retry bound, degrade to the
//!    deterministic fold-overlay rebuild so the served shape stays
//!    fresh even while training is broken; the next successful retrain
//!    clears the degraded flag.
//! 3. **Admission under storms** — injected update bursts hit the
//!    overlay bound and force fold-rebuild backpressure instead of
//!    unbounded overlay growth.
//! 4. **Certified serving throughout** — at every checkpoint, faulted
//!    or not, the published snapshot classifies bit-identically to a
//!    from-scratch recompile (`ClassifierHandle::check_divergence`).
//!
//! The deterministic test drives `poll` synchronously so each fault
//! lands on a known attempt. The free-running test races churn, two
//! readers and a background worker under a **seeded** schedule; the
//! seed comes from `NC_SIM_SEED`, the lifecycle simulator's variable,
//! and is printed so any failure replays exactly.

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, Dim, GeneratorConfig, RuleSet, TraceConfig,
};
use dtree::{
    serve_during, ChurnSchedule, ClassifierHandle, DecisionTree, FaultInjector, FaultPoint,
    FaultSchedule, RebuildPolicy, FAULT_POINTS,
};
use neurocuts::{LifecycleConfig, LifecycleWorker, NeuroCutsConfig, RetryPolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn served_handle(seed: u64, policy: RebuildPolicy) -> (ClassifierHandle, RuleSet) {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 150).with_seed(seed));
    let mut tree = DecisionTree::new(&rules);
    for k in tree.cut_node(tree.root(), Dim::SrcIp, 8) {
        if !tree.is_terminal(k, 8) {
            tree.cut_node(k, Dim::DstIp, 4);
        }
    }
    (ClassifierHandle::new(tree, policy), rules)
}

fn churn_past_trigger(handle: &ClassifierHandle, rules: &RuleSet, seed: u64, steps: usize) {
    let mut schedule = ChurnSchedule::new(rules.rules().to_vec(), (0..rules.len()).collect(), seed);
    for _ in 0..steps {
        schedule.step(handle);
    }
}

fn lifecycle_config(faults: &Arc<FaultInjector>, retry: RetryPolicy) -> LifecycleConfig {
    let mut cfg = LifecycleConfig::new(NeuroCutsConfig::smoke_test());
    cfg.retrain_churn = 0.2;
    cfg.retry = retry;
    cfg.faults = Some(faults.clone());
    cfg
}

/// One shared injector walks every fault class at least twice, each on
/// a known attempt, while `poll` is driven synchronously.
#[test]
fn every_fault_class_fires_twice_and_the_worker_heals() {
    // Attempt map (per-point occurrence counters are independent):
    //   worker A: a1 panic@0, a2 panic@1,           -> isolated failures
    //             a3 corrupt@0, a4 corrupt@1,       -> spot check refuses
    //             (a4 = 4th failure = bound -> fallback rebuild, degraded)
    //             a5 clean                          -> adopts, clears
    //   churn  B: update-burst@10,25                -> overlay backpressure
    let schedule = FaultSchedule::empty()
        .arm(FaultPoint::RetrainPanic, 0)
        .arm(FaultPoint::RetrainPanic, 1)
        .arm(FaultPoint::AdoptCorruption, 0)
        .arm(FaultPoint::AdoptCorruption, 1)
        .arm(FaultPoint::UpdateBurst, 10)
        .arm(FaultPoint::UpdateBurst, 25);
    let faults = Arc::new(schedule.injector());

    // --- Worker A: panics and corrupted templates, then recovery. ---
    let (handle, rules) = served_handle(90, RebuildPolicy::default_policy());
    let trace = generate_trace(&rules, &TraceConfig::new(128).with_seed(91));
    let retry = RetryPolicy { max_failures: 4, base_backoff: 1, max_backoff: 8 };
    let mut worker = LifecycleWorker::new(lifecycle_config(&faults, retry), &handle);
    churn_past_trigger(&handle, &rules, 92, 60);

    // a1..a3: three failures (two panics, one refused adoption), none
    // of which may touch the published state.
    for (attempt, expect) in
        [(1u64, "injected retrain panic"), (2, "injected retrain panic"), (3, "adopt:")]
    {
        let epoch_before = handle.epoch();
        let snap_before = handle.snapshot();
        let event = worker.poll_past_backoff(&handle, &trace).expect("an attempt runs").clone();
        assert!(!event.adopted, "attempt {attempt} must fail");
        assert!(
            event.skipped.as_deref().unwrap_or("").contains(expect),
            "attempt {attempt}: skipped = {:?}, wanted {expect:?}",
            event.skipped
        );
        assert_eq!(event.failures_after, attempt);
        assert!(!event.fallback_rebuild, "attempt {attempt} is below the retry bound");
        assert_eq!(handle.epoch(), epoch_before, "failed attempt {attempt} published an epoch");
        assert!(
            Arc::ptr_eq(&snap_before, &handle.snapshot()),
            "failed attempt {attempt} replaced the served snapshot"
        );
        assert_eq!(handle.health().consecutive_failures, attempt, "health mirror");
        assert_eq!(handle.check_divergence(&trace), None);
    }

    // a4: the 4th consecutive failure crosses the bound — the worker
    // degrades and force-publishes the deterministic fold-rebuild.
    let epoch_before = handle.epoch();
    let event = worker.poll_past_backoff(&handle, &trace).expect("an attempt runs").clone();
    assert!(!event.adopted);
    assert!(event.fallback_rebuild, "4th failure must trigger the heuristic fallback");
    assert!(event.degraded);
    assert!(handle.epoch() > epoch_before, "the fallback rebuild publishes");
    assert_eq!(handle.stats().overlay_len, 0, "the fallback folds the overlay");
    let health = handle.health();
    assert!(health.degraded, "degradation is mirrored into the handle");
    assert_eq!(health.epoch_lag, 0, "the fallback resets the update log");
    assert_eq!(handle.check_divergence(&trace), None);

    // a5: faults exhausted — the retry succeeds and clears everything.
    let event = worker.poll_past_backoff(&handle, &trace).expect("an attempt runs").clone();
    assert!(event.adopted, "clean retry must adopt: {:?}", event.skipped);
    assert!(!event.degraded, "success clears the degraded flag");
    assert_eq!(event.failures_after, 0);
    let health = handle.health();
    assert_eq!(health.consecutive_failures, 0);
    assert!(!health.degraded);
    assert_eq!(handle.check_divergence(&trace), None);
    assert_eq!(faults.fired(FaultPoint::RetrainPanic), 2);
    assert_eq!(faults.fired(FaultPoint::AdoptCorruption), 2);

    // --- Churn B: injected update bursts against a tiny overlay bound
    // force fold-rebuild backpressure instead of unbounded growth.
    let policy =
        RebuildPolicy { max_churn: f64::INFINITY, min_updates: usize::MAX, max_overlay: 8 };
    let (handle, rules) = served_handle(96, policy);
    let trace = generate_trace(&rules, &TraceConfig::new(128).with_seed(97));
    let mut churn = ChurnSchedule::new(rules.rules().to_vec(), (0..rules.len()).collect(), 98)
        .with_faults(faults.clone());
    for step in 0..60 {
        churn.step(&handle);
        let health = handle.health();
        assert!(
            health.overlay_len <= 8,
            "overlay {} outgrew its bound at step {step}",
            health.overlay_len
        );
    }
    let health = handle.health();
    assert!(
        health.backpressure_rebuilds >= 1,
        "bursts against an 8-slot overlay must force backpressure folds: {health}"
    );
    assert_eq!(handle.check_divergence(&trace), None);
    assert_eq!(faults.fired(FaultPoint::UpdateBurst), 2);

    // The whole schedule ran: every fault class fired exactly its two
    // armed occurrences.
    assert_eq!(faults.total_fired(), 6, "every armed occurrence must have fired");
    for point in FAULT_POINTS {
        assert_eq!(
            faults.fired(point),
            faults.schedule().armed(point).len() as u64,
            "{point} must fire exactly its armed occurrences"
        );
    }
}

/// Free-running chaos: churn + two readers + a background worker while
/// a *seeded* schedule fires faults at unplanned moments. Serving must
/// stay certified at every checkpoint no matter what lands when.
///
/// Replay any failure with `NC_SIM_SEED=<printed seed>`.
#[test]
fn seeded_free_running_soak_never_serves_a_divergent_packet() {
    const STEPS: usize = 3_000;
    const CHECK_EVERY: usize = 500;

    let seed: u64 =
        std::env::var("NC_SIM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC4A0_5EED);
    let schedule = FaultSchedule::seeded(seed, 2, 4, (STEPS / 4) as u64);
    println!("chaos soak: NC_SIM_SEED={seed} schedule [{schedule}]");
    let faults = Arc::new(schedule.injector());

    let (handle, rules) = served_handle(seed ^ 0xA, RebuildPolicy::default_policy());
    let trace = generate_trace(&rules, &TraceConfig::new(256).with_seed(seed ^ 0xB));

    let mut cfg = LifecycleConfig::new(NeuroCutsConfig::smoke_test());
    // Churn past 1.5× the active rules first fires after ≈320 updates.
    cfg.retrain_churn = 1.5;
    cfg.retry = RetryPolicy { max_failures: 3, base_backoff: 1, max_backoff: 4 };
    cfg.faults = Some(faults.clone());
    let worker = LifecycleWorker::new(cfg, &handle);

    let stop = AtomicBool::new(false);
    let (report, checkpoints, served) = std::thread::scope(|scope| {
        let worker_thread = {
            let (handle, trace, stop) = (&handle, &trace, &stop);
            scope.spawn(move || worker.run(handle, trace, stop, Duration::from_millis(5)))
        };
        let mut churn =
            ChurnSchedule::new(rules.rules().to_vec(), (0..rules.len()).collect(), seed)
                .with_faults(faults.clone());
        let (checkpoints, served) = serve_during(&handle, &trace, 2, || {
            let mut checkpoints = Vec::new();
            for i in 0..STEPS {
                churn.step(&handle);
                if (i + 1) % CHECK_EVERY == 0 {
                    checkpoints.push((i + 1, handle.check_divergence(&trace)));
                }
            }
            checkpoints
        });
        stop.store(true, Ordering::Relaxed);
        (worker_thread.join().expect("worker thread survives every fault"), checkpoints, served)
    });

    for point in FAULT_POINTS {
        println!(
            "chaos soak: {point} fired {}/{} (evaluated {})",
            faults.fired(point),
            faults.schedule().armed(point).len(),
            faults.evaluated(point)
        );
    }

    // Serving never diverged, at any checkpoint, faults or not.
    assert_eq!(checkpoints.len(), STEPS / CHECK_EVERY);
    for (applied, divergence) in &checkpoints {
        assert!(
            divergence.is_none(),
            "seed {seed}: published snapshot diverged from a recompile at update {applied}"
        );
    }
    assert!(served > 0, "readers must have classified packets throughout");
    assert!(report.polls > 0, "worker never polled");

    // The update-side fault class is deterministic: the churn thread
    // evaluates every step, and the seeded window sits inside STEPS.
    assert_eq!(
        faults.fired(FaultPoint::UpdateBurst),
        2,
        "seed {seed}: both seeded update bursts sit inside the churn window"
    );

    // Recovery accounting stays coherent: the handle's health report
    // mirrors the worker's last attempt, and a degraded worker must
    // have actually published its fallback rebuild.
    let health = handle.health();
    if let Some(last) = report.events.last() {
        assert_eq!(health.consecutive_failures, last.failures_after, "seed {seed}: health mirror");
        assert_eq!(health.degraded, last.degraded, "seed {seed}: degraded mirror");
    } else {
        assert_eq!(health.consecutive_failures, 0);
    }
    if health.degraded {
        assert!(
            report.events.iter().any(|e| e.fallback_rebuild),
            "seed {seed}: degraded without a fallback rebuild on record"
        );
    }
    for event in report.events.iter().filter(|e| e.fallback_rebuild) {
        assert!(event.failures_after > 0, "seed {seed}: fallback without a failure streak");
    }

    // Still live after the storm: updates admit (or correctly refuse a
    // duplicate) and the final snapshot is certified.
    match handle.insert(rules.rules()[0].clone()) {
        Ok(_) | Err(dtree::UpdateError::DuplicateRule(_)) => {}
        Err(err) => panic!("seed {seed}: unexpected admission error: {err}"),
    }
    assert_eq!(handle.check_divergence(&trace), None);
}
