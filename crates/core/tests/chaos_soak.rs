//! Chaos soak: the self-healing claims under provoked failures.
//!
//! The worker's retrain seam (`LifecycleConfig::retrain`) is handed a
//! function that panics or returns a corrupted template on chosen
//! attempts, and the churn loop inserts its own update bursts, so
//! each test provokes every failure class twice. The tests here pin the
//! recovery contract:
//!
//! 1. **Isolation** — a retrain panic never unwinds past the worker,
//!    and a corrupted template is refused unless the swap's
//!    reconciliation re-routes the rule it lost. A failed attempt
//!    never publishes: the served epoch (and the exact snapshot `Arc`)
//!    is byte-identical across every failed non-fallback attempt.
//! 2. **Bounded retry** — consecutive transient failures back off for a
//!    doubling number of polls and, at the retry bound, degrade to the
//!    deterministic fold-overlay rebuild so the served shape stays
//!    fresh even while training is broken; the next successful retrain
//!    clears the degraded flag.
//! 3. **Admission under storms** — update bursts hit the overlay bound
//!    and force fold-rebuild backpressure instead of unbounded overlay
//!    growth.
//! 4. **Certified serving throughout** — at every checkpoint, faulted
//!    or not, the published snapshot classifies bit-identically to a
//!    from-scratch recompile (`ClassifierHandle::check_divergence`).
//!
//! The deterministic test drives `poll` synchronously so each failure
//! lands on a known attempt. The free-running test races churn, two
//! readers and a background worker while the failing attempts and the
//! burst steps are drawn from a seed; the seed comes from
//! `NC_SIM_SEED`, the lifecycle simulator's variable, and is printed
//! so any failure replays exactly.

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, Dim, GeneratorConfig, RuleSet, TraceConfig,
};
use dtree::{serve_during, ChurnSchedule, ClassifierHandle, DecisionTree, RebuildPolicy};
use neurocuts::{LifecycleConfig, LifecycleWorker, NeuroCutsConfig, RetrainFn, RetryPolicy};
use rand::seq::SliceRandom as _;
use rand::{Rng as _, SeedableRng as _};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod faulty_retrain;
use faulty_retrain::faulty;

/// Churn steps of the free-running soak.
const STEPS: usize = 3_000;

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

fn lifecycle_config(retrain: RetrainFn, retry: RetryPolicy) -> LifecycleConfig {
    let mut cfg = LifecycleConfig::new(NeuroCutsConfig::smoke_test());
    cfg.retrain_churn = 0.2;
    cfg.retry = retry;
    cfg.retrain = retrain;
    cfg
}

/// An update burst: eight inserts at once, donor clones at priorities
/// no churn step draws, so none is a duplicate.
fn burst(handle: &ClassifierHandle, donors: &RuleSet, step: usize) {
    for i in step * 8..step * 8 + 8 {
        let mut rule = donors.rules()[i % donors.len()].clone();
        rule.priority = 200_000 + i as i32;
        handle.insert(rule).expect("a burst insert is admitted");
    }
}

/// Every failure class comes up twice, each on a known attempt or
/// step, while `poll` is driven synchronously.
#[test]
fn every_fault_class_fires_twice_and_the_worker_heals() {
    // Attempt map:
    //   worker A: a1, a2 panic                      -> isolated failures
    //             a3, a4 corrupted template         -> spot check refuses
    //             (a4 = 4th failure = bound -> fallback rebuild, degraded)
    //             a5 clean                          -> adopts, clears
    //   churn  B: bursts at steps 10 and 25         -> overlay backpressure

    // --- Worker A: panics and corrupted templates, then recovery. ---
    let (handle, rules) = served_handle(90, RebuildPolicy::default_policy());
    let trace = generate_trace(&rules, &TraceConfig::new(128).with_seed(91));
    let retry = RetryPolicy { max_failures: 4, base_backoff: 1, max_backoff: 8 };
    let cfg =
        lifecycle_config(|rules, cfg, seed| faulty(rules, cfg, seed, &[1, 2], &[3, 4]), retry);
    let mut worker = LifecycleWorker::new(cfg, &handle);
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
    assert!(event.skipped.as_deref().unwrap_or("").contains("adopt:"), "{:?}", event.skipped);
    assert!(event.fallback_rebuild, "4th failure must trigger the heuristic fallback");
    assert!(event.degraded);
    assert!(handle.epoch() > epoch_before, "the fallback rebuild publishes");
    assert_eq!(handle.stats().overlay_len, 0, "the fallback folds the overlay");
    let health = handle.health();
    assert!(health.degraded, "degradation is mirrored into the handle");
    assert_eq!(health.epoch_lag, 0, "the fallback resets the update log");
    assert_eq!(handle.check_divergence(&trace), None);

    // a5: a clean retrain — the retry succeeds and clears everything.
    let event = worker.poll_past_backoff(&handle, &trace).expect("an attempt runs").clone();
    assert!(event.adopted, "clean retry must adopt: {:?}", event.skipped);
    assert!(!event.degraded, "success clears the degraded flag");
    assert_eq!(event.failures_after, 0);
    let health = handle.health();
    assert_eq!(health.consecutive_failures, 0);
    assert!(!health.degraded);
    assert_eq!(handle.check_divergence(&trace), None);

    // --- Churn B: update bursts against a tiny overlay bound force
    // fold-rebuild backpressure instead of unbounded growth.
    let policy =
        RebuildPolicy { max_churn: f64::INFINITY, min_updates: usize::MAX, max_overlay: 8 };
    let (handle, rules) = served_handle(96, policy);
    let trace = generate_trace(&rules, &TraceConfig::new(128).with_seed(97));
    let mut churn = ChurnSchedule::new(rules.rules().to_vec(), (0..rules.len()).collect(), 98);
    for step in 0..60 {
        if [10, 25].contains(&step) {
            burst(&handle, &rules, step);
        }
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
}

/// What the seeded soak provokes, drawn from its seed: attempts 1 to 4
/// shuffled into two that panic and two that return a corrupted
/// template, and two distinct churn steps (of the first quarter) that
/// start with a burst.
fn drawn(seed: u64) -> [Vec<u64>; 3] {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut panics = vec![1, 2, 3, 4];
    panics.shuffle(&mut rng);
    let corrupts = panics.split_off(2);
    let mut bursts = Vec::new();
    while bursts.len() < 2 {
        let step = rng.gen_range(0..STEPS as u64 / 4);
        if !bursts.contains(&step) {
            bursts.push(step);
        }
    }
    [panics, corrupts, bursts]
}

/// Free-running chaos: churn + two readers + a background worker while
/// *seeded* failures land at unplanned moments. Serving must stay
/// certified at every checkpoint no matter what lands when.
///
/// Replay any failure with `NC_SIM_SEED=<printed seed>`.
#[test]
fn seeded_free_running_soak_never_serves_a_divergent_packet() {
    const CHECK_EVERY: usize = 500;

    let seed: u64 =
        std::env::var("NC_SIM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC4A0_5EED);
    let [panics, corrupts, bursts] = drawn(seed);
    println!(
        "chaos soak: NC_SIM_SEED={seed} panics {panics:?} corrupts {corrupts:?} bursts {bursts:?}"
    );

    let (handle, rules) = served_handle(seed ^ 0xA, RebuildPolicy::default_policy());
    let trace = generate_trace(&rules, &TraceConfig::new(256).with_seed(seed ^ 0xB));

    let mut cfg = LifecycleConfig::new(NeuroCutsConfig::smoke_test().with_seed(seed));
    // Churn past 1.5× the active rules first fires after ≈320 updates.
    cfg.retrain_churn = 1.5;
    cfg.retry = RetryPolicy { max_failures: 3, base_backoff: 1, max_backoff: 4 };
    // The failing attempts are drawn from the base seed `cfg.seed`.
    cfg.retrain = |rules, cfg, seed| {
        let [panics, corrupts, _] = drawn(cfg.seed);
        faulty(rules, cfg, seed, &panics, &corrupts)
    };
    let worker = LifecycleWorker::new(cfg, &handle);

    let stop = AtomicBool::new(false);
    let (report, checkpoints, inserted, served) = std::thread::scope(|scope| {
        let worker_thread = {
            let (handle, trace, stop) = (&handle, &trace, &stop);
            scope.spawn(move || worker.run(handle, trace, stop, Duration::from_millis(5)))
        };
        let mut churn =
            ChurnSchedule::new(rules.rules().to_vec(), (0..rules.len()).collect(), seed);
        let ((checkpoints, inserted), served) = serve_during(&handle, &trace, 2, || {
            let (mut checkpoints, mut inserted) = (Vec::new(), 0);
            for i in 0..STEPS {
                if bursts.contains(&(i as u64)) {
                    burst(&handle, &rules, i);
                    inserted += 1;
                }
                churn.step(&handle);
                if (i + 1) % CHECK_EVERY == 0 {
                    checkpoints.push((i + 1, handle.check_divergence(&trace)));
                }
            }
            (checkpoints, inserted)
        });
        stop.store(true, Ordering::Relaxed);
        let report = worker_thread.join().expect("worker thread survives every fault");
        (report, checkpoints, inserted, served)
    });

    let failed = report.events.iter().filter(|e| e.skipped.is_some()).count();
    println!("chaos soak: {} attempt(s), {failed} failed", report.events.len());

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
    assert_eq!(inserted, 2, "seed {seed}: both drawn bursts sit inside the churn window");

    // Each drawn failure that the run reached landed as drawn. A panic
    // is isolated as a skip. A corrupted template is refused, unless
    // churn deleted snapshot rules while it trained: the swap then
    // re-routes every snapshot rule, the lost one included.
    for event in &report.events {
        let attempt = event.train_seed.wrapping_sub(seed);
        let skipped = event.skipped.as_deref().unwrap_or("");
        if panics.contains(&attempt) {
            assert!(skipped.contains("injected retrain panic"), "seed {seed}: attempt {attempt}");
        }
        if corrupts.contains(&attempt) {
            assert!(
                !event.adopted || event.reconciled_deletes > 0,
                "seed {seed}: attempt {attempt} adopted a corrupted template nothing repaired"
            );
        }
    }

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

    // Ground truth, not only self-consistency: the final snapshot
    // answers as the linear scan over the live rules does, on the trace
    // and at every live rule's low corner, so no adopted template lost
    // a rule.
    let served_snap = handle.snapshot();
    let rules_now = handle.rule_snapshot();
    let corners: Vec<_> = rules_now.rules().rules().iter().map(|r| r.low_corner()).collect();
    let wrong = handle.with_tree(|tree| {
        trace
            .iter()
            .chain(&corners)
            .copied()
            .find(|p| served_snap.classify(p) != tree.linear_classify(p))
    });
    assert_eq!(wrong, None, "seed {seed}: the final snapshot disagrees with the linear scan");

    // Still live after the storm: updates admit (or correctly refuse a
    // duplicate) and the final snapshot is certified.
    match handle.insert(rules.rules()[0].clone()) {
        Ok(_) | Err(dtree::UpdateError::DuplicateRule(_)) => {}
        Err(err) => panic!("seed {seed}: unexpected admission error: {err}"),
    }
    assert_eq!(handle.check_divergence(&trace), None);
}
