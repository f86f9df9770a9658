//! Long-churn soak: the lifecycle loop under sustained load.
//!
//! One classifier, ≥5 000 interleaved inserts/deletes applied while
//! concurrent readers serve a trace and a free-running
//! [`LifecycleWorker`] retrains and hot-swaps in the background. The
//! claims pinned here:
//!
//! 1. **Bounded serving state** — at every checkpoint the overlay stays
//!    below the rebuild policy's working bound and the served
//!    worst-case depth stays within a fixed cap, i.e. neither churn nor
//!    background swaps let the data path degrade without limit.
//! 2. **Certified epochs** — every checkpoint's published snapshot is
//!    bit-identical to a from-scratch `FlatTree::compile` of the live
//!    tree (including probes inside every overlay-served insert), via
//!    `ClassifierHandle::check_divergence`.
//! 3. **Reproducible swaps** — every adopted retrain is re-derived
//!    from scratch out of nothing but the event's frozen
//!    `snapshot_rules` and `train_seed`, and must reproduce the
//!    recorded template stats exactly (depth, bytes, node counts):
//!    the trainer is deterministic, so a published epoch is fully
//!    explained by (rules, seed) even though the worker raced freely
//!    against updates and readers.
//!
//! The rule set, trace and churn are seeded `s`, `s + 1` and `s + 2`
//! for `s` = `NC_SIM_SEED` (default 81), printed so any failure
//! replays exactly.

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, Dim, GeneratorConfig, TraceConfig,
};
use dtree::{
    serve_during, ChurnSchedule, ClassifierHandle, DecisionTree, RebuildPolicy, TreeStats,
};
use neurocuts::{retrain_snapshot, LifecycleConfig, LifecycleWorker, NeuroCutsConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const UPDATES: usize = 5_000;
const CHECK_EVERY: usize = 500;
const DEPTH_CAP: usize = 64;
const DEFAULT_SEED: u64 = 81;

fn smoke_train_config() -> NeuroCutsConfig {
    let mut cfg = NeuroCutsConfig::smoke_test();
    // Keep each background retrain around a second so several fit in
    // the soak window without starving the update loop of CPU.
    cfg.max_timesteps = 800;
    cfg
}

#[test]
fn five_thousand_updates_with_background_retrains_stay_bounded_and_certified() {
    let seed = std::env::var("NC_SIM_SEED").ok().and_then(|s| s.parse().ok());
    let seed: u64 = seed.unwrap_or(DEFAULT_SEED);
    println!("lifecycle soak: NC_SIM_SEED={seed}");
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 200).with_seed(seed));
    let mut tree = DecisionTree::new(&rules);
    for k in tree.cut_node(tree.root(), Dim::SrcIp, 8) {
        if !tree.is_terminal(k, 8) {
            tree.cut_node(k, Dim::DstIp, 4);
        }
    }
    let policy = RebuildPolicy::default_policy();
    let handle = ClassifierHandle::new(tree, policy);
    let trace = generate_trace(&rules, &TraceConfig::new(256).with_seed(seed.wrapping_add(1)));

    let mut cfg = LifecycleConfig::new(smoke_train_config());
    // Churn past twice the active rules first fires after ≈670 updates.
    cfg.retrain_churn = 2.0;
    cfg.max_retrains = 4;
    let worker = LifecycleWorker::new(cfg.clone(), &handle);

    let stop = AtomicBool::new(false);
    let (report, checkpoints, rejected) = std::thread::scope(|scope| {
        let worker_thread = {
            let (handle, trace, stop) = (&handle, &trace, &stop);
            scope.spawn(move || worker.run(handle, trace, stop, Duration::from_millis(20)))
        };
        // The update loop races two dedicated readers *and* the worker.
        let mut schedule = ChurnSchedule::new(
            rules.rules().to_vec(),
            (0..rules.len()).collect(),
            seed.wrapping_add(2),
        );
        let (checkpoints, _) = serve_during(&handle, &trace, 2, || {
            let mut checkpoints = Vec::new();
            for i in 0..UPDATES {
                schedule.step(&handle);
                if (i + 1) % CHECK_EVERY == 0 {
                    let stats = handle.stats();
                    let depth = handle.with_tree(TreeStats::compute).time;
                    let divergence = handle.check_divergence(&trace);
                    checkpoints.push((i + 1, stats, depth, divergence));
                }
            }
            checkpoints
        });
        stop.store(true, Ordering::Relaxed);
        (worker_thread.join().expect("worker thread"), checkpoints, schedule.rejected() as usize)
    });

    // Claim 1+2: bounded state and a certified snapshot at every
    // checkpoint, even while swaps were landing underneath.
    assert_eq!(checkpoints.len(), UPDATES / CHECK_EVERY);
    for (applied, stats, depth, divergence) in &checkpoints {
        assert_eq!(
            *divergence, None,
            "published snapshot diverged from a from-scratch recompile at update {applied}"
        );
        assert!(*depth <= DEPTH_CAP, "served depth {depth} exceeded the cap at update {applied}");
        // The policy rebuilds well before the overlay reaches the
        // active-rule count; swaps reset it to zero.
        assert!(
            stats.overlay_len < stats.active_rules,
            "overlay ({}) outgrew the active rules ({}) at update {applied}",
            stats.overlay_len,
            stats.active_rules
        );
    }
    let last = &checkpoints[checkpoints.len() - 1].1;
    assert_eq!(
        last.total_inserted + last.total_deleted,
        UPDATES - rejected,
        "lifetime counters must see every admitted update ({rejected} rejected as duplicates)"
    );

    // The worker really ran and really swapped.
    assert!(report.polls > 0, "worker never polled");
    let adopted: Vec<_> = report.events.iter().filter(|e| e.adopted).collect();
    assert!(
        !adopted.is_empty(),
        "no retrain was adopted over {UPDATES} updates (events: {:?})",
        report.events.iter().map(|e| (&e.skipped, e.churn)).collect::<Vec<_>>()
    );
    assert_eq!(handle.stats().retrains, adopted.len() as u64);
    for event in &adopted {
        assert!(event.spot_checked > 0, "every swap must run the linear-scan spot check");
        assert!(event.depth_after <= DEPTH_CAP);
    }

    // Claim 3: each adopted epoch is reproducible from scratch. The
    // worker trained while racing updates, but the snapshot froze the
    // rules and the event pinned the seed, so re-deriving the template
    // must give bit-identical stats.
    for event in &adopted {
        let (_, scratch_stats, scratch_timesteps) =
            retrain_snapshot(&event.snapshot_rules, &cfg.train, event.train_seed)
                .expect("adopted snapshot retrains from scratch");
        assert_eq!(
            Some(scratch_stats),
            event.template_stats,
            "from-scratch retrain of the frozen snapshot (seed {}) must reproduce \
             the published template exactly",
            event.train_seed
        );
        assert_eq!(scratch_timesteps, event.timesteps);
    }

    // And the final state is still live: updates and lookups work
    // (the donor may still be active, in which case admission control
    // correctly reports the duplicate instead of silently accepting).
    match handle.insert(rules.rules()[0].clone()) {
        Ok(_) | Err(dtree::UpdateError::DuplicateRule(_)) => {}
        Err(err) => panic!("unexpected admission error: {err}"),
    }
    assert_eq!(handle.check_divergence(&trace), None);
}
