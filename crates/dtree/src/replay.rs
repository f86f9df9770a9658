//! Churn-replay harness: the shared machinery for exercising a
//! [`ClassifierHandle`] under load.
//!
//! Every live-update driver — the CLI `update-bench` subcommand, the
//! lifecycle timeline behind `bench_lifecycle`, the live-update and
//! lifecycle tests, and perfbench's churn rounds — replays the same
//! seeded insert/delete schedule (a test that wants an update burst
//! inserts it itself), and the drivers that measure serving under
//! churn share one pool of reader threads serving a trace from
//! epoch-swapped snapshots while updates land. They certify the result with
//! [`ClassifierHandle::check_divergence`]. Keeping the pieces here
//! (next to the handle they drive) keeps the drivers in lockstep
//! instead of carrying diverging copies.

use crate::node::RuleId;
use crate::serve::ClassifierHandle;
use classbench::{Packet, Rule};
use rand::{Rng as _, SeedableRng as _};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A deterministic, seeded stream of interleaved inserts and deletes.
///
/// Inserts clone a random donor rule with a random priority; deletes
/// pick a random currently-live rule (so they never fail). Roughly 3
/// in 5 steps insert, and the schedule refuses to delete below a
/// small floor of live rules so the classifier never empties.
#[derive(Debug)]
pub struct ChurnSchedule {
    rng: ChaCha8Rng,
    donors: Vec<Rule>,
    live: Vec<RuleId>,
    min_live: usize,
    rejected: u64,
}

impl ChurnSchedule {
    /// A schedule drawing inserts from `donors`, deleting among
    /// `live` (the handle's currently active rule ids) plus whatever
    /// the schedule itself inserts.
    ///
    /// # Panics
    /// Panics if `donors` is empty.
    pub fn new(donors: Vec<Rule>, live: Vec<RuleId>, seed: u64) -> Self {
        assert!(!donors.is_empty(), "churn schedule needs donor rules");
        ChurnSchedule {
            rng: ChaCha8Rng::seed_from_u64(seed),
            donors,
            live,
            min_live: 16,
            rejected: 0,
        }
    }

    /// Updates the handle refused (duplicate inserts the schedule
    /// happened to draw, deletes racing a fold). Rejections are part
    /// of normal admission control, not schedule bugs — counted here
    /// so harnesses can report them.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Apply one update to the handle: insert a donor clone with a
    /// random priority, or delete a live rule. Returns the id inserted,
    /// or `None` when the step was a delete or the handle refused the
    /// insert (e.g. the draw duplicated a live rule).
    pub fn step(&mut self, handle: &ClassifierHandle) -> Option<RuleId> {
        if self.live.len() < self.min_live || self.rng.gen_range(0..5) < 3 {
            let mut rule = self.donors[self.rng.gen_range(0..self.donors.len())].clone();
            rule.priority = self.rng.gen_range(-100..100_000);
            match handle.insert(rule) {
                Ok(id) => {
                    self.live.push(id);
                    Some(id)
                }
                Err(_) => {
                    self.rejected += 1;
                    None
                }
            }
        } else {
            let idx = self.rng.gen_range(0..self.live.len());
            let id = self.live.swap_remove(idx);
            if handle.delete(id).is_err() {
                self.rejected += 1;
            }
            None
        }
    }
}

/// Run `body` (typically an update loop) while `readers` threads
/// continuously serve `trace` from the handle's snapshots, re-fetching
/// whenever the epoch counter says a newer snapshot exists (one atomic
/// load per batch). Returns `body`'s result and the total number of
/// packets the readers classified while it ran.
pub fn serve_during<R>(
    handle: &ClassifierHandle,
    trace: &[Packet],
    readers: usize,
    body: impl FnOnce() -> R,
) -> (R, u64) {
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let result = std::thread::scope(|scope| {
        for _ in 0..readers.max(1) {
            let (stop, served) = (&stop, &served);
            scope.spawn(move || {
                let mut out = vec![None; trace.len()];
                let mut snap = handle.snapshot();
                while !stop.load(Ordering::Relaxed) {
                    if snap.epoch() != handle.epoch() {
                        snap = handle.snapshot();
                    }
                    snap.classify_batch(trace, &mut out);
                    served.fetch_add(trace.len() as u64, Ordering::Relaxed);
                }
            });
        }
        let result = body();
        stop.store(true, Ordering::Relaxed);
        result
    });
    (result, served.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::RebuildPolicy;
    use crate::tree::DecisionTree;
    use classbench::{
        generate_rules, generate_trace, ClassifierFamily, Dim, GeneratorConfig, TraceConfig,
    };

    fn handle() -> (ClassifierHandle, classbench::RuleSet) {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 120).with_seed(55));
        let mut tree = DecisionTree::new(&rules);
        for k in tree.cut_node(tree.root(), Dim::SrcIp, 8) {
            if !tree.is_terminal(k, 8) {
                tree.cut_node(k, Dim::DstIp, 4);
            }
        }
        (ClassifierHandle::new(tree, RebuildPolicy::default_policy()), rules)
    }

    #[test]
    fn schedule_is_deterministic_and_keeps_rules_live() {
        let (h1, rules) = handle();
        let (h2, _) = handle();
        let mut s1 = ChurnSchedule::new(rules.rules().to_vec(), (0..rules.len()).collect(), 9);
        let mut s2 = ChurnSchedule::new(rules.rules().to_vec(), (0..rules.len()).collect(), 9);
        for _ in 0..100 {
            assert_eq!(s1.step(&h1).is_some(), s2.step(&h2).is_some(), "same seed, same schedule");
        }
        assert_eq!(h1.epoch(), h2.epoch());
        assert_eq!(h1.stats().active_rules, h2.stats().active_rules);
        assert!(h1.stats().active_rules >= 16, "live floor must hold");
        let trace = generate_trace(&rules, &TraceConfig::new(200).with_seed(56));
        assert_eq!(h1.check_divergence(&trace), None);
    }

    #[test]
    fn serve_during_counts_reader_work_and_returns_body_result() {
        let (h, rules) = handle();
        let trace = generate_trace(&rules, &TraceConfig::new(100).with_seed(57));
        let mut schedule =
            ChurnSchedule::new(rules.rules().to_vec(), (0..rules.len()).collect(), 8);
        let (value, served) = serve_during(&h, &trace, 2, || {
            for _ in 0..20 {
                schedule.step(&h);
            }
            42usize
        });
        assert_eq!(value, 42);
        // Reader threads keep running until the body finishes, so on
        // any scheduler they have at least been spawned; the served
        // count is a multiple of the trace length.
        assert!(served.is_multiple_of(trace.len() as u64));
        assert_eq!(h.check_divergence(&trace), None);
    }
}
