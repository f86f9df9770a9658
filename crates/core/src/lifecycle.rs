//! The classifier lifecycle: close the churn → retrain → hot-swap loop.
//!
//! PR 3's live-update path keeps serving *correct* matches under churn,
//! but the served tree's **shape** was chosen by the RL optimiser for a
//! rule set that no longer exists: rebuilds re-flatten the mutated tree
//! without ever re-running the optimiser, so depth and Mpps silently
//! degrade the longer a classifier lives. This module is the missing
//! control loop (cf. Chameleon's runtime reconfiguration pattern:
//! reconfigure in the background, verify continuously, swap invisibly):
//!
//! 1. **Watch** — a [`LifecycleWorker`] polls the handle's lifetime
//!    update counters (churn since the last baseline).
//! 2. **Trigger** — churn is the only trigger: a retrain fires once the
//!    updates since the baseline reach [`LifecycleConfig::retrain_churn`]
//!    of the active rules, and never before [`MIN_RETRAIN_UPDATES`]
//!    updates so small classifiers don't thrash.
//! 3. **Retrain** — the worker freezes the current rule set
//!    ([`dtree::ClassifierHandle::rule_snapshot`]), trains a fresh
//!    policy on the side via [`Trainer`] + the vectorised collector,
//!    and extracts the best tree ([`Trainer::train_to_tree`]). Readers
//!    keep serving the old epoch throughout.
//! 4. **Verify + swap** — [`dtree::ClassifierHandle::adopt`] grafts the
//!    winner into the live id space, reconciles updates that landed
//!    mid-retrain, spot-checks the graft against the linear-scan ground
//!    truth, and publishes one new epoch — folding the overlay and
//!    resetting the churn log atomically. A failed spot check abandons
//!    the swap with the serving state untouched.
//!
//! The worker reads no clock: it is a state machine over its polls.
//! Failure backoff counts polls, and each retrain's work is bounded by
//! [`NeuroCutsConfig::max_timesteps`], so the same handle, churn, poll
//! sequence and retrain function always record the same events.
//!
//! The worker provokes no failure itself. Its one test seam is the
//! function it trains through, [`LifecycleConfig::retrain`]: a test
//! hands it one that panics or returns a sabotaged tree on chosen
//! attempts, and inserts its own update bursts.

use crate::config::NeuroCutsConfig;
use crate::trainer::{TrainError, Trainer};
use classbench::{Packet, RuleSet};
use dtree::{ClassifierHandle, DecisionTree, TreeStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Never retrain before this many updates since the baseline, so small
/// classifiers don't retrain on every handful of updates.
pub const MIN_RETRAIN_UPDATES: usize = 32;

/// Bounded-retry exponential backoff for *transient* retrain failures
/// (panics, failed adoptions), counted in worker polls. Deterministic
/// trainer refusals ([`TrainError`]) are not retried at all — the same
/// snapshot fails the same way every time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive transient failures before the worker degrades to a
    /// deterministic heuristic rebuild (fold-overlay recompile) so the
    /// served shape never stays stale just because training is broken.
    pub max_failures: u32,
    /// Polls skipped after the first failure; doubles per consecutive
    /// failure up to [`Self::max_backoff`].
    pub base_backoff: u32,
    /// Backoff ceiling, in polls.
    pub max_backoff: u32,
}

impl RetryPolicy {
    /// Degrade after 3 consecutive failures, backing off 5 → 250 polls
    /// (100ms → 5s at a 20ms poll interval).
    pub fn default_policy() -> Self {
        RetryPolicy { max_failures: 3, base_backoff: 5, max_backoff: 250 }
    }

    /// Polls skipped after the `failures`-th consecutive failure
    /// (1-based): `base · 2^(failures-1)`, capped at
    /// [`Self::max_backoff`]. Zero failures back off nothing.
    pub fn backoff_after(&self, failures: u32) -> u32 {
        if failures == 0 {
            return 0;
        }
        let shift = (failures - 1).min(16);
        self.base_backoff.saturating_mul(1u32 << shift).min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::default_policy()
    }
}

/// Why one retrain attempt failed — the worker-level taxonomy layered
/// over the trainer's [`TrainError`] and the handle's
/// [`dtree::AdoptError`].
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleError {
    /// The trainer refused the snapshot (degenerate rule set, nothing
    /// to learn). Deterministic: retrying the same snapshot cannot
    /// succeed, so the worker skips and re-baselines instead of
    /// burning retries.
    Train(TrainError),
    /// The retrain panicked; the payload message was captured by the
    /// `catch_unwind` isolation and the worker survives.
    Panicked(String),
    /// Training succeeded but [`dtree::ClassifierHandle::adopt`]
    /// refused the tree (spot-check divergence, stale snapshot, ...).
    Adopt(dtree::AdoptError),
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleError::Train(e) => write!(f, "train: {e}"),
            LifecycleError::Panicked(msg) => write!(f, "retrain panicked: {msg}"),
            LifecycleError::Adopt(e) => write!(f, "adopt: {e}"),
        }
    }
}

impl std::error::Error for LifecycleError {}

/// The function a [`LifecycleWorker`] trains through: the frozen
/// snapshot's rules, [`LifecycleConfig::train`] and the attempt's seed
/// in; the tree to adopt, its stats and the timesteps consumed out.
/// [`retrain_snapshot`] is the one that ships.
pub type RetrainFn = fn(
    &RuleSet,
    &NeuroCutsConfig,
    u64,
) -> Result<(Arc<DecisionTree>, TreeStats, usize), TrainError>;

/// Everything a [`LifecycleWorker`] needs to run.
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Retrain when updates since the last baseline reach this fraction
    /// of the active rules (and at least [`MIN_RETRAIN_UPDATES`]). May
    /// exceed 1.0 to retrain less often than once per rule-set turnover.
    pub retrain_churn: f64,
    /// Training budget and hyperparameters for each background retrain.
    /// Each retrain `k` uses `train.seed + k`, recorded per event, so
    /// every swap is reproducible from its snapshot alone.
    /// [`NeuroCutsConfig::max_timesteps`] bounds each retrain's work.
    pub train: NeuroCutsConfig,
    /// Stop after this many retrain attempts (0 = unlimited).
    pub max_retrains: usize,
    /// Failure handling: bounded-retry backoff and the degradation
    /// threshold.
    pub retry: RetryPolicy,
    /// The function each retrain trains through, inside the worker's
    /// `catch_unwind`. Attempt `k` (from 1) passes the seed
    /// `train.seed + k`, so a test can key a fault on `k`. Defaults to
    /// [`retrain_snapshot`].
    pub retrain: RetrainFn,
    /// Optional durability: when set, the worker checkpoints the handle
    /// after every successful adopt and whenever the WAL outgrows
    /// [`crate::persist::PersistConfig::checkpoint_wal_threshold`].
    /// Checkpoint failures degrade durability, never serving: they are
    /// recorded sticky in the health report and do not count against
    /// the retrain failure streak.
    pub persist: Option<crate::persist::Persistence>,
}

impl LifecycleConfig {
    /// A worker around the given training config that retrains at 25%
    /// churn through [`retrain_snapshot`], with the default retry
    /// policy, no retrain cap, and no persistence.
    pub fn new(train: NeuroCutsConfig) -> Self {
        LifecycleConfig {
            retrain_churn: 0.25,
            train,
            max_retrains: 0,
            retry: RetryPolicy::default_policy(),
            retrain: retrain_snapshot,
            persist: None,
        }
    }

    /// True when `updates_since` updates, a `churn` fraction of the
    /// active rules, warrant a retrain. A NaN fraction never fires.
    fn fires(&self, updates_since: usize, churn: f64) -> bool {
        updates_since >= MIN_RETRAIN_UPDATES && churn >= self.retrain_churn
    }
}

/// One retrain attempt, adopted or skipped. Carries the frozen snapshot
/// and seed so any published epoch can be re-derived from scratch
/// (retrain the snapshot with the same seed, graft, compare) — the
/// reproducibility claim the lifecycle simulator pins.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleEvent {
    /// Epoch after the swap (the pre-attempt epoch when skipped).
    pub epoch: u64,
    /// The rule set the retrain saw (frozen at trigger time).
    pub snapshot_rules: RuleSet,
    /// The exact seed this retrain trained with.
    pub train_seed: u64,
    /// Churn fraction since the baseline at trigger time.
    pub churn: f64,
    /// Environment timesteps the retrain consumed.
    pub timesteps: usize,
    /// Stats of the trained template *before* grafting — re-deriving
    /// them from `snapshot_rules` + `train_seed` must reproduce this
    /// exactly (the trainer is deterministic), which is how the
    /// lifecycle simulator certifies every published epoch. `None` when training was
    /// skipped.
    pub template_stats: Option<TreeStats>,
    /// Served worst-case depth before the swap.
    pub depth_before: usize,
    /// Served worst-case depth after the swap (unchanged when skipped).
    pub depth_after: usize,
    /// Bytes per rule after the swap.
    pub bytes_per_rule_after: f64,
    /// Post-snapshot inserts the swap reconciled.
    pub reconciled_inserts: usize,
    /// Post-snapshot deletes the swap reconciled.
    pub reconciled_deletes: usize,
    /// Packets the pre-publish linear-scan spot check verified.
    pub spot_checked: usize,
    /// True when the retrained tree was published.
    pub adopted: bool,
    /// Why the attempt did not publish (degenerate rule set, failed
    /// spot check, ...). `None` when adopted.
    pub skipped: Option<String>,
    /// Consecutive transient failures after this attempt (0 on
    /// success and on deterministic skips).
    pub failures_after: u64,
    /// True when this attempt left the worker degraded (heuristic
    /// fallback in effect).
    pub degraded: bool,
    /// True when this attempt's failure crossed the degradation
    /// threshold and forced the deterministic fold-overlay rebuild.
    pub fallback_rebuild: bool,
    /// The durable generation this attempt's post-adopt checkpoint
    /// wrote (`None` without persistence, on failed attempts, and when
    /// the checkpoint itself failed).
    pub checkpoint_generation: Option<u64>,
    /// Polls of backoff imposed after this attempt (0 on success and
    /// deterministic skips).
    pub backoff_polls: u32,
}

/// Everything a worker did over its lifetime.
#[derive(Debug, Clone, Default)]
pub struct LifecycleReport {
    /// One entry per retrain attempt, in order.
    pub events: Vec<LifecycleEvent>,
    /// Trigger polls evaluated.
    pub polls: usize,
    /// Retrain attempts (adopted + skipped).
    pub retrains: usize,
}

impl LifecycleReport {
    /// Retrains that actually published a new tree.
    pub fn adopted(&self) -> usize {
        self.events.iter().filter(|e| e.adopted).count()
    }
}

/// The off-hot-path self-optimisation worker (module docs). Drive it
/// synchronously with [`Self::poll`] (deterministic harnesses) or hand
/// it a thread via [`Self::run`].
#[derive(Debug)]
pub struct LifecycleWorker {
    cfg: LifecycleConfig,
    baseline_updates: usize,
    polls: usize,
    retrains: usize,
    events: Vec<LifecycleEvent>,
    consecutive_failures: u32,
    degraded: bool,
    /// Polls still to skip before the trigger is evaluated again.
    backoff_left: u32,
    /// The seed that trained the currently served tree — pinned into
    /// every checkpoint so a recovered image keeps the PR 6
    /// reproducibility contract (snapshot rules + seed re-derive the
    /// adopted tree).
    last_train_seed: u64,
}

impl LifecycleWorker {
    /// Attach a worker to a handle: churn starts counting from now.
    pub fn new(cfg: LifecycleConfig, handle: &ClassifierHandle) -> Self {
        let last_train_seed = cfg.train.seed;
        LifecycleWorker {
            cfg,
            baseline_updates: handle.stats().lifetime_updates(),
            polls: 0,
            retrains: 0,
            events: Vec::new(),
            consecutive_failures: 0,
            degraded: false,
            backoff_left: 0,
            last_train_seed,
        }
    }

    /// True while a failure backoff is pending: the next polls return
    /// `None` without evaluating the trigger until it is used up.
    fn in_backoff(&self) -> bool {
        self.backoff_left > 0
    }

    /// Evaluate the trigger once and, when it fires, run one full
    /// retrain → verify → swap cycle on the calling thread (readers
    /// keep serving the old epoch throughout; updates only pause for
    /// the final graft + compile). Returns the recorded event when an
    /// attempt ran, `None` when the trigger held (or a failure backoff
    /// is still pending).
    ///
    /// `spot_check` is the trace the pre-publish verification classifies
    /// through both the grafted tree and the linear-scan ground truth;
    /// the worker extends it with one low-corner probe per snapshot
    /// rule so a corrupted template cannot sneak past an unlucky trace.
    ///
    /// Failure handling (the self-healing contract):
    /// - the trainer call is panic-isolated (`catch_unwind`);
    /// - deterministic [`TrainError`]s skip and re-baseline (retrying
    ///   the same degenerate snapshot every poll would spin);
    /// - transient failures (panic/refused adoption) keep the baseline —
    ///   the trigger re-fires after an exponential backoff of
    ///   [`RetryPolicy::backoff_after`] polls — and after
    ///   [`RetryPolicy::max_failures`] in a row the worker **degrades**:
    ///   a deterministic fold-overlay recompile
    ///   ([`dtree::ClassifierHandle::force_rebuild`]) keeps the served
    ///   shape fresh, `degraded` stays set until a retrain succeeds;
    /// - every failed attempt leaves the published epoch untouched
    ///   (except the explicit fallback rebuild, which is its own
    ///   single epoch).
    pub fn poll(
        &mut self,
        handle: &ClassifierHandle,
        spot_check: &[Packet],
    ) -> Option<&LifecycleEvent> {
        self.polls += 1;
        // Durability first: the WAL-length checkpoint must run even
        // while the retrain trigger holds, a backoff is pending, or the
        // retrain budget is spent — a long quiet churn stream still
        // needs its recovery replay bounded.
        if self.cfg.persist.as_ref().is_some_and(|p| p.wants_checkpoint(handle)) {
            self.checkpoint_now(handle);
        }
        if self.backoff_left > 0 {
            self.backoff_left -= 1;
            return None;
        }
        if self.cfg.max_retrains > 0 && self.retrains >= self.cfg.max_retrains {
            return None;
        }
        let stats = handle.stats();
        let updates_since = stats.lifetime_updates().saturating_sub(self.baseline_updates);
        let churn = updates_since as f64 / stats.active_rules.max(1) as f64;
        if !self.cfg.fires(updates_since, churn) {
            return None;
        }

        self.retrains += 1;
        let before = handle.with_tree(TreeStats::compute);
        let snap = handle.rule_snapshot();
        let seed = self.cfg.train.seed.wrapping_add(self.retrains as u64);
        let mut event = LifecycleEvent {
            epoch: stats.epoch,
            snapshot_rules: snap.rules().clone(),
            train_seed: seed,
            churn,
            timesteps: 0,
            template_stats: None,
            depth_before: before.time,
            depth_after: before.time,
            bytes_per_rule_after: before.bytes_per_rule,
            reconciled_inserts: 0,
            reconciled_deletes: 0,
            spot_checked: 0,
            adopted: false,
            skipped: None,
            failures_after: 0,
            degraded: self.degraded,
            fallback_rebuild: false,
            checkpoint_generation: None,
            backoff_polls: 0,
        };
        let outcome = self.attempt(handle, &snap, spot_check, seed, &mut event);
        match outcome {
            Ok(()) => {
                // Success clears the whole failure state: the streak
                // and the degraded flag (no backoff is pending, or the
                // attempt would not have run).
                self.consecutive_failures = 0;
                self.degraded = false;
                event.degraded = false;
                self.rebaseline(handle);
                handle.note_worker_health(0, false, None);
                // Fold the freshly adopted tree into a durable
                // generation: a crash from here replays nothing.
                self.last_train_seed = seed;
                event.checkpoint_generation = self.checkpoint_now(handle);
            }
            Err(LifecycleError::Train(err)) => {
                // Deterministic refusal: record the skip and
                // re-baseline (a retry of the same snapshot fails the
                // same way — this is not a transient failure).
                event.skipped = Some(LifecycleError::Train(err).to_string());
                event.failures_after = self.consecutive_failures as u64;
                self.rebaseline(handle);
                handle.note_worker_health(
                    self.consecutive_failures as u64,
                    self.degraded,
                    event.skipped.clone(),
                );
            }
            Err(err) => {
                // Transient failure: keep the baseline so the trigger
                // re-fires, back off exponentially, and degrade to the
                // heuristic rebuild once the streak crosses the bound.
                self.consecutive_failures += 1;
                self.backoff_left = self.cfg.retry.backoff_after(self.consecutive_failures);
                event.skipped = Some(err.to_string());
                event.failures_after = self.consecutive_failures as u64;
                event.backoff_polls = self.backoff_left;
                if self.consecutive_failures >= self.cfg.retry.max_failures {
                    handle.force_rebuild();
                    self.degraded = true;
                    event.fallback_rebuild = true;
                }
                event.degraded = self.degraded;
                handle.note_worker_health(
                    self.consecutive_failures as u64,
                    self.degraded,
                    event.skipped.clone(),
                );
            }
        }
        self.events.push(event);
        self.events.last()
    }

    /// Poll through any pending failure backoff, then once more: the
    /// next attempt's event, or `None` when the trigger holds (or the
    /// retrain budget is spent). Synchronous drivers use it to retry a
    /// failed attempt at once; the skipped polls still count.
    pub fn poll_past_backoff(
        &mut self,
        handle: &ClassifierHandle,
        spot_check: &[Packet],
    ) -> Option<&LifecycleEvent> {
        while self.in_backoff() {
            self.poll(handle, spot_check);
        }
        self.poll(handle, spot_check)
    }

    /// Checkpoint the handle into a fresh durable generation, returning
    /// the generation written. A failure here loses durability, not
    /// serving: it is recorded sticky in the handle's health report and
    /// deliberately kept out of the retrain failure streak (backing off
    /// retrains would not make the disk writable).
    fn checkpoint_now(&self, handle: &ClassifierHandle) -> Option<u64> {
        let persist = self.cfg.persist.as_ref()?;
        match persist.checkpoint(handle, self.last_train_seed) {
            Ok(report) => Some(report.generation),
            Err(err) => {
                handle.note_worker_health(
                    self.consecutive_failures as u64,
                    self.degraded,
                    Some(format!("checkpoint failed: {err}")),
                );
                None
            }
        }
    }

    /// One retrain → verify → swap attempt, filling `event` on the way.
    fn attempt(
        &self,
        handle: &ClassifierHandle,
        snap: &dtree::RuleSnapshot,
        spot_check: &[Packet],
        seed: u64,
        event: &mut LifecycleEvent,
    ) -> Result<(), LifecycleError> {
        // Panic isolation: a buggy trainer must not take the worker
        // thread down. AssertUnwindSafe is sound here — the closure
        // only reads what it borrows, so an unwind cannot leave shared
        // state half-mutated. The seam is called as a plain function
        // so nc-lint's lock-discipline rule sees the call.
        let retrain = self.cfg.retrain;
        let trained =
            catch_unwind(AssertUnwindSafe(|| retrain(snap.rules(), &self.cfg.train, seed)));
        let (template, template_stats, timesteps) = match trained {
            Err(payload) => return Err(LifecycleError::Panicked(panic_message(&*payload))),
            Ok(Err(err)) => return Err(LifecycleError::Train(err)),
            Ok(Ok(result)) => result,
        };
        event.timesteps = timesteps;
        event.template_stats = Some(template_stats);
        // The probes include every snapshot rule's low corner, so a
        // template that lost a rule cannot hide behind an unlucky trace.
        let probes: Vec<Packet> = spot_check
            .iter()
            .copied()
            .chain(snap.rules().rules().iter().map(|r| r.low_corner()))
            .collect();
        match handle.adopt(&template, snap, &probes) {
            Err(err) => Err(LifecycleError::Adopt(err)),
            Ok(report) => {
                event.adopted = true;
                event.epoch = report.epoch;
                event.reconciled_inserts = report.reconciled_inserts;
                event.reconciled_deletes = report.reconciled_deletes;
                event.spot_checked = report.spot_checked;
                let after = handle.with_tree(TreeStats::compute);
                event.depth_after = after.time;
                event.bytes_per_rule_after = after.bytes_per_rule;
                Ok(())
            }
        }
    }

    fn rebaseline(&mut self, handle: &ClassifierHandle) {
        self.baseline_updates = handle.stats().lifetime_updates();
    }

    /// Run as a background worker: poll every `interval` until `stop`
    /// is set, drain once through any pending backoff, then return the
    /// full report. Spawn on its own thread (e.g. `std::thread::scope`)
    /// next to readers and updaters.
    pub fn run(
        mut self,
        handle: &ClassifierHandle,
        spot_check: &[Packet],
        stop: &AtomicBool,
        interval: Duration,
    ) -> LifecycleReport {
        while !stop.load(Ordering::Relaxed) {
            self.poll(handle, spot_check);
            // Sleep in small slices so a stop request isn't stuck
            // behind a long interval.
            let mut left = interval;
            while !left.is_zero() && !stop.load(Ordering::Relaxed) {
                let step = left.min(Duration::from_millis(5));
                std::thread::sleep(step);
                left = left.saturating_sub(step);
            }
        }
        // One drain poll, through any pending backoff, so churn that
        // accumulated since the last tick and a retry still owed after
        // a failure are not silently dropped at shutdown (a replay
        // shorter than one interval would otherwise never trigger).
        self.poll_past_backoff(handle, spot_check);
        self.into_report()
    }

    /// Consume the worker into its report.
    pub fn into_report(self) -> LifecycleReport {
        LifecycleReport { events: self.events, polls: self.polls, retrains: self.retrains }
    }
}

/// Best-effort extraction of a panic payload's message (panics carry
/// `&str` or `String` in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Retrain on a frozen rule-set snapshot: train with `cfg` reseeded to
/// `seed`, and return the tree to deploy plus its stats and the
/// timesteps consumed. Deterministic for a fixed (rules, cfg, seed) —
/// the lifecycle simulator re-derives published epochs through this
/// exact entry point, from nothing but a [`LifecycleEvent`]'s
/// `snapshot_rules` and `train_seed`.
pub fn retrain_snapshot(
    rules: &RuleSet,
    cfg: &NeuroCutsConfig,
    seed: u64,
) -> Result<(Arc<DecisionTree>, TreeStats, usize), TrainError> {
    let mut cfg = cfg.clone();
    cfg.seed = seed;
    let mut trainer = Trainer::new(rules.clone(), cfg)?;
    trainer.train_to_tree()
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{
        generate_rules, generate_trace, ClassifierFamily, Dim, GeneratorConfig, TraceConfig,
    };
    use dtree::{ChurnSchedule, RebuildPolicy};

    fn served_handle(seed: u64) -> (ClassifierHandle, RuleSet) {
        sized_handle(150, seed)
    }

    fn sized_handle(size: usize, seed: u64) -> (ClassifierHandle, RuleSet) {
        let rules =
            generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, size).with_seed(seed));
        let mut tree = DecisionTree::new(&rules);
        for k in tree.cut_node(tree.root(), Dim::SrcIp, 8) {
            if !tree.is_terminal(k, 8) {
                tree.cut_node(k, Dim::DstIp, 4);
            }
        }
        (ClassifierHandle::new(tree, RebuildPolicy::default_policy()), rules)
    }

    /// A smoke-scale worker config retraining at `retrain_churn`.
    fn smoke_config(retrain_churn: f64) -> LifecycleConfig {
        let mut cfg = LifecycleConfig::new(NeuroCutsConfig::smoke_test());
        cfg.retrain_churn = retrain_churn;
        cfg
    }

    #[test]
    fn trigger_gates_on_updates_then_fires_on_churn() {
        let mut cfg = smoke_config(0.25);
        assert!(!cfg.fires(MIN_RETRAIN_UPDATES - 1, 9.0), "the update floor gates everything");
        assert!(!cfg.fires(MIN_RETRAIN_UPDATES, 0.1), "churn below the fraction");
        assert!(cfg.fires(MIN_RETRAIN_UPDATES, 0.25), "churn at the fraction fires");
        cfg.retrain_churn = 2.0;
        assert!(!cfg.fires(400, 1.9), "a fraction above 1.0 waits for more churn");
        assert!(cfg.fires(400, 2.0));
        cfg.retrain_churn = f64::NAN;
        assert!(!cfg.fires(usize::MAX, f64::INFINITY), "a NaN fraction never fires");
    }

    #[test]
    fn worker_holds_until_enough_churn_accumulates() {
        let (handle, rules) = served_handle(60);
        let mut worker = LifecycleWorker::new(smoke_config(0.3), &handle);
        let trace = generate_trace(&rules, &TraceConfig::new(64).with_seed(61));
        assert!(worker.poll(&handle, &trace).is_none(), "no churn yet");
        for i in 0..8 {
            handle.insert(classbench::Rule::default_rule(200_000 + i)).unwrap();
        }
        assert!(worker.poll(&handle, &trace).is_none(), "below the update floor");
        assert_eq!(worker.into_report().retrains, 0);
    }

    #[test]
    fn worker_retrains_verifies_and_swaps() {
        let (handle, rules) = served_handle(62);
        let mut cfg = smoke_config(0.2);
        cfg.max_retrains = 1;
        let mut worker = LifecycleWorker::new(cfg, &handle);
        let trace = generate_trace(&rules, &TraceConfig::new(256).with_seed(63));
        let mut schedule =
            ChurnSchedule::new(rules.rules().to_vec(), (0..rules.len()).collect(), 64);
        for _ in 0..60 {
            schedule.step(&handle);
        }
        let epoch_before = handle.epoch();
        let event = worker.poll(&handle, &trace).expect("trigger fires").clone();
        assert!(event.adopted, "retrained tree must be adopted: {:?}", event.skipped);
        assert!(event.timesteps > 0);
        assert!(event.churn >= 0.2);
        assert_eq!(event.train_seed, NeuroCutsConfig::smoke_test().seed.wrapping_add(1));
        let stats = handle.stats();
        assert_eq!(stats.retrains, 1);
        assert!(handle.epoch() > epoch_before);
        assert_eq!(stats.overlay_len, 0, "the swap folds the overlay");
        assert_eq!(stats.log.total(), 0, "the swap resets the churn log");
        // Published state is certified against a from-scratch recompile.
        assert_eq!(handle.check_divergence(&trace), None);
        // The cap holds: no further retrains even under more churn.
        for _ in 0..60 {
            schedule.step(&handle);
        }
        assert!(worker.poll(&handle, &trace).is_none(), "max_retrains reached");
    }

    #[test]
    fn worker_skips_degenerate_snapshots_without_spinning() {
        // 6 rules < smoke binth: NothingToLearn. The worker must record
        // the skip and re-baseline instead of retrying every poll.
        let rules =
            RuleSet::from_ordered((0..6).map(|_| classbench::Rule::default_rule(0)).collect());
        let tree = DecisionTree::new(&rules);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let mut worker = LifecycleWorker::new(smoke_config(0.5), &handle);
        // Insert/delete pairs reach the update floor while the rule set
        // stays degenerate.
        for i in 0..MIN_RETRAIN_UPDATES / 2 {
            let id = handle.insert(classbench::Rule::default_rule(10 + i as i32)).unwrap();
            handle.delete(id).unwrap();
        }
        let event = worker.poll(&handle, &[]).expect("trigger fires").clone();
        assert!(!event.adopted);
        assert!(event.skipped.is_some(), "degenerate snapshot surfaces as a skip");
        assert!(worker.poll(&handle, &[]).is_none(), "re-baselined: no hot loop");
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let retry = RetryPolicy { max_failures: 3, base_backoff: 100, max_backoff: 1000 };
        assert_eq!(retry.backoff_after(0), 0);
        assert_eq!(retry.backoff_after(1), 100);
        assert_eq!(retry.backoff_after(2), 200);
        assert_eq!(retry.backoff_after(3), 400);
        assert_eq!(retry.backoff_after(4), 800);
        assert_eq!(retry.backoff_after(5), 1000, "capped");
        assert_eq!(retry.backoff_after(60), 1000, "shift is clamped");
    }

    /// Churn the handle past the worker's trigger threshold.
    fn churn_past_trigger(handle: &ClassifierHandle, rules: &RuleSet, seed: u64, steps: usize) {
        let mut schedule =
            ChurnSchedule::new(rules.rules().to_vec(), (0..rules.len()).collect(), seed);
        for _ in 0..steps {
            schedule.step(handle);
        }
    }

    /// Retrain as [`retrain_snapshot`] does, except that attempt `k`
    /// (read back from its seed `cfg.seed + k`) panics when it is in
    /// `panics` and returns a template missing rule 0 when it is in
    /// `corrupts`.
    fn faulty(
        rules: &RuleSet,
        cfg: &NeuroCutsConfig,
        seed: u64,
        panics: &[u64],
        corrupts: &[u64],
    ) -> Result<(Arc<DecisionTree>, TreeStats, usize), TrainError> {
        let k = seed.wrapping_sub(cfg.seed);
        if panics.contains(&k) {
            panic!("injected retrain panic (attempt {k})");
        }
        let (tree, stats, timesteps) = retrain_snapshot(rules, cfg, seed)?;
        if !corrupts.contains(&k) {
            return Ok((tree, stats, timesteps));
        }
        let mut sabotaged = (*tree).clone();
        dtree::updates::delete_rule(&mut sabotaged, 0)
            .expect("template rule 0 exists: the trainer refuses empty rule sets");
        Ok((Arc::new(sabotaged), stats, timesteps))
    }

    #[test]
    fn injected_panic_is_isolated_and_retried_with_backoff() {
        let (handle, rules) = served_handle(70);
        let mut cfg = smoke_config(0.2);
        cfg.retry = RetryPolicy { max_failures: 3, base_backoff: 2, max_backoff: 8 };
        cfg.retrain = |rules, cfg, seed| faulty(rules, cfg, seed, &[1], &[]);
        let mut worker = LifecycleWorker::new(cfg, &handle);
        churn_past_trigger(&handle, &rules, 71, 60);
        let trace = generate_trace(&rules, &TraceConfig::new(64).with_seed(72));

        let epoch_before = handle.epoch();
        let event = worker.poll(&handle, &trace).expect("attempt runs").clone();
        assert!(!event.adopted);
        assert!(
            event.skipped.as_deref().unwrap_or("").contains("injected retrain panic"),
            "skipped = {:?}",
            event.skipped
        );
        assert_eq!(event.failures_after, 1);
        assert_eq!(event.backoff_polls, 2);
        assert!(!event.degraded, "one failure is below the degradation bound");
        assert_eq!(handle.epoch(), epoch_before, "a failed attempt publishes nothing");
        // The failure is mirrored into the handle's health report.
        let health = handle.health();
        assert_eq!(health.consecutive_failures, 1);
        assert!(health.last_error.as_deref().unwrap_or("").contains("panicked"));
        // Backoff holds the trigger for exactly two polls...
        for _ in 0..2 {
            assert!(worker.in_backoff());
            assert!(worker.poll(&handle, &trace).is_none(), "backoff holds the trigger");
        }
        assert!(!worker.in_backoff());
        // ...and the next poll's retry (attempt 2, which trains
        // cleanly) succeeds and clears the failure state.
        let event = worker.poll(&handle, &trace).expect("retry runs").clone();
        assert!(event.adopted, "retry must succeed: {:?}", event.skipped);
        assert_eq!(event.failures_after, 0);
        assert!(!handle.health().degraded);
        assert_eq!(handle.health().consecutive_failures, 0);
        assert_eq!(handle.check_divergence(&trace), None);
    }

    #[test]
    fn repeated_failures_degrade_to_heuristic_rebuild_then_recover() {
        let (handle, rules) = served_handle(74);
        let mut cfg = smoke_config(0.2);
        cfg.retry = RetryPolicy { max_failures: 3, base_backoff: 1, max_backoff: 4 };
        cfg.retrain = |rules, cfg, seed| faulty(rules, cfg, seed, &[1, 2, 3], &[]);
        let mut worker = LifecycleWorker::new(cfg, &handle);
        churn_past_trigger(&handle, &rules, 75, 60);
        let trace = generate_trace(&rules, &TraceConfig::new(64).with_seed(76));

        let mut fallback_seen = false;
        for want_failures in 1..=3u64 {
            let event = worker.poll_past_backoff(&handle, &trace).expect("attempt runs").clone();
            assert!(!event.adopted);
            assert_eq!(event.failures_after, want_failures);
            if want_failures == 3 {
                assert!(event.fallback_rebuild, "3rd failure crosses the bound");
                assert!(event.degraded);
                fallback_seen = true;
            }
        }
        assert!(fallback_seen);
        // Degradation kept serving fresh: the fallback folded the
        // overlay and reset the churn log deterministically.
        assert_eq!(handle.stats().overlay_len, 0);
        assert!(handle.health().degraded);
        assert_eq!(handle.check_divergence(&trace), None);
        // The baseline was kept, so the trigger re-fires after the
        // backoff; the 4th attempt (which trains cleanly) succeeds and
        // clears the degraded flag.
        let event = worker.poll_past_backoff(&handle, &trace).expect("recovery attempt").clone();
        assert!(event.adopted, "recovery retrain must adopt: {:?}", event.skipped);
        assert!(!event.degraded, "success clears the degraded flag");
        assert!(!handle.health().degraded);
        assert_eq!(handle.health().consecutive_failures, 0);
    }

    #[test]
    fn corrupted_template_is_caught_by_the_spot_check() {
        let (handle, rules) = served_handle(82);
        let mut cfg = smoke_config(0.2);
        cfg.retrain = |rules, cfg, seed| faulty(rules, cfg, seed, &[], &[1]);
        let mut worker = LifecycleWorker::new(cfg, &handle);
        churn_past_trigger(&handle, &rules, 83, 60);
        // Even with an EMPTY caller trace the sabotage cannot slip
        // through: the worker's own low-corner probes cover every
        // snapshot rule, including the one the corruption dropped.
        let epoch_before = handle.epoch();
        let event = worker.poll(&handle, &[]).expect("attempt runs").clone();
        assert!(!event.adopted);
        assert!(event.skipped.as_deref().unwrap_or("").contains("adopt"), "{:?}", event.skipped);
        assert_eq!(handle.epoch(), epoch_before, "a refused adoption publishes nothing");
        assert_eq!(handle.stats().retrains, 0);
    }

    /// Churn a fresh handle and poll every 8th update while the first
    /// two retrains panic and the third returns a corrupted template;
    /// returns what the worker recorded and the state it left.
    fn scripted_run() -> (LifecycleReport, u64, TreeStats) {
        let (handle, rules) = sized_handle(60, 86);
        let mut cfg = smoke_config(0.2);
        cfg.train.max_timesteps = 200;
        cfg.train.timesteps_per_batch = 200;
        cfg.max_retrains = 4;
        cfg.retry = RetryPolicy { max_failures: 4, base_backoff: 1, max_backoff: 8 };
        cfg.retrain = |rules, cfg, seed| faulty(rules, cfg, seed, &[1, 2], &[3]);
        let mut worker = LifecycleWorker::new(cfg, &handle);
        let trace = generate_trace(&rules, &TraceConfig::new(64).with_seed(87));
        let mut churn = ChurnSchedule::new(rules.rules().to_vec(), (0..rules.len()).collect(), 88);
        for step in 1..=200 {
            churn.step(&handle);
            if step % 8 == 0 {
                worker.poll(&handle, &trace);
            }
        }
        (worker.into_report(), handle.epoch(), handle.with_tree(TreeStats::compute))
    }

    #[test]
    fn the_same_churn_polls_and_faults_replay_the_same_events() {
        let (first, epoch, stats) = scripted_run();
        // Panic, panic, refused adoption — each followed by a doubling
        // backoff — then a clean adopt.
        let outcomes: Vec<_> =
            first.events.iter().map(|e| (e.adopted, e.failures_after, e.backoff_polls)).collect();
        assert_eq!(outcomes, [(false, 1, 1), (false, 2, 2), (false, 3, 4), (true, 0, 0)]);
        assert!(first.events[2].template_stats.is_some(), "the corrupted attempt trained");
        let (second, replay_epoch, replay_stats) = scripted_run();
        assert_eq!(second.events, first.events, "the replay records identical events");
        assert_eq!(second.polls, first.polls);
        assert_eq!(replay_epoch, epoch);
        assert_eq!(replay_stats, stats);
    }
}
