//! Update-aware serving: live inserts/deletes without pausing readers.
//!
//! PR 2 built the fast serving path — a compiled [`FlatTree`] driven by
//! batched wavefront lookups across sharded workers — but compiled it
//! **once**: `insert_rule`/`delete_rule` mutate only the arena
//! [`DecisionTree`], so a deployed `FlatTree` silently kept serving
//! stale matches. This module closes that gap with the §4 update model
//! ("Handling classifier updates"): small updates are applied in place
//! and published immediately; a full recompile happens only when the
//! accumulated churn crosses the rebuild policy's threshold.
//!
//! The design is an **epoch-swap scheme** (cf. runtime-updatable
//! network configuration systems such as Chameleon):
//!
//! * [`ClassifierHandle`] owns the mutable tree behind a
//!   `parking_lot::RwLock`. Writers (updates) take the write lock;
//!   readers never touch the tree at all.
//! * Every update publishes a new immutable [`Snapshot`] —
//!   `Arc`-swapped under the lock, handed out by
//!   [`ClassifierHandle::snapshot`] with one `Arc` clone. Readers keep
//!   classifying against whatever snapshot they hold; nothing blocks,
//!   nothing is torn.
//! * A monotonically increasing **epoch counter** (an `AtomicU64`,
//!   readable without the lock) lets readers detect that a newer
//!   snapshot exists with a single atomic load and re-fetch at their
//!   convenience — [`crate::serve_during`]'s readers do this between
//!   batches.
//!
//! Below the rebuild threshold, updates are cheap, and the compiled
//! `FlatTree` is never copied or changed: every snapshot since the
//! last compile shares it.
//!
//! * **Deletes** of compiled rules add the rule's table rank to a
//!   small **retired set** carried by the snapshot (a bitset over
//!   ranks). A leaf scan that matches a retired rank keeps scanning,
//!   so the next rule in precedence order wins, exactly as after a
//!   recompile. Deletes of not-yet-compiled rules just drop them from
//!   the overlay.
//! * **Inserts** land in a small precedence-sorted **overlay** carried
//!   by the snapshot. A lookup merges the compiled winner with the
//!   first matching overlay rule by (priority, id) precedence —
//!   bit-identical to what a full recompile would serve, verified by
//!   the differential churn tests.
//!
//! When [`UpdateLog::churn`] crosses [`RebuildPolicy::max_churn`], the
//! handle recompiles the `FlatTree` from the updated tree, clears the
//! overlay and the retired set, resets the log, and publishes the
//! fresh snapshot — still without pausing readers. The churn bound
//! bounds the retired set as it bounds the overlay.

use crate::flat::{FlatTree, NoSkip, RankSkip};
use crate::node::RuleId;
use crate::tree::DecisionTree;
use crate::updates::{self, UpdateError, UpdateLog};
use crate::wal;
use classbench::{Packet, Rule, RuleSet};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When accumulated small updates trigger a full recompile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildPolicy {
    /// Recompile when `log.churn(active_rules)` reaches this fraction
    /// (the paper retrains "when enough small updates accumulate").
    pub max_churn: f64,
    /// Never recompile before this many updates have been applied,
    /// so tiny classifiers don't thrash on every single update.
    pub min_updates: usize,
    /// Hard bound on the insert overlay. An insert that would grow the
    /// overlay past this folds everything into a recompile instead
    /// (backpressure, counted in [`HealthReport::backpressure_rebuilds`])
    /// — an update storm can never make per-lookup overlay scans grow
    /// without limit, whatever the churn fraction says.
    pub max_overlay: usize,
}

impl RebuildPolicy {
    /// Recompile at 10% churn, but not before 8 updates; overlay hard
    /// bound 256.
    pub fn default_policy() -> Self {
        RebuildPolicy { max_churn: 0.10, min_updates: 8, max_overlay: 256 }
    }

    /// Never recompile automatically (updates stay incremental until
    /// [`ClassifierHandle::force_rebuild`] is called). Useful for tests
    /// that exercise the retired-set/overlay path exclusively — which
    /// is why the overlay bound is also lifted; production policies
    /// should keep a finite `max_overlay`.
    pub fn never() -> Self {
        RebuildPolicy { max_churn: f64::INFINITY, min_updates: usize::MAX, max_overlay: usize::MAX }
    }

    /// True when the log has accumulated enough churn to rebuild.
    pub fn should_rebuild(&self, log: &UpdateLog, active_rules: usize) -> bool {
        log.total() >= self.min_updates && log.churn(active_rules) >= self.max_churn
    }
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        Self::default_policy()
    }
}

/// An immutable, self-contained serving state: one compiled tree, the
/// set of its ranks deleted since the compile, and the overlay of
/// inserts it does not know about yet. Cheap to clone behind an `Arc`;
/// readers hold it for as long as they like.
#[derive(Debug)]
pub struct Snapshot {
    /// Epoch this snapshot was published at (monotonic per handle).
    epoch: u64,
    /// [`DecisionTree::generation`] this snapshot faithfully serves.
    tree_generation: u64,
    /// The compiled tree. Shared (never copied) by every snapshot
    /// until a rebuild replaces it.
    flat: Arc<FlatTree>,
    /// Table ranks of compiled rules deleted since the compile, as a
    /// bitset over ranks (see [`RankSkip`] for `&[u64]`). Empty until
    /// the first such delete.
    retired: Arc<[u64]>,
    /// Rules inserted since the last recompile, in precedence order
    /// (higher priority first, ties broken by lower id). Small by
    /// construction: the rebuild policy recompiles before it grows.
    overlay: Arc<Vec<(RuleId, Rule)>>,
}

impl Snapshot {
    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The tree generation this snapshot serves exactly.
    pub fn tree_generation(&self) -> u64 {
        self.tree_generation
    }

    /// The compiled tree inside (stats, resident bytes, …), as
    /// compiled: it knows nothing of the deletes and inserts since, so
    /// after one it reports [`FlatTree::is_stale`]. Classify through
    /// the snapshot, which applies them.
    pub fn flat(&self) -> &FlatTree {
        &self.flat
    }

    /// Rules currently served from the overlay rather than the
    /// compiled table.
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// Active rules served by this snapshot (compiled and not retired,
    /// plus overlay).
    pub fn num_rules(&self) -> usize {
        let retired: usize = self.retired.iter().map(|word| word.count_ones() as usize).sum();
        self.flat.num_rules() - retired + self.overlay.len()
    }

    /// First overlay match for `packet`, as `(id, priority)`. The
    /// overlay is precedence-sorted, so the first hit is the best.
    #[inline]
    fn overlay_match(&self, packet: &Packet) -> Option<(RuleId, i32)> {
        self.overlay.iter().find(|(_, r)| r.matches(packet)).map(|(id, r)| (*id, r.priority))
    }

    /// Merge a compiled winner (by table rank) with the overlay winner
    /// by (priority, id) precedence — the same ordering the arena tree
    /// and the linear-scan ground truth use.
    #[inline]
    fn merge(&self, rank: Option<u32>, overlay: Option<(RuleId, i32)>) -> Option<RuleId> {
        match (rank, overlay) {
            (None, None) => None,
            (Some(rank), None) => Some(self.flat.rank_to_id(rank)),
            (None, Some((id, _))) => Some(id),
            (Some(rank), Some((oid, oprio))) => {
                let fid = self.flat.rank_to_id(rank);
                let fprio = self.flat.rank_priority(rank);
                if oprio > fprio || (oprio == fprio && oid < fid) {
                    Some(oid)
                } else {
                    Some(fid)
                }
            }
        }
    }

    /// Classify a packet: the id of the highest-precedence active rule,
    /// identical to a fresh `FlatTree::compile` of the current tree.
    pub fn classify(&self, packet: &Packet) -> Option<RuleId> {
        let rank = if self.retired.is_empty() {
            self.flat.classify_rank(packet, NoSkip)
        } else {
            self.flat.classify_rank(packet, &*self.retired)
        };
        self.merge(rank, self.overlay_match(packet))
    }

    /// Batched classify (wavefront through the compiled tree, then the
    /// overlay merge per packet), same results as [`Self::classify`].
    /// A snapshot with no retired rank runs the plain kernel.
    ///
    /// # Panics
    /// Panics if `packets` and `out` have different lengths.
    // nc-lint: kernel
    pub fn classify_batch(&self, packets: &[Packet], out: &mut [Option<RuleId>]) {
        // nc-lint: allow(no-panic-in-serving, error-taxonomy, reason = "documented length-contract guard (see # Panics); misuse is a caller bug, not runtime input")
        assert_eq!(packets.len(), out.len(), "output slice must match the batch");
        match (self.retired.is_empty(), self.overlay.is_empty()) {
            (true, true) => self.flat.classify_batch(packets, out),
            (true, false) => self.merge_batch(packets, out, NoSkip),
            (false, _) => self.merge_batch(packets, out, &*self.retired),
        }
    }

    /// [`Self::classify_batch`] sharded across `threads` scoped workers
    /// (min 1), `passes` times over (min 1). The packets split into
    /// contiguous chunks, one per worker, and each worker classifies its
    /// chunk `passes` times into its own sub-slice of `out`, so `out[i]`
    /// is exactly `self.classify(&packets[i])` whatever the thread
    /// count. The workers start once per call, so a timed loop of
    /// passes pays thread start-up once. The snapshot is shared
    /// read-only: no locks, no cloning.
    ///
    /// # Panics
    /// Panics if `packets` and `out` have different lengths.
    pub fn classify_sharded(
        &self,
        packets: &[Packet],
        out: &mut [Option<RuleId>],
        threads: usize,
        passes: usize,
    ) {
        // nc-lint: allow(no-panic-in-serving, error-taxonomy, reason = "documented length-contract guard (see # Panics); misuse is a caller bug, not runtime input")
        assert_eq!(packets.len(), out.len(), "output slice must match the trace");
        let (threads, passes) = (threads.max(1), passes.max(1));
        if threads == 1 || packets.len() < 2 {
            (0..passes).for_each(|_| self.classify_batch(packets, out));
            return;
        }
        // Ceiling division so every packet lands in one of <= `threads`
        // contiguous shards (the last shard may be short).
        let shard = packets.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (pkts, results) in packets.chunks(shard).zip(out.chunks_mut(shard)) {
                scope.spawn(move || (0..passes).for_each(|_| self.classify_batch(pkts, results)));
            }
        });
    }

    /// The wavefront lookup skipping `skip`, merged per packet with the
    /// overlay.
    // nc-lint: kernel
    fn merge_batch<S: RankSkip>(&self, packets: &[Packet], out: &mut [Option<RuleId>], skip: S) {
        self.flat.classify_batch_with(packets, skip, |pi, rank| {
            out[pi] = self.merge(rank, self.overlay_match(&packets[pi]));
        });
    }
}

/// Everything the write path owns, behind one lock.
#[derive(Debug)]
struct State {
    tree: DecisionTree,
    policy: RebuildPolicy,
    flat: Arc<FlatTree>,
    /// The published snapshots' retired set (see [`Snapshot`]).
    retired: Arc<[u64]>,
    overlay: Vec<(RuleId, Rule)>,
    log: UpdateLog,
    rebuilds: u64,
    retrains: u64,
    total_inserted: usize,
    total_deleted: usize,
    published: Arc<Snapshot>,
    /// Overlay-bound folds forced instead of unbounded growth.
    backpressure_rebuilds: u64,
    /// Most recent update/adopt error (sticky; health reporting).
    last_error: Option<String>,
    /// Lifecycle-worker view, pushed via [`ClassifierHandle::note_worker_health`].
    worker_failures: u64,
    worker_degraded: bool,
    /// Durability sink: every admitted insert/delete/adopt/rebuild is
    /// appended here *before* it mutates anything (`None` = no
    /// persistence attached; updates are then memory-only).
    wal: Option<wal::WalWriter>,
    /// Generation of the checkpoint the attached WAL runs ahead of.
    checkpoint_generation: Option<u64>,
    /// Sticky note from the recovery that built this handle (torn-tail
    /// truncations and the like), `None` for a clean start.
    last_recover_error: Option<String>,
}

/// A point-in-time health view of a live classifier: the failure side
/// of the serving story, queryable from the CLI and the harnesses. The
/// worker-side fields (`consecutive_failures`, `degraded`) are pushed
/// by the lifecycle worker through
/// [`ClassifierHandle::note_worker_health`]; the rest the handle tracks
/// itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Consecutive transient retrain failures of the attached lifecycle
    /// worker (0 when healthy or no worker attached).
    pub consecutive_failures: u64,
    /// The worker degraded to heuristic fold-rebuilds after exhausting
    /// its retry budget; cleared by the next successful retrain.
    pub degraded: bool,
    /// Rules currently served from the overlay.
    pub overlay_len: usize,
    /// The policy's hard overlay bound.
    pub overlay_cap: usize,
    /// Published epochs since the last full fold — how many incremental
    /// updates the compiled table is behind the rule arena (0 right
    /// after any rebuild/adopt).
    pub epoch_lag: u64,
    /// Folds forced by the overlay bound rather than the churn policy.
    pub backpressure_rebuilds: u64,
    /// The most recent update/adopt/retrain error, if any (sticky).
    pub last_error: Option<String>,
    /// Records appended to the write-ahead log since the last
    /// checkpoint rotation (`None` = no persistence attached) — how
    /// much replay a crash right now would cost.
    pub wal_len: Option<u64>,
    /// Generation of the newest durable checkpoint behind the WAL
    /// (`None` = no persistence attached).
    pub checkpoint_generation: Option<u64>,
    /// Sticky note from the recovery that built this handle, e.g. a
    /// truncated torn tail (`None` = clean start or clean recovery).
    pub last_recover_error: Option<String>,
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failures {} degraded {} overlay {}/{} epoch_lag {} backpressure {} last_error {} wal {} ckpt {} recover_error {}",
            self.consecutive_failures,
            self.degraded,
            self.overlay_len,
            if self.overlay_cap == usize::MAX {
                "inf".to_string()
            } else {
                self.overlay_cap.to_string()
            },
            self.epoch_lag,
            self.backpressure_rebuilds,
            self.last_error.as_deref().unwrap_or("none"),
            self.wal_len.map_or_else(|| "off".to_string(), |n| n.to_string()),
            self.checkpoint_generation.map_or_else(|| "none".to_string(), |g| g.to_string()),
            self.last_recover_error.as_deref().unwrap_or("none"),
        )
    }
}

/// Aggregate counters of a handle's update history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Current epoch (number of published snapshots since creation).
    pub epoch: u64,
    /// Full recompiles: policy-triggered, [`ClassifierHandle::force_rebuild`],
    /// and [`ClassifierHandle::adopt`] swaps all count here — every path
    /// that folds the overlay and resets the log is a rebuild.
    pub rebuilds: u64,
    /// Retrained trees swapped in via [`ClassifierHandle::adopt`]
    /// (a subset of `rebuilds`).
    pub retrains: u64,
    /// In-place updates since the last recompile.
    pub log: UpdateLog,
    /// Lifetime inserts, never reset by rebuilds — the churn-since-
    /// baseline signal retrain triggers watch (`log` alone loses its
    /// history on every rebuild).
    pub total_inserted: usize,
    /// Lifetime deletes, never reset by rebuilds.
    pub total_deleted: usize,
    /// Active rules currently served.
    pub active_rules: usize,
    /// Rules currently in the overlay (not yet compiled).
    pub overlay_len: usize,
}

impl UpdateStats {
    /// Lifetime updates of either kind (never reset by rebuilds).
    pub fn lifetime_updates(&self) -> usize {
        self.total_inserted + self.total_deleted
    }
}

/// A frozen, priority-ordered copy of a handle's active rules, plus the
/// bookkeeping needed to graft an externally built (retrained) tree
/// back into the handle's id space ([`ClassifierHandle::adopt`]).
///
/// Rule `i` of [`Self::rules`] is handle rule `map[i]`; the order is a
/// stable sort by descending priority, so equal priorities keep
/// ascending handle-id order and the snapshot's (priority, lower-id)
/// precedence is exactly the handle's.
#[derive(Debug, Clone)]
pub struct RuleSnapshot {
    rules: RuleSet,
    map: Vec<RuleId>,
    generation: u64,
    epoch: u64,
}

impl RuleSnapshot {
    /// The frozen active rules, in priority order — ready to hand to a
    /// trainer or tree builder.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Number of rules in the snapshot.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the snapshot holds no rules.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `map[i]` = handle-arena id of snapshot rule `i`.
    pub fn map(&self) -> &[RuleId] {
        &self.map
    }

    /// The tree generation at snapshot time (updates applied since then
    /// are reconciled by [`ClassifierHandle::adopt`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The published epoch at snapshot time.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Why [`ClassifierHandle::adopt`] refused to swap a tree in. The
/// handle's serving state is untouched on every error path.
#[derive(Debug, Clone, PartialEq)]
pub enum AdoptError {
    /// The template's rule arena does not match the snapshot's rules —
    /// it was built for some other rule set (or a stale snapshot).
    TemplateMismatch {
        /// Rules the snapshot froze.
        expected: usize,
        /// Rules the template was built over.
        got: usize,
    },
    /// The grafted tree failed its linear-scan spot check on this
    /// packet; the swap was abandoned before publishing anything.
    Diverged(Packet),
    /// The snapshot's id map does not fit this handle's arena — it was
    /// frozen from some *other* handle (previously a `graft` panic).
    ForeignSnapshot {
        /// Largest handle id the snapshot maps onto.
        max_id: RuleId,
        /// This handle's arena size.
        arena: usize,
    },
    /// The swap passed its spot check but its write-ahead log record
    /// could not be appended; the swap was refused (serving state
    /// untouched) so the durable log never trails the served state.
    WalAppend {
        /// The I/O error class reported by the failed append.
        kind: std::io::ErrorKind,
    },
}

impl std::fmt::Display for AdoptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdoptError::TemplateMismatch { expected, got } => {
                write!(f, "template was built over {got} rules but the snapshot froze {expected}")
            }
            AdoptError::Diverged(p) => {
                write!(f, "grafted tree diverged from the linear scan at {p}")
            }
            AdoptError::ForeignSnapshot { max_id, arena } => {
                write!(f, "snapshot maps rule id {max_id} but the handle arena holds {arena}")
            }
            AdoptError::WalAppend { kind } => {
                write!(f, "write-ahead log append failed ({kind:?}); adopt refused")
            }
        }
    }
}

impl std::error::Error for AdoptError {}

/// What an [`ClassifierHandle::adopt`] swap did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdoptReport {
    /// The epoch the swapped-in tree was published at.
    pub epoch: u64,
    /// Rules inserted after the snapshot was taken, routed into the
    /// grafted structure during the swap.
    pub reconciled_inserts: usize,
    /// Rules deleted after the snapshot was taken, dropped from the
    /// grafted leaf lists during the swap.
    pub reconciled_deletes: usize,
    /// Leaf placements restored for snapshot-time rules: the template
    /// builder may truncate rules covered by higher-precedence ones,
    /// and a post-snapshot delete of a coverer makes those reachable
    /// again (0 whenever no deletes needed reconciling).
    pub repaired_placements: usize,
    /// Packets the pre-publish linear-scan spot check verified.
    pub spot_checked: usize,
}

/// `retired` with `rank` added: a fresh bitset over `ranks` compiled
/// ranks, since published snapshots share the old one.
fn retire(retired: &[u64], ranks: usize, rank: u32) -> Arc<[u64]> {
    let mut words = if retired.is_empty() { vec![0; ranks.div_ceil(64)] } else { retired.to_vec() };
    if let Some(word) = words.get_mut(rank as usize / 64) {
        *word |= 1 << (rank % 64);
    }
    words.into()
}

/// The owner of a live classifier: the mutable [`DecisionTree`] plus
/// an atomically swappable compiled snapshot (see module docs).
///
/// Shared by reference (or `Arc`) between one-or-more updater threads
/// and any number of reader threads; all methods take `&self`.
#[derive(Debug)]
pub struct ClassifierHandle {
    state: RwLock<State>,
    /// Published epoch, readable without the lock: readers compare
    /// against [`Snapshot::epoch`] to cheaply detect staleness.
    epoch: AtomicU64,
}

impl ClassifierHandle {
    /// Wrap a built tree for live serving: compiles the initial
    /// snapshot (epoch 0) and takes ownership of the tree.
    pub fn new(tree: DecisionTree, policy: RebuildPolicy) -> Self {
        Self::new_at_epoch(tree, policy, 0)
    }

    /// [`Self::new`], but the initial snapshot publishes at `epoch`
    /// instead of 0. Recovery uses this to resume the epoch line where
    /// the checkpoint froze it, so `checkpoint epoch + replayed WAL
    /// records` lands on exactly the pre-crash epoch (every logged
    /// record publishes exactly one epoch).
    pub fn new_at_epoch(tree: DecisionTree, policy: RebuildPolicy, epoch: u64) -> Self {
        let flat = Arc::new(FlatTree::compile(&tree));
        debug_assert!(!flat.is_stale(&tree));
        let published = Arc::new(Snapshot {
            epoch,
            tree_generation: tree.generation(),
            flat: flat.clone(),
            retired: Arc::default(),
            overlay: Arc::new(Vec::new()),
        });
        ClassifierHandle {
            state: RwLock::new(State {
                tree,
                policy,
                flat,
                retired: Arc::default(),
                overlay: Vec::new(),
                log: UpdateLog::default(),
                rebuilds: 0,
                retrains: 0,
                total_inserted: 0,
                total_deleted: 0,
                published,
                backpressure_rebuilds: 0,
                last_error: None,
                worker_failures: 0,
                worker_degraded: false,
                wal: None,
                checkpoint_generation: None,
                last_recover_error: None,
            }),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// The current serving snapshot (one `Arc` clone under a read
    /// lock; the lock is held for nanoseconds, never across lookups).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.state.read().published.clone()
    }

    /// The latest published epoch. A reader whose snapshot reports an
    /// older [`Snapshot::epoch`] should re-fetch; the load is a single
    /// atomic, so polling it per batch costs nothing.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Insert a rule: applied to the tree in place (§4), served from
    /// the overlay until the next recompile. Publishes a new snapshot
    /// before returning. Returns the new rule's stable id.
    ///
    /// Admission control rejects malformed rules (inverted, degenerate
    /// or out-of-span ranges — [`updates::validate_rule`]) and exact
    /// duplicates of an active rule (same ranges and priority; the
    /// error carries the existing id) without touching the serving
    /// state or publishing an epoch. An insert that would grow the
    /// overlay past [`RebuildPolicy::max_overlay`] still lands, but
    /// folds the overlay into a recompile instead of growing it
    /// (backpressure, visible in [`Self::health`]).
    pub fn insert(&self, rule: Rule) -> Result<RuleId, UpdateError> {
        let mut s = self.state.write();
        if let Err(err) = updates::validate_rule(&rule) {
            s.last_error = Some(err.to_string());
            return Err(err);
        }
        if let Some(existing) =
            (0..s.tree.rules().len()).find(|&id| s.tree.is_active(id) && *s.tree.rule(id) == rule)
        {
            let err = UpdateError::DuplicateRule(existing);
            s.last_error = Some(err.to_string());
            return Err(err);
        }
        // Log before mutating: the arena assigns ids by append order,
        // so the id this insert will get is the current arena length —
        // logged and re-verified on replay. A failed append refuses the
        // update with every bit of state untouched.
        let predicted = s.tree.rules().len();
        if let Err(kind) = Self::wal_append_locked(
            &mut s,
            &wal::WalRecord::Insert { id: predicted, rule: rule.clone() },
        ) {
            return Err(UpdateError::WalAppend { kind });
        }
        let id = updates::insert_rule(&mut s.tree, rule.clone());
        debug_assert_eq!(id, predicted, "arena ids are assigned by append order");
        s.log.inserted += 1;
        s.total_inserted += 1;
        if s.policy.should_rebuild(&s.log, s.tree.num_active_rules()) {
            Self::rebuild_locked(&mut s);
        } else if s.overlay.len() >= s.policy.max_overlay {
            // Overlay at its hard bound: fold everything (the new rule
            // is already in the tree) instead of growing the per-lookup
            // scan — the OverlayFull backpressure signal.
            s.backpressure_rebuilds += 1;
            s.last_error = Some(UpdateError::OverlayFull { cap: s.policy.max_overlay }.to_string());
            Self::rebuild_locked(&mut s);
        } else {
            // Keep the overlay precedence-sorted so lookups take the
            // first match.
            let pos = s
                .overlay
                .iter()
                .position(|(oid, r)| {
                    rule.priority > r.priority || (rule.priority == r.priority && id < *oid)
                })
                .unwrap_or(s.overlay.len());
            s.overlay.insert(pos, (id, rule));
        }
        self.publish_locked(&mut s);
        Ok(id)
    }

    /// Delete a rule: applied to the tree in place, then either dropped
    /// from the overlay (not-yet-compiled rules) or retired: its table
    /// rank joins the snapshot's retired set, which lookups skip, and
    /// the compiled tree itself is neither copied nor changed.
    /// Publishes a new snapshot before returning. Errors on
    /// unknown/already-deleted ids without touching the serving state.
    pub fn delete(&self, id: RuleId) -> Result<(), UpdateError> {
        let mut s = self.state.write();
        // Admission-check first (mirroring `delete_rule`'s own guards)
        // so only deletes that will actually land reach the WAL; then
        // log before mutating.
        let err = if id >= s.tree.rules().len() {
            Some(UpdateError::UnknownRule(id))
        } else if !s.tree.is_active(id) {
            Some(UpdateError::InactiveRule(id))
        } else {
            None
        };
        if let Some(err) = err {
            s.last_error = Some(err.to_string());
            return Err(err);
        }
        if let Err(kind) = Self::wal_append_locked(&mut s, &wal::WalRecord::Delete { id }) {
            return Err(UpdateError::WalAppend { kind });
        }
        let refilled = match updates::delete_and_refill(&mut s.tree, id) {
            Ok(refilled) => refilled,
            Err(err) => {
                s.last_error = Some(err.to_string());
                return Err(err);
            }
        };
        s.log.deleted += 1;
        s.total_deleted += 1;
        // Check the rebuild policy *first*: when this delete tips the
        // churn over the threshold, the recompile supersedes both the
        // overlay removal and the retirement. Rules put back into
        // truncated leaves are unknown to the compiled tree, so a
        // refill recompiles too.
        if refilled > 0 || s.policy.should_rebuild(&s.log, s.tree.num_active_rules()) {
            Self::rebuild_locked(&mut s);
        } else if let Some(pos) = s.overlay.iter().position(|(oid, _)| *oid == id) {
            s.overlay.remove(pos);
        } else if let Some(rank) = s.flat.rank_of(id) {
            s.retired = retire(&s.retired, s.flat.num_rules(), rank);
        }
        self.publish_locked(&mut s);
        Ok(())
    }

    /// Recompile now regardless of churn (e.g. after a retrain).
    ///
    /// Counter semantics are identical to a policy-triggered rebuild:
    /// the log resets, the overlay folds into the table, and
    /// [`UpdateStats::rebuilds`] counts the recompile. Lifetime
    /// counters ([`UpdateStats::total_inserted`]/`total_deleted`) are
    /// never reset by either path.
    ///
    /// With a WAL attached the rebuild is logged first (it publishes an
    /// epoch, and every published epoch must be one durable record); if
    /// the append fails the rebuild is skipped — the sticky
    /// [`HealthReport::last_error`] records why — because publishing an
    /// unlogged epoch would silently desynchronise recovery.
    pub fn force_rebuild(&self) {
        let mut s = self.state.write();
        if Self::wal_append_locked(&mut s, &wal::WalRecord::Rebuild).is_err() {
            return;
        }
        Self::rebuild_locked(&mut s);
        self.publish_locked(&mut s);
    }

    /// Freeze the current active rule set for an off-lock retrain. The
    /// returned snapshot carries the id map [`ClassifierHandle::adopt`]
    /// needs to graft a tree built over it back into this handle.
    ///
    /// Cheap relative to training: one pass over the arena under a read
    /// lock (readers are unaffected, updates wait for the copy).
    pub fn rule_snapshot(&self) -> RuleSnapshot {
        let s = self.state.read();
        let mut pairs: Vec<(RuleId, Rule)> = (0..s.tree.rules().len())
            .filter(|&id| s.tree.is_active(id))
            .map(|id| (id, s.tree.rule(id).clone()))
            .collect();
        // Stable sort by descending priority: exactly the order
        // `RuleSet::new` imposes, with ascending handle id as the tie
        // order — so snapshot-id precedence maps onto handle-id
        // precedence and grafting preserves every tie-break.
        pairs.sort_by_key(|(_, r)| std::cmp::Reverse(r.priority));
        let map: Vec<RuleId> = pairs.iter().map(|&(id, _)| id).collect();
        let rules = RuleSet::new(pairs.into_iter().map(|(_, r)| r).collect());
        RuleSnapshot { rules, map, generation: s.tree.generation(), epoch: s.published.epoch }
    }

    /// Swap in an externally built tree (typically a background retrain
    /// over [`Self::rule_snapshot`]) through the epoch-swap protocol:
    ///
    /// 1. graft the template's structure onto the live rule arena
    ///    ([`DecisionTree::graft`]);
    /// 2. reconcile updates that landed after the snapshot — deletes
    ///    drop out of the grafted leaf lists, inserts route in, and any
    ///    template truncation exposed by a delete is repaired, so the
    ///    grafted tree serves exactly the *current* rule set;
    /// 3. spot-check the graft against the linear-scan ground truth
    ///    over `spot_check` plus one probe packet per pending overlay
    ///    rule — a failure abandons the swap with the serving state
    ///    untouched;
    /// 4. recompile, fold the overlay, reset the churn log, and publish
    ///    one new epoch — atomically from any reader's point of view.
    ///
    /// Readers never pause; updates wait (write lock) for the graft +
    /// compile, the same stall a policy rebuild already imposes.
    pub fn adopt(
        &self,
        template: &DecisionTree,
        snap: &RuleSnapshot,
        spot_check: &[Packet],
    ) -> Result<AdoptReport, AdoptError> {
        let mut s = self.state.write();
        // A snapshot from a different handle (or one whose arena ids
        // outrun ours) would index out of bounds below; reject it as a
        // typed error instead of panicking under the write lock.
        if snap.map.len() != snap.rules.len()
            || snap.map.iter().any(|&id| id >= s.tree.rules().len())
        {
            let err = AdoptError::ForeignSnapshot {
                max_id: snap.map.iter().copied().max().unwrap_or(0),
                arena: s.tree.rules().len(),
            };
            s.last_error = Some(err.to_string());
            return Err(err);
        }
        if template.rules() != snap.rules.rules() {
            let err = AdoptError::TemplateMismatch {
                expected: snap.rules.len(),
                got: template.rules().len(),
            };
            s.last_error = Some(err.to_string());
            return Err(err);
        }
        let mut grafted = DecisionTree::graft(template, &snap.map, &s.tree);
        let mut in_snap = vec![false; s.tree.rules().len()];
        for &id in &snap.map {
            // nc-lint: allow(no-panic-in-serving, reason = "snapshot maps are minted by rule_snapshot from this arena; foreign snapshots were rejected above")
            in_snap[id] = true;
        }
        // Post-snapshot deletes: the grafted active flags (copied from
        // the live tree) already exclude them from matching and
        // compilation; dropping them from the leaf lists is the same
        // hygiene `delete_rule` applies.
        let mut deletes = 0usize;
        for &id in &snap.map {
            if !grafted.is_active(id) {
                updates::route_remove(&mut grafted, id);
                deletes += 1;
            }
        }
        // Post-snapshot inserts route in; and once any snapshot rule
        // was deleted, leaves the template truncated under that rule's
        // cover may be missing rules that are now reachable again, so
        // every snapshot rule gets the full routing guarantee too. With
        // zero deletes every truncation is still covered by an active
        // rule and snapshot rules are known-placed, so only the new
        // inserts need routing.
        let mut inserts = 0usize;
        let mut repaired = 0usize;
        for (id, &snapped) in in_snap.iter().enumerate() {
            if !grafted.is_active(id) {
                continue;
            }
            if !snapped {
                updates::ensure_rule(&mut grafted, id);
                inserts += 1;
            } else if deletes > 0 {
                repaired += updates::ensure_rule(&mut grafted, id);
            }
        }
        // Certify before anything is published: the graft must agree
        // with the linear-scan ground truth over the caller's trace and
        // a probe inside every overlay-served insert.
        let diverged = spot_check
            .iter()
            .copied()
            .chain(s.overlay.iter().map(|(_, r)| r.low_corner()))
            .find(|p| grafted.classify(p) != grafted.linear_classify(p));
        if let Some(p) = diverged {
            let err = AdoptError::Diverged(p);
            s.last_error = Some(err.to_string());
            return Err(err);
        }
        // Spot check passed — log the swap before performing it. An
        // Adopt record replays as a rebuild: classification-identical
        // by the spot-check contract just proven; the adopted tree
        // *shape* becomes durable when its checkpoint lands.
        if let Err(kind) = Self::wal_append_locked(&mut s, &wal::WalRecord::Adopt) {
            return Err(AdoptError::WalAppend { kind });
        }
        let spot_checked = spot_check.len() + s.overlay.len();
        s.tree = grafted;
        Self::rebuild_locked(&mut s);
        s.retrains += 1;
        self.publish_locked(&mut s);
        Ok(AdoptReport {
            epoch: s.published.epoch,
            reconciled_inserts: inserts,
            reconciled_deletes: deletes,
            repaired_placements: repaired,
            spot_checked,
        })
    }

    /// The differential gate: classify `trace` through the published
    /// snapshot and through a from-scratch [`FlatTree::compile`] of the
    /// tree, and return the first packet where they disagree (`None`
    /// means bit-identical — the live-update correctness claim).
    ///
    /// Snapshot and recompile are taken under **one** read-lock
    /// acquisition (two separate fetches could interleave with a
    /// concurrent update and report a false divergence), which also
    /// synthesises one probe packet inside every pending overlay rule
    /// and every retired rule; the comparison then runs lock-free. The
    /// probes matter: a snapshot taken mid-overlay serves inserts the
    /// compiled table does not know about and skips deleted rules it
    /// still holds, and an arbitrary trace may never hit either. This
    /// is the per-swap spot check of the lifecycle loop.
    pub fn check_divergence(&self, trace: &[Packet]) -> Option<Packet> {
        let (snap, rebuilt, probes) = {
            let s = self.state.read();
            let retired = (0..s.flat.num_rules() as u32).filter(|&rank| (&*s.retired).skips(rank));
            let probes: Vec<Packet> = s
                .overlay
                .iter()
                .map(|(_, r)| r.low_corner())
                .chain(retired.map(|rank| s.tree.rule(s.flat.rank_to_id(rank)).low_corner()))
                .collect();
            (s.published.clone(), FlatTree::compile(&s.tree), probes)
        };
        let mut got = vec![None; trace.len()];
        snap.classify_batch(trace, &mut got);
        for (p, g) in trace.iter().zip(&got) {
            if *g != rebuilt.classify(p) {
                return Some(*p);
            }
        }
        probes.into_iter().find(|p| snap.classify(p) != rebuilt.classify(p))
    }

    /// Current update counters.
    pub fn stats(&self) -> UpdateStats {
        let s = self.state.read();
        UpdateStats {
            epoch: s.published.epoch,
            rebuilds: s.rebuilds,
            retrains: s.retrains,
            log: s.log,
            total_inserted: s.total_inserted,
            total_deleted: s.total_deleted,
            active_rules: s.tree.num_active_rules(),
            overlay_len: s.overlay.len(),
        }
    }

    /// A point-in-time health report for operators and the CLI: the
    /// lifecycle worker's failure streak and degraded flag (pushed via
    /// [`Self::note_worker_health`]), overlay occupancy against its
    /// bound, epoch lag (updates published since the last recompile —
    /// how far the compiled table trails the live rule set), rebuilds
    /// forced by overlay backpressure, and the last recorded error.
    pub fn health(&self) -> HealthReport {
        let s = self.state.read();
        HealthReport {
            consecutive_failures: s.worker_failures,
            degraded: s.worker_degraded,
            overlay_len: s.overlay.len(),
            overlay_cap: s.policy.max_overlay,
            epoch_lag: s.log.total() as u64,
            backpressure_rebuilds: s.backpressure_rebuilds,
            last_error: s.last_error.clone(),
            wal_len: s.wal.as_ref().map(wal::WalWriter::appended),
            checkpoint_generation: s.checkpoint_generation,
            last_recover_error: s.last_recover_error.clone(),
        }
    }

    /// Record the lifecycle worker's view of its own health so
    /// [`Self::health`] reports one merged picture. `last_error` is
    /// sticky: `None` leaves the previous record in place (errors are
    /// diagnostics, not state — only a new error overwrites).
    pub fn note_worker_health(
        &self,
        consecutive_failures: u64,
        degraded: bool,
        last_error: Option<String>,
    ) {
        let mut s = self.state.write();
        s.worker_failures = consecutive_failures;
        s.worker_degraded = degraded;
        if last_error.is_some() {
            s.last_error = last_error;
        }
    }

    /// Churn accumulated since the last recompile.
    pub fn churn(&self) -> f64 {
        let s = self.state.read();
        s.log.churn(s.tree.num_active_rules())
    }

    /// Run `f` against the owned tree (read lock held for the call).
    /// The differential tests use this to rebuild from scratch and
    /// compare; production readers should use [`Self::snapshot`].
    pub fn with_tree<R>(&self, f: impl FnOnce(&DecisionTree) -> R) -> R {
        f(&self.state.read().tree)
    }

    /// Atomically freeze a checkpoint image and rotate the WAL: under
    /// one write-lock acquisition the old writer syncs its last batch,
    /// `make_writer` is called with the LSN the next record must carry
    /// (so the LSN line continues unbroken across generations), the new
    /// writer replaces the old, and the tree + epoch are cloned out as
    /// the image the caller must now write durably as checkpoint
    /// `generation`. No update can slip between the image and the
    /// rotation — that is the crash-consistency pivot: every admitted
    /// op is either inside the returned image or in the new WAL. The
    /// old log is synced before the new one exists, so a crash never
    /// leaves a torn record in the middle of the chain.
    ///
    /// If the sync or `make_writer` fails nothing changes (same writer,
    /// same generation).
    pub fn rotate_wal(
        &self,
        generation: u64,
        make_writer: impl FnOnce(u64) -> Result<wal::WalWriter, wal::WalError>,
    ) -> Result<(DecisionTree, u64), wal::WalError> {
        let mut s = self.state.write();
        if let Some(old) = s.wal.as_mut() {
            old.sync()?;
        }
        let next_lsn = s.wal.as_ref().map_or(0, wal::WalWriter::next_lsn);
        s.wal = Some(make_writer(next_lsn)?);
        s.checkpoint_generation = Some(generation);
        Ok((s.tree.clone(), s.published.epoch))
    }

    /// Record the outcome of the recovery that built this handle:
    /// the checkpoint generation resumed from and, sticky, any
    /// truncated-tail note (surfaced by [`Self::health`]).
    pub fn note_recovery(&self, generation: u64, note: Option<String>) {
        let mut s = self.state.write();
        s.checkpoint_generation = Some(generation);
        if note.is_some() {
            s.last_recover_error = note;
        }
    }

    /// Append to the attached WAL (no-op without one). On failure the
    /// full error lands in the sticky `last_error` and the I/O class is
    /// returned — callers refuse the mutation, so the durable log never
    /// trails the served state.
    fn wal_append_locked(s: &mut State, record: &wal::WalRecord) -> Result<(), std::io::ErrorKind> {
        let Some(w) = s.wal.as_mut() else { return Ok(()) };
        match w.append(record) {
            Ok(_) => Ok(()),
            Err(err) => {
                s.last_error = Some(format!("wal append refused the update: {err}"));
                Err(err.io_kind())
            }
        }
    }

    fn rebuild_locked(s: &mut State) {
        s.flat = Arc::new(FlatTree::compile(&s.tree));
        s.retired = Arc::default();
        s.overlay.clear();
        s.log = UpdateLog::default();
        s.rebuilds += 1;
        // A freshly compiled snapshot must never be stale.
        debug_assert!(!s.flat.is_stale(&s.tree));
    }

    fn publish_locked(&self, s: &mut State) {
        let epoch = s.published.epoch + 1;
        // No generation-lockstep assert here: the generation counts
        // *mutations*, not content, so an insert that round-trips
        // through the overlay (insert then delete before any rebuild)
        // legitimately leaves the compiled tree generations behind while
        // still content-identical. The snapshot records the tree
        // generation it serves; the differential churn tests pin the
        // content claim.
        s.published = Arc::new(Snapshot {
            epoch,
            tree_generation: s.tree.generation(),
            flat: s.flat.clone(),
            retired: s.retired.clone(),
            overlay: Arc::new(s.overlay.clone()),
        });
        self.epoch.store(epoch, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{
        generate_rules, generate_trace, ClassifierFamily, Dim, DimRange, GeneratorConfig,
        TraceConfig,
    };

    fn built_tree(seed: u64) -> (DecisionTree, classbench::RuleSet) {
        let rules =
            generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 150).with_seed(seed));
        let mut tree = DecisionTree::new(&rules);
        for k in tree.cut_node(tree.root(), Dim::SrcIp, 8) {
            if !tree.is_terminal(k, 8) {
                tree.cut_node(k, Dim::DstIp, 4);
            }
        }
        (tree, rules)
    }

    /// The snapshot must serve exactly what a from-scratch recompile of
    /// the handle's current tree serves.
    fn assert_snapshot_matches_rebuild(handle: &ClassifierHandle, trace: &[Packet]) {
        let snap = handle.snapshot();
        let rebuilt = handle.with_tree(FlatTree::compile);
        let mut batch = vec![None; trace.len()];
        snap.classify_batch(trace, &mut batch);
        for (i, p) in trace.iter().enumerate() {
            let want = rebuilt.classify(p);
            assert_eq!(snap.classify(p), want, "snapshot vs rebuild at {p}");
            assert_eq!(batch[i], want, "snapshot batch vs rebuild at {p}");
        }
    }

    #[test]
    fn inserts_are_served_without_recompile() {
        let (tree, rules) = built_tree(30);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let trace = generate_trace(&rules, &TraceConfig::new(300).with_seed(31));
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();

        let mut r = Rule::default_rule(top + 1);
        r.ranges[Dim::Proto.index()] = DimRange::exact(6);
        let id = handle.insert(r).unwrap();
        assert_eq!(handle.stats().overlay_len, 1);
        assert_eq!(handle.stats().rebuilds, 0);

        let snap = handle.snapshot();
        assert_eq!(snap.epoch(), 1);
        let p = Packet::new(1, 2, 3, 4, 6);
        assert_eq!(snap.classify(&p), Some(id), "overlay insert must win");
        assert_snapshot_matches_rebuild(&handle, &trace);
    }

    #[test]
    fn deletes_retire_ranks_without_copying_the_compiled_tree() {
        let (tree, rules) = built_tree(32);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let trace = generate_trace(&rules, &TraceConfig::new(300).with_seed(33));
        let flat = handle.snapshot().flat() as *const FlatTree;
        for victim in [0usize, 5, 17] {
            handle.delete(victim).unwrap();
            let snap = handle.snapshot();
            assert_eq!(snap.flat() as *const FlatTree, flat, "a delete must not copy the tree");
            assert_eq!(snap.num_rules(), handle.stats().active_rules);
        }
        assert_eq!(handle.stats().rebuilds, 0);
        assert_eq!(handle.stats().log.deleted, 3);
        assert_snapshot_matches_rebuild(&handle, &trace);
        // Double delete surfaces as an error, not a panic, and does not
        // publish a new epoch.
        let epoch = handle.epoch();
        assert_eq!(handle.delete(0), Err(UpdateError::InactiveRule(0)));
        assert_eq!(handle.epoch(), epoch);
    }

    #[test]
    fn insert_then_delete_roundtrips_through_overlay() {
        let (tree, rules) = built_tree(34);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        let id = handle.insert(Rule::default_rule(top + 5)).unwrap();
        assert_eq!(handle.stats().overlay_len, 1);
        handle.delete(id).unwrap();
        assert_eq!(handle.stats().overlay_len, 0, "overlay delete must not touch the flat");
        let trace = generate_trace(&rules, &TraceConfig::new(200).with_seed(35));
        assert_snapshot_matches_rebuild(&handle, &trace);
    }

    #[test]
    fn rebuild_policy_triggers_and_resets_the_log() {
        let (tree, rules) = built_tree(36);
        let n = tree.num_active_rules();
        // 10% churn at min_updates 4: the 15th update on 150 rules.
        let policy = RebuildPolicy { max_churn: 0.10, min_updates: 4, max_overlay: 256 };
        let handle = ClassifierHandle::new(tree, policy);
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        let mut rebuilds_seen = 0;
        for i in 0..40 {
            let before = handle.stats();
            handle.insert(Rule::default_rule(top + 1 + i)).unwrap();
            let after = handle.stats();
            if after.rebuilds > before.rebuilds {
                rebuilds_seen += 1;
                assert_eq!(after.log, UpdateLog::default(), "rebuild must reset the log");
                assert_eq!(after.overlay_len, 0, "rebuild must clear the overlay");
            }
        }
        assert!(rebuilds_seen >= 1, "40 inserts on {n} rules must cross 10% churn");
        let trace = generate_trace(&rules, &TraceConfig::new(200).with_seed(37));
        assert_snapshot_matches_rebuild(&handle, &trace);
    }

    #[test]
    fn policy_decision_matches_churn_arithmetic() {
        let policy = RebuildPolicy { max_churn: 0.10, min_updates: 8, max_overlay: 256 };
        let mut log = UpdateLog::default();
        assert!(!policy.should_rebuild(&log, 100));
        log.inserted = 7;
        // 7 updates: churn lower than min_updates gate.
        assert!(!policy.should_rebuild(&log, 10), "min_updates must gate early rebuilds");
        log.inserted = 8;
        log.deleted = 2;
        assert!(policy.should_rebuild(&log, 100), "10/100 = 10% churn");
        assert!(!policy.should_rebuild(&log, 101), "10/101 < 10% churn");
        assert!(!RebuildPolicy::never().should_rebuild(&log, 1));
    }

    #[test]
    fn epoch_counter_tracks_publishes() {
        let (tree, _) = built_tree(38);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        assert_eq!(handle.epoch(), 0);
        assert_eq!(handle.snapshot().epoch(), 0);
        handle.insert(Rule::default_rule(9_999)).unwrap();
        assert_eq!(handle.epoch(), 1);
        handle.delete(0).unwrap();
        assert_eq!(handle.epoch(), 2);
        // An old snapshot keeps serving, but its epoch reveals it.
        let old = handle.snapshot();
        handle.insert(Rule::default_rule(10_000)).unwrap();
        assert!(old.epoch() < handle.epoch());
        assert_eq!(handle.snapshot().epoch(), handle.epoch());
    }

    #[test]
    fn force_rebuild_compiles_overlay_into_the_table() {
        let (tree, rules) = built_tree(39);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        for i in 0..5 {
            handle.insert(Rule::default_rule(top + 1 + i)).unwrap();
        }
        assert_eq!(handle.stats().overlay_len, 5);
        handle.force_rebuild();
        let s = handle.stats();
        assert_eq!(s.overlay_len, 0);
        assert_eq!(s.rebuilds, 1);
        let trace = generate_trace(&rules, &TraceConfig::new(200).with_seed(40));
        assert_snapshot_matches_rebuild(&handle, &trace);
    }

    #[test]
    fn compiled_flat_stays_stale_while_overlay_inserts_are_pending() {
        // The compiled FlatTree alone misses the overlay insert and
        // still holds the deleted rule, so it must keep reporting stale
        // (the *snapshot* serves correctly — the overlay supplies the
        // missing rule and the retired set skips the deleted one — but
        // the bare flat does not).
        let (tree, rules) = built_tree(44);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        handle.insert(Rule::default_rule(top + 1)).unwrap();
        handle.delete(0).unwrap();
        let snap = handle.snapshot();
        let p = Packet::new(1, 2, 3, 4, 6);
        handle.with_tree(|t| {
            assert!(snap.flat().is_stale(t), "flat misses the overlay insert");
            assert!(snap.flat().classify_checked(t, &p).is_err());
        });
        // The snapshot itself still serves rebuild-identical results.
        let trace = generate_trace(&rules, &TraceConfig::new(200).with_seed(45));
        assert_snapshot_matches_rebuild(&handle, &trace);
        // Once the overlay is folded in by a rebuild, the compiled
        // tree is the whole truth again and freshness returns.
        handle.force_rebuild();
        let snap = handle.snapshot();
        handle.with_tree(|t| {
            assert!(!snap.flat().is_stale(t));
            assert!(snap.flat().classify_checked(t, &p).is_ok());
        });
    }

    #[test]
    fn force_rebuild_counter_semantics_match_the_policy_path() {
        // Satellite: a manual rebuild must read exactly like a policy
        // rebuild — log reset, overlay folded, `rebuilds` incremented —
        // while the lifetime counters keep the full history.
        let (tree, rules) = built_tree(46);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        for i in 0..6 {
            handle.insert(Rule::default_rule(top + 1 + i)).unwrap();
        }
        handle.delete(3).unwrap();
        let before = handle.stats();
        assert_eq!(before.log, UpdateLog { inserted: 6, deleted: 1 });
        handle.force_rebuild();
        let after = handle.stats();
        assert_eq!(after.log, UpdateLog::default(), "manual rebuild must reset the log");
        assert_eq!(after.overlay_len, 0);
        assert_eq!(after.rebuilds, before.rebuilds + 1, "manual rebuilds must be counted");
        assert_eq!(after.total_inserted, 6, "lifetime counters survive the rebuild");
        assert_eq!(after.total_deleted, 1);
        assert_eq!(after.lifetime_updates(), 7);
        // The policy path reads identically: a policy-triggered rebuild
        // leaves the same reset log and the next counter value.
        let (tree2, _) = built_tree(46);
        let policy = RebuildPolicy { max_churn: 0.001, min_updates: 1, max_overlay: 256 };
        let h2 = ClassifierHandle::new(tree2, policy);
        h2.insert(Rule::default_rule(top + 50)).unwrap();
        let s2 = h2.stats();
        assert_eq!(s2.log, UpdateLog::default());
        assert_eq!(s2.rebuilds, 1);
        assert_eq!(s2.total_inserted, 1);
    }

    #[test]
    fn emptied_classifier_stays_finite_and_recovers() {
        // Satellite: deleting every rule must not wedge the handle or
        // the policy — churn stays finite, an empty tree compiles, and
        // the classifier accepts new rules afterwards.
        let rules = classbench::RuleSet::from_ordered(vec![
            Rule::default_rule(0),
            Rule::default_rule(0),
            Rule::default_rule(0),
            Rule::default_rule(0),
            Rule::default_rule(0),
        ]);
        let tree = DecisionTree::new(&rules);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        for id in 0..5 {
            handle.delete(id).unwrap();
        }
        let s = handle.stats();
        assert_eq!(s.active_rules, 0);
        assert!(handle.churn().is_finite(), "zero active rules must not yield NaN/inf churn");
        assert_eq!(handle.churn(), 5.0);
        let p = Packet::new(1, 2, 3, 4, 6);
        assert_eq!(handle.snapshot().classify(&p), None);
        // An empty tree recompiles without panicking, and the rebuild
        // resets the churn signal instead of latching it.
        handle.force_rebuild();
        assert_eq!(handle.churn(), 0.0);
        assert_eq!(handle.snapshot().classify(&p), None);
        let id = handle.insert(Rule::default_rule(1)).unwrap();
        assert_eq!(handle.snapshot().classify(&p), Some(id));
    }

    #[test]
    fn policy_rebuild_fires_once_on_an_emptied_classifier() {
        let rules = classbench::RuleSet::from_ordered(vec![
            Rule::default_rule(0),
            Rule::default_rule(0),
            Rule::default_rule(0),
            Rule::default_rule(0),
            Rule::default_rule(0),
        ]);
        let tree = DecisionTree::new(&rules);
        let policy = RebuildPolicy { max_churn: 0.5, min_updates: 3, max_overlay: 256 };
        let handle = ClassifierHandle::new(tree, policy);
        for id in 0..5 {
            handle.delete(id).unwrap();
        }
        let s = handle.stats();
        assert!(s.rebuilds >= 1, "crossing the churn threshold must rebuild");
        assert!(
            s.log.total() < policy.min_updates,
            "the log resets after each rebuild instead of permanently re-triggering"
        );
        assert_eq!(s.total_deleted, 5);
    }

    #[test]
    fn rule_snapshot_freezes_priority_ordered_rules() {
        let (tree, rules) = built_tree(47);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        handle.insert(Rule::default_rule(top + 9)).unwrap();
        handle.delete(2).unwrap();
        let snap = handle.rule_snapshot();
        assert_eq!(snap.len(), handle.stats().active_rules);
        assert!(!snap.is_empty());
        assert_eq!(snap.epoch(), handle.epoch());
        // Priority-ordered, and every entry maps back to the live rule
        // it was copied from.
        for i in 0..snap.len() {
            if i > 0 {
                assert!(snap.rules().rule(i - 1).priority >= snap.rules().rule(i).priority);
            }
            let handle_id = snap.map()[i];
            handle.with_tree(|t| {
                assert!(t.is_active(handle_id));
                assert_eq!(t.rule(handle_id), snap.rules().rule(i));
            });
        }
    }

    #[test]
    fn adopt_swaps_in_an_externally_built_tree() {
        let (tree, rules) = built_tree(48);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let trace = generate_trace(&rules, &TraceConfig::new(300).with_seed(49));
        let snap = handle.rule_snapshot();
        // "Retrain" out of band: a differently shaped tree over the
        // frozen snapshot (stands in for a Trainer run).
        let mut template = DecisionTree::new(snap.rules());
        for k in template.cut_node(template.root(), Dim::DstIp, 16) {
            if !template.is_terminal(k, 8) {
                template.cut_node(k, Dim::SrcIp, 4);
            }
        }
        let epoch_before = handle.epoch();
        let report = handle.adopt(&template, &snap, &trace).expect("clean adopt");
        assert_eq!(report.epoch, epoch_before + 1, "one atomic epoch swap");
        assert_eq!(report.reconciled_inserts, 0);
        assert_eq!(report.reconciled_deletes, 0);
        assert_eq!(report.spot_checked, trace.len());
        let s = handle.stats();
        assert_eq!(s.retrains, 1);
        assert_eq!(s.rebuilds, 1, "an adopt is also a rebuild");
        assert_eq!(s.overlay_len, 0);
        assert_eq!(s.log, UpdateLog::default(), "adopt folds the churn log atomically");
        // The handle now serves the template's structure over its own
        // rule ids, bit-identical to a recompile.
        handle.with_tree(|t| {
            assert_eq!(t.node(t.root()).kind.children().len(), 16, "template shape adopted");
        });
        assert_snapshot_matches_rebuild(&handle, &trace);
        assert_eq!(handle.check_divergence(&trace), None);
    }

    #[test]
    fn adopt_reconciles_post_snapshot_updates() {
        let (tree, rules) = built_tree(50);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let trace = generate_trace(&rules, &TraceConfig::new(300).with_seed(51));
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        let snap = handle.rule_snapshot();
        // Updates land while the "retrain" is in flight.
        let late: Vec<RuleId> =
            (0..3).map(|i| handle.insert(Rule::default_rule(top + 1 + i)).unwrap()).collect();
        handle.delete(0).unwrap();
        handle.delete(7).unwrap();
        let mut template = DecisionTree::new(snap.rules());
        template.cut_node(template.root(), Dim::SrcIp, 8);
        let report = handle.adopt(&template, &snap, &trace).expect("clean adopt");
        assert_eq!(report.reconciled_inserts, 3, "post-snapshot inserts routed in");
        assert_eq!(report.reconciled_deletes, 2, "post-snapshot deletes dropped");
        assert_eq!(
            report.spot_checked,
            trace.len() + 3,
            "overlay-served inserts get probe packets in the spot check"
        );
        // Late inserts are served, deleted rules are not.
        let p = Packet::new(1, 2, 3, 4, 6);
        let got = handle.snapshot().classify(&p);
        assert_eq!(got, Some(late[2]), "highest-priority late insert must win");
        handle.with_tree(|t| {
            assert!(!t.is_active(0));
            assert!(!t.is_active(7));
        });
        assert_snapshot_matches_rebuild(&handle, &trace);
        assert_eq!(handle.check_divergence(&trace), None);
    }

    #[test]
    fn adopt_rejects_a_template_built_for_other_rules() {
        let (tree, _) = built_tree(52);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let snap = handle.rule_snapshot();
        let other = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 60).with_seed(53));
        let template = DecisionTree::new(&other);
        let epoch = handle.epoch();
        match handle.adopt(&template, &snap, &[]) {
            Err(AdoptError::TemplateMismatch { expected, got }) => {
                assert_eq!(expected, snap.len());
                assert_eq!(got, 60);
            }
            other => panic!("expected TemplateMismatch, got {other:?}"),
        }
        assert_eq!(handle.epoch(), epoch, "a rejected adopt publishes nothing");
    }

    #[test]
    fn adopt_spot_check_blocks_a_divergent_template() {
        // A template whose leaf lists secretly dropped a live rule must
        // be caught by the pre-publish linear-scan spot check and leave
        // the serving state untouched.
        let (tree, _) = built_tree(54);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let snap = handle.rule_snapshot();
        let mut template = DecisionTree::new(snap.rules());
        template.cut_node(template.root(), Dim::SrcIp, 8);
        // Sabotage: deactivating in the template removes rule 0 from
        // its leaves but leaves the arena content (checked by adopt)
        // intact — the graft then misses a rule that is live in the
        // handle.
        updates::delete_rule(&mut template, 0).unwrap();
        let victim = snap.rules().rule(0);
        let probe = Packet::new(
            victim.ranges[Dim::SrcIp.index()].lo,
            victim.ranges[Dim::DstIp.index()].lo,
            victim.ranges[Dim::SrcPort.index()].lo,
            victim.ranges[Dim::DstPort.index()].lo,
            victim.ranges[Dim::Proto.index()].lo,
        );
        let epoch = handle.epoch();
        match handle.adopt(&template, &snap, &[probe]) {
            Err(AdoptError::Diverged(p)) => assert_eq!(p, probe),
            other => panic!("expected Diverged, got {other:?}"),
        }
        assert_eq!(handle.epoch(), epoch, "a failed spot check publishes nothing");
        assert_eq!(handle.stats().retrains, 0);
    }

    #[test]
    fn check_divergence_probes_overlay_served_inserts() {
        // With an empty trace, certification still exercises pending
        // overlay rules through synthesised probe packets — a snapshot
        // taken mid-overlay is certified on the inserts it serves.
        let (tree, rules) = built_tree(58);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        let mut r = Rule::default_rule(top + 1);
        r.ranges[Dim::Proto.index()] = DimRange::exact(17);
        handle.insert(r).unwrap();
        assert_eq!(handle.stats().overlay_len, 1);
        assert_eq!(handle.check_divergence(&[]), None);
    }

    #[test]
    fn check_divergence_probes_retired_rules() {
        // With an empty trace, certification still exercises every
        // retired rank through a probe inside the deleted rule.
        let (tree, _) = built_tree(59);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        for victim in [0usize, 9, 40] {
            handle.delete(victim).unwrap();
        }
        assert_eq!(handle.stats().rebuilds, 0, "the deletes retire ranks");
        assert_eq!(handle.check_divergence(&[]), None);
    }

    #[test]
    fn duplicate_priorities_tiebreak_by_id_across_overlay_and_table() {
        // Two identical-priority rules covering the probe: one
        // compiled, one in the overlay (its SrcIp range narrowed so
        // admission control does not flag it as an exact duplicate).
        // The compiled one has the lower id, so it must keep winning —
        // the merge tie-break is (priority, lower id), same as the
        // arena and the linear scan.
        let rules = classbench::RuleSet::new(vec![Rule::default_rule(7)]);
        let tree = DecisionTree::new(&rules);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let mut twin = Rule::default_rule(7);
        twin.ranges[Dim::SrcIp.index()] = DimRange::new(0, 1 << 16);
        let dup = handle.insert(twin).unwrap();
        let p = Packet::new(1, 1, 1, 1, 1);
        let snap = handle.snapshot();
        assert_eq!(snap.classify(&p), Some(0), "lower id must win the tie");
        assert_eq!(handle.with_tree(|t| t.classify(&p)), Some(0));
        // Delete the compiled one: now the overlay rule wins.
        handle.delete(0).unwrap();
        assert_eq!(handle.snapshot().classify(&p), Some(dup));
    }

    #[test]
    fn admission_rejects_malformed_and_duplicate_rules_without_publishing() {
        let (tree, rules) = built_tree(60);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let epoch = handle.epoch();
        let stats = handle.stats();

        // Inverted range.
        let mut inverted = Rule::default_rule(9_000);
        inverted.ranges[Dim::SrcPort.index()] = DimRange { lo: 80, hi: 10 };
        match handle.insert(inverted) {
            Err(UpdateError::InvertedRange { dim: Dim::SrcPort, lo: 80, hi: 10 }) => {}
            other => panic!("expected InvertedRange, got {other:?}"),
        }
        // Degenerate (empty) range.
        let mut empty = Rule::default_rule(9_001);
        empty.ranges[Dim::DstIp.index()] = DimRange { lo: 7, hi: 7 };
        assert!(matches!(handle.insert(empty), Err(UpdateError::InvalidRange { .. })));
        // Out-of-span range.
        let mut wide = Rule::default_rule(9_002);
        wide.ranges[Dim::Proto.index()] = DimRange { lo: 0, hi: 300 };
        assert!(matches!(
            handle.insert(wide),
            Err(UpdateError::InvalidRange { dim: Dim::Proto, lo: 0, hi: 300 })
        ));
        // Exact duplicate of an active rule reports the existing id.
        let twin = rules.rules()[3].clone();
        assert_eq!(handle.insert(twin), Err(UpdateError::DuplicateRule(3)));

        // None of the rejections touched the serving state.
        assert_eq!(handle.epoch(), epoch, "rejected inserts publish nothing");
        let after = handle.stats();
        assert_eq!(after.total_inserted, stats.total_inserted);
        assert_eq!(after.active_rules, stats.active_rules);
        assert_eq!(after.overlay_len, 0);
        // But the health report remembers the last rejection.
        let health = handle.health();
        assert!(health.last_error.as_deref().unwrap_or("").contains("already active"));
        // A deleted rule's twin is admissible again: duplicates are
        // checked against *active* rules only.
        handle.delete(3).unwrap();
        handle.insert(rules.rules()[3].clone()).unwrap();
    }

    #[test]
    fn overlay_bound_forces_fold_rebuild_backpressure() {
        let (tree, rules) = built_tree(62);
        let policy =
            RebuildPolicy { max_churn: f64::INFINITY, min_updates: usize::MAX, max_overlay: 4 };
        let handle = ClassifierHandle::new(tree, policy);
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        for i in 0..4 {
            handle.insert(Rule::default_rule(top + 1 + i)).unwrap();
        }
        assert_eq!(handle.stats().overlay_len, 4);
        assert_eq!(handle.stats().rebuilds, 0);
        // The 5th insert would overflow the overlay: it still lands,
        // but folds everything into a recompile instead.
        let id = handle.insert(Rule::default_rule(top + 9)).unwrap();
        let s = handle.stats();
        assert_eq!(s.overlay_len, 0, "backpressure folds the overlay");
        assert_eq!(s.rebuilds, 1);
        let health = handle.health();
        assert_eq!(health.backpressure_rebuilds, 1);
        assert_eq!(health.overlay_cap, 4);
        assert!(health.last_error.as_deref().unwrap_or("").contains("overlay reached its bound"));
        // The folded insert is served.
        let p = Packet::new(1, 2, 3, 4, 6);
        assert_eq!(handle.snapshot().classify(&p), Some(id));
        let trace = generate_trace(&rules, &TraceConfig::new(200).with_seed(63));
        assert_snapshot_matches_rebuild(&handle, &trace);
    }

    #[test]
    fn health_report_tracks_overlay_epoch_lag_and_worker_state() {
        let (tree, rules) = built_tree(64);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        let h0 = handle.health();
        assert_eq!(h0.consecutive_failures, 0);
        assert!(!h0.degraded);
        assert_eq!(h0.overlay_len, 0);
        assert_eq!(h0.epoch_lag, 0);
        assert_eq!(h0.last_error, None);

        handle.insert(Rule::default_rule(top + 1)).unwrap();
        handle.delete(0).unwrap();
        let h1 = handle.health();
        assert_eq!(h1.overlay_len, 1);
        assert_eq!(h1.epoch_lag, 2, "one insert + one delete since the last recompile");

        handle.note_worker_health(3, true, Some("injected retrain panic".into()));
        let h2 = handle.health();
        assert_eq!(h2.consecutive_failures, 3);
        assert!(h2.degraded);
        assert_eq!(h2.last_error.as_deref(), Some("injected retrain panic"));
        // `None` leaves the sticky last_error in place.
        handle.note_worker_health(0, false, None);
        let h3 = handle.health();
        assert_eq!(h3.consecutive_failures, 0);
        assert!(!h3.degraded);
        assert_eq!(h3.last_error.as_deref(), Some("injected retrain panic"));
        // A rebuild clears the epoch lag.
        handle.force_rebuild();
        assert_eq!(handle.health().epoch_lag, 0);
        // Display formats every field (inf cap for a never-policy).
        let line = handle.health().to_string();
        assert!(line.contains("overlay 0/inf"), "got {line}");
    }

    #[test]
    fn overlay_inserted_rule_deleted_before_compile_never_reaches_the_flat() {
        // Satellite: an id that lives only in the overlay and dies
        // before any recompile must never appear in a FlatTree — the
        // delete drops it from the overlay without cloning the flat,
        // and the eventual fold excludes it.
        let (tree, rules) = built_tree(66);
        let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        let keep_lo = handle.insert(Rule::default_rule(top + 1)).unwrap();
        let victim = handle.insert(Rule::default_rule(top + 2)).unwrap();
        let keep_hi = handle.insert(Rule::default_rule(top + 3)).unwrap();
        let flat_before = handle.snapshot().flat() as *const FlatTree as usize;
        handle.delete(victim).unwrap();
        let snap = handle.snapshot();
        // The delete was overlay-only: the compiled tree was not
        // recompiled (same allocation), no rank was retired, and the
        // overlay dropped exactly the victim.
        assert_eq!(snap.flat() as *const FlatTree as usize, flat_before, "flat must be untouched");
        assert_eq!(snap.num_rules(), snap.flat().num_rules() + 2, "no rank retired");
        assert_eq!(handle.stats().overlay_len, 2);
        let p = Packet::new(1, 2, 3, 4, 6);
        assert_eq!(snap.classify(&p), Some(keep_hi), "surviving overlay rules keep serving");
        // After the fold, the victim id is gone from the compiled tree
        // too: classify never returns it, the survivors win.
        handle.force_rebuild();
        let folded = handle.snapshot();
        assert_eq!(folded.classify(&p), Some(keep_hi));
        handle.delete(keep_hi).unwrap();
        assert_eq!(handle.snapshot().classify(&p), Some(keep_lo), "victim must not resurface");
        let trace = generate_trace(&rules, &TraceConfig::new(200).with_seed(67));
        assert_snapshot_matches_rebuild(&handle, &trace);
    }

    #[test]
    fn adopt_rejects_a_foreign_snapshot_without_panicking() {
        // A snapshot from a *different* handle whose arena ids outrun
        // ours used to index out of bounds inside adopt; now it is a
        // typed error that leaves the epoch untouched.
        let (big_tree, _) = built_tree(68);
        let big = ClassifierHandle::new(big_tree, RebuildPolicy::never());
        let foreign = big.rule_snapshot();
        let small_rules = classbench::RuleSet::new(vec![Rule::default_rule(1)]);
        let small = ClassifierHandle::new(DecisionTree::new(&small_rules), RebuildPolicy::never());
        let template = DecisionTree::new(foreign.rules());
        let epoch = small.epoch();
        match small.adopt(&template, &foreign, &[]) {
            Err(AdoptError::ForeignSnapshot { max_id, arena }) => {
                assert!(max_id >= arena);
                assert_eq!(arena, 1);
            }
            other => panic!("expected ForeignSnapshot, got {other:?}"),
        }
        assert_eq!(small.epoch(), epoch, "a rejected adopt publishes nothing");
        assert!(small.health().last_error.as_deref().unwrap_or("").contains("arena"));
    }

    /// A handle over a two-level cut tree of `size` ACL rules.
    fn cut_handle(
        size: usize,
        seed: u64,
        policy: RebuildPolicy,
    ) -> (ClassifierHandle, classbench::RuleSet) {
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

    /// `snap.classify_sharded` over `trace` into a fresh buffer.
    fn sharded(snap: &Snapshot, trace: &[Packet], threads: usize) -> Vec<Option<RuleId>> {
        let mut out = vec![None; trace.len()];
        snap.classify_sharded(trace, &mut out, threads, 1);
        out
    }

    #[test]
    fn sharded_results_match_scalar_for_any_thread_count() {
        let (handle, rules) = cut_handle(200, 7, RebuildPolicy::never());
        let snap = handle.snapshot();
        let trace = generate_trace(&rules, &TraceConfig::new(333).with_seed(8));
        let expect: Vec<_> = trace.iter().map(|p| snap.classify(p)).collect();
        for threads in [0, 1, 2, 3, 4, 8, 64, 1000] {
            assert_eq!(sharded(&snap, &trace, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn sharded_handles_degenerate_traces() {
        let (handle, rules) = cut_handle(200, 7, RebuildPolicy::never());
        let snap = handle.snapshot();
        for len in [0usize, 1, 2] {
            let trace = generate_trace(&rules, &TraceConfig::new(len).with_seed(9));
            let out = sharded(&snap, &trace, 4);
            for (p, got) in trace.iter().zip(&out) {
                assert_eq!(*got, snap.classify(p));
            }
        }
    }

    #[test]
    fn sharded_snapshot_with_pending_updates_matches_a_recompile() {
        // A snapshot carrying pending updates (overlay inserts and a
        // retired rank) shards exactly like a from-scratch compile
        // of the updated tree.
        let (handle, rules) = cut_handle(150, 50, RebuildPolicy::never());
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
            assert_eq!(sharded(&snap, &trace, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn sharded_serves_each_snapshot_as_published() {
        let (handle, rules) = cut_handle(150, 50, RebuildPolicy::default_policy());
        let trace = generate_trace(&rules, &TraceConfig::new(120).with_seed(52));
        // Serve a snapshot, publish an update, serve the newest
        // snapshot: sharding serves exactly the snapshot it is given.
        let old = handle.snapshot();
        let before = sharded(&old, &trace, 2);
        let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
        let id = handle.insert(Rule::default_rule(top + 1)).unwrap();
        let new = handle.snapshot();
        assert_eq!((old.epoch(), new.epoch()), (0, 1));
        let after = sharded(&new, &trace, 2);
        assert!(after.iter().all(|&m| m == Some(id)), "shadowing insert must win everywhere");
        assert_ne!(before, after);
        // The old snapshot still serves the state it was published at.
        assert_eq!(sharded(&old, &trace, 2), before);
        // And the results equal a from-scratch rebuild of the tree.
        let rebuilt = handle.with_tree(FlatTree::compile);
        let want: Vec<_> = trace.iter().map(|p| rebuilt.classify(p)).collect();
        assert_eq!(after, want);
    }

    #[test]
    fn sharded_readers_survive_concurrent_churn() {
        let (handle, rules) = cut_handle(150, 50, RebuildPolicy::default_policy());
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
                    let out = sharded(&snap, t, 2);
                    for (p, got) in t.iter().zip(&out) {
                        assert_eq!(*got, snap.classify(p), "sharded vs scalar at {p}");
                    }
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
