//! A seeded, single-threaded simulator of the whole classifier
//! lifecycle over an in-memory storage that can crash after any call.
//!
//! One thread draws every step from one seed (`NC_SIM_SEED`, printed
//! so a failure replays exactly): churn with update bursts, reader
//! batches checked against the linear scan, lifecycle worker polls
//! whose retrain seam panics once and corrupts one template, hand-driven
//! retrains whose swap lands after more churn, checkpoints and crashes.
//! The storage keeps each file's synced bytes apart from its unsynced
//! tail; a crash lands at a seeded storage call and keeps the synced
//! bytes and a seeded prefix of each tail (none: a power loss; all: a
//! `kill -9`; part: a torn record). Every recovery is checked against
//! the live handle's own history — what it served at each epoch — and
//! the run carries on from it. The soaks own the rest: `crash_soak`
//! crashes every storage call of a scripted workload, and `chaos_soak`
//! checks how the worker handles each fault.

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, Dim, GeneratorConfig, Packet, Rule, RuleSet,
    TraceConfig,
};
use dtree::{ClassifierHandle, DecisionTree, RebuildPolicy, RuleId, TreeStats, UpdateError};
use neurocuts::persist::{checkpoint_path, wal_path};
use neurocuts::{
    retrain_snapshot, LifecycleConfig, LifecycleEvent, LifecycleWorker, NeuroCutsConfig,
    PersistConfig, Persistence, RetrainFn, RetryPolicy,
};
use rand::{Rng as _, SeedableRng as _};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

mod faulty_retrain;
mod mem_storage;
use faulty_retrain::faulty;
use mem_storage::{Image, Mem};

const DEFAULT_SEED: u64 = 0x51_5EED;
const STEPS: usize = 800;
const CHECK_EVERY: usize = 25;
const RULES: usize = 60;
const MIN_LIVE: usize = 16;
/// Retrain attempts across all of a run's workers (each one trains).
const RETRAIN_BUDGET: usize = 5;
const HAND_RETRAINS: usize = 2;
const POLICY: RebuildPolicy = RebuildPolicy { max_churn: 0.25, min_updates: 8, max_overlay: 8 };
const RETRY: RetryPolicy = RetryPolicy { max_failures: 2, base_backoff: 1, max_backoff: 2 };
const PERSIST: PersistConfig = PersistConfig { sync_every: 4, checkpoint_wal_threshold: 48 };
const DIR: &str = "sim";
/// Images whose replay includes an `Adopt` record: it rebuilds by
/// folding, not into the adopted shape, so their tree statistics are
/// not compared (a known gap).
const EXEMPT: &str = "images exempt from the TreeStats check";

/// What the live handle served at one epoch, and whether an adopt
/// published it.
#[derive(Debug, Clone)]
struct Served {
    stats: TreeStats,
    classes: Vec<Option<RuleId>>,
    adopt: bool,
}

fn served(handle: &ClassifierHandle, trace: &[Packet], adopt: bool) -> Served {
    let mut classes = vec![None; trace.len()];
    handle.snapshot().classify_batch(trace, &mut classes);
    Served { stats: handle.with_tree(TreeStats::compute), classes, adopt }
}

/// The run's first retrain attempt panics and its second template is
/// corrupted: two failures in a row reach the retry bound. A worker
/// started after `done` attempts of the run picks up from there.
fn retrain_after(done: usize) -> RetrainFn {
    match done {
        0 => |rules, cfg, seed| faulty(rules, cfg, seed, &[1], &[2]),
        1 => |rules, cfg, seed| faulty(rules, cfg, seed, &[], &[1]),
        _ => retrain_snapshot,
    }
}

fn seeded_tree(rules: &RuleSet) -> DecisionTree {
    let mut tree = DecisionTree::new(rules);
    for k in tree.cut_node(tree.root(), Dim::SrcIp, 8) {
        if !tree.is_terminal(k, 8) {
            tree.cut_node(k, Dim::DstIp, 4);
        }
    }
    tree
}

struct Sim {
    seed: u64,
    rng: ChaCha8Rng,
    donors: Vec<Rule>,
    trace: Vec<Packet>,
    /// Steps that start with an update burst.
    bursts: BTreeSet<usize>,
    cfg: LifecycleConfig,
    storage: Mem,
    persistence: Persistence,
    handle: ClassifierHandle,
    worker: LifecycleWorker,
    /// Active ids the churn may delete.
    live: Vec<RuleId>,
    /// What the live handle served, by epoch.
    history: Vec<Served>,
    /// The newest epoch known synced.
    durable: u64,
    /// Updates this handle admitted, replayed ones included.
    admitted: usize,
    attempts: usize,
    hand_retrains: usize,
    adopted: Vec<LifecycleEvent>,
    /// The image of an armed crash, once its storage call ran.
    crashes: Vec<Image>,
    /// How often each checked situation came up.
    cov: BTreeMap<&'static str, usize>,
}

impl Sim {
    fn new(seed: u64) -> Sim {
        let config = GeneratorConfig::new(ClassifierFamily::Acl, RULES).with_seed(seed);
        let rules = generate_rules(&config);
        let trace = generate_trace(&rules, &TraceConfig::new(128).with_seed(seed ^ 0x7ACE));
        // Three bursts land in the first third of the run.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut bursts = BTreeSet::new();
        while bursts.len() < 3 {
            bursts.insert(rng.gen_range(0..STEPS / 3));
        }
        let mut cfg = LifecycleConfig::new(NeuroCutsConfig::smoke_test());
        (cfg.train.max_timesteps, cfg.train.timesteps_per_batch) = (200, 200);
        (cfg.retrain_churn, cfg.retry) = (0.3, RETRY);
        let handle = ClassifierHandle::new(seeded_tree(&rules), POLICY);
        let storage = Mem::default();
        let mut sim = Sim {
            seed,
            rng,
            donors: rules.rules().to_vec(),
            live: Vec::new(),
            history: Vec::new(),
            worker: LifecycleWorker::new(cfg.clone(), &handle),
            persistence: Persistence::with_storage(Arc::new(storage.clone()), DIR, PERSIST),
            trace,
            bursts,
            cfg,
            storage,
            handle,
            durable: 0,
            admitted: 0,
            attempts: 0,
            hand_retrains: 0,
            adopted: Vec::new(),
            crashes: Vec::new(),
            cov: BTreeMap::new(),
        };
        sim.restart();
        sim.checkpoint();
        sim
    }

    fn hit(&mut self, what: &'static str, yes: bool) {
        *self.cov.entry(what).or_default() += usize::from(yes);
    }

    /// Restart the bookkeeping at the current handle and storage: its
    /// epoch, counters and active ids, and a fresh worker within the
    /// retrain budget that fails where the run's faults say.
    fn restart(&mut self) {
        let (handle, epoch) = (&self.handle, self.handle.epoch());
        self.history.truncate(epoch as usize);
        self.history.push(served(handle, &self.trace, false));
        (self.durable, self.admitted) = (epoch, handle.stats().lifetime_updates());
        self.live =
            handle.with_tree(|t| (0..t.rules().len()).filter(|&i| t.is_active(i)).collect());
        self.persistence = Persistence::with_storage(Arc::new(self.storage.clone()), DIR, PERSIST);
        let mut cfg = self.cfg.clone();
        (cfg.persist, cfg.retrain) = (Some(self.persistence.clone()), retrain_after(self.attempts));
        match RETRAIN_BUDGET.saturating_sub(self.attempts) {
            0 => cfg.retrain_churn = f64::INFINITY,
            left => cfg.max_retrains = left,
        }
        self.worker = LifecycleWorker::new(cfg, handle);
    }

    /// After every call: note the epoch it may have published (by an
    /// adopt when `adopt`), bound the images it captured, and advance
    /// the synced epoch when no WAL byte is unsynced.
    fn record(&mut self, adopt: bool) {
        let epoch = self.handle.epoch();
        assert!(epoch <= self.history.len() as u64, "seed {}: an epoch went unseen", self.seed);
        if epoch == self.history.len() as u64 {
            self.history.push(served(&self.handle, &self.trace, adopt));
        }
        let (images, synced) = self.storage.take_images(self.durable, epoch);
        self.crashes.extend(images);
        if synced {
            self.durable = epoch;
        }
    }

    fn checkpoint(&mut self) {
        self.persistence.checkpoint(&self.handle, self.cfg.train.seed).expect("checkpoint");
        self.record(false);
    }

    fn insert(&mut self) {
        let mut rule = self.donors[self.rng.gen_range(0..self.donors.len())].clone();
        rule.priority = self.rng.gen_range(-100..100_000);
        match self.handle.insert(rule) {
            Ok(id) => {
                self.live.push(id);
                self.admitted += 1;
            }
            Err(UpdateError::DuplicateRule(_)) => {}
            Err(err) => panic!("seed {}: insert refused: {err}", self.seed),
        }
        self.record(false);
        let overlay = self.handle.health().overlay_len;
        assert!(overlay <= POLICY.max_overlay, "seed {}: overlay bound", self.seed);
    }

    fn churn(&mut self) {
        if self.live.len() < MIN_LIVE || self.rng.gen_range(0..5) < 3 {
            return self.insert();
        }
        let id = self.live.swap_remove(self.rng.gen_range(0..self.live.len()));
        self.handle.delete(id).unwrap_or_else(|e| panic!("seed {}: delete: {e}", self.seed));
        self.admitted += 1;
        self.record(false);
    }

    fn read(&mut self) {
        let start = self.rng.gen_range(0..self.trace.len());
        let batch = &self.trace[start..self.trace.len().min(start + 32)];
        let mut got = vec![None; batch.len()];
        self.handle.snapshot().classify_batch(batch, &mut got);
        let want: Vec<_> =
            self.handle.with_tree(|t| batch.iter().map(|p| t.linear_classify(p)).collect());
        assert_eq!(got, want, "seed {}: a reader saw a wrong match", self.seed);
    }

    /// One worker poll. How the worker handles the failures provoked
    /// here is `chaos_soak`'s to check; the run checks what it
    /// published.
    fn poll(&mut self) {
        let event = self.worker.poll(&self.handle, &self.trace).cloned();
        self.record(event.as_ref().is_some_and(|e| e.adopted));
        self.attempts += usize::from(event.is_some());
        if let Some(e) = event.filter(|e| e.adopted) {
            self.hit("worker adopts", true);
            self.adopted.push(e);
        }
    }

    /// Freeze the rules, train, churn some more, then adopt with the
    /// worker's probes: updates land between the snapshot and its swap.
    fn hand_retrain(&mut self) {
        self.hand_retrains += 1;
        let snap = self.handle.rule_snapshot();
        let seed = self.cfg.train.seed ^ 0xA11 ^ self.hand_retrains as u64;
        let (template, _, _) =
            retrain_snapshot(snap.rules(), &self.cfg.train, seed).expect("train");
        for _ in 0..self.rng.gen_range(1..=4) {
            self.churn();
        }
        let corners = snap.rules().rules().iter().map(|r| r.low_corner());
        let probes: Vec<Packet> = self.trace.iter().copied().chain(corners).collect();
        let report = self.handle.adopt(&template, &snap, &probes);
        let report = report.unwrap_or_else(|e| panic!("seed {}: hand adopt: {e}", self.seed));
        self.record(true);
        let reconciled = report.reconciled_inserts + report.reconciled_deletes;
        self.hit("adopts with reconciled updates", reconciled > 0);
    }

    fn certify(&self, at: &str) {
        let seed = self.seed;
        assert_eq!(self.handle.check_divergence(&self.trace), None, "seed {seed}: {at}");
        let stats = self.handle.stats();
        assert!(stats.overlay_len < stats.active_rules, "seed {seed}: overlay at {at}");
        let depth = self.handle.with_tree(TreeStats::compute).time;
        assert!(depth <= 64, "seed {seed}: depth {depth} at {at}");
        assert_eq!(stats.lifetime_updates(), self.admitted, "seed {seed}: counters at {at}");
    }

    /// Crash at `image` (see [`Image::crash`]) keeping none, all or a
    /// part of each unsynced tail, drawn from the seed, recover, check
    /// the result against the history and carry on from it with a
    /// fresh worker.
    fn crash_and_continue(&mut self, image: Image) {
        let (floor, ceiling) = (image.floor, image.ceiling);
        let at = format!("seed {}: crash in [{floor}, {ceiling}]", self.seed);
        let rng = &mut self.rng;
        let (storage, torn, _) = image.crash(|tail| match rng.gen_range(0..3) {
            0 => 0,
            1 => tail,
            _ => rng.gen_range(0..=tail),
        });
        let persistence = Persistence::with_storage(Arc::new(storage.clone()), DIR, PERSIST);
        let recovery = persistence.recover(POLICY, &self.trace);
        let (handle, report) = recovery.unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
        self.hit("crashes the run carried on from", true);
        assert_eq!(report.truncated_tail.is_some(), torn, "{at}: truncated tail");

        let epoch = handle.epoch();
        assert!((floor..=ceiling).contains(&epoch), "{at}: recovered epoch {epoch}");
        let (live, now) = (&self.history[epoch as usize], served(&handle, &self.trace, false));
        assert_eq!(now.classes, live.classes, "{at}: classification at {epoch}");
        let exempt =
            ((epoch - report.replayed + 1)..=epoch).any(|e| self.history[e as usize].adopt);
        assert!(exempt || now.stats == live.stats, "{at}: {:?} != {:?}", now.stats, live.stats);
        self.hit(EXEMPT, exempt);
        (self.handle, self.storage) = (handle, storage);
        self.restart();
        self.certify("recovery");
    }

    fn run(&mut self) {
        for step in 0..STEPS {
            let (mut armed, mut calls) = (false, 0);
            self.storage.set(|d| (armed, calls) = (d.capture.is_some(), d.calls));
            if self.bursts.contains(&step) {
                (0..8).for_each(|_| self.insert());
            }
            match self.rng.gen_range(0..100) {
                0..=54 => self.churn(),
                55..=69 => self.read(),
                70..=84 => self.poll(),
                85..=86 if self.hand_retrains < HAND_RETRAINS => self.hand_retrain(),
                87..=97 => self.checkpoint(),
                98..=99 if !armed => {
                    let at = calls + self.rng.gen_range(1..=60);
                    self.storage.set(|d| d.capture = Some(at));
                }
                _ => self.churn(),
            }
            if let Some(image) = self.crashes.pop() {
                self.storage.set(|d| d.capture = None);
                self.crash_and_continue(image);
            }
            if (step + 1) % CHECK_EVERY == 0 {
                self.certify(&format!("step {}", step + 1));
            }
        }
        self.certify("the end");
    }
}

/// The whole lifecycle under one seed; replay a failure with
/// `NC_SIM_SEED=<printed seed>`.
#[test]
fn seeded_lifecycle_survives_faults_and_crashes() {
    let seed = std::env::var("NC_SIM_SEED").ok().and_then(|s| s.parse().ok());
    let seed = seed.unwrap_or(DEFAULT_SEED);
    println!("lifecycle sim: NC_SIM_SEED={seed}");
    let mut sim = Sim::new(seed);
    sim.run();
    println!("lifecycle sim: {:#?}", sim.cov);

    // Every adopted swap re-derives from its snapshot and seed alone.
    for e in &sim.adopted {
        let again = retrain_snapshot(&e.snapshot_rules, &sim.cfg.train, e.train_seed);
        let (_, stats, steps) = again.expect("an adopted snapshot retrains");
        assert_eq!((Some(stats), steps), (e.template_stats, e.timesteps), "seed {seed}");
    }
    // No vacuous default seed: each of the 4 situations the checks
    // count came up (the known gap aside).
    if seed == DEFAULT_SEED {
        assert_eq!(sim.cov.len(), 4, "default seed: {:?}", sim.cov);
        assert!(sim.cov.iter().all(|(what, &n)| n > 0 || *what == EXEMPT), "{:?}", sim.cov);
    }
}

/// A failed WAL append leaves no record behind: a sync that fails once,
/// and a write that stops half-way, each refuse their update, a crash
/// right after the refusal does not bring it back, and recovery replays
/// the next admitted update exactly. When cutting the failed record off
/// fails too, appends are refused until a checkpoint manages the cut,
/// the checkpoint is refused while it cannot, and a crash between its
/// rotation and its rename recovers without the refused update.
#[test]
fn a_failed_wal_append_leaves_no_record_behind() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, RULES).with_seed(5));
    let trace = generate_trace(&rules, &TraceConfig::new(128).with_seed(6));
    let rule = |priority| Rule { priority, ..rules.rules()[priority as usize % RULES].clone() };
    for (short, poison) in [(false, false), (true, false), (false, true)] {
        let at = format!("short write {short}, poison {poison}");
        let storage = Mem::default();
        let persist = PersistConfig { sync_every: 1, ..PersistConfig::default() };
        let persistence =
            Persistence::with_storage(Arc::new(storage.clone()), "append", persist.clone());
        let live = ClassifierHandle::new(seeded_tree(&rules), RebuildPolicy::default_policy());
        persistence.checkpoint(&live, 0).expect("attach");
        live.insert(rule(1_000)).expect("first insert");
        storage.set(|d| (d.fail_sync, d.short_append, d.fail_cut) = (!short, short, poison));
        let refused = rule(1_001);
        let err = live.insert(refused.clone()).expect_err("the faulted append refuses");
        assert!(matches!(err, UpdateError::WalAppend { .. }), "{at}: {err}");
        let absent =
            |h: &ClassifierHandle| h.with_tree(|t| t.rules().iter().all(|r| *r != refused));
        let crashes: Vec<Image> = if !poison {
            vec![storage.image()]
        } else {
            // A crash before the cut is made may keep the refused
            // record, so the crashes checked come after the rotation.
            assert!(live.insert(rule(1_002)).is_err(), "a poisoned log refuses appends");
            assert!(live.health().last_error.is_some_and(|e| e.contains("checkpoint rotates")));
            storage.set(|d| d.fail_cut = true);
            persistence.checkpoint(&live, 0).expect_err("a log that cannot be cut is not retired");
            storage.set(|d| d.capture = Some(0));
            persistence.checkpoint(&live, 0).expect("the checkpoint cuts and rotates the log");
            let dir = Path::new("append");
            let (rotated, renamed) = (wal_path(dir, 1), checkpoint_path(dir, 1));
            let (images, _) = storage.take_images(0, 0);
            let window =
                |i: &Image| i.files.contains_key(&rotated) && !i.files.contains_key(&renamed);
            let crashes: Vec<Image> = images.into_iter().filter(window).collect();
            assert!(!crashes.is_empty(), "{at}: no crash between the rotation and the rename");
            crashes
        };
        for (image, kill) in crashes.iter().flat_map(|i| [(i, false), (i, true)]) {
            let (crashed, _, _) = image.crash(|tail| if kill { tail } else { 0 });
            let persistence =
                Persistence::with_storage(Arc::new(crashed), "append", persist.clone());
            let recovery = persistence.recover(RebuildPolicy::default_policy(), &trace);
            let (recovered, _) = recovery.unwrap_or_else(|e| panic!("{at}, kill {kill}: {e}"));
            assert_eq!(recovered.epoch(), live.epoch(), "{at}, kill {kill}");
            assert!(absent(&recovered), "{at}, kill {kill}: the refused update came back");
        }
        let admitted = live.insert(rule(1_002)).expect("the next insert is admitted");

        let recovery = persistence.recover(RebuildPolicy::default_policy(), &trace);
        let (recovered, report) = recovery.expect("the log recovers");
        assert_eq!(report.truncated_tail, None, "{at}: the log ends on a record");
        assert_eq!(recovered.epoch(), live.epoch(), "{at}");
        assert!(recovered.with_tree(|t| t.is_active(admitted)), "the next update replays");
        assert!(absent(&recovered), "{at}: the refused update is absent");
        assert_eq!(recovered.with_tree(TreeStats::compute), live.with_tree(TreeStats::compute));
        let classes = |h: &ClassifierHandle| served(h, &trace, false).classes;
        assert_eq!(classes(&recovered), classes(&live), "{at}");
    }
}
