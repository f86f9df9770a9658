//! Crash soak: crash a persisted classifier at every kill point of a
//! scripted workload, then prove recovery is **bit-identical** to the
//! durable logical op stream — also when the recovery itself crashes.
//!
//! The workload — attach, then inserts, deletes and forced rebuilds
//! with a checkpoint every few ops — runs over the in-memory storage
//! of `mem_storage`, which images the files after every mutating call
//! (create, append, sync, rename, remove, truncate). Each image is a
//! kill point, and each kill point crashes three ways: every file
//! keeps its synced bytes and none of its unsynced tail (a power loss),
//! all of it (a `kill -9`: the page cache survives) or half of it (a
//! torn write). For every crash the test builds an **independent
//! reference** straight from the surviving bytes, through the raw
//! decoders and the plain public admission API, then runs
//! `Persistence::recover` and asserts the recovered handle matches the
//! reference bit-for-bit: `TreeStats`, epoch, and every packet of a
//! 256-packet trace — plus the recovery's own linear-scan proof. The
//! recovery of each distinct power-loss image is imaged and crashed in
//! turn, and the recovery after that must match the same reference.
//!
//! `NC_SIM_SEED` shapes the rule set and workload and is printed so
//! any failure replays exactly.

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, Dim, DimRange, GeneratorConfig, Packet, Rule,
    TraceConfig,
};
use dtree::storage::Storage;
use dtree::wal::{read_wal_bytes, WalRecord};
use dtree::{ClassifierHandle, DecisionTree, RebuildPolicy, TreeStats};
use neurocuts::persist::{decode_checkpoint, wal_path};
use neurocuts::{PersistConfig, Persistence, RecoverError};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;

mod mem_storage;
use mem_storage::{Image, Mem};

const OPS: usize = 60;
const CHECKPOINT_EVERY: usize = 8;
const DEFAULT_SEED: u64 = 0xC4A0_5EED;
const DIR: &str = "crash";
/// How much of its unsynced tail (the argument) a file keeps.
type Keep = fn(usize) -> usize;
/// The three crashes of every kill point.
const CRASHES: [(&str, Keep); 3] =
    [("power loss", |_| 0), ("kill -9", |tail| tail), ("torn write", |tail| tail / 2)];

fn soak_seed() -> u64 {
    std::env::var("NC_SIM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SEED)
}

fn persist_config() -> PersistConfig {
    PersistConfig { sync_every: 4, ..PersistConfig::default() }
}

/// The starting classifier: generator rules + a hand-cut tree, fully
/// determined by the seed (no training on the crash path).
fn seeded_tree(seed: u64) -> DecisionTree {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 80).with_seed(seed));
    let mut tree = DecisionTree::new(&rules);
    for k in tree.cut_node(tree.root(), Dim::SrcIp, 8) {
        if !tree.is_terminal(k, 8) {
            tree.cut_node(k, Dim::DstIp, 4);
        }
    }
    tree
}

/// The op-`i` insert: distinct ranges per step so no insert is ever a
/// duplicate, valid in every dimension.
fn scripted_rule(seed: u64, i: usize) -> Rule {
    let mut rule = Rule::default_rule(1_000 + i as i32);
    let base = 1_000 + (seed % 1_000) + i as u64 * 16;
    rule.ranges[0] = DimRange { lo: base, hi: base + 7 };
    rule
}

/// Attach persistence and run `ops` scripted ops, imaging the files
/// after every mutating storage call. Each image is bounded by the
/// newest epoch whose WAL records were all synced before its call and
/// the live epoch after it.
fn run_workload(seed: u64, ops: usize) -> Vec<Image> {
    let storage = Mem::default();
    storage.set(|d| d.capture = Some(0));
    let persistence = Persistence::with_storage(Arc::new(storage.clone()), DIR, persist_config());
    let handle = ClassifierHandle::new(seeded_tree(seed), RebuildPolicy::default_policy());
    let (mut images, mut durable) = (Vec::new(), 0);
    let mut record = |handle: &ClassifierHandle| {
        let (taken, synced) = storage.take_images(durable, handle.epoch());
        images.extend(taken);
        if synced {
            durable = handle.epoch();
        }
    };

    persistence.checkpoint(&handle, seed).expect("attach checkpoint");
    record(&handle);
    let mut inserted = VecDeque::new();
    for i in 0..ops {
        match i % 8 {
            3 => {
                if let Some(id) = inserted.pop_front() {
                    handle.delete(id).expect("scripted delete");
                }
            }
            6 => handle.force_rebuild(),
            _ => {
                inserted.push_back(handle.insert(scripted_rule(seed, i)).expect("scripted insert"))
            }
        }
        record(&handle);
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            persistence.checkpoint(&handle, seed).expect("periodic checkpoint");
            record(&handle);
        }
    }
    images
}

/// Build the ground-truth handle straight from the surviving bytes,
/// using only raw reads, the decoders and the plain public admission
/// path — fully independent of `Persistence::recover`'s internals.
fn independent_reference(storage: &Mem) -> ClassifierHandle {
    let dir = Path::new(DIR);
    let mut names = storage.list(dir).expect("list the crashed files");
    names.sort();
    let base = names
        .iter()
        .rev()
        .filter(|n| n.starts_with("checkpoint-") && n.ends_with(".ncck"))
        .find_map(|n| decode_checkpoint(&storage.read(&dir.join(n)).ok()?).ok())
        .expect("at least one durable checkpoint");
    let handle = ClassifierHandle::new_at_epoch(
        base.tree.clone(),
        RebuildPolicy::default_policy(),
        base.epoch,
    );
    let mut gen = base.generation;
    while let Ok(bytes) = storage.read(&wal_path(dir, gen)) {
        let outcome = read_wal_bytes(&bytes).expect("chain file reads");
        for record in outcome.records {
            match record {
                WalRecord::Insert { id, rule } => {
                    let got = handle.insert(rule).expect("reference insert");
                    assert_eq!(got, id, "arena id determinism broke on reference replay");
                }
                WalRecord::Delete { id } => handle.delete(id).expect("reference delete"),
                WalRecord::Rebuild | WalRecord::Adopt => handle.force_rebuild(),
            }
        }
        if outcome.tail.is_some() {
            break; // torn tail on the chain's last file: the durable
                   // stream ends at the verified prefix
        }
        gen += 1;
    }
    handle
}

/// Assert `recovered` matches `reference` bit-for-bit: epoch, tree
/// statistics and every packet of `trace`.
fn assert_matches(
    recovered: &ClassifierHandle,
    reference: &ClassifierHandle,
    trace: &[Packet],
    at: &str,
) {
    assert_eq!(recovered.epoch(), reference.epoch(), "{at}: epoch diverged");
    assert_eq!(
        recovered.with_tree(TreeStats::compute),
        reference.with_tree(TreeStats::compute),
        "{at}: tree stats diverged"
    );
    let mut got = vec![None; trace.len()];
    let mut want = vec![None; trace.len()];
    recovered.snapshot().classify_batch(trace, &mut got);
    reference.snapshot().classify_batch(trace, &mut want);
    assert_eq!(got, want, "{at}: trace classification diverged");
}

/// The soak proper: every kill point after the first checkpoint lands,
/// each crashed three ways.
#[test]
fn kill_points_recover_bit_identical() {
    let seed = soak_seed();
    println!("crash soak: NC_SIM_SEED={seed}");
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 80).with_seed(seed));
    let trace = generate_trace(&rules, &TraceConfig::new(256).with_seed(seed ^ 0x7ACE));

    // Kill points before the first checkpoint lands have no durable
    // state behind them; that edge is pinned separately below.
    let images = run_workload(seed, OPS);
    let kill_points: Vec<&Image> = images.iter().filter(|i| i.has_checkpoint()).collect();
    assert!(kill_points.len() >= 21, "the soak must cover at least 21 kill points");

    let (mut torn_records, mut tmp_writes, mut before_renames) = (0usize, 0usize, 0usize);
    for (k, image) in kill_points.iter().enumerate() {
        let tmp_synced = image.tmp_checkpoint_synced();
        tmp_writes += usize::from(tmp_synced == Some(false));
        before_renames += usize::from(tmp_synced == Some(true));
        for (how, keep) in CRASHES {
            let at = format!("seed {seed}: kill point {k} ({how})");
            let (storage, torn, torn_record) = image.crash(keep);
            torn_records += usize::from(torn_record);

            // Ground truth first: recovery rewrites the files.
            let reference = independent_reference(&storage);
            let persistence = Persistence::with_storage(Arc::new(storage), DIR, persist_config());
            let (recovered, report) = persistence
                .recover(RebuildPolicy::default_policy(), &trace)
                .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
            assert_eq!(
                report.truncated_tail.is_some(),
                torn,
                "{at}: a WAL ending off a record boundary must be truncated, never replayed"
            );

            // Bit-identical: epoch, tree statistics, and every packet.
            assert_matches(&recovered, &reference, &trace, &at);
            let epoch = recovered.epoch();
            assert_eq!(report.epoch, epoch, "{at}: report epoch must match the recovered handle");
            assert!(
                (image.floor..=image.ceiling).contains(&epoch),
                "{at}: recovered epoch {epoch} outside [{}, {}]",
                image.floor,
                image.ceiling
            );
            assert_eq!(
                recovered.check_divergence(&trace),
                None,
                "{at}: recovered snapshot diverged from a recompile"
            );
        }
    }
    println!(
        "crash soak: {} kill points: {torn_records} torn WAL records, {tmp_writes} inside a \
         checkpoint write, {before_renames} between its sync and its rename",
        kill_points.len()
    );

    // Every crash class of the old abort() kill points comes up at
    // least as often as it was sampled there.
    assert!(torn_records >= 7, "crashes inside a WAL append: {torn_records}");
    assert!(tmp_writes >= 7, "crashes inside a checkpoint write: {tmp_writes}");
    assert!(before_renames >= 7, "crashes between a checkpoint sync and rename: {before_renames}");
}

/// A crash inside recovery leaves a directory the next recovery
/// accepts. The recovery of each distinct power-loss image of a kill
/// point is imaged at every storage call, each image is crashed as a
/// power loss and as a `kill -9`, and the recovery after that must land
/// where the first one would have: on the independent reference of the
/// kill point's image.
#[test]
fn a_crash_inside_recovery_recovers_to_the_same_state() {
    let seed = soak_seed();
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 80).with_seed(seed));
    let trace = generate_trace(&rules, &TraceConfig::new(256).with_seed(seed ^ 0x7ACE));
    let (mut seen, mut crashes) = (Vec::new(), 0usize);
    for (k, image) in run_workload(seed, OPS).iter().filter(|i| i.has_checkpoint()).enumerate() {
        let (storage, _, _) = image.crash(CRASHES[0].1);
        let files = storage.image().files;
        if seen.contains(&files) {
            continue;
        }
        seen.push(files);
        let reference = independent_reference(&storage);
        storage.set(|d| d.capture = Some(0));
        let persistence =
            Persistence::with_storage(Arc::new(storage.clone()), DIR, persist_config());
        let recovery = persistence.recover(RebuildPolicy::default_policy(), &[]);
        recovery.unwrap_or_else(|e| panic!("seed {seed}: kill point {k}: recovery failed: {e}"));
        let (images, _) = storage.take_images(0, 0);
        assert!(!images.is_empty(), "seed {seed}: kill point {k}: recovery wrote nothing");
        let mut tried = Vec::new();
        for (i, image) in images.iter().enumerate() {
            for (how, keep) in &CRASHES[..2] {
                let (crashed, _, _) = image.crash(keep);
                let files = crashed.image().files;
                if tried.contains(&files) {
                    continue;
                }
                tried.push(files);
                crashes += 1;
                let at = format!("seed {seed}: kill point {k}, recovery call {i} ({how})");
                let persistence =
                    Persistence::with_storage(Arc::new(crashed), DIR, persist_config());
                let (recovered, _) = persistence
                    .recover(RebuildPolicy::default_policy(), &[])
                    .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
                assert_matches(&recovered, &reference, &trace, &at);
            }
        }
    }
    println!(
        "crash soak: {} power-loss images, {crashes} crashes inside their recovery",
        seen.len()
    );
}

/// The kill points with nothing durable behind them: a crash anywhere
/// in the *initial* attach before its checkpoint is renamed into place
/// must surface as the typed `NoCheckpoint` error — not a panic, and
/// not a silently empty classifier.
#[test]
fn crash_during_first_attach_is_a_typed_no_checkpoint() {
    let seed = soak_seed();
    let images = run_workload(seed, 0);
    let before_rename: Vec<&Image> = images.iter().filter(|i| !i.has_checkpoint()).collect();
    assert!(
        before_rename.iter().any(|i| i.tmp_checkpoint_synced() == Some(false)),
        "the attach must be imaged inside its checkpoint write"
    );
    for (k, image) in before_rename.iter().enumerate() {
        for (how, keep) in CRASHES {
            let (storage, _, _) = image.crash(keep);
            let persistence = Persistence::with_storage(Arc::new(storage), DIR, persist_config());
            match persistence.recover(RebuildPolicy::default_policy(), &[]) {
                Err(RecoverError::NoCheckpoint { rejected, .. }) => {
                    assert!(rejected.is_empty(), "kill point {k} ({how}): rejected {rejected:?}");
                }
                Ok(_) => panic!("kill point {k} ({how}): recovered with no durable checkpoint"),
                Err(other) => panic!("kill point {k} ({how}): expected NoCheckpoint, got: {other}"),
            }
        }
    }
}
