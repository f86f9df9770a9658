//! Crash-injection soak: `kill -9` at every seeded kill point, then
//! prove recovery is **bit-identical** to the durable logical op
//! stream.
//!
//! The harness is two tests sharing one binary:
//!
//! * [`crash_child`] — inert under `cargo test`; when `NC_CRASH_DIR`
//!   is set it becomes the victim process: build a deterministic
//!   classifier, attach persistence with exactly one crash point armed
//!   (`wal-append` / `checkpoint-write` / `adopt-persist` at a chosen
//!   occurrence), run a scripted churn + checkpoint workload, and die
//!   mid-write via `std::process::abort()` when the point fires.
//! * [`kill_points_recover_bit_identical`] — the parent: spawns the
//!   victim once per kill point (21 points, 7 occurrences across each
//!   of the three crash classes), asserts it died, builds an
//!   **independent reference** straight from the on-disk checkpoint +
//!   WAL chain through the plain public admission API, then runs
//!   [`neurocuts::recover`] and asserts the recovered handle matches
//!   the reference bit-for-bit: `TreeStats`, epoch, and every packet
//!   of a 256-packet trace — plus the recovery's own linear-scan proof.
//!
//! Seeding mirrors the chaos soak: `NC_CRASH_SEED` (CI passes the run
//! number) shapes the rule set and workload and is printed so any
//! failure replays exactly.

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, Dim, DimRange, GeneratorConfig, Rule,
    TraceConfig,
};
use dtree::wal::{self, WalRecord};
use dtree::{ClassifierHandle, DecisionTree, FaultSchedule, RebuildPolicy, TreeStats};
use neurocuts::persist::{checkpoint_path, list_checkpoint_generations, read_checkpoint, wal_path};
use neurocuts::{recover, PersistConfig, Persistence, RecoverError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const OPS: usize = 60;
const CHECKPOINT_EVERY: usize = 8;
const DEFAULT_SEED: u64 = 0xC4A0_5EED;

fn soak_seed() -> u64 {
    std::env::var("NC_CRASH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SEED)
}

/// The victim's starting classifier: generator rules + a hand-cut tree,
/// fully determined by the seed (no training on the crash path).
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

/// The child: runs the scripted workload with one crash point armed and
/// must never return from the op the fault lands on.
#[test]
fn crash_child() {
    let Ok(dir) = std::env::var("NC_CRASH_DIR") else {
        return; // inert unless spawned by the parent
    };
    let point = std::env::var("NC_CRASH_POINT").expect("NC_CRASH_POINT");
    let occ: u64 = std::env::var("NC_CRASH_OCC").expect("NC_CRASH_OCC").parse().unwrap();
    let seed = soak_seed();

    let schedule = FaultSchedule::parse(&format!("{point}@{occ}")).expect("crash point spec");
    let faults = Arc::new(schedule.injector());
    let persistence = Persistence::with_config(
        &dir,
        PersistConfig { sync_every: 4, faults: Some(faults.clone()), ..PersistConfig::default() },
    );

    let handle = ClassifierHandle::new(seeded_tree(seed), RebuildPolicy::default_policy());
    // Attach (checkpoint generation 0). The crash points at occurrence
    // 0 of the checkpoint classes land here.
    persistence.checkpoint(&handle, seed).expect("attach checkpoint");

    let mut inserted: Vec<usize> = Vec::new();
    for i in 0..OPS {
        match i % 8 {
            3 => {
                if let Some(id) = inserted.first().copied() {
                    inserted.remove(0);
                    handle.delete(id).expect("scripted delete");
                }
            }
            6 => handle.force_rebuild(),
            _ => {
                let id = handle.insert(scripted_rule(seed, i)).expect("scripted insert");
                inserted.push(id);
            }
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            persistence.checkpoint(&handle, seed).expect("periodic checkpoint");
        }
    }
    // Reaching here means the armed occurrence never fired — the parent
    // treats a clean exit as a harness bug.
}

/// Build the ground-truth handle straight from the durable bytes, using
/// only the raw read APIs and the plain public admission path — fully
/// independent of `neurocuts::recover`'s internals.
fn independent_reference(dir: &Path) -> ClassifierHandle {
    let gens = list_checkpoint_generations(dir).expect("list checkpoints");
    let base = gens
        .iter()
        .rev()
        .find_map(|&g| read_checkpoint(&checkpoint_path(dir, g)).ok())
        .expect("at least one durable checkpoint");
    let handle = ClassifierHandle::new_at_epoch(
        base.tree.clone(),
        RebuildPolicy::default_policy(),
        base.epoch,
    );
    let mut gen = base.generation;
    loop {
        let path = wal_path(dir, gen);
        if !path.exists() {
            break;
        }
        let outcome = wal::read_wal(&path).expect("chain file reads");
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

fn spawn_victim(dir: &Path, point: &str, occ: u64, seed: u64) -> std::process::ExitStatus {
    std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["crash_child", "--exact", "--nocapture"])
        .env("NC_CRASH_DIR", dir)
        .env("NC_CRASH_POINT", point)
        .env("NC_CRASH_OCC", occ.to_string())
        .env("NC_CRASH_SEED", seed.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn crash child")
}

fn soak_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nc-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The soak proper: 21 kill points across the three crash classes.
#[test]
fn kill_points_recover_bit_identical() {
    if std::env::var("NC_CRASH_DIR").is_ok() {
        return; // we *are* a victim process; only crash_child runs
    }
    let seed = soak_seed();
    println!("crash soak: NC_CRASH_SEED={seed}");

    // wal-append occurrences 0..7 crash mid-append from the first op
    // onward. The checkpoint classes start at occurrence 1: their
    // occurrence 0 is the initial attach, where no durable state can
    // exist yet (that edge is pinned separately below).
    let kill_points: Vec<(&str, u64)> = (0..7)
        .map(|occ| ("wal-append", occ))
        .chain((1..8).map(|occ| ("checkpoint-write", occ)))
        .chain((1..8).map(|occ| ("adopt-persist", occ)))
        .collect();
    assert!(kill_points.len() >= 20, "the soak must cover at least 20 kill points");

    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 80).with_seed(seed));
    let trace = generate_trace(&rules, &TraceConfig::new(256).with_seed(seed ^ 0x7ACE));

    let mut torn_tails = 0usize;
    for (point, occ) in &kill_points {
        let dir = soak_dir(&format!("{point}-{occ}"));
        let status = spawn_victim(&dir, point, *occ, seed);
        assert!(
            !status.success(),
            "seed {seed}: {point}@{occ} victim exited cleanly — the kill point never fired"
        );

        // Ground truth first: recover() rewrites the directory.
        let reference = independent_reference(&dir);

        let (recovered, report) =
            recover(&dir, RebuildPolicy::default_policy(), &trace, &PersistConfig::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {point}@{occ} recovery failed: {e}"));
        torn_tails += report.truncated_tail.is_some() as usize;

        // Bit-identical: epoch, tree statistics, and every packet.
        assert_eq!(
            recovered.epoch(),
            reference.epoch(),
            "seed {seed}: {point}@{occ} epoch diverged"
        );
        assert_eq!(
            report.epoch,
            recovered.epoch(),
            "seed {seed}: {point}@{occ} report epoch must match the recovered handle"
        );
        assert_eq!(
            recovered.with_tree(TreeStats::compute),
            reference.with_tree(TreeStats::compute),
            "seed {seed}: {point}@{occ} tree stats diverged"
        );
        let mut got = vec![None; trace.len()];
        let mut want = vec![None; trace.len()];
        recovered.snapshot().classify_batch(&trace, &mut got);
        reference.snapshot().classify_batch(&trace, &mut want);
        assert_eq!(got, want, "seed {seed}: {point}@{occ} trace classification diverged");
        assert_eq!(
            recovered.check_divergence(&trace),
            None,
            "seed {seed}: {point}@{occ} recovered snapshot diverged from a recompile"
        );

        println!(
            "crash soak: {point}@{occ} recovered gen {} -> {} ({} replayed{})",
            report.base_generation,
            report.new_generation,
            report.replayed,
            if report.truncated_tail.is_some() { ", torn tail truncated" } else { "" }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Every wal-append kill leaves a half-written record; all of them
    // must have been detected and truncated (never replayed).
    assert!(torn_tails >= 7, "every wal-append crash must surface as a truncated torn tail");
}

/// The one kill point with nothing durable behind it: a crash during
/// the *initial* attach (before the first checkpoint ever lands) must
/// surface as the typed `NoCheckpoint` error — not a panic, and not a
/// silently empty classifier.
#[test]
fn crash_during_first_attach_is_a_typed_no_checkpoint() {
    if std::env::var("NC_CRASH_DIR").is_ok() {
        return;
    }
    let seed = soak_seed();
    let dir = soak_dir("first-attach");
    let status = spawn_victim(&dir, "checkpoint-write", 0, seed);
    assert!(!status.success(), "the attach-time kill point must fire");

    match recover(&dir, RebuildPolicy::default_policy(), &[], &PersistConfig::default()) {
        Err(RecoverError::NoCheckpoint { .. }) => {}
        Ok(_) => panic!("recovered from a directory with no durable checkpoint"),
        Err(other) => panic!("expected NoCheckpoint, got: {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
