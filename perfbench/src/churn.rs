//! Churn: one writer applying a seeded update stream to a handle, which
//! may be persisted, while (optionally) one reader serves, then crash
//! recovery from the directory a persisted round left behind.

use crate::cpu;
use crate::report::Check;
use crate::serve::{reader, ReaderOut};
use crate::setup::TRAIN_SEED;
use crate::tracer::Tracer;
use classbench::{Packet, RuleSet};
use dtree::{ChurnSchedule, ClassifierHandle, DecisionTree, RebuildPolicy, RuleId};
use neurocuts::persist::{checkpoint_path, list_checkpoint_generations, read_checkpoint, wal_path};
use neurocuts::{recover, PersistConfig, Persistence};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// What one update call turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// An admitted insert that did not recompile.
    Insert,
    /// An admitted delete that did not recompile.
    Delete,
    /// An admitted update during which the handle recompiled
    /// (`UpdateStats::rebuilds` advanced). Known only when traced.
    Rebuild,
    /// An update admission control refused.
    Rejected,
}

impl Outcome {
    /// The span name of an update call with this outcome.
    pub fn span_name(self) -> &'static str {
        match self {
            Outcome::Insert => "dtree.serve.insert",
            Outcome::Delete => "dtree.serve.delete",
            Outcome::Rebuild => "dtree.serve.rebuild",
            Outcome::Rejected => "dtree.serve.rejected",
        }
    }
}

/// What one churn round measured.
pub struct Round {
    /// On-CPU time of every update call, in ns, with its outcome.
    pub updates: Vec<(Outcome, f64)>,
    /// On-CPU seconds the writer spent: update calls plus checkpoints.
    pub writer_secs: f64,
    /// WAL records appended over the round.
    pub wal_records: u64,
    /// WAL bytes appended over the round (traced runs only).
    pub wal_bytes: u64,
    /// The reader's measurements, when one served.
    pub reader: Option<ReaderOut>,
    /// The live handle's epoch when it was dropped.
    pub live_epoch: u64,
    /// The live handle's classification of the check trace.
    pub live_results: Vec<Option<RuleId>>,
}

impl Round {
    /// Updates per second of writer CPU time.
    pub fn update_rate(&self) -> f64 {
        self.updates.len() as f64 / self.writer_secs.max(1e-9)
    }
}

/// Inputs of one churn round.
pub struct RoundSpec<'a> {
    /// The tree every round starts from.
    pub tree: &'a DecisionTree,
    /// The rules it was built over (the update stream's donors).
    pub rules: &'a RuleSet,
    /// Seed of the update stream.
    pub schedule_seed: u64,
    /// Update calls in the round.
    pub updates: usize,
    /// Trace a concurrent reader serves, if any.
    pub reader_trace: Option<&'a [Packet]>,
    /// Packets per reader batch.
    pub batch: usize,
    /// Trace the post-round correctness checks classify.
    pub check_trace: &'a [Packet],
    /// Fresh directory to persist into, or `None` to run without
    /// persistence.
    pub dir: Option<&'a Path>,
    /// Round number (span ids).
    pub round: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Bytes in the WAL the handle currently appends to.
fn current_wal_bytes(handle: &ClassifierHandle, dir: &Path) -> u64 {
    handle.health().checkpoint_generation.map_or(0, |g| file_len(&wal_path(dir, g)))
}

/// Run one churn round: a fresh handle over `spec.tree` receives
/// `spec.updates` schedule steps back to back. When persisted to
/// `spec.dir` (default `PersistConfig`), it checkpoints whenever
/// `Persistence::wants_checkpoint` says so. Then, outside the timed
/// window, the round checks the handle against a from-scratch
/// recompile and the linear scan. Update calls are timed on the writer
/// thread's CPU clock.
pub fn round(
    spec: &RoundSpec<'_>,
    check: &mut Check,
    t: &mut Tracer,
    reader_tracer: impl FnOnce() -> Tracer + Send,
) -> Result<Round, String> {
    let handle = ClassifierHandle::new(spec.tree.clone(), RebuildPolicy::default_policy());
    let persistence = spec.dir.map(Persistence::new);
    if let Some(p) = &persistence {
        p.checkpoint(&handle, TRAIN_SEED).map_err(|e| format!("attach checkpoint: {e}"))?;
    }
    let live: Vec<RuleId> = (0..spec.rules.len()).collect();
    let mut schedule = ChurnSchedule::new(spec.rules.rules().to_vec(), live, spec.schedule_seed);
    let stop = AtomicBool::new(false);
    let mut updates = Vec::with_capacity(spec.updates);
    let (mut wal_records, mut wal_bytes) = (0u64, 0u64);
    let mut checkpoint_err = None;

    // Writer and reader start together, so the reader serves while the
    // updates land however short the round.
    let start = Barrier::new(1 + usize::from(spec.reader_trace.is_some()));
    let (writer_secs, reader_out) = std::thread::scope(|s| {
        let reader_thread = spec.reader_trace.map(|trace| {
            let (handle, stop, start) = (&handle, &stop, &start);
            s.spawn(move || {
                let t = reader_tracer();
                start.wait();
                reader(handle, trace, spec.batch, stop, t)
            })
        });
        start.wait();
        let started = cpu::thread_ns();
        for u in 0..spec.updates {
            let id = spec.round << 32 | u as u64;
            let rejected = schedule.rejected();
            let rebuilds = if t.on() { handle.stats().rebuilds } else { 0 };
            let span = t.begin("dtree.serve.update", id);
            let t0 = cpu::thread_ns();
            let inserted = schedule.step(&handle);
            let ns = (cpu::thread_ns() - t0) as f64;
            let outcome = if schedule.rejected() > rejected {
                Outcome::Rejected
            } else if t.on() && handle.stats().rebuilds > rebuilds {
                Outcome::Rebuild
            } else if inserted.is_some() {
                Outcome::Insert
            } else {
                Outcome::Delete
            };
            t.end_as(span, Some(outcome.span_name()), 1);
            updates.push((outcome, ns));
            if let Some(p) = persistence.as_ref().filter(|p| p.wants_checkpoint(&handle)) {
                if t.on() {
                    wal_bytes += current_wal_bytes(&handle, p.dir());
                }
                let span = t.begin("core.persist.checkpoint", id);
                match p.checkpoint(&handle, TRAIN_SEED) {
                    Ok(report) => wal_records += report.folded_records,
                    Err(e) => checkpoint_err = Some(e.to_string()),
                }
                t.end(span, 1);
            }
        }
        let writer_secs = (cpu::thread_ns() - started) as f64 / 1e9;
        stop.store(true, Ordering::Relaxed);
        (writer_secs, reader_thread.map(|h| h.join().expect("reader thread panicked")))
    });
    if let Some(e) = checkpoint_err {
        return Err(format!("checkpoint during churn: {e}"));
    }
    wal_records += handle.health().wal_len.unwrap_or(0);
    if let Some(dir) = spec.dir.filter(|_| t.on()) {
        wal_bytes += current_wal_bytes(&handle, dir);
    }

    // Outside the timed window: the served snapshot must equal a
    // from-scratch recompile, and the linear scan.
    let diverged = handle.check_divergence(spec.check_trace);
    check.expect(diverged.is_none(), || {
        format!("round {}: snapshot diverged from a recompile at {diverged:?}", spec.round)
    });
    let mut live_results = vec![None; spec.check_trace.len()];
    handle.snapshot().classify_batch(spec.check_trace, &mut live_results);
    let bad = handle.with_tree(|tree| {
        spec.check_trace
            .iter()
            .zip(&live_results)
            .filter(|(p, got)| tree.linear_classify(p) != **got)
            .count()
    });
    check.add(spec.check_trace.len() as u64, bad as u64, || {
        format!("round {}: {bad} packets disagree with the linear scan", spec.round)
    });
    let live_epoch = handle.epoch();
    drop(handle);
    Ok(Round {
        updates,
        writer_secs,
        wal_records,
        wal_bytes,
        reader: reader_out,
        live_epoch,
        live_results,
    })
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// One timed recovery.
#[derive(Debug, Clone, Copy)]
pub struct Recovered {
    /// Process CPU time of the `recover` call, in ms.
    pub ms: f64,
    /// WAL records it replayed.
    pub replayed: u64,
    /// Probes its linear-scan proof checked.
    pub spot_checked: u64,
}

/// A directory a dropped handle left behind, with what that handle
/// served when it was dropped.
pub struct Persisted {
    /// The directory.
    pub dir: PathBuf,
    /// The live handle's epoch.
    pub live_epoch: u64,
    /// The live handle's classification of the check trace.
    pub live_results: Vec<Option<RuleId>>,
}

/// Recover from a fresh copy of `state.dir` at `copy` (removed again
/// afterwards) and time the `recover` call on the process CPU clock. The recovered handle must
/// reach the live epoch and classify `check_trace` exactly as the live
/// handle did.
pub fn recover_one(
    state: &Persisted,
    copy: &Path,
    id: u64,
    check_trace: &[Packet],
    check: &mut Check,
    t: &mut Tracer,
) -> Result<Recovered, String> {
    copy_dir(&state.dir, copy).map_err(|e| format!("copy {}: {e}", state.dir.display()))?;
    if t.on() {
        trace_recovery_reads(copy, id, t)?;
    }
    let span = t.begin("core.persist.recover", id);
    let (result, cpu_s) = cpu::timed(|| {
        recover(copy, RebuildPolicy::default_policy(), &[], &PersistConfig::default())
    });
    let (handle, report) = result.map_err(|e| format!("recover {}: {e}", copy.display()))?;
    t.end(span, report.replayed);
    let mut got = vec![None; check_trace.len()];
    handle.snapshot().classify_batch(check_trace, &mut got);
    let (epoch, same) = (handle.epoch(), got == state.live_results);
    let live_epoch = state.live_epoch;
    check.expect(epoch == live_epoch && same, || {
        format!("recovery {id}: epoch {epoch} (live {live_epoch}), same classification {same}")
    });
    drop(handle);
    let _ = std::fs::remove_dir_all(copy);
    Ok(Recovered {
        ms: cpu_s * 1e3,
        replayed: report.replayed,
        spot_checked: report.spot_checked as u64,
    })
}

/// Time the two reads recovery starts with — the newest checkpoint and
/// the WAL chain behind it — as calls of their own on `dir`.
fn trace_recovery_reads(dir: &Path, id: u64, t: &mut Tracer) -> Result<(), String> {
    let gens = list_checkpoint_generations(dir).map_err(|e| e.to_string())?;
    let gen = *gens.last().ok_or("no checkpoint to recover from")?;
    let path = checkpoint_path(dir, gen);
    t.time("core.persist.read_checkpoint", id, file_len(&path), || read_checkpoint(&path))
        .map_err(|e| e.to_string())?;
    let mut g = gen;
    while wal_path(dir, g).exists() {
        let path = wal_path(dir, g);
        let outcome =
            t.time("dtree.wal.read_wal", id, file_len(&path), || dtree::wal::read_wal(&path));
        outcome.map_err(|e| e.to_string())?;
        g += 1;
    }
    Ok(())
}
