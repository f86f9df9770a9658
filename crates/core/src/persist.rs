//! Durable checkpoints + crash recovery for a live classifier
//! (`core::persist`, the checkpoint half of the durability layer whose
//! logging half is `dtree::wal`).
//!
//! # On-disk layout
//!
//! A persist directory holds generation-stamped pairs:
//!
//! ```text
//! checkpoint-00000003.ncck   frozen tree + epoch + train seed
//! wal-00000003.ncwal         every admitted op since that checkpoint
//! ```
//!
//! A checkpoint file is a line-based ASCII header followed by the
//! tree's pinned JSON serialisation, self-checksummed with a
//! hand-rolled 64-bit FNV-1a (std-only, like the WAL's CRC-32):
//!
//! ```text
//! NCCKPT1
//! generation <g>
//! epoch <e>
//! train_seed <s>
//! tree_len <n>
//! tree_fnv <16-hex-digit fnv1a of the n body bytes>
//! <n bytes of DecisionTree::to_json>
//! ```
//!
//! Checkpoints are written **tmp → fsync → rename → fsync(dir)**, so a
//! generation either exists completely or not at all; the WAL for
//! generation `g` is created (and the live handle's log synced and
//! rotated onto it, under one write-lock acquisition) *before*
//! checkpoint `g` is written, so a crash at any instant leaves a
//! recoverable chain.
//!
//! Every file operation goes through a [`Storage`]:
//! [`Persistence::new`] and [`recover`] use the directory storage,
//! [`Persistence::with_storage`] takes any other — the lifecycle
//! simulator's in-memory storage, which it crashes after any call.
//!
//! # Recovery state machine
//!
//! [`recover`] walks four steps, every failure a typed
//! [`RecoverError`], never a panic:
//!
//! 1. **Pick** the newest checkpoint that reads back clean (older
//!    generations are fallbacks while they survive GC — a torn
//!    `checkpoint-(g+1)` from a mid-write crash is skipped, with the
//!    skip recorded).
//! 2. **Replay** the WAL chain `wal-g, wal-(g+1), …` through the
//!    normal admission path ([`ClassifierHandle::insert`]/`delete`/
//!    `force_rebuild`]), verifying LSN continuity across files and
//!    re-deriving each logged insert id. A torn/corrupt tail is legal
//!    only on the *last* file of the chain: it is truncated away (a
//!    file torn inside its header, which holds no record, is removed)
//!    and recorded, sticky, in the health report; anywhere else it is
//!    a hard error.
//! 3. **Prove** the result against the linear-scan ground truth (low-
//!    corner probe per active rule + caller probes) before anything is
//!    served.
//! 4. **Re-checkpoint** into a fresh generation and attach a fresh WAL,
//!    so the next crash replays from *here* instead of re-walking the
//!    whole chain. The new WAL continues the replayed chain's LSN line
//!    and a WAL torn inside its header was removed in step 2, so a
//!    crash inside recovery leaves a chain the next recovery accepts.
//!
//! Epoch accounting makes "bit-identical" checkable: every logged
//! record publishes exactly one epoch, so the recovered epoch must be
//! `checkpoint epoch + replayed records` — and the lifecycle simulator
//! checks the recovered epoch, `TreeStats` and a full trace against
//! what the live handle served at that epoch.

use classbench::Packet;
use dtree::storage::{DirStorage, Storage};
use dtree::wal::{self, WalError, WalWriter};
use dtree::{ClassifierHandle, DecisionTree, RebuildPolicy, UpdateError};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First header line of every checkpoint file.
pub const CHECKPOINT_VERSION: &str = "NCCKPT1";

/// 64-bit FNV-1a (the checkpoint body's self-checksum; also the golden
/// on-disk-layout hash pinned by the recovery-equivalence test).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Path of checkpoint `generation` under `dir`.
pub fn checkpoint_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("checkpoint-{generation:08}.ncck"))
}

/// Path of the WAL running ahead of checkpoint `generation`.
pub fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:08}.ncwal"))
}

/// A decoded checkpoint: everything needed to rebuild the classifier
/// the moment the image was frozen.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The generation stamp (file name and GC order).
    pub generation: u64,
    /// The epoch the handle had published when the image was frozen.
    pub epoch: u64,
    /// The train seed pinned for reproducibility: with the frozen rules
    /// it re-derives the adopted tree bit-identically (PR 6 contract).
    pub train_seed: u64,
    /// The frozen tree (rule arena + structure + active flags).
    pub tree: DecisionTree,
}

/// Why a checkpoint file's *contents* were rejected (I/O failures are
/// [`PersistError::Io`]). Every variant is recoverable by falling back
/// to an older generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The header is not valid UTF-8.
    NotUtf8,
    /// The first line is not [`CHECKPOINT_VERSION`].
    BadVersion {
        /// The first line actually found.
        got: String,
    },
    /// A required `key value` header line is missing or misplaced.
    MissingField {
        /// The field that was expected.
        field: &'static str,
    },
    /// A header field's value does not parse as the expected integer.
    BadField {
        /// The unparsable field.
        field: &'static str,
    },
    /// The body is shorter or longer than `tree_len` promised — a torn
    /// write that escaped the tmp-file protocol.
    Truncated {
        /// Bytes the header promised.
        want: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The body's FNV-1a does not match `tree_fnv`.
    BadChecksum {
        /// The checksum the header recorded.
        want: u64,
        /// The checksum of the bytes on disk.
        got: u64,
    },
    /// The body passed its checksum but is not a valid tree — a format
    /// or version skew, not disk damage.
    BadTree {
        /// The deserialiser's message.
        why: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::NotUtf8 => f.write_str("checkpoint header is not utf-8"),
            CheckpointError::BadVersion { got } => {
                write!(f, "checkpoint version line is {got:?}, expected {CHECKPOINT_VERSION:?}")
            }
            CheckpointError::MissingField { field } => {
                write!(f, "checkpoint header is missing the {field:?} field")
            }
            CheckpointError::BadField { field } => {
                write!(f, "checkpoint header field {field:?} does not parse")
            }
            CheckpointError::Truncated { want, have } => {
                write!(f, "checkpoint body holds {have} of {want} bytes")
            }
            CheckpointError::BadChecksum { want, got } => {
                write!(f, "checkpoint body checksum {got:016x} != recorded {want:016x}")
            }
            CheckpointError::BadTree { why } => {
                write!(f, "checkpoint body is not a valid tree: {why}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Why a persistence operation (attach, checkpoint, raw read) failed.
#[derive(Debug)]
pub enum PersistError {
    /// An I/O failure, with the path it happened on.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// The WAL layer failed (create/append/sync/read).
    Wal(WalError),
    /// A checkpoint file's contents were rejected.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong with it.
        err: CheckpointError,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { path, err } => write!(f, "{}: {err}", path.display()),
            PersistError::Wal(err) => write!(f, "{err}"),
            PersistError::Corrupt { path, err } => write!(f, "{}: {err}", path.display()),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<WalError> for PersistError {
    fn from(err: WalError) -> Self {
        PersistError::Wal(err)
    }
}

/// Why [`recover`] could not produce a serving handle. Torn tails and
/// skipped newer checkpoints are *not* errors (they are recorded in the
/// [`RecoverReport`]); these are the conditions with no safe fallback.
#[derive(Debug)]
pub enum RecoverError {
    /// The directory holds no readable checkpoint at all.
    NoCheckpoint {
        /// The directory searched.
        dir: PathBuf,
        /// Why each candidate that existed was rejected (empty when
        /// the directory simply has no checkpoint files).
        rejected: Vec<String>,
    },
    /// An I/O failure while walking the chain.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// A WAL file in the chain is structurally bad in a way truncation
    /// cannot repair: reordered records, a mid-chain torn tail, bad
    /// magic, an undecodable payload.
    Wal {
        /// The offending WAL file.
        path: PathBuf,
        /// The underlying typed error.
        err: WalError,
    },
    /// A logged op was refused on replay — the log and the checkpoint
    /// disagree about the state the op was admitted against.
    Replay {
        /// The record's sequence number.
        lsn: u64,
        /// The admission error the replay hit.
        err: UpdateError,
    },
    /// A replayed insert landed on a different arena id than the log
    /// recorded — id determinism was violated.
    ReplayIdMismatch {
        /// The record's sequence number.
        lsn: u64,
        /// The id the log recorded at admission time.
        logged: usize,
        /// The id the replay produced.
        got: usize,
    },
    /// The recovered classifier failed its linear-scan proof on this
    /// packet; the state was NOT handed out for serving.
    Diverged {
        /// The first diverging probe.
        packet: Packet,
    },
    /// Writing the fresh post-recovery checkpoint failed.
    Persist(PersistError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::NoCheckpoint { dir, rejected } => {
                write!(f, "no valid checkpoint under {}", dir.display())?;
                for r in rejected {
                    write!(f, "; rejected: {r}")?;
                }
                Ok(())
            }
            RecoverError::Io { path, err } => write!(f, "{}: {err}", path.display()),
            RecoverError::Wal { path, err } => write!(f, "{}: {err}", path.display()),
            RecoverError::Replay { lsn, err } => {
                write!(f, "replay of lsn {lsn} was refused: {err}")
            }
            RecoverError::ReplayIdMismatch { lsn, logged, got } => {
                write!(f, "replay of lsn {lsn} produced id {got}, log recorded {logged}")
            }
            RecoverError::Diverged { packet } => {
                write!(f, "recovered state diverged from the linear scan at {packet}")
            }
            RecoverError::Persist(err) => write!(f, "post-recovery checkpoint failed: {err}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<PersistError> for RecoverError {
    fn from(err: PersistError) -> Self {
        RecoverError::Persist(err)
    }
}

/// Tunables for the durability layer.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Fsync the WAL every this many appends (1 = every record; the
    /// batch only trades the current batch's tail against *power loss*,
    /// not process death — see the `dtree::wal` module docs).
    pub sync_every: usize,
    /// Checkpoint when the WAL grows past this many records (consulted
    /// by the lifecycle worker each poll, on top of its
    /// checkpoint-after-adopt).
    pub checkpoint_wal_threshold: u64,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig { sync_every: 32, checkpoint_wal_threshold: 512 }
    }
}

/// What one checkpoint wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The generation written.
    pub generation: u64,
    /// The epoch frozen inside it.
    pub epoch: u64,
    /// Bytes of the checkpoint file.
    pub bytes: u64,
    /// WAL records the rotation folded into this checkpoint (what a
    /// recovery no longer needs to replay).
    pub folded_records: u64,
}

/// What a successful [`recover`] did.
#[derive(Debug, Clone)]
pub struct RecoverReport {
    /// The checkpoint generation recovery resumed from.
    pub base_generation: u64,
    /// The fresh generation written after replay.
    pub new_generation: u64,
    /// The recovered (pre-crash) epoch.
    pub epoch: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: u64,
    /// The torn/corrupt-tail note, when the chain's last file needed
    /// truncation (also sticky in the handle's health report).
    pub truncated_tail: Option<String>,
    /// Newer-but-unreadable checkpoints that were skipped (path: why).
    pub skipped_checkpoints: Vec<String>,
    /// Probes the linear-scan proof checked before serving.
    pub spot_checked: usize,
    /// The train seed carried forward from the recovered checkpoint.
    pub train_seed: u64,
}

/// Serialise a checkpoint exactly as it is laid out on disk.
pub fn encode_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    let body = ck.tree.to_json();
    let body = body.as_bytes();
    let mut out = Vec::with_capacity(body.len() + 128);
    let _ = writeln!(out, "{CHECKPOINT_VERSION}");
    let _ = writeln!(out, "generation {}", ck.generation);
    let _ = writeln!(out, "epoch {}", ck.epoch);
    let _ = writeln!(out, "train_seed {}", ck.train_seed);
    let _ = writeln!(out, "tree_len {}", body.len());
    let _ = writeln!(out, "tree_fnv {:016x}", fnv1a(body));
    out.extend_from_slice(body);
    out
}

fn field<'a>(
    lines: &mut std::str::Lines<'a>,
    key: &'static str,
) -> Result<&'a str, CheckpointError> {
    let line = lines.next().ok_or(CheckpointError::MissingField { field: key })?;
    match line.split_once(' ') {
        Some((k, v)) if k == key => Ok(v.trim()),
        _ => Err(CheckpointError::MissingField { field: key }),
    }
}

fn int_field(lines: &mut std::str::Lines<'_>, key: &'static str) -> Result<u64, CheckpointError> {
    field(lines, key)?.parse().map_err(|_| CheckpointError::BadField { field: key })
}

/// Decode a checkpoint image (the inverse of [`encode_checkpoint`]).
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    // The header is the first 6 newline-terminated ASCII lines; the
    // body (tree JSON) follows and is length- and checksum-verified.
    let mut newlines = 0usize;
    let mut body_start = bytes.len();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            newlines += 1;
            if newlines == 6 {
                body_start = i + 1;
                break;
            }
        }
    }
    let header = std::str::from_utf8(&bytes[..body_start]).map_err(|_| CheckpointError::NotUtf8)?;
    let mut lines = header.lines();
    let version = lines.next().ok_or(CheckpointError::MissingField { field: "version" })?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::BadVersion { got: version.to_string() });
    }
    let generation = int_field(&mut lines, "generation")?;
    let epoch = int_field(&mut lines, "epoch")?;
    let train_seed = int_field(&mut lines, "train_seed")?;
    let tree_len = int_field(&mut lines, "tree_len")? as usize;
    let want_fnv = u64::from_str_radix(field(&mut lines, "tree_fnv")?, 16)
        .map_err(|_| CheckpointError::BadField { field: "tree_fnv" })?;
    let body = &bytes[body_start..];
    if body.len() != tree_len {
        return Err(CheckpointError::Truncated { want: tree_len, have: body.len() });
    }
    let got_fnv = fnv1a(body);
    if got_fnv != want_fnv {
        return Err(CheckpointError::BadChecksum { want: want_fnv, got: got_fnv });
    }
    let json = std::str::from_utf8(body).map_err(|_| CheckpointError::NotUtf8)?;
    let tree = DecisionTree::from_json(json)
        .map_err(|e| CheckpointError::BadTree { why: e.to_string() })?;
    Ok(Checkpoint { generation, epoch, train_seed, tree })
}

/// Read and verify one checkpoint file.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, PersistError> {
    read_checkpoint_from(&DirStorage, path)
}

fn read_checkpoint_from(storage: &dyn Storage, path: &Path) -> Result<Checkpoint, PersistError> {
    let bytes =
        storage.read(path).map_err(|err| PersistError::Io { path: path.to_path_buf(), err })?;
    decode_checkpoint(&bytes).map_err(|err| PersistError::Corrupt { path: path.to_path_buf(), err })
}

const CHECKPOINT_NAME: (&str, &str) = ("checkpoint-", ".ncck");
const WAL_NAME: (&str, &str) = ("wal-", ".ncwal");

/// The generation a file `name` carries when it is `prefix<g>suffix`.
fn generation(name: &str, (prefix, suffix): (&str, &str)) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// The generations among file `names` of one kind, ascending.
fn generations(names: &[String], kind: (&str, &str)) -> Vec<u64> {
    let mut gens: Vec<u64> = names.iter().filter_map(|n| generation(n, kind)).collect();
    gens.sort_unstable();
    gens
}

/// Checkpoint generations present under `dir`, ascending.
pub fn list_checkpoint_generations(dir: &Path) -> Result<Vec<u64>, PersistError> {
    let names =
        DirStorage.list(dir).map_err(|err| PersistError::Io { path: dir.to_path_buf(), err })?;
    Ok(generations(&names, CHECKPOINT_NAME))
}

/// Write `ck` durably as `checkpoint-<gen>.ncck` under `dir`:
/// tmp → sync → rename (with the directory sync). Returns the file's
/// byte length.
fn write_checkpoint(
    storage: &dyn Storage,
    dir: &Path,
    ck: &Checkpoint,
) -> Result<u64, PersistError> {
    let bytes = encode_checkpoint(ck);
    let final_path = checkpoint_path(dir, ck.generation);
    let tmp_path = final_path.with_extension("ncck.tmp");
    let io = |err| PersistError::Io { path: tmp_path.clone(), err };
    let mut tmp = storage.create(&tmp_path).map_err(io)?;
    tmp.append(&bytes).map_err(io)?;
    tmp.sync().map_err(io)?;
    drop(tmp);
    storage
        .rename(&tmp_path, &final_path)
        .map_err(|err| PersistError::Io { path: final_path.clone(), err })?;
    Ok(bytes.len() as u64)
}

/// Best-effort GC: remove checkpoint and WAL files older than
/// `keep_generation` (their chain is superseded) and the temporary
/// files of crashed checkpoint writes. Failures are ignored — stale
/// files cost disk, not correctness.
fn gc_older_than(storage: &dyn Storage, dir: &Path, keep_generation: u64) {
    let Ok(names) = storage.list(dir) else { return };
    let older = |name: &str, kind| generation(name, kind).is_some_and(|g| g < keep_generation);
    for name in names {
        if name.ends_with(".ncck.tmp") || older(&name, CHECKPOINT_NAME) || older(&name, WAL_NAME) {
            let _ = storage.remove(&dir.join(name));
        }
    }
}

/// A persist directory bound to its tunables and its storage: the
/// object the lifecycle worker and the CLI carry around.
#[derive(Debug, Clone)]
pub struct Persistence {
    dir: PathBuf,
    cfg: PersistConfig,
    storage: Arc<dyn Storage>,
}

impl Persistence {
    /// Bind `dir` with default tunables.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Persistence::with_config(dir, PersistConfig::default())
    }

    /// Bind `dir` with explicit tunables.
    pub fn with_config(dir: impl Into<PathBuf>, cfg: PersistConfig) -> Self {
        Persistence::with_storage(Arc::new(DirStorage), dir, cfg)
    }

    /// Bind `dir` of `storage` with explicit tunables.
    pub fn with_storage(
        storage: Arc<dyn Storage>,
        dir: impl Into<PathBuf>,
        cfg: PersistConfig,
    ) -> Self {
        Persistence { dir: dir.into(), cfg, storage }
    }

    /// The bound directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoint `handle` into a fresh generation and rotate its WAL
    /// onto it (this is also how persistence is *attached* to a handle
    /// that has none yet). Under one write-lock acquisition the old WAL
    /// is synced, the tree + epoch frozen and the new WAL installed;
    /// the image is then written durably and older generations are
    /// GC'd. `train_seed` is pinned into the image for the
    /// reproducibility contract.
    pub fn checkpoint(
        &self,
        handle: &ClassifierHandle,
        train_seed: u64,
    ) -> Result<CheckpointReport, PersistError> {
        self.checkpoint_resuming(handle, train_seed, None)
    }

    /// [`Self::checkpoint`], with the first LSN of the new WAL given
    /// for a handle that has none yet: recovery resumes the LSN line of
    /// the chain it replayed, so a crash before its checkpoint lands
    /// leaves a chain the next recovery accepts.
    fn checkpoint_resuming(
        &self,
        handle: &ClassifierHandle,
        train_seed: u64,
        resume_lsn: Option<u64>,
    ) -> Result<CheckpointReport, PersistError> {
        let storage = &*self.storage;
        storage
            .create_dir(&self.dir)
            .map_err(|err| PersistError::Io { path: self.dir.clone(), err })?;
        let names = storage
            .list(&self.dir)
            .map_err(|err| PersistError::Io { path: self.dir.clone(), err })?;
        let next_gen = names
            .iter()
            .filter_map(|n| generation(n, CHECKPOINT_NAME).or(generation(n, WAL_NAME)))
            .max()
            .map_or(0, |g| g + 1);
        let folded = handle.health().wal_len.unwrap_or(0);
        let path = wal_path(&self.dir, next_gen);
        let (tree, epoch) = handle.rotate_wal(next_gen, |next_lsn| {
            WalWriter::create(storage, &path, resume_lsn.unwrap_or(next_lsn), self.cfg.sync_every)
        })?;
        let ck = Checkpoint { generation: next_gen, epoch, train_seed, tree };
        let bytes = write_checkpoint(storage, &self.dir, &ck)?;
        gc_older_than(storage, &self.dir, next_gen);
        Ok(CheckpointReport { generation: next_gen, epoch, bytes, folded_records: folded })
    }

    /// True when the handle's WAL has outgrown
    /// [`PersistConfig::checkpoint_wal_threshold`] — the lifecycle
    /// worker's cue to checkpoint outside the adopt path.
    pub fn wants_checkpoint(&self, handle: &ClassifierHandle) -> bool {
        handle.health().wal_len.is_some_and(|n| n >= self.cfg.checkpoint_wal_threshold)
    }

    /// Rebuild a serving classifier from the bound directory after a
    /// crash (see the module docs for the four-step state machine).
    /// `extra_probes` joins the per-rule low-corner probes in the
    /// pre-serving linear-scan proof. On success the handle already has
    /// a fresh checkpoint + WAL attached and is safe to serve from.
    pub fn recover(
        &self,
        policy: RebuildPolicy,
        extra_probes: &[Packet],
    ) -> Result<(ClassifierHandle, RecoverReport), RecoverError> {
        let (storage, dir) = (&*self.storage, self.dir.as_path());
        let names =
            storage.list(dir).map_err(|err| RecoverError::Io { path: dir.to_path_buf(), err })?;

        // Step 1: newest checkpoint that reads back clean.
        let mut rejected = Vec::new();
        let mut base = None;
        for g in generations(&names, CHECKPOINT_NAME).into_iter().rev() {
            match read_checkpoint_from(storage, &checkpoint_path(dir, g)) {
                Ok(ck) => {
                    base = Some(ck);
                    break;
                }
                Err(err) => rejected.push(err.to_string()),
            }
        }
        let Some(base) = base else {
            return Err(RecoverError::NoCheckpoint { dir: dir.to_path_buf(), rejected });
        };

        // Step 2: replay the WAL chain from the base generation forward.
        let wal_gens = generations(&names, WAL_NAME);
        let handle = ClassifierHandle::new_at_epoch(base.tree.clone(), policy, base.epoch);
        let mut replayed = 0u64;
        let mut truncated_tail = None;
        let mut expect_lsn: Option<u64> = None;
        let mut gen = base.generation;
        while wal_gens.binary_search(&gen).is_ok() {
            let path = wal_path(dir, gen);
            let outcome = wal::read_wal_from(storage, &path)
                .map_err(|err| RecoverError::Wal { path: path.clone(), err })?;
            // A torn header (a crash inside the file's creation) carries
            // no start LSN to check.
            let header_torn = matches!(outcome.tail, Some(WalError::TornHeader { .. }));
            if let Some(want) = expect_lsn.filter(|_| !header_torn) {
                if outcome.start_lsn != want {
                    return Err(RecoverError::Wal {
                        path,
                        err: WalError::LsnMismatch {
                            offset: 0,
                            expected: want,
                            got: outcome.start_lsn,
                        },
                    });
                }
            }
            if let Some(tail) = outcome.tail {
                // A torn tail is the signature of a crash mid-append —
                // legal only on the newest file of the chain. Anywhere
                // else it would silently drop admitted ops that later
                // files replay on top of, so it is a hard error there.
                if wal_gens.binary_search(&(gen + 1)).is_ok() {
                    return Err(RecoverError::Wal { path, err: tail });
                }
                // A file torn inside its header holds no record: remove
                // it, or the WAL this recovery creates next would leave
                // it torn in the middle of the chain.
                let cut = match header_torn {
                    true => storage.remove(&path),
                    false => storage.truncate(&path, outcome.valid_len),
                };
                cut.map_err(|err| RecoverError::Wal {
                    path: path.clone(),
                    err: WalError::Io(err),
                })?;
                truncated_tail =
                    Some(format!("truncated torn wal tail (generation {gen}): {tail}"));
            }
            for (lsn, record) in (outcome.start_lsn..).zip(outcome.records) {
                replay_record(&handle, lsn, record)?;
                replayed += 1;
            }
            if !header_torn {
                expect_lsn = Some(outcome.next_lsn);
            }
            gen += 1;
        }
        debug_assert_eq!(
            handle.epoch(),
            base.epoch + replayed,
            "one WAL record must publish exactly one epoch"
        );

        // Step 3: prove the recovered state against the linear scan
        // before anything serves from it — one low-corner probe per
        // active rule, plus whatever the caller wants checked.
        let mut probes: Vec<Packet> = handle.with_tree(|t| {
            t.rules()
                .iter()
                .enumerate()
                .filter(|&(id, _)| t.is_active(id))
                .map(|(_, r)| r.low_corner())
                .collect()
        });
        probes.extend_from_slice(extra_probes);
        if let Some(packet) = handle.check_divergence(&probes) {
            return Err(RecoverError::Diverged { packet });
        }
        let linear_miss = handle
            .with_tree(|t| probes.iter().find(|p| t.classify(p) != t.linear_classify(p)).copied());
        if let Some(packet) = linear_miss {
            return Err(RecoverError::Diverged { packet });
        }

        // Step 4: fold everything into a fresh generation so the next
        // crash replays from here, then attach the new WAL (continuing
        // the replayed chain's LSN line) and record the sticky recovery
        // note.
        let report = self.checkpoint_resuming(&handle, base.train_seed, expect_lsn)?;
        handle.note_recovery(report.generation, truncated_tail.clone());
        let recover_report = RecoverReport {
            base_generation: base.generation,
            new_generation: report.generation,
            epoch: handle.epoch(),
            replayed,
            truncated_tail,
            skipped_checkpoints: rejected,
            spot_checked: probes.len(),
            train_seed: base.train_seed,
        };
        Ok((handle, recover_report))
    }
}

fn replay_record(
    handle: &ClassifierHandle,
    lsn: u64,
    record: wal::WalRecord,
) -> Result<(), RecoverError> {
    match record {
        wal::WalRecord::Insert { id, rule } => match handle.insert(rule) {
            Ok(got) if got == id => Ok(()),
            Ok(got) => Err(RecoverError::ReplayIdMismatch { lsn, logged: id, got }),
            Err(err) => Err(RecoverError::Replay { lsn, err }),
        },
        wal::WalRecord::Delete { id } => {
            handle.delete(id).map_err(|err| RecoverError::Replay { lsn, err })
        }
        wal::WalRecord::Rebuild | wal::WalRecord::Adopt => {
            // Both replay as one forced recompile: classification-
            // identical (the adopt spot check proved it at admission)
            // and exactly one published epoch, keeping the epoch
            // arithmetic exact.
            handle.force_rebuild();
            Ok(())
        }
    }
}

/// Rebuild a serving classifier from the directory `dir` after a crash:
/// [`Persistence::recover`] over the directory storage.
pub fn recover(
    dir: &Path,
    policy: RebuildPolicy,
    extra_probes: &[Packet],
    cfg: &PersistConfig,
) -> Result<(ClassifierHandle, RecoverReport), RecoverError> {
    Persistence::with_config(dir, cfg.clone()).recover(policy, extra_probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{DimRange, Rule, RuleSet};
    use dtree::TreeStats;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("nc-persist-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rule(lo: u64, hi: u64, priority: i32) -> Rule {
        let mut r = Rule::default_rule(priority);
        r.ranges[0] = DimRange { lo, hi };
        r
    }

    fn small_tree() -> DecisionTree {
        let rules = RuleSet::new(vec![
            rule(0, 1 << 16, 30),
            rule(1 << 10, 1 << 20, 20),
            Rule::default_rule(1),
        ]);
        DecisionTree::new(&rules)
    }

    /// A handle over `small_tree` with persistence (one fsync per
    /// record) attached under a fresh directory, pinning `train_seed`.
    fn attached(tag: &str, train_seed: u64) -> (PathBuf, ClassifierHandle, CheckpointReport) {
        let dir = tmp_dir(tag);
        let cfg = PersistConfig { sync_every: 1, ..PersistConfig::default() };
        let handle = ClassifierHandle::new(small_tree(), RebuildPolicy::never());
        let report = Persistence::with_config(&dir, cfg).checkpoint(&handle, train_seed).unwrap();
        (dir, handle, report)
    }

    fn recovered(dir: &Path) -> Result<(ClassifierHandle, RecoverReport), RecoverError> {
        recover(dir, RebuildPolicy::never(), &[], &PersistConfig::default())
    }

    #[test]
    fn checkpoint_encode_decode_round_trips() {
        let ck = Checkpoint { generation: 7, epoch: 42, train_seed: 99, tree: small_tree() };
        let bytes = encode_checkpoint(&ck);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back.generation, 7);
        assert_eq!(back.epoch, 42);
        assert_eq!(back.train_seed, 99);
        assert_eq!(TreeStats::compute(&back.tree), TreeStats::compute(&ck.tree));
        assert_eq!(back.tree.rules().len(), ck.tree.rules().len());
    }

    #[test]
    fn decode_rejects_damage_with_typed_errors() {
        let ck = Checkpoint { generation: 0, epoch: 0, train_seed: 0, tree: small_tree() };
        let bytes = encode_checkpoint(&ck);

        // Body corruption: flip one byte past the header.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(decode_checkpoint(&flipped), Err(CheckpointError::BadChecksum { .. })));

        // Truncation mid-body.
        let cut = &bytes[..bytes.len() - 5];
        assert!(matches!(decode_checkpoint(cut), Err(CheckpointError::Truncated { .. })));

        // Wrong version line.
        assert!(matches!(decode_checkpoint(b"NCCKPT9\n"), Err(CheckpointError::BadVersion { .. })));

        // Empty file.
        assert!(matches!(
            decode_checkpoint(b""),
            Err(CheckpointError::MissingField { field: "version" })
        ));

        // An intact body holding a tree no lookup could walk.
        let body = ck.tree.to_json().replacen(r#""root":0"#, r#""root":9"#, 1);
        let mut unwalkable = format!(
            "{CHECKPOINT_VERSION}\ngeneration 0\nepoch 0\ntrain_seed 0\ntree_len {}\ntree_fnv {:016x}\n",
            body.len(),
            fnv1a(body.as_bytes())
        );
        unwalkable.push_str(&body);
        assert!(matches!(
            decode_checkpoint(unwalkable.as_bytes()),
            Err(CheckpointError::BadTree { why }) if why.contains("root 9 out of range")
        ));
    }

    #[test]
    fn fnv1a_matches_known_vector() {
        // FNV-1a 64-bit test vectors from the reference implementation.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn checkpoint_then_recover_restores_epoch_and_stats() {
        let (dir, handle, _) = attached("roundtrip", 1234);

        // Mutate past the checkpoint: the WAL carries these.
        let id = handle.insert(rule(5, 500, 40)).unwrap();
        handle.insert(rule(7, 700, 35)).unwrap();
        handle.delete(id).unwrap();
        handle.force_rebuild();
        let live_epoch = handle.epoch();
        let live_stats = handle.with_tree(TreeStats::compute);
        drop(handle);

        let (recovered, report) = recovered(&dir).unwrap();
        assert_eq!(report.base_generation, 0);
        assert_eq!(report.replayed, 4);
        assert_eq!(report.truncated_tail, None);
        assert_eq!(report.train_seed, 1234);
        assert_eq!(recovered.epoch(), live_epoch);
        assert_eq!(recovered.with_tree(TreeStats::compute), live_stats);
        // The old chain was folded and GC'd behind the new generation.
        assert_eq!(list_checkpoint_generations(&dir).unwrap(), vec![report.new_generation]);
        let wals = generations(&DirStorage.list(&dir).unwrap(), WAL_NAME);
        assert_eq!(wals, vec![report.new_generation]);
        let health = recovered.health();
        assert_eq!(health.checkpoint_generation, Some(report.new_generation));
        assert_eq!(health.wal_len, Some(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_truncates_a_torn_tail_on_the_last_file() {
        let (dir, handle, report) = attached("torn", 0);
        handle.insert(rule(5, 500, 40)).unwrap();
        let epoch = handle.epoch();
        drop(handle);

        // Simulate a crash mid-append: garbage on the newest WAL's tail.
        let wal = wal_path(&dir, report.generation);
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        drop(f);

        let (recovered, report) = recovered(&dir).unwrap();
        assert_eq!(report.replayed, 1);
        assert!(report.truncated_tail.as_deref().unwrap().contains("torn"));
        assert_eq!(recovered.epoch(), epoch);
        assert_eq!(
            recovered.health().last_recover_error.as_deref(),
            report.truncated_tail.as_deref()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_falls_back_past_an_unreadable_newer_checkpoint() {
        let (dir, handle, _) = attached("fallback", 77);
        handle.insert(rule(5, 500, 40)).unwrap();
        let epoch = handle.epoch();
        drop(handle);

        // A half-written newer checkpoint, as a crashed writer without
        // the tmp-file protocol would leave behind.
        std::fs::write(checkpoint_path(&dir, 1), b"NCCKPT1\ngeneration 1\n").unwrap();

        let (recovered, report) = recovered(&dir).unwrap();
        assert_eq!(report.base_generation, 0);
        assert_eq!(report.skipped_checkpoints.len(), 1);
        assert_eq!(recovered.epoch(), epoch);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_refuses_an_empty_dir() {
        let dir = tmp_dir("empty");
        let err = recovered(&dir).expect_err("nothing to recover from");
        assert!(matches!(err, RecoverError::NoCheckpoint { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn golden_on_disk_layout() {
        // Pin the exact checkpoint byte layout: if serialisation drifts,
        // old checkpoints stop being recoverable and this hash moves.
        let ck = Checkpoint { generation: 3, epoch: 11, train_seed: 5, tree: small_tree() };
        let bytes = encode_checkpoint(&ck);
        let header_end = bytes.iter().position(|&b| b == b'{').unwrap();
        let header = std::str::from_utf8(&bytes[..header_end]).unwrap();
        assert!(header.starts_with("NCCKPT1\ngeneration 3\nepoch 11\ntrain_seed 5\ntree_len "));
        assert!(decode_checkpoint(&bytes).is_ok());
    }
}
