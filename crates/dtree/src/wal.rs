//! Crash-consistent write-ahead logging for the live classifier.
//!
//! Every admitted mutation of a [`crate::ClassifierHandle`] — insert,
//! delete, epoch-adopt, forced rebuild — is appended here as one
//! checksummed, length-prefixed record *before* it touches the serving
//! state, so a `kill -9` at any instant loses nothing that was admitted:
//! recovery (`core::persist`) replays the log suffix on top of the
//! newest checkpoint and lands bit-identically on the pre-crash state.
//!
//! # Record format
//!
//! A WAL file is a 16-byte header followed by back-to-back records:
//!
//! ```text
//! header:  magic "NCWALv1\n" (8 bytes) | start_lsn u64
//! record:  len u32 | body | crc32 u32       (crc over the body)
//! body:    lsn u64 | kind u8 | payload
//! ```
//!
//! All integers are big-endian (matching the `Packet::to_wire` wire
//! convention). The three framing fields are each a tamper/torn-tail
//! tripwire with a distinct failure mode:
//!
//! * the **length prefix** detects a record cut short by a crash
//!   mid-write ([`WalError::TornRecord`]);
//! * the **CRC-32** (IEEE, hand-rolled, std-only) detects flipped or
//!   partially written bytes ([`WalError::CorruptRecord`]);
//! * the **LSN** must increase by exactly one per record, starting at
//!   the header's `start_lsn`, so reordered or spliced records are
//!   detected ([`WalError::LsnMismatch`]) rather than silently replayed
//!   in the wrong order.
//!
//! Torn and corrupt records can only legitimately appear at the *tail*
//! (a crash interrupts at most one in-flight append), so the reader
//! classifies them as a truncatable [`WalReadOutcome::tail`] with the
//! byte length of the valid prefix; structural violations (bad magic,
//! LSN misorder, an undecodable payload behind a valid CRC) are hard
//! typed errors — never a panic, never a silently wrong replay.
//!
//! # Fsync policy and the crash model
//!
//! The writer reaches its file through the [`crate::storage`] seam.
//! Each append is one storage append (with the directory storage, one
//! `write` syscall: the record reaches the page cache at once, which
//! is all a `kill -9` needs, because the page cache outlives the
//! process), while the sync is batched every `sync_every` records (set
//! by [`WalWriter::create`]) to keep the update path fast. A crash
//! keeps the synced bytes and any prefix of the rest, so batching
//! trades only the tail of the current batch against power loss, never
//! a record in the middle of the log. Checkpoints sync everything.
//!
//! An append is all or nothing: it either leaves one more complete
//! record and returns `Ok`, or cuts the file back to the previous
//! record boundary, syncs the cut and returns `Err`, so a refused
//! update never has a record in the log. When the cut fails the writer
//! refuses every append, and the checkpoint that would retire the log
//! retries the cut first and is refused while it fails.

use crate::node::RuleId;
use crate::storage::{DirStorage, Storage, StorageFile};
use classbench::{DimRange, Rule, NUM_DIMS};
use std::path::Path;

/// File magic: the first 8 bytes of every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"NCWALv1\n";

/// Header length: magic + `start_lsn`.
pub const WAL_HEADER_LEN: usize = 16;

/// Smallest legal record body (`lsn u64` + `kind u8`).
const MIN_BODY: u32 = 9;

/// Largest legal record body. Real records are ~100 bytes; a length
/// prefix past this bound is treated as framing corruption instead of
/// being trusted with an allocation.
const MAX_BODY: u32 = 4096;

/// CRC-32 (IEEE 802.3 polynomial, reflected), computed bitwise so the
/// serving-path no-indexing contract holds without a lookup table. The
/// WAL appends off the lookup hot path, so the byte-at-a-time cost is
/// irrelevant next to the `write` syscall it frames.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= b as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
    }
    !c
}

/// One logged mutation, in admission order. Each record corresponds to
/// exactly one published epoch, so a recovered handle's epoch is the
/// checkpoint epoch plus the number of replayed records.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An admitted insert. The arena id the handle assigned is logged
    /// too: id assignment is deterministic (append-order), so replay
    /// re-derives the same id and the match is verified, turning any
    /// drift into a typed recovery error instead of silent corruption.
    Insert {
        /// Arena id the insert was assigned.
        id: RuleId,
        /// The inserted rule.
        rule: Rule,
    },
    /// An admitted delete of an active rule.
    Delete {
        /// Arena id of the deleted rule.
        id: RuleId,
    },
    /// A forced fold-overlay recompile (`force_rebuild`): publishes one
    /// epoch without changing the logical rule set.
    Rebuild,
    /// A retrained tree adopted through the epoch swap. Replayed as a
    /// rebuild: classification-identical by the adopt contract; the
    /// adopted *shape* becomes durable when its checkpoint lands (the
    /// checkpoint also pins the train seed for provenance).
    Adopt,
}

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_REBUILD: u8 = 3;
const KIND_ADOPT: u8 = 4;

/// Why a WAL operation failed or a file could not be fully read.
#[derive(Debug)]
pub enum WalError {
    /// An underlying I/O failure (open, write, sync, rename).
    Io(std::io::Error),
    /// The file does not start with [`WAL_MAGIC`] — it is not a WAL.
    BadMagic,
    /// The file ends inside the 16-byte header (crash during create).
    TornHeader {
        /// Bytes actually present.
        have: usize,
    },
    /// The file ends inside a record — the classic torn tail of an
    /// append interrupted by a crash. Truncatable.
    TornRecord {
        /// Byte offset of the torn record.
        offset: u64,
        /// Bytes present from that offset.
        have: usize,
        /// Bytes a complete record would need.
        need: usize,
    },
    /// A record whose checksum (or length prefix) does not hold —
    /// partially flushed or damaged bytes. Truncatable when last.
    CorruptRecord {
        /// Byte offset of the corrupt record.
        offset: u64,
    },
    /// A record carrying the wrong sequence number: records were
    /// reordered, spliced from another log, or lost mid-file. Never
    /// truncated away — replaying around it would be silently wrong.
    LsnMismatch {
        /// Byte offset of the offending record.
        offset: u64,
        /// The LSN the chain required.
        expected: u64,
        /// The LSN the record carries.
        got: u64,
    },
    /// The record's CRC holds but its payload does not decode (unknown
    /// kind byte or trailing bytes) — a format/version violation, not
    /// disk damage, so it is a hard error rather than a truncation.
    MalformedPayload {
        /// Byte offset of the offending record.
        offset: u64,
        /// The kind byte it carried.
        kind: u8,
    },
    /// An append failed and so did cutting the file back to its last
    /// record boundary, so the file may end in a refused record. The
    /// writer refuses every append until a checkpoint's sync retries
    /// the cut and it holds; the checkpoint is refused while it fails.
    Poisoned {
        /// The failed append and the failed rollback.
        why: String,
    },
}

impl WalError {
    /// The I/O error class to surface through `UpdateError::WalAppend`
    /// (non-I/O variants map to `InvalidData`).
    pub fn io_kind(&self) -> std::io::ErrorKind {
        match self {
            WalError::Io(e) => e.kind(),
            _ => std::io::ErrorKind::InvalidData,
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::BadMagic => f.write_str("not a wal file (bad magic)"),
            WalError::TornHeader { have } => {
                write!(f, "torn wal header: {have} of {WAL_HEADER_LEN} bytes")
            }
            WalError::TornRecord { offset, have, need } => {
                write!(f, "torn wal record at byte {offset}: {have} of {need} bytes")
            }
            WalError::CorruptRecord { offset } => {
                write!(f, "corrupt wal record at byte {offset} (checksum/framing)")
            }
            WalError::LsnMismatch { offset, expected, got } => {
                write!(f, "wal record at byte {offset} carries lsn {got}, expected {expected} (reordered or spliced)")
            }
            WalError::MalformedPayload { offset, kind } => {
                write!(f, "wal record at byte {offset} (kind {kind}) has an undecodable payload")
            }
            WalError::Poisoned { why } => {
                write!(f, "wal refuses appends until a checkpoint rotates it out: {why}")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// A checked big-endian reader over a byte slice: every take is
/// bounds-verified, so parsing arbitrary (torn, corrupt, adversarial)
/// bytes can never panic or index out of range.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn pos(&self) -> usize {
        self.pos
    }

    fn done(&self) -> bool {
        self.remaining() == 0
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let end = self.pos.checked_add(N)?;
        let chunk = self.bytes.get(self.pos..end)?;
        self.pos = end;
        let mut out = [0u8; N];
        out.copy_from_slice(chunk);
        Some(out)
    }

    fn take_slice(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let chunk = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(chunk)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take::<4>().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take::<8>().map(u64::from_be_bytes)
    }

    fn i32(&mut self) -> Option<i32> {
        self.take::<4>().map(i32::from_be_bytes)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn encode_payload(out: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::Insert { id, rule } => {
            put_u64(out, *id as u64);
            for r in rule.ranges.iter() {
                put_u64(out, r.lo);
                put_u64(out, r.hi);
            }
            out.extend_from_slice(&rule.priority.to_be_bytes());
        }
        WalRecord::Delete { id } => put_u64(out, *id as u64),
        WalRecord::Rebuild | WalRecord::Adopt => {}
    }
}

fn record_kind(record: &WalRecord) -> u8 {
    match record {
        WalRecord::Insert { .. } => KIND_INSERT,
        WalRecord::Delete { .. } => KIND_DELETE,
        WalRecord::Rebuild => KIND_REBUILD,
        WalRecord::Adopt => KIND_ADOPT,
    }
}

fn decode_payload(kind: u8, cur: &mut Cursor<'_>) -> Option<WalRecord> {
    let record = match kind {
        KIND_INSERT => {
            let id = usize::try_from(cur.u64()?).ok()?;
            let mut ranges = [DimRange { lo: 0, hi: 0 }; NUM_DIMS];
            for r in ranges.iter_mut() {
                *r = DimRange { lo: cur.u64()?, hi: cur.u64()? };
            }
            let priority = cur.i32()?;
            WalRecord::Insert { id, rule: Rule { ranges, priority } }
        }
        KIND_DELETE => WalRecord::Delete { id: usize::try_from(cur.u64()?).ok()? },
        KIND_REBUILD => WalRecord::Rebuild,
        KIND_ADOPT => WalRecord::Adopt,
        _ => return None,
    };
    if cur.done() {
        Some(record)
    } else {
        None
    }
}

/// Encode one record (length prefix + body + CRC) as it is laid out on
/// disk. Exposed so the corruption proptests can frame records exactly
/// the way the writer does.
pub fn encode_record(lsn: u64, record: &WalRecord) -> Vec<u8> {
    let mut body = Vec::with_capacity(128);
    put_u64(&mut body, lsn);
    body.push(record_kind(record));
    encode_payload(&mut body, record);
    let mut out = Vec::with_capacity(body.len() + 8);
    put_u32(&mut out, body.len() as u32);
    out.extend_from_slice(&body);
    put_u32(&mut out, crc32(&body));
    out
}

/// What [`read_wal`] found: the complete, verified record prefix plus
/// an optional truncatable tail error.
#[derive(Debug)]
pub struct WalReadOutcome {
    /// The header's first sequence number.
    pub start_lsn: u64,
    /// Every verified record, in LSN order.
    pub records: Vec<WalRecord>,
    /// The LSN the next appended record must carry.
    pub next_lsn: u64,
    /// Byte length of the valid prefix (header + verified records) —
    /// what recovery truncates the file to when `tail` is set.
    pub valid_len: u64,
    /// A torn/corrupt tail, when the file does not end cleanly on a
    /// record boundary. `records` holds everything before it.
    pub tail: Option<WalError>,
}

/// Read and verify a WAL file. See [`read_wal_bytes`].
pub fn read_wal(path: &Path) -> Result<WalReadOutcome, WalError> {
    read_wal_from(&DirStorage, path)
}

/// Read and verify the WAL file `path` of `storage`. See
/// [`read_wal_bytes`].
pub fn read_wal_from(storage: &dyn Storage, path: &Path) -> Result<WalReadOutcome, WalError> {
    read_wal_bytes(&storage.read(path).map_err(WalError::Io)?)
}

/// Read and verify an in-memory WAL image. Torn/corrupt tails come
/// back as `Ok` with [`WalReadOutcome::tail`] set (recovery truncates
/// them); structural violations — wrong magic, LSN misorder, an
/// undecodable payload behind a valid CRC — are `Err`. Never panics,
/// whatever the bytes.
pub fn read_wal_bytes(bytes: &[u8]) -> Result<WalReadOutcome, WalError> {
    let mut cur = Cursor::new(bytes);
    let Some(magic) = cur.take::<8>() else {
        return Ok(WalReadOutcome {
            start_lsn: 0,
            records: Vec::new(),
            next_lsn: 0,
            valid_len: 0,
            tail: Some(WalError::TornHeader { have: bytes.len() }),
        });
    };
    if magic != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }
    let Some(start_lsn) = cur.u64() else {
        return Ok(WalReadOutcome {
            start_lsn: 0,
            records: Vec::new(),
            next_lsn: 0,
            valid_len: 0,
            tail: Some(WalError::TornHeader { have: bytes.len() }),
        });
    };

    let mut records = Vec::new();
    let mut lsn = start_lsn;
    let mut valid_len = WAL_HEADER_LEN as u64;
    let mut tail = None;
    while !cur.done() {
        let offset = cur.pos() as u64;
        let have = cur.remaining();
        let Some(len) = cur.u32() else {
            tail = Some(WalError::TornRecord { offset, have, need: 8 + MIN_BODY as usize });
            break;
        };
        if !(MIN_BODY..=MAX_BODY).contains(&len) {
            tail = Some(WalError::CorruptRecord { offset });
            break;
        }
        let need = 8 + len as usize;
        let Some(body) = cur.take_slice(len as usize) else {
            tail = Some(WalError::TornRecord { offset, have, need });
            break;
        };
        let Some(crc) = cur.u32() else {
            tail = Some(WalError::TornRecord { offset, have, need });
            break;
        };
        if crc32(body) != crc {
            tail = Some(WalError::CorruptRecord { offset });
            break;
        }
        let mut b = Cursor::new(body);
        let (Some(got_lsn), Some(kind)) = (b.u64(), b.u8()) else {
            // Unreachable given MIN_BODY, but parse defensively.
            return Err(WalError::MalformedPayload { offset, kind: 0 });
        };
        if got_lsn != lsn {
            return Err(WalError::LsnMismatch { offset, expected: lsn, got: got_lsn });
        }
        let Some(record) = decode_payload(kind, &mut b) else {
            return Err(WalError::MalformedPayload { offset, kind });
        };
        records.push(record);
        lsn = lsn.wrapping_add(1);
        valid_len = cur.pos() as u64;
    }
    Ok(WalReadOutcome { start_lsn, records, next_lsn: lsn, valid_len, tail })
}

/// The append half: owns one open WAL file and its sequence counter.
/// Held by the `ClassifierHandle` behind its state lock, so appends are
/// naturally serialised with the mutations they precede.
#[derive(Debug)]
pub struct WalWriter {
    file: Box<dyn StorageFile>,
    /// Byte length of the file up to its last complete record.
    len: u64,
    next_lsn: u64,
    appended: u64,
    since_sync: usize,
    sync_every: usize,
    /// Set when a failed append could not be rolled back.
    poisoned: Option<String>,
}

impl WalWriter {
    /// Create a fresh WAL file `path` in `storage` (refusing to
    /// overwrite — generations are never reused) whose first record
    /// will carry `start_lsn`, syncing every `sync_every` appends.
    pub fn create(
        storage: &dyn Storage,
        path: &Path,
        start_lsn: u64,
        sync_every: usize,
    ) -> Result<WalWriter, WalError> {
        let mut file = storage.create(path).map_err(WalError::Io)?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN);
        header.extend_from_slice(&WAL_MAGIC);
        put_u64(&mut header, start_lsn);
        file.append(&header).map_err(WalError::Io)?;
        file.sync().map_err(WalError::Io)?;
        Ok(WalWriter {
            file,
            len: WAL_HEADER_LEN as u64,
            next_lsn: start_lsn,
            appended: 0,
            since_sync: 0,
            sync_every: sync_every.max(1),
            poisoned: None,
        })
    }

    /// The LSN the next append will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Records appended since this writer was created — the "WAL length
    /// since the last checkpoint" durability signal, because every
    /// checkpoint rotates in a fresh writer.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Append one record, syncing when it completes a batch of
    /// `sync_every` (see the module docs). Returns the record's
    /// LSN. On error the file is durably back at its previous record
    /// boundary and the caller must refuse the mutation. When that
    /// rollback fails too the writer is [`WalError::Poisoned`] until
    /// [`Self::sync`] manages the cut.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, WalError> {
        if let Some(why) = &self.poisoned {
            return Err(WalError::Poisoned { why: why.clone() });
        }
        let lsn = self.next_lsn;
        let bytes = encode_record(lsn, record);
        let sync = self.since_sync + 1 >= self.sync_every;
        let written = self.file.append(&bytes).and_then(|()| match sync {
            true => self.file.sync(),
            false => Ok(()),
        });
        if let Err(err) = written {
            if let Err(cut) = self.cut_back() {
                let why = format!(
                    "append of lsn {lsn} failed ({err}) and cutting the log back to byte {} \
                     failed ({cut})",
                    self.len
                );
                self.poisoned = Some(why.clone());
                return Err(WalError::Poisoned { why });
            }
            return Err(WalError::Io(err));
        }
        self.len += bytes.len() as u64;
        self.next_lsn = lsn.wrapping_add(1);
        self.appended += 1;
        self.since_sync = if sync { 0 } else { self.since_sync + 1 };
        Ok(lsn)
    }

    /// Sync the current batch now (a checkpoint calls this before it
    /// retires the generation). A poisoned writer first retries the cut
    /// back to its last record and is healed when that holds; when it
    /// fails again the sync is refused, so the log is never retired
    /// with a refused record in it.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if let Some(why) = self.poisoned.take() {
            if let Err(cut) = self.cut_back() {
                self.poisoned = Some(why.clone());
                return Err(WalError::Poisoned {
                    why: format!("{why}; retrying the cut failed ({cut})"),
                });
            }
        }
        self.file.sync().map_err(WalError::Io)?;
        self.since_sync = 0;
        Ok(())
    }

    /// Cut the file back to its last complete record and make the cut
    /// durable, so a refused record cannot come back after a crash.
    fn cut_back(&mut self) -> std::io::Result<()> {
        self.file.truncate(self.len)?;
        self.file.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_wal(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ncwal-test-{}-{tag}-{n}.ncwal", std::process::id()))
    }

    fn sample_records() -> Vec<WalRecord> {
        let mut rule = Rule::default_rule(17);
        rule.ranges[0] = DimRange { lo: 5, hi: 4096 };
        vec![
            WalRecord::Insert { id: 3, rule },
            WalRecord::Delete { id: 1 },
            WalRecord::Rebuild,
            WalRecord::Adopt,
            WalRecord::Insert { id: 4, rule: Rule::default_rule(-9) },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_read_round_trips() {
        let path = tmp_wal("roundtrip");
        let mut w = WalWriter::create(&DirStorage, &path, 7, 2).expect("create");
        let records = sample_records();
        for (i, r) in records.iter().enumerate() {
            assert_eq!(w.append(r).expect("append"), 7 + i as u64);
        }
        w.sync().expect("sync");
        assert_eq!(w.appended(), records.len() as u64);
        assert_eq!(w.next_lsn(), 7 + records.len() as u64);

        let out = read_wal(&path).expect("read");
        assert_eq!(out.start_lsn, 7);
        assert_eq!(out.records, records);
        assert_eq!(out.next_lsn, w.next_lsn());
        assert!(out.tail.is_none());
        assert_eq!(out.valid_len, std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let path = tmp_wal("exists");
        let _w = WalWriter::create(&DirStorage, &path, 0, 1).expect("create");
        assert!(matches!(WalWriter::create(&DirStorage, &path, 0, 1), Err(WalError::Io(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_reported_and_truncatable() {
        let path = tmp_wal("torn");
        let mut w = WalWriter::create(&DirStorage, &path, 0, 1).expect("create");
        for r in sample_records() {
            w.append(&r).expect("append");
        }
        drop(w);
        // Tear the last record in half.
        let full = std::fs::read(&path).unwrap();
        let out = read_wal_bytes(&full).expect("clean read");
        let torn_at = out.valid_len as usize - 5;
        std::fs::write(&path, &full[..torn_at]).unwrap();

        let torn = read_wal(&path).expect("torn tails are recoverable");
        assert_eq!(torn.records.len(), sample_records().len() - 1);
        assert!(matches!(torn.tail, Some(WalError::TornRecord { .. })), "{:?}", torn.tail);

        DirStorage.truncate(&path, torn.valid_len).expect("truncate");
        let clean = read_wal(&path).expect("read after truncate");
        assert!(clean.tail.is_none());
        assert_eq!(clean.records, torn.records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_byte_is_detected_not_replayed() {
        let path = tmp_wal("corrupt");
        let mut w = WalWriter::create(&DirStorage, &path, 0, 1).expect("create");
        for r in sample_records() {
            w.append(&r).expect("append");
        }
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = WAL_HEADER_LEN + 20; // inside the first record's payload
        bytes[mid] ^= 0x40;
        let out = read_wal_bytes(&bytes).expect("corruption is a tail, not a crash");
        assert!(matches!(out.tail, Some(WalError::CorruptRecord { .. })), "{:?}", out.tail);
        assert!(out.records.is_empty(), "nothing before the corrupt record survives");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reordered_records_are_a_hard_error() {
        let a = encode_record(0, &WalRecord::Delete { id: 1 });
        let b = encode_record(1, &WalRecord::Delete { id: 2 });
        let mut file = Vec::new();
        file.extend_from_slice(&WAL_MAGIC);
        file.extend_from_slice(&0u64.to_be_bytes());
        file.extend_from_slice(&b);
        file.extend_from_slice(&a);
        match read_wal_bytes(&file) {
            Err(WalError::LsnMismatch { expected: 0, got: 1, .. }) => {}
            other => panic!("expected LsnMismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_torn_header() {
        assert!(matches!(read_wal_bytes(b"NOTAWAL!rest"), Err(WalError::BadMagic)));
        let out = read_wal_bytes(b"NCWALv1\n\x00\x00").expect("short header is a tail");
        assert!(matches!(out.tail, Some(WalError::TornHeader { have: 10 })));
        assert_eq!(out.valid_len, 0);
        let out = read_wal_bytes(b"").expect("empty file is a torn header");
        assert!(matches!(out.tail, Some(WalError::TornHeader { have: 0 })));
    }

    #[test]
    fn unknown_kind_behind_valid_crc_is_malformed() {
        let mut body = Vec::new();
        body.extend_from_slice(&0u64.to_be_bytes());
        body.push(99); // unknown kind
        let mut file = Vec::new();
        file.extend_from_slice(&WAL_MAGIC);
        file.extend_from_slice(&0u64.to_be_bytes());
        file.extend_from_slice(&(body.len() as u32).to_be_bytes());
        file.extend_from_slice(&body);
        file.extend_from_slice(&crc32(&body).to_be_bytes());
        match read_wal_bytes(&file) {
            Err(WalError::MalformedPayload { kind: 99, .. }) => {}
            other => panic!("expected MalformedPayload, got {other:?}"),
        }
    }

    #[test]
    fn lsn_chains_across_generations() {
        // Generation n+1 starts where generation n left off, so a
        // recovery chain can verify continuity across files.
        let p0 = tmp_wal("chain0");
        let p1 = tmp_wal("chain1");
        let mut w0 = WalWriter::create(&DirStorage, &p0, 0, 8).expect("create");
        w0.append(&WalRecord::Rebuild).expect("append");
        w0.append(&WalRecord::Delete { id: 0 }).expect("append");
        w0.sync().expect("sync");
        let mut w1 = WalWriter::create(&DirStorage, &p1, w0.next_lsn(), 8).expect("create");
        w1.append(&WalRecord::Adopt).expect("append");
        w1.sync().expect("sync");
        let o0 = read_wal(&p0).expect("read gen 0");
        let o1 = read_wal(&p1).expect("read gen 1");
        assert_eq!(o0.next_lsn, o1.start_lsn);
        assert_eq!(o1.next_lsn, 3);
        let _ = std::fs::remove_file(&p0);
        let _ = std::fs::remove_file(&p1);
    }
}
