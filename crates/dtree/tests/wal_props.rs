//! Write-ahead-log property tests: damage of any kind — a flipped
//! byte, truncation at every possible offset, reordered records — must
//! surface as a typed error or a truncatable tail, never as a panic
//! and **never as a silently wrong replay** (every record a damaged
//! image does decode must be byte-for-byte one of the originals, in
//! order, from the front).

use classbench::Rule;
use dtree::storage::{DirStorage, Storage};
use dtree::wal::{
    self, encode_record, read_wal_bytes, WalError, WalRecord, WAL_HEADER_LEN, WAL_MAGIC,
};
use proptest::prelude::*;

/// Decode one drawn tuple into a record. Rules take arbitrary range
/// bytes on purpose: the WAL frames and checksums payloads without
/// judging them, so the codec must round-trip anything.
fn decode_drawn(kind: u8, id: u64, ranges: Vec<(u64, u64)>, priority: i32) -> WalRecord {
    match kind % 4 {
        0 => {
            let mut rule = Rule::default_rule(priority);
            for (r, (lo, hi)) in rule.ranges.iter_mut().zip(ranges) {
                r.lo = lo;
                r.hi = hi;
            }
            WalRecord::Insert { id: id as usize, rule }
        }
        1 => WalRecord::Delete { id: id as usize },
        2 => WalRecord::Rebuild,
        _ => WalRecord::Adopt,
    }
}

fn drawn_records(at_least: usize) -> impl Strategy<Value = Vec<WalRecord>> {
    proptest::collection::vec(
        (
            0u8..=255,
            0u64..=u64::MAX,
            proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 5..6),
            i32::MIN..=i32::MAX,
        )
            .prop_map(|(k, id, ranges, prio)| decode_drawn(k, id, ranges, prio)),
        at_least..16,
    )
}

/// A complete on-disk WAL image: header + every record encoded at its
/// sequential LSN (exactly what `WalWriter` produces).
fn wal_image(start_lsn: u64, records: &[WalRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&WAL_MAGIC);
    bytes.extend_from_slice(&start_lsn.to_be_bytes());
    for (i, r) in records.iter().enumerate() {
        bytes.extend_from_slice(&encode_record(start_lsn + i as u64, r));
    }
    bytes
}

/// Whatever a damaged image yields, the decoded records must be an
/// exact in-order prefix of the originals — the "never silently wrong"
/// half of every property below.
fn assert_exact_prefix(decoded: &[WalRecord], originals: &[WalRecord]) {
    assert!(decoded.len() <= originals.len(), "decoded more records than were written");
    for (i, r) in decoded.iter().enumerate() {
        assert_eq!(r, &originals[i], "record {i} decoded differently than written");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any single byte anywhere in the image is detected:
    /// a typed hard error (bad magic, LSN mismatch) or a reported
    /// tail — and the surviving records are an exact prefix.
    #[test]
    fn prop_single_byte_corruption_is_detected(
        records in drawn_records(1),
        start_lsn in 0u64..1_000_000,
        flip_raw in 0usize..1_000_000,
        flip_with in 1u8..=255,
    ) {
        let clean = wal_image(start_lsn, &records);
        let baseline = read_wal_bytes(&clean).expect("clean image must read");
        prop_assert!(baseline.tail.is_none());
        prop_assert_eq!(baseline.records.len(), records.len());

        let mut dirty = clean.clone();
        let at = flip_raw % dirty.len();
        dirty[at] ^= flip_with;

        match read_wal_bytes(&dirty) {
            Err(_) => {} // typed hard error — detected
            Ok(out) => {
                assert_exact_prefix(&out.records, &records);
                prop_assert!(
                    out.tail.is_some() || out.records.len() < records.len(),
                    "flip of byte {} went completely undetected",
                    at
                );
            }
        }
    }

    /// Truncating the image at *every* possible offset yields the exact
    /// prefix of complete records, reports the torn tail, and hands
    /// back a `valid_len` that re-reads clean — the contract recovery's
    /// tail repair is built on.
    #[test]
    fn prop_truncation_at_every_offset_yields_a_clean_prefix(
        records in drawn_records(1),
        start_lsn in 0u64..1_000_000,
        cut_raw in 0usize..1_000_000,
    ) {
        let clean = wal_image(start_lsn, &records);
        let cut = cut_raw % (clean.len() + 1); // every offset incl. full length
        let torn = &clean[..cut];

        let out = read_wal_bytes(torn).expect("truncation is never a hard error");
        assert_exact_prefix(&out.records, &records);
        if cut < WAL_HEADER_LEN {
            prop_assert!(matches!(out.tail, Some(WalError::TornHeader { .. })));
            prop_assert_eq!(out.valid_len, 0);
        } else {
            prop_assert!(out.valid_len as usize <= cut);
            if cut == clean.len() {
                prop_assert!(out.tail.is_none(), "a full image has no tail");
                prop_assert_eq!(out.records.len(), records.len());
            } else {
                // Mid-record cuts report a torn tail; cuts exactly on a
                // record boundary read clean with fewer records.
                prop_assert_eq!(out.tail.is_some(), out.valid_len as usize != cut);
            }
            // The repaired image (what recovery's truncate would leave on
            // disk) must read back clean with the same records.
            let repaired = read_wal_bytes(&torn[..out.valid_len as usize])
                .expect("repaired image must read");
            prop_assert!(repaired.tail.is_none());
            prop_assert_eq!(&repaired.records, &out.records);
            prop_assert_eq!(repaired.next_lsn, out.next_lsn);
        }
    }

    /// Swapping any two records (framing intact, checksums valid) is a
    /// hard `LsnMismatch` — reordering cannot be repaired by truncation
    /// and must never replay.
    #[test]
    fn prop_reordered_records_are_a_hard_error(
        records in drawn_records(2),
        start_lsn in 0u64..1_000_000,
        a_raw in 0usize..1_000_000,
        off_raw in 0usize..1_000_000,
    ) {
        let a = a_raw % records.len();
        let b = (a + 1 + off_raw % (records.len() - 1)) % records.len();

        // Encode each record at its true LSN, then lay the blocks down
        // with positions a and b exchanged.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&start_lsn.to_be_bytes());
        let mut order: Vec<usize> = (0..records.len()).collect();
        order.swap(a, b);
        for &i in &order {
            bytes.extend_from_slice(&encode_record(start_lsn + i as u64, &records[i]));
        }

        match read_wal_bytes(&bytes) {
            Err(WalError::LsnMismatch { .. }) => {}
            other => prop_assert!(false, "reordering must be LsnMismatch, got {other:?}"),
        }
    }

    /// The codec itself round-trips anything: encode at an arbitrary
    /// LSN, read back, get the same records and the right next LSN.
    #[test]
    fn prop_encode_decode_round_trips(
        records in drawn_records(1),
        start_raw in 0u64..=u64::MAX,
    ) {
        // Keep start_lsn + len inside u64 (the writer never wraps).
        let start_lsn = start_raw.min(u64::MAX - records.len() as u64);
        let image = wal_image(start_lsn, &records);
        let out = read_wal_bytes(&image).expect("round trip");
        prop_assert!(out.tail.is_none());
        prop_assert_eq!(out.start_lsn, start_lsn);
        prop_assert_eq!(&out.records, &records);
        prop_assert_eq!(out.next_lsn, start_lsn + records.len() as u64);
        prop_assert_eq!(out.valid_len as usize, image.len());
    }
}

/// Non-property pin: a storage truncate to `valid_len` actually repairs a
/// torn file on disk end to end.
#[test]
fn truncate_repairs_a_torn_file_on_disk() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("nc-walprops-{}.ncwal", std::process::id()));
    let records =
        vec![WalRecord::Rebuild, WalRecord::Delete { id: 3 }, WalRecord::Adopt, WalRecord::Rebuild];
    let mut image = wal_image(5, &records);
    image.truncate(image.len() - 2); // tear the last record
    std::fs::write(&path, &image).unwrap();

    let out = wal::read_wal(&path).unwrap();
    assert!(matches!(out.tail, Some(WalError::TornRecord { .. })));
    assert_eq!(out.records.len(), 3);
    DirStorage.truncate(&path, out.valid_len).unwrap();

    let repaired = wal::read_wal(&path).unwrap();
    assert!(repaired.tail.is_none());
    assert_eq!(repaired.records, records[..3]);
    assert_eq!(repaired.next_lsn, 8);
    std::fs::remove_file(&path).unwrap();
}
