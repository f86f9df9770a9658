//! Half-open integer ranges, the geometric primitive for rules and
//! decision-tree node spaces.

use crate::dim::Dim;
use serde::{Deserialize, Serialize};

/// A half-open range `[lo, hi)` over one dimension's value space.
///
/// Half-open bounds avoid overflow at the top of the 32-bit IP space:
/// the full source-IP range is `[0, 2^32)`, which fits comfortably in
/// `u64`. An empty range has `lo >= hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DimRange {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Exclusive upper bound.
    pub hi: u64,
}

impl DimRange {
    /// Create a range `[lo, hi)`.
    ///
    /// # Panics
    /// Panics in debug builds if `lo > hi` (an inverted range is always a
    /// bug; an empty range `lo == hi` is permitted as a degenerate case).
    #[inline]
    pub fn new(lo: u64, hi: u64) -> Self {
        debug_assert!(lo <= hi, "inverted range [{lo}, {hi})");
        DimRange { lo, hi }
    }

    /// The full value space of dimension `dim` (e.g. `[0, 2^32)` for IPs).
    #[inline]
    pub fn full(dim: Dim) -> Self {
        DimRange { lo: 0, hi: dim.span() }
    }

    /// A range derived from an IP-style prefix: `value/prefix_len` over a
    /// `bits`-wide space. `prefix_len == 0` yields the full space.
    ///
    /// # Panics
    /// Panics if `prefix_len > bits`.
    pub fn from_prefix(value: u64, prefix_len: u32, bits: u32) -> Self {
        assert!(prefix_len <= bits, "prefix {prefix_len} longer than {bits} bits");
        let shift = bits - prefix_len;
        // `shift` can be up to 64 in theory but bits <= 32 here; mask the
        // value down to the prefix then widen to the covered block.
        let lo = if shift >= 64 { 0 } else { (value >> shift) << shift };
        let hi = if shift >= 64 { u64::MAX } else { lo + (1u64 << shift) };
        DimRange { lo, hi }
    }

    /// An exact-match range covering a single value.
    #[inline]
    pub fn exact(value: u64) -> Self {
        DimRange { lo: value, hi: value + 1 }
    }

    /// Number of values covered (`hi - lo`); zero for empty ranges.
    #[inline]
    pub fn len(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }

    /// True when no value is covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// True when `value` lies inside `[lo, hi)`.
    #[inline]
    pub fn contains(&self, value: u64) -> bool {
        self.lo <= value && value < self.hi
    }

    /// True when `other` lies fully inside this range.
    #[inline]
    pub fn contains_range(&self, other: &DimRange) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// True when the two ranges share at least one value.
    #[inline]
    pub fn overlaps(&self, other: &DimRange) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// The overlapping part of the two ranges, or an empty range anchored
    /// at `max(lo)` when they are disjoint.
    #[inline]
    pub fn intersect(&self, other: &DimRange) -> DimRange {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        DimRange { lo, hi: hi.max(lo) }
    }

    /// Fraction of `space` covered by this range, in `[0, 1]`.
    ///
    /// Used by the partition heuristics ("largeness" of a rule in a
    /// dimension, EffiCuts §3) and by the observation encoding.
    pub fn coverage_of(&self, space: &DimRange) -> f64 {
        if space.is_empty() {
            return 0.0;
        }
        self.intersect(space).len() as f64 / space.len() as f64
    }

    /// Split at `point` into `[lo, point)` and `[point, hi)`.
    ///
    /// `point` is clamped into the range, so an out-of-range threshold
    /// produces one empty side rather than inverted ranges.
    pub fn split_at(&self, point: u64) -> (DimRange, DimRange) {
        let p = point.clamp(self.lo, self.hi);
        (DimRange { lo: self.lo, hi: p }, DimRange { lo: p, hi: self.hi })
    }
}

impl std::fmt::Display for DimRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn full_range_covers_everything() {
        let r = DimRange::full(Dim::Proto);
        assert_eq!(r.len(), 256);
        assert!(r.contains(0));
        assert!(r.contains(255));
        assert!(!r.contains(256));
    }

    #[test]
    fn prefix_ranges() {
        // 10.0.0.0/8 == [10 << 24, 11 << 24)
        let r = DimRange::from_prefix(10 << 24, 8, 32);
        assert_eq!(r.lo, 10 << 24);
        assert_eq!(r.hi, 11 << 24);
        // /0 is the whole space.
        let r = DimRange::from_prefix(12345, 0, 32);
        assert_eq!(r, DimRange::full(Dim::SrcIp));
        // /32 is an exact match.
        let r = DimRange::from_prefix(42, 32, 32);
        assert_eq!(r, DimRange::exact(42));
    }

    #[test]
    fn prefix_masks_low_bits() {
        // A value with low bits set still yields the aligned block.
        let r = DimRange::from_prefix(0x0a0000ff, 24, 32);
        assert_eq!(r.lo, 0x0a000000);
        assert_eq!(r.hi, 0x0a000100);
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = DimRange::new(0, 10);
        let b = DimRange::new(20, 30);
        assert!(a.intersect(&b).is_empty());
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn intersect_overlap() {
        let a = DimRange::new(0, 10);
        let b = DimRange::new(5, 30);
        assert_eq!(a.intersect(&b), DimRange::new(5, 10));
        assert!(a.overlaps(&b));
    }

    #[test]
    fn adjacent_ranges_do_not_overlap() {
        let a = DimRange::new(0, 10);
        let b = DimRange::new(10, 20);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn split_at_clamps() {
        let r = DimRange::new(10, 20);
        let (a, b) = r.split_at(15);
        assert_eq!(a, DimRange::new(10, 15));
        assert_eq!(b, DimRange::new(15, 20));
        let (a, b) = r.split_at(5);
        assert!(a.is_empty());
        assert_eq!(b, r);
        let (a, b) = r.split_at(25);
        assert_eq!(a, r);
        assert!(b.is_empty());
    }

    #[test]
    fn coverage_fraction() {
        let space = DimRange::new(0, 100);
        assert_eq!(DimRange::new(0, 50).coverage_of(&space), 0.5);
        assert_eq!(DimRange::new(0, 100).coverage_of(&space), 1.0);
        assert_eq!(DimRange::new(200, 300).coverage_of(&space), 0.0);
    }

    proptest! {
        #[test]
        fn prop_intersect_commutative(a_lo in 0u64..1000, a_len in 0u64..1000,
                                      b_lo in 0u64..1000, b_len in 0u64..1000) {
            let a = DimRange::new(a_lo, a_lo + a_len);
            let b = DimRange::new(b_lo, b_lo + b_len);
            let ab = a.intersect(&b);
            let ba = b.intersect(&a);
            prop_assert_eq!(ab.is_empty(), ba.is_empty());
            if !ab.is_empty() {
                prop_assert_eq!(ab, ba);
            }
        }

        #[test]
        fn prop_prefix_contains_value(value in 0u64..(1u64 << 32), len in 0u32..33) {
            let r = DimRange::from_prefix(value, len, 32);
            prop_assert!(r.contains(value));
            // Block size is 2^(32-len).
            prop_assert_eq!(r.len(), 1u64 << (32 - len));
        }
    }
}
