//! 5-dimensional boxes: the region of header space a tree node owns.

use classbench::{Dim, DimRange, Packet, Rule, DIMS, NUM_DIMS};
use serde::{Deserialize, Serialize};

/// The hyper-rectangle of header space a tree node is responsible for.
///
/// The root owns the full space; cutting/splitting produces child spaces
/// that tile the parent exactly. Rule-partition children share their
/// parent's space (they divide the *rules*, not the space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeSpace {
    /// Per-dimension ranges, indexed by [`Dim`].
    pub ranges: [DimRange; NUM_DIMS],
}

impl NodeSpace {
    /// The full 5-tuple header space.
    pub fn full() -> Self {
        NodeSpace {
            ranges: [
                DimRange::full(Dim::SrcIp),
                DimRange::full(Dim::DstIp),
                DimRange::full(Dim::SrcPort),
                DimRange::full(Dim::DstPort),
                DimRange::full(Dim::Proto),
            ],
        }
    }

    /// The range this space covers in `dim`.
    #[inline]
    pub fn range(&self, dim: Dim) -> &DimRange {
        &self.ranges[dim.index()]
    }

    /// True when the packet lies inside the box.
    #[inline]
    pub fn contains(&self, packet: &Packet) -> bool {
        self.ranges.iter().zip(packet.values.iter()).all(|(r, &v)| r.contains(v))
    }

    /// True when the rule's hypercube overlaps the box in every dimension.
    #[inline]
    pub fn intersects_rule(&self, rule: &Rule) -> bool {
        rule.intersects_space(&self.ranges)
    }

    /// True when the rule's hypercube, clipped to this box, covers the
    /// whole box (used for redundancy pruning: such a rule matches every
    /// packet that reaches the node).
    pub fn covered_by_rule(&self, rule: &Rule) -> bool {
        self.ranges.iter().zip(rule.ranges.iter()).all(|(s, r)| r.contains_range(s))
    }

    /// Number of distinct values covered (product of range lengths).
    /// Saturates at `u128::MAX`; useful for sanity checks only.
    pub fn volume(&self) -> u128 {
        self.ranges.iter().map(|r| r.len() as u128).product()
    }

    /// Cut along `dim` into `ncuts` equal sub-boxes (HiCuts-style).
    pub fn cut(&self, dim: Dim, ncuts: usize) -> Vec<NodeSpace> {
        let cut = EqualCut::new(self.range(dim), ncuts);
        (0..ncuts)
            .map(|i| {
                let mut s = *self;
                s.ranges[dim.index()] = cut.range(i);
                s
            })
            .collect()
    }

    /// Cut along several dimensions at once (HyperCuts-style); children
    /// are returned in row-major order of `dims`.
    pub fn multi_cut(&self, dims: &[(Dim, usize)]) -> Vec<NodeSpace> {
        let mut spaces = vec![*self];
        for &(dim, ncuts) in dims {
            let mut next = Vec::with_capacity(spaces.len() * ncuts);
            for s in &spaces {
                next.extend(s.cut(dim, ncuts));
            }
            spaces = next;
        }
        spaces
    }

    /// Split at `threshold` in `dim` into (left `[lo, t)`, right `[t, hi)`).
    pub fn split(&self, dim: Dim, threshold: u64) -> (NodeSpace, NodeSpace) {
        let (l, r) = self.ranges[dim.index()].split_at(threshold);
        let mut left = *self;
        let mut right = *self;
        left.ranges[dim.index()] = l;
        right.ranges[dim.index()] = r;
        (left, right)
    }

    /// True when any dimension's range is empty (the box covers nothing).
    pub fn is_empty(&self) -> bool {
        self.ranges.iter().any(|r| r.is_empty())
    }
}

/// An equal-size cut of one dimension's range `[lo, hi)` into `n`
/// children (HiCuts-style): child `i` covers `[lo + i·step, lo +
/// (i+1)·step)` and the last child absorbs the remainder. A range
/// shorter than `n` gets `step` 1 and empty trailing children anchored
/// at `hi`. The one statement of the cut geometry: child spaces, packet
/// routing, rule routing and the compiled step all read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EqualCut {
    /// Inclusive lower bound of the cut range.
    pub(crate) lo: u64,
    /// Exclusive upper bound of the cut range.
    pub(crate) hi: u64,
    /// Width of every child but the last: `max(len / n, 1)`.
    pub(crate) step: u64,
    /// Number of children.
    pub(crate) n: usize,
}

impl EqualCut {
    /// Cut `range` into `n` children.
    ///
    /// # Panics
    /// Panics if `n` is 0.
    #[inline]
    pub(crate) fn new(range: &DimRange, n: usize) -> Self {
        assert!(n >= 1, "cannot cut into zero pieces");
        EqualCut { lo: range.lo, hi: range.hi, step: (range.len() / n as u64).max(1), n }
    }

    /// The child value `v` descends into, clamped so values outside the
    /// range map to the nearest end child.
    #[inline]
    pub(crate) fn child(&self, v: u64) -> usize {
        (v.saturating_sub(self.lo) / self.step).min(self.n as u64 - 1) as usize
    }

    /// The inclusive child-index range a rule projection `[rl, rh)`
    /// that overlaps `[lo, hi)` lands in: exactly the children whose
    /// [`Self::range`] overlaps it under the half-open predicate. A
    /// rule reaching past `hi` also overlaps the empty children
    /// anchored there, so it runs to the last child.
    #[inline]
    pub(crate) fn children(&self, rl: u64, rh: u64) -> (usize, usize) {
        let last = if rh > self.hi { self.n - 1 } else { self.child(rh.saturating_sub(1)) };
        (self.child(rl), last)
    }

    /// The range child `i` covers.
    pub(crate) fn range(&self, i: usize) -> DimRange {
        let start = |k: usize| (self.lo + k as u64 * self.step).min(self.hi);
        DimRange { lo: start(i), hi: if i + 1 == self.n { self.hi } else { start(i + 1) } }
    }
}

impl std::fmt::Display for NodeSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{}={}", DIMS[i].name(), r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn full_space_contains_any_valid_packet() {
        let s = NodeSpace::full();
        assert!(s.contains(&Packet::new(0, 0, 0, 0, 0)));
        assert!(s.contains(&Packet::new((1 << 32) - 1, 0, 65535, 65535, 255)));
        assert_eq!(s.volume(), (1u128 << 32) * (1 << 32) * (1 << 16) * (1 << 16) * 256);
    }

    #[test]
    fn cut_tiles_the_space() {
        let s = NodeSpace::full();
        let kids = s.cut(Dim::SrcPort, 4);
        assert_eq!(kids.len(), 4);
        assert_eq!(kids[0].range(Dim::SrcPort).lo, 0);
        assert_eq!(kids[3].range(Dim::SrcPort).hi, 65536);
        // Other dims untouched.
        assert_eq!(kids[2].range(Dim::DstIp), s.range(Dim::DstIp));
        let vol: u128 = kids.iter().map(|k| k.volume()).sum();
        assert_eq!(vol, s.volume());
    }

    #[test]
    fn multi_cut_row_major() {
        let s = NodeSpace::full();
        let kids = s.multi_cut(&[(Dim::Proto, 2), (Dim::SrcPort, 2)]);
        assert_eq!(kids.len(), 4);
        // Row-major: proto splits outermost... actually innermost last:
        // children 0,1 share the first proto half.
        assert_eq!(kids[0].range(Dim::Proto), kids[1].range(Dim::Proto));
        assert_ne!(kids[0].range(Dim::SrcPort), kids[1].range(Dim::SrcPort));
        assert_ne!(kids[0].range(Dim::Proto), kids[2].range(Dim::Proto));
        let vol: u128 = kids.iter().map(|k| k.volume()).sum();
        assert_eq!(vol, s.volume());
    }

    #[test]
    fn split_partitions_dim() {
        let s = NodeSpace::full();
        let (l, r) = s.split(Dim::DstPort, 1024);
        assert_eq!(l.range(Dim::DstPort), &DimRange::new(0, 1024));
        assert_eq!(r.range(Dim::DstPort), &DimRange::new(1024, 65536));
        assert!(l.contains(&Packet::new(0, 0, 0, 1023, 0)));
        assert!(!l.contains(&Packet::new(0, 0, 0, 1024, 0)));
        assert!(r.contains(&Packet::new(0, 0, 0, 1024, 0)));
    }

    #[test]
    fn covered_by_default_rule() {
        let s = NodeSpace::full();
        assert!(s.covered_by_rule(&Rule::default_rule(0)));
        let mut narrow = Rule::default_rule(0);
        narrow.ranges[Dim::Proto.index()] = DimRange::exact(6);
        assert!(!s.covered_by_rule(&narrow));
        // But a node space inside proto=6 is covered.
        let mut sub = s;
        sub.ranges[Dim::Proto.index()] = DimRange::exact(6);
        assert!(sub.covered_by_rule(&narrow));
    }

    #[test]
    fn equal_cut_covers_whole_range() {
        let cut = EqualCut::new(&DimRange::new(0, 100), 4);
        assert_eq!(cut.range(0), DimRange::new(0, 25));
        assert_eq!(cut.range(3), DimRange::new(75, 100));
        assert_eq!((0..4).map(|i| cut.range(i).len()).sum::<u64>(), 100);
    }

    #[test]
    fn equal_cut_last_child_absorbs_remainder() {
        // step = 2, so the last child takes [6, 10).
        let cut = EqualCut::new(&DimRange::new(0, 10), 4);
        assert_eq!(cut.step, 2);
        assert_eq!(cut.range(0), DimRange::new(0, 2));
        assert_eq!(cut.range(3), DimRange::new(6, 10));
        assert_eq!(cut.child(9), 3);
        assert_eq!(cut.child(1_000), 3, "values past hi clamp to the last child");
    }

    #[test]
    fn equal_cut_degenerate_tiny_range() {
        // Two values cut into 8: two unit children, then six empty ones
        // anchored at hi, which a rule reaching past hi still overlaps.
        let cut = EqualCut::new(&DimRange::new(5, 7), 8);
        assert_eq!((cut.range(0), cut.range(1)), (DimRange::exact(5), DimRange::exact(6)));
        assert!((2..8).all(|i| cut.range(i) == DimRange { lo: 7, hi: 7 }));
        assert_eq!(cut.children(6, 7), (1, 1));
        assert_eq!(cut.children(6, 9), (1, 7));
    }

    proptest! {
        #[test]
        fn prop_equal_cut_contract(
            lo in 0u64..1000, len in prop_oneof![0u64..40, 0u64..10_000], n in 1usize..33,
            v in 0u64..12_000, a in 0u64..12_000, b in 0u64..12_000)
        {
            let parent = DimRange::new(lo, lo + len);
            let cut = EqualCut::new(&parent, n);
            let kids: Vec<DimRange> = (0..n).map(|i| cut.range(i)).collect();
            // The children tile the parent: contiguous, in order, none inverted.
            prop_assert_eq!(kids[0].lo, parent.lo);
            prop_assert_eq!(kids[n - 1].hi, parent.hi);
            prop_assert!(kids.windows(2).all(|w| w[0].hi == w[1].lo));
            prop_assert!(kids.iter().all(|k| k.lo <= k.hi));
            // A value falls in the child whose range holds it.
            if parent.contains(v) {
                prop_assert!(kids[cut.child(v)].contains(v));
            }
            // A rule overlapping the parent lands in exactly the children
            // it overlaps, empty trailing children included.
            let rule = DimRange::new(a.min(b), a.max(b) + 1);
            if rule.overlaps(&parent) {
                let (first, last) = cut.children(rule.lo, rule.hi);
                let overlapped: Vec<usize> = (0..n).filter(|&i| kids[i].overlaps(&rule)).collect();
                prop_assert_eq!((first..=last).collect::<Vec<_>>(), overlapped);
            }
        }

        #[test]
        fn prop_cut_children_disjoint_and_complete(
            ncuts in 1usize..33, dim_idx in 0usize..5,
            sport in 0u64..65536, proto in 0u64..256)
        {
            let dim = Dim::from_index(dim_idx);
            let s = NodeSpace::full();
            let kids = s.cut(dim, ncuts);
            let p = Packet::new(12345, 67890, sport, 4242, proto);
            // Exactly one child contains any given packet.
            let owners = kids.iter().filter(|k| k.contains(&p)).count();
            prop_assert_eq!(owners, 1);
        }

        #[test]
        fn prop_split_exhaustive(threshold in 0u64..70000, sport in 0u64..65536) {
            let s = NodeSpace::full();
            let (l, r) = s.split(Dim::SrcPort, threshold);
            let p = Packet::new(0, 0, sport, 0, 0);
            prop_assert!(l.contains(&p) ^ r.contains(&p));
        }
    }
}
