//! A compiled, read-only form of a [`DecisionTree`] for serving traffic.
//!
//! The arena tree is ideal for *construction* (algorithms expand leaves
//! in place) but pays for that flexibility at lookup time: nodes hold
//! `Vec`s, child spaces are recomputed from ranges, and matching walks
//! enum variants with embedded allocations. [`FlatTree`] is the
//! deployment artifact, rebuilt for throughput:
//!
//! * **Breadth-first node order.** Compiled nodes are renumbered
//!   breadth-first from the root, so the hot upper levels of the tree —
//!   shared by every lookup — pack into a handful of consecutive cache
//!   lines instead of being scattered in arena creation order.
//! * **Cache-packed leaf scans.** Each leaf lists its rules' bounds
//!   inline, one 64-byte-aligned `LeafEntry` (one cache line) per rule
//!   in precedence (rank) order, read sequentially in prefetch order.
//!   An entry is sixteen `u32` lanes: lanes 0–7 hold `lo` and lanes
//!   8–15 hold `!hi` (`hi` inclusive), each half the five dimensions
//!   plus always-true padding. A packet's key holds each field `v`,
//!   then `!v`; the complement turns `v <= hi` into `!hi <= !v`, so a
//!   rule matches exactly when no lane of its entry exceeds the key's
//!   matching lane. An empty range is stored as `lo = 1, hi = 0`, which
//!   no value satisfies.
//! * **Division-free cut indexing.** Equal-size cuts precompute a
//!   Granlund–Montgomery/Lemire style reciprocal at compile time, so
//!   the per-level child-index computation is a multiply-and-shift
//!   rather than a hardware `u64` divide.
//! * **Batched lookup with leaf compaction.**
//!   [`FlatTree::classify_batch`] traverses many packets as an
//!   interleaved wavefront: each round moves every in-flight packet at
//!   a cut or a split one node down, so independent node fetches
//!   overlap instead of serialising per packet. Child ids carry a leaf
//!   tag bit, and the packet is appended without a branch to either the
//!   next round's frontier or a list of packets that reached a leaf: it
//!   is written to both and one cursor advances. Leaves never enter a
//!   round, so its node-kind dispatch stays predictable; one pass after
//!   the last round scans every leaf reached.
//! * **A branch-free chunk scan.** On a CPU with AVX-512F that pass
//!   tests a leaf 8 entries at a time: one vector compare per entry
//!   against the key, the 8 compare masks folded into an 8-bit chunk
//!   mask of matching entries, bits past the leaf's end cleared, and
//!   the lowest set bit whose rank the [`RankSkip`] keeps wins. The
//!   entry table ends in 7 entries that never match, so a chunk may read
//!   past the last leaf. Elsewhere, and under Miri, the portable
//!   instance scans one entry at a time over the same encoding and
//!   stops at the first match. One platform check
//!   (`is_x86_feature_detected!`) picks the instance for batches and
//!   for scalar [`FlatTree::classify`] alike, and both instances return
//!   the same ranks.
//!
//! `FlatTree::classify` returns the **same rule ids** as the source
//! tree, so results remain comparable with the [`classbench::RuleSet`]
//! ground truth. Packets are assumed valid ([`Packet::is_valid`]):
//! each field lies inside its dimension's span, which the reciprocal
//! cut indexing relies on (all dividends and divisors fit in 32 bits).

use crate::node::{NodeKind, RuleId};
use crate::tree::DecisionTree;
use classbench::{DimRange, Packet, NUM_DIMS};
use std::collections::VecDeque;

/// Sentinel table rank for "no rule matched" in the batched core
/// (ranks are dense from 0, so `u32::MAX` can never be a real rank).
const NO_RANK: u32 = u32::MAX;

/// Set on a child id in `children` (and on a split's `left`/`right`)
/// when the child is a leaf, so the wavefront can move a packet to its
/// leaf list without reading the child's node. Node ids stay below it.
const LEAF_TAG: u32 = 1 << 31;

/// Lanes per bound half of a [`LeafEntry`]: the five real dimensions
/// plus always-true padding.
const LEAF_LANES: usize = 8;

/// Entries one chunk of the AVX-512F leaf scan tests at once. The
/// entry table ends in `CHUNK - 1` entries that never match, so a
/// chunk that starts inside the last leaf stays in bounds.
const CHUNK: usize = 8;

/// One rule's leaf-scan entry, or a packet's key, in one cache line of
/// sixteen `u32` lanes. An entry holds each dimension's `lo` in lanes
/// 0–7 and the complement `!hi` of its inclusive upper bound in lanes
/// 8–15, so that `v <= hi` reads `!hi <= !v`, the same direction as
/// `lo <= v`; a key holds each field `v`, then `!v`. A rule matches a
/// packet exactly when no lane of its entry exceeds the matching lane
/// of the packet's key. Padding lanes are 0 in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
struct LeafEntry([u32; 2 * LEAF_LANES]);

impl LeafEntry {
    /// The entry the table ends in. No key admits it: every key's
    /// padding lanes hold 0.
    const NEVER: LeafEntry = LeafEntry([u32::MAX; 2 * LEAF_LANES]);

    /// The entry of a rule with these ranges. Padding lanes are 0,
    /// always true (`lo = 0`, `!hi` of `hi = u32::MAX`); a degenerate
    /// empty range (lo >= hi, matches nothing) gets `lo = 1, hi = 0`,
    /// which no value satisfies, so the rule never wins, exactly like
    /// `Rule::matches`.
    fn rule(ranges: &[DimRange; NUM_DIMS]) -> LeafEntry {
        let mut lanes = [0; 2 * LEAF_LANES];
        let (los, his) = lanes.split_at_mut(LEAF_LANES);
        for ((lo, hi), rg) in los.iter_mut().zip(his.iter_mut()).zip(ranges) {
            let (l, h) = if rg.is_empty() {
                (1, 0)
            } else {
                debug_assert!(rg.hi <= 1 << 32);
                (rg.lo as u32, (rg.hi - 1) as u32)
            };
            (*lo, *hi) = (l, !h);
        }
        LeafEntry(lanes)
    }

    /// A packet's key: each field, then its complement.
    #[inline(always)]
    fn key(packet: &Packet) -> LeafEntry {
        let mut lanes = [0; 2 * LEAF_LANES];
        let (los, his) = lanes.split_at_mut(LEAF_LANES);
        for ((lo, hi), &v) in los.iter_mut().zip(his.iter_mut()).zip(&packet.values) {
            (*lo, *hi) = (v as u32, !(v as u32));
        }
        LeafEntry(lanes)
    }

    /// True when no lane exceeds `key`'s: the rule matches the packet.
    /// The lanes fold with `&`, not `&&`, so the test is branch-free.
    #[inline(always)]
    fn admits(&self, key: &LeafEntry) -> bool {
        self.0.iter().zip(&key.0).fold(true, |ok, (e, k)| ok & (e <= k))
    }
}

/// A set of table ranks a lookup skips: a leaf scan that matches a
/// skipped rank keeps scanning, so the next rule in precedence order
/// wins, exactly as if the rank had never been compiled. The
/// live-update layer ([`crate::serve`]) skips the ranks of rules
/// deleted since the last compile.
pub trait RankSkip: Copy {
    /// True when a match on `rank` must not win.
    fn skips(self, rank: u32) -> bool;
}

/// The empty skip set. It is a zero-sized type, so a lookup through it
/// compiles to the same kernel as one with no skip test at all.
#[derive(Debug, Clone, Copy)]
pub struct NoSkip;

impl RankSkip for NoSkip {
    #[inline(always)]
    fn skips(self, _rank: u32) -> bool {
        false
    }
}

/// A bitset over ranks: `rank` is skipped when bit `rank % 64` of word
/// `rank / 64` is set. Ranks past the last word are not skipped.
impl RankSkip for &[u64] {
    // nc-lint: kernel
    #[inline(always)]
    fn skips(self, rank: u32) -> bool {
        self.get(rank as usize / 64).is_some_and(|word| word >> (rank % 64) & 1 == 1)
    }
}

/// A compiled instance of the leaf scan, which the wavefront's leaf
/// pass and the scalar walk share (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Instance {
    /// The per-entry early-exit scan, compiled for the build's target.
    Portable,
    /// The 8-entry chunk scan, on a CPU [`avx512::detect`] vouched for.
    #[cfg(target_arch = "x86_64")]
    Avx512(avx512::Cpu),
}

impl Instance {
    /// The widest instance this CPU runs, the one every lookup takes: a
    /// platform check, not a setting.
    fn widest() -> Instance {
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = avx512::detect() {
            return Instance::Avx512(cpu);
        }
        Instance::Portable
    }

    /// The first rank of leaf `start..end` whose entry admits `packet`
    /// and that `skip` keeps, through this instance.
    #[inline(always)]
    fn scan<S: RankSkip>(
        self,
        tree: &FlatTree,
        start: u32,
        end: u32,
        packet: &Packet,
        skip: S,
    ) -> Option<u32> {
        match self {
            Instance::Portable => tree.scan(start, end, packet, skip),
            #[cfg(target_arch = "x86_64")]
            Instance::Avx512(cpu) => avx512::scan(cpu, tree, start, end, packet, skip),
        }
    }
}

/// Precompute the reciprocal for division-free `x / step`, exact for
/// all `x < 2^32` and `1 < step < 2^32` (Granlund–Montgomery round-up
/// method with a 64-bit fraction). `step == 1` uses the sentinel `0`:
/// the quotient is `x` itself.
fn step_magic(step: u64) -> u64 {
    debug_assert!(0 < step && step < 1 << 32);
    if step == 1 {
        0
    } else {
        u64::MAX / step + 1
    }
}

/// `x / step` via the precomputed `magic` (see [`step_magic`]).
#[inline(always)]
fn div_by_step(x: u64, magic: u64) -> u64 {
    if magic == 0 {
        x
    } else {
        ((x as u128 * magic as u128) >> 64) as u64
    }
}

/// One compiled node. Parameters index into the [`FlatTree`] pools.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FlatNode {
    /// `leaf_rules[start..end]` scanned in precedence order.
    Leaf { start: u32, end: u32 },
    /// Equal-size cut: child index is `min((v - lo) / step, ncuts-1)`;
    /// children are `children[base..base+ncuts]`. `magic` is the
    /// precomputed reciprocal of `step`.
    Cut { dim: u8, lo: u64, magic: u64, ncuts: u32, base: u32 },
    /// Simultaneous cuts: dims are `cut_dims[dstart..dend]`, children
    /// row-major at `base`.
    MultiCut { dstart: u32, dend: u32, base: u32 },
    /// Unequal cut: boundaries are `bounds[bstart..bend]`; child `i`
    /// covers `[bounds[i], bounds[i+1])`; children at `base`.
    DenseCut { dim: u8, bstart: u32, bend: u32, base: u32 },
    /// Binary threshold split.
    Split { dim: u8, threshold: u64, left: u32, right: u32 },
    /// All of `children[start..end]` are searched; best precedence wins.
    Partition { start: u32, end: u32 },
}

/// Per-dimension parameters of one multicut axis.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlatCutDim {
    dim: u8,
    lo: u64,
    /// Reciprocal of the cut step (see [`step_magic`]).
    magic: u64,
    ncuts: u32,
}

/// Outcome of advancing one lookup by one node.
enum Step {
    /// Continue at this child, as `children` stores it (leaf-tagged).
    Descend(u32),
    /// Lookup finished with this winning table rank (if any).
    Done(Option<u32>),
}

/// A compiled decision tree (see module docs).
#[derive(Debug, Clone)]
pub struct FlatTree {
    /// Compiled nodes in breadth-first order; the root is node 0.
    nodes: Vec<FlatNode>,
    /// Child ids, each tagged with [`LEAF_TAG`] when the child is a leaf.
    children: Vec<u32>,
    leaf_rules: Vec<u32>,
    bounds: Vec<u64>,
    cut_dims: Vec<FlatCutDim>,
    /// Cache-packed rule bounds: entry `j` is the [`LeafEntry`] of
    /// `leaf_rules[j]`, one 64-byte-aligned line per rule, and the table
    /// ends in `CHUNK - 1` [`LeafEntry::NEVER`] entries. Ranks are
    /// precedence order (rank 0 wins every tie), so `leaf_rules` and
    /// the scan never consult priorities. A leaf scan walks these
    /// sequentially, in prefetch order.
    leaf_entries: Vec<LeafEntry>,
    /// `rank ->` original rule id in the source tree's arena.
    orig_ids: Vec<u32>,
    /// `rank ->` rule priority. Table order already encodes precedence,
    /// so lookups never read this; it exists for the live-update layer
    /// ([`crate::serve`]), which must merge compiled matches against
    /// not-yet-compiled overlay inserts by (priority, id) precedence.
    rule_prio: Vec<i32>,
    /// [`DecisionTree::generation`] of the source tree at compile time.
    /// A compiled tree whose generation disagrees with its tree is
    /// **stale**: the tree has mutated since, and lookups may return
    /// wrong matches.
    generation: u64,
    root: u32,
}

/// A compiled snapshot no longer matches its source tree: the tree has
/// seen updates the snapshot was never told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleTreeError {
    /// Generation the snapshot was compiled from.
    pub compiled: u64,
    /// The tree's current generation.
    pub current: u64,
}

impl std::fmt::Display for StaleTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale FlatTree: compiled at tree generation {}, tree is now at {}",
            self.compiled, self.current
        )
    }
}

impl std::error::Error for StaleTreeError {}

impl FlatTree {
    /// Compile a built tree. Deleted rules are dropped; node ids are
    /// renumbered breadth-first; lookup behaviour is preserved exactly.
    // nc-lint: allow(no-panic-in-serving, reason = "compile-time construction: every table index is minted by this renumbering pass, not taken from runtime input")
    pub fn compile(tree: &DecisionTree) -> FlatTree {
        // Active rules in precedence order; remember original ids.
        let mut order: Vec<RuleId> =
            (0..tree.rules().len()).filter(|&r| tree.is_active(r)).collect();
        order.sort_by(|&a, &b| tree.rule(b).priority.cmp(&tree.rule(a).priority).then(a.cmp(&b)));
        let mut table_index = vec![u32::MAX; tree.rules().len()];
        let n = order.len();
        let mut orig_ids = Vec::with_capacity(n);
        let mut rule_prio = Vec::with_capacity(n);
        // Each rank's leaf-scan entry, built once and copied into every
        // leaf that lists the rule.
        let mut entries = Vec::with_capacity(n);
        for (rank, &r) in order.iter().enumerate() {
            table_index[r] = rank as u32;
            orig_ids.push(r as u32);
            let rule = tree.rule(r);
            rule_prio.push(rule.priority);
            entries.push(LeafEntry::rule(&rule.ranges));
        }

        // Breadth-first renumbering: hot upper levels become the first
        // entries of `nodes` (and their pool slices the first entries
        // of `children`/`leaf_rules`), packing them into shared cache
        // lines. Every arena node is reachable from the root, but any
        // stragglers are appended so the node count is preserved.
        let mut bfs: Vec<usize> = Vec::with_capacity(tree.num_nodes());
        let mut new_id = vec![u32::MAX; tree.num_nodes()];
        let mut queue = VecDeque::from([tree.root()]);
        new_id[tree.root()] = 0;
        while let Some(old) = queue.pop_front() {
            bfs.push(old);
            for &c in tree.node(old).kind.children() {
                if new_id[c] == u32::MAX {
                    new_id[c] = (bfs.len() + queue.len()) as u32;
                    queue.push_back(c);
                }
            }
        }
        for (old, nid) in new_id.iter_mut().enumerate() {
            if *nid == u32::MAX {
                *nid = bfs.len() as u32;
                bfs.push(old);
            }
            // From here on `new_id` holds child ids as `children` stores them.
            if tree.node(old).is_leaf() {
                *nid |= LEAF_TAG;
            }
        }
        debug_assert!(bfs.len() < LEAF_TAG as usize);

        // The leaf tables are reserved at their final length, so the
        // closing `shrink_to_fit` moves nothing.
        let leaf_entries: usize = tree
            .leaf_ids()
            .map(|id| tree.rules_at(id).iter().filter(|&&r| tree.is_active(r)).count())
            .sum();
        let mut flat = FlatTree {
            nodes: Vec::with_capacity(tree.num_nodes()),
            children: Vec::new(),
            leaf_rules: Vec::with_capacity(leaf_entries),
            bounds: Vec::new(),
            cut_dims: Vec::new(),
            leaf_entries: Vec::with_capacity(leaf_entries + CHUNK - 1),
            orig_ids,
            rule_prio,
            generation: tree.generation(),
            root: 0,
        };

        for &old in &bfs {
            let node = tree.node(old);
            let compiled = match &node.kind {
                NodeKind::Leaf => {
                    let start = flat.leaf_rules.len() as u32;
                    for &r in tree.rules_at(old).iter().filter(|&&r| tree.is_active(r)) {
                        let rank = table_index[r];
                        flat.leaf_rules.push(rank);
                        // `extend_from_slice` copies the line; `push` compiled slower.
                        flat.leaf_entries
                            .extend_from_slice(std::slice::from_ref(&entries[rank as usize]));
                    }
                    FlatNode::Leaf { start, end: flat.leaf_rules.len() as u32 }
                }
                NodeKind::Cut { dim, ncuts, children } => {
                    let range = node.space.range(*dim);
                    let base = flat.push_children(children, &new_id);
                    FlatNode::Cut {
                        dim: dim.index() as u8,
                        lo: range.lo,
                        magic: step_magic((range.len() / *ncuts as u64).max(1)),
                        ncuts: *ncuts as u32,
                        base,
                    }
                }
                NodeKind::MultiCut { dims, children } => {
                    let dstart = flat.cut_dims.len() as u32;
                    for &(dim, ncuts) in dims {
                        let range = node.space.range(dim);
                        flat.cut_dims.push(FlatCutDim {
                            dim: dim.index() as u8,
                            lo: range.lo,
                            magic: step_magic((range.len() / ncuts as u64).max(1)),
                            ncuts: ncuts as u32,
                        });
                    }
                    let base = flat.push_children(children, &new_id);
                    FlatNode::MultiCut { dstart, dend: flat.cut_dims.len() as u32, base }
                }
                NodeKind::DenseCut { dim, bounds, children } => {
                    let bstart = flat.bounds.len() as u32;
                    flat.bounds.extend_from_slice(bounds);
                    let base = flat.push_children(children, &new_id);
                    FlatNode::DenseCut {
                        dim: dim.index() as u8,
                        bstart,
                        bend: flat.bounds.len() as u32,
                        base,
                    }
                }
                NodeKind::Split { dim, threshold, children } => FlatNode::Split {
                    dim: dim.index() as u8,
                    threshold: *threshold,
                    left: new_id[children[0]],
                    right: new_id[children[1]],
                },
                NodeKind::Partition { children } => {
                    let start = flat.push_children(children, &new_id);
                    FlatNode::Partition { start, end: start + children.len() as u32 }
                }
            };
            flat.nodes.push(compiled);
        }

        flat.leaf_entries.extend_from_slice(&[LeafEntry::NEVER; CHUNK - 1]);
        // A deployment artifact should hold no slack capacity (and
        // `resident_bytes` reports capacity, not length).
        flat.nodes.shrink_to_fit();
        flat.children.shrink_to_fit();
        flat.leaf_rules.shrink_to_fit();
        flat.leaf_entries.shrink_to_fit();
        flat.bounds.shrink_to_fit();
        flat.cut_dims.shrink_to_fit();
        flat.rule_prio.shrink_to_fit();
        flat
    }

    // nc-lint: allow(no-panic-in-serving, reason = "new_id is indexed by arena ids the compile BFS just renumbered")
    fn push_children(&mut self, children: &[usize], new_id: &[u32]) -> u32 {
        let base = self.children.len() as u32;
        self.children.extend(children.iter().map(|&c| new_id[c]));
        base
    }

    /// Number of compiled nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of rules in the compiled table. A serving snapshot that
    /// retired some of them since the compile counts fewer
    /// ([`crate::Snapshot::num_rules`]).
    pub fn num_rules(&self) -> usize {
        self.orig_ids.len()
    }

    /// The tree generation this table was compiled from. See
    /// [`DecisionTree::generation`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True when `tree` has mutated since this table was compiled:
    /// lookups against it may silently return wrong matches.
    pub fn is_stale(&self, tree: &DecisionTree) -> bool {
        self.generation != tree.generation()
    }

    /// Error unless this snapshot still reflects `tree` exactly.
    pub fn check_fresh(&self, tree: &DecisionTree) -> Result<(), StaleTreeError> {
        if self.is_stale(tree) {
            Err(StaleTreeError { compiled: self.generation, current: tree.generation() })
        } else {
            Ok(())
        }
    }

    /// [`Self::classify`], but refusing to serve from a stale snapshot:
    /// errors when `tree` has mutated since this snapshot was compiled.
    pub fn classify_checked(
        &self,
        tree: &DecisionTree,
        packet: &Packet,
    ) -> Result<Option<RuleId>, StaleTreeError> {
        self.check_fresh(tree)?;
        Ok(self.classify(packet))
    }

    /// [`Self::classify_batch`], but refusing to serve from a stale
    /// snapshot (see [`Self::classify_checked`]).
    ///
    /// # Panics
    /// Panics if `packets` and `out` have different lengths.
    pub fn classify_batch_checked(
        &self,
        tree: &DecisionTree,
        packets: &[Packet],
        out: &mut [Option<RuleId>],
    ) -> Result<(), StaleTreeError> {
        self.check_fresh(tree)?;
        self.classify_batch(packets, out);
        Ok(())
    }

    /// The table rank of arena rule `id`, or `None` when the rule was
    /// not compiled (e.g. it was inserted after compile). A linear scan
    /// of the rank-to-id map.
    pub(crate) fn rank_of(&self, id: RuleId) -> Option<u32> {
        self.orig_ids.iter().position(|&o| o as usize == id).map(|rank| rank as u32)
    }

    /// Resident heap + inline size of the compiled structure, in bytes.
    ///
    /// Counted exactly: the `FlatTree` struct itself plus the *capacity*
    /// (not just the length) of every backing array — nodes, child and
    /// leaf-rule pools, dense-cut boundaries, multicut axes, the
    /// cache-packed leaf-scan bounds, the rank-to-id map and the
    /// rank-priority table. Nothing in the structure owns further heap
    /// (rule bounds are inlined into the arrays), so this is the full
    /// footprint.
    pub fn resident_bytes(&self) -> usize {
        fn heap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        std::mem::size_of::<Self>()
            + heap(&self.nodes)
            + heap(&self.children)
            + heap(&self.leaf_rules)
            + heap(&self.bounds)
            + heap(&self.cut_dims)
            + heap(&self.leaf_entries)
            + heap(&self.orig_ids)
            + heap(&self.rule_prio)
    }

    /// Scan `leaf_rules[start..end]` (ascending rank = precedence
    /// order) for the first rule admitting `packet` whose rank `skip`
    /// does not skip: the portable instance, one entry at a time. Each
    /// entry's lane test is branch-free ([`LeafEntry::admits`]); the
    /// one per-entry "matched?" branch is almost always false until the
    /// winner. The skip test runs only on a matched entry, and vanishes
    /// for [`NoSkip`]. The key is built here, from the packet, so that
    /// it stays in registers.
    // nc-lint: kernel
    #[inline]
    fn scan<S: RankSkip>(&self, start: u32, end: u32, packet: &Packet, skip: S) -> Option<u32> {
        let key = LeafEntry::key(packet);
        let (s, e) = (start as usize, end as usize);
        for (entry, &rank) in self.leaf_entries[s..e].iter().zip(&self.leaf_rules[s..e]) {
            if entry.admits(&key) && !skip.skips(rank) {
                return Some(rank);
            }
        }
        None
    }

    /// Advance a lookup at `id` by one node, scanning leaves through
    /// `instance`.
    // nc-lint: kernel
    #[inline]
    fn step<S: RankSkip>(&self, instance: Instance, id: u32, packet: &Packet, skip: S) -> Step {
        match self.nodes[id as usize] {
            FlatNode::Leaf { start, end } => {
                Step::Done(instance.scan(self, start, end, packet, skip))
            }
            FlatNode::Cut { dim, lo, magic, ncuts, base } => {
                let v = packet.values[dim as usize];
                let idx = div_by_step(v.saturating_sub(lo), magic).min(u64::from(ncuts) - 1) as u32;
                Step::Descend(self.children[(base + idx) as usize])
            }
            FlatNode::MultiCut { dstart, dend, base } => {
                let mut idx = 0u32;
                for cd in &self.cut_dims[dstart as usize..dend as usize] {
                    let v = packet.values[cd.dim as usize];
                    let i = div_by_step(v.saturating_sub(cd.lo), cd.magic)
                        .min(u64::from(cd.ncuts) - 1) as u32;
                    idx = idx * cd.ncuts + i;
                }
                Step::Descend(self.children[(base + idx) as usize])
            }
            FlatNode::DenseCut { dim, bstart, bend, base } => {
                let v = packet.values[dim as usize];
                let bounds = &self.bounds[bstart as usize..bend as usize];
                let idx =
                    bounds.partition_point(|&b| b <= v).saturating_sub(1).min(bounds.len() - 2)
                        as u32;
                Step::Descend(self.children[(base + idx) as usize])
            }
            FlatNode::Split { dim, threshold, left, right } => {
                Step::Descend(if packet.values[dim as usize] < threshold { left } else { right })
            }
            FlatNode::Partition { start, end } => {
                let mut best: Option<u32> = None;
                for &c in &self.children[start as usize..end as usize] {
                    if let Some(ti) = self.classify_from(instance, c & !LEAF_TAG, packet, skip) {
                        // Table order *is* precedence order.
                        if best.is_none_or(|b| ti < b) {
                            best = Some(ti);
                        }
                    }
                }
                Step::Done(best)
            }
        }
    }

    /// Classify a packet: the **original** rule id of the highest-
    /// precedence match, identical to the source tree's `classify`.
    pub fn classify(&self, packet: &Packet) -> Option<RuleId> {
        self.classify_rank(packet, NoSkip).map(|rank| self.rank_to_id(rank))
    }

    /// Classify a packet to its winning **table rank** (ranks are dense
    /// precedence order: rank 0 wins every comparison), passing over
    /// the ranks `skip` skips. The live-update layer skips the rules it
    /// deleted since the compile and merges the rank against its
    /// overlay inserts by priority.
    pub fn classify_rank<S: RankSkip>(&self, packet: &Packet, skip: S) -> Option<u32> {
        self.classify_from(Instance::widest(), self.root, packet, skip)
    }

    /// The original arena rule id behind a table rank.
    // nc-lint: kernel
    pub fn rank_to_id(&self, rank: u32) -> RuleId {
        self.orig_ids[rank as usize] as RuleId
    }

    /// The priority of the rule at a table rank.
    // nc-lint: kernel
    pub fn rank_priority(&self, rank: u32) -> i32 {
        self.rule_prio[rank as usize]
    }

    /// Returns the winning *table* rank (precedence order), or `None`,
    /// scanning the leaf through `instance`.
    ///
    /// The loop tests the dominant node kinds (equal-size cuts, then
    /// leaves, then splits) with cheap conditional branches before
    /// falling back to the full dispatch: a `match` over all six
    /// variants compiles to an indirect jump whose target is
    /// data-dependent and mispredicts every level, while "is it a
    /// Cut?" is predicted almost perfectly on cut-built trees.
    // nc-lint: kernel
    fn classify_from<S: RankSkip>(
        &self,
        instance: Instance,
        mut id: u32,
        packet: &Packet,
        skip: S,
    ) -> Option<u32> {
        loop {
            let node = &self.nodes[id as usize];
            if let FlatNode::Cut { dim, lo, magic, ncuts, base } = *node {
                let v = packet.values[dim as usize];
                let idx = div_by_step(v.saturating_sub(lo), magic).min(u64::from(ncuts) - 1) as u32;
                id = self.children[(base + idx) as usize] & !LEAF_TAG;
                continue;
            }
            if let FlatNode::Leaf { start, end } = *node {
                return instance.scan(self, start, end, packet, skip);
            }
            if let FlatNode::Split { dim, threshold, left, right } = *node {
                id = if packet.values[dim as usize] < threshold { left } else { right } & !LEAF_TAG;
                continue;
            }
            match self.step(instance, id, packet, skip) {
                Step::Descend(next) => id = next & !LEAF_TAG,
                Step::Done(result) => return result,
            }
        }
    }

    /// Classify a batch of packets into `out` (same length), returning
    /// exactly what per-packet [`FlatTree::classify`] would.
    ///
    /// Traversal is an interleaved wavefront (the per-subtree rank
    /// walk behind [`FlatTree::classify_batch_with`]): all packets
    /// advance through
    /// the tree level by level, which hides node-fetch latency that a
    /// one-packet-at-a-time loop would serialise behind each packet's
    /// root-to-leaf dependence chain.
    ///
    /// # Panics
    /// Panics if `packets` and `out` have different lengths.
    // nc-lint: kernel
    pub fn classify_batch(&self, packets: &[Packet], out: &mut [Option<RuleId>]) {
        // nc-lint: allow(no-panic-in-serving, error-taxonomy, reason = "documented length-contract guard (see # Panics); misuse is a caller bug, not runtime input")
        assert_eq!(packets.len(), out.len(), "output slice must match the batch");
        self.classify_batch_with(packets, NoSkip, |pi, rank| {
            out[pi] = rank.map(|rank| self.orig_ids[rank as usize] as RuleId);
        });
    }

    /// The batched wavefront lookup, reporting winning **table ranks**
    /// and passing over the ranks `skip` skips: `emit(packet_index,
    /// rank)` is called exactly once per packet, in no particular
    /// order. [`Self::classify_batch`] is this with [`NoSkip`] plus the
    /// rank-to-id mapping; the live-update layer consumes the ranks
    /// directly to merge against its overlay by precedence.
    pub fn classify_batch_with<S: RankSkip, F: FnMut(usize, Option<u32>)>(
        &self,
        packets: &[Packet],
        skip: S,
        emit: F,
    ) {
        self.classify_batch_on(Instance::widest(), packets, skip, emit);
    }

    /// [`Self::classify_batch_with`] through one leaf-pass instance.
    /// The wavefront's buffers are allocated once per batch.
    // nc-lint: kernel
    fn classify_batch_on<S: RankSkip, F: FnMut(usize, Option<u32>)>(
        &self,
        instance: Instance,
        packets: &[Packet],
        skip: S,
        mut emit: F,
    ) {
        // nc-lint: allow(no-alloc-in-kernels, reason = "the in-flight frontier, one allocation per batch, amortised over every packet in it")
        let mut frontier = vec![(0u32, 0u32); packets.len()];
        // nc-lint: allow(no-alloc-in-kernels, reason = "the reached-leaf list, one allocation per batch, reused by every subtree of a root partition")
        let mut reached = vec![(0u32, 0u32); packets.len()];
        let mut wave = Wavefront { frontier: &mut frontier, reached: &mut reached };
        let root = self.root as usize;
        if let FlatNode::Partition { start, end } = self.nodes[root] {
            // A root partition (EffiCuts / CutSplit separable trees)
            // would force every packet through the scalar fallback.
            // Instead, wavefront the whole batch through each subtree
            // and merge per packet by rank (table order is precedence
            // order), which is exactly what the scalar path computes.
            // Each child's leaf scans skip on their own, so the lowest
            // surviving rank per packet is still the winner.
            // nc-lint: allow(no-alloc-in-kernels, reason = "one amortised rank buffer per batch at a root partition, not per packet")
            let mut best = vec![NO_RANK; packets.len()];
            for &c in &self.children[start as usize..end as usize] {
                self.wavefront(instance, c, packets, skip, &mut wave, &mut |pi, rank| {
                    if let Some(rank) = rank {
                        best[pi] = best[pi].min(rank);
                    }
                });
            }
            for (pi, &rank) in best.iter().enumerate() {
                emit(pi, (rank != NO_RANK).then_some(rank));
            }
        } else {
            let tag = if matches!(self.nodes[root], FlatNode::Leaf { .. }) { LEAF_TAG } else { 0 };
            self.wavefront(instance, self.root | tag, packets, skip, &mut wave, &mut emit);
        }
    }

    /// The wavefront core: classify every packet starting from the
    /// leaf-tagged node `from`, reporting each packet's winning table
    /// rank (or `None`) through `emit` exactly once, in no particular
    /// order.
    ///
    /// Traversal is level-synchronous: each round moves every in-flight
    /// packet at a cut or a split to its child; the other node kinds
    /// take [`Self::step`], and a packet an interior partition resolves
    /// is emitted at once. The child's leaf tag then appends the packet
    /// without a branch to either the next round's frontier (compacted
    /// in place) or the reached-leaf list: it is written to both and
    /// one cursor advances. Within a round the iterations are
    /// independent, so the CPU keeps many node fetches in flight; leaves
    /// never enter a round, so its kind dispatch stays predictable. One
    /// pass after the last round scans every leaf reached.
    // nc-lint: kernel
    fn wavefront<S: RankSkip, F: FnMut(usize, Option<u32>)>(
        &self,
        instance: Instance,
        from: u32,
        packets: &[Packet],
        skip: S,
        wave: &mut Wavefront<'_>,
        emit: &mut F,
    ) {
        let n = packets.len();
        let (frontier, reached) = (&mut wave.frontier[..n], &mut wave.reached[..n]);
        let at_leaf = from & LEAF_TAG != 0;
        let start = from & !LEAF_TAG;
        for (pi, slot) in if at_leaf { reached.iter_mut() } else { frontier.iter_mut() }.enumerate()
        {
            *slot = (pi as u32, start);
        }
        let (mut live, mut done) = if at_leaf { (0, n) } else { (n, 0) };
        while live > 0 {
            let mut kept = 0;
            for i in 0..live {
                let (pi, nid) = frontier[i];
                let packet = &packets[pi as usize];
                let child = match self.nodes[nid as usize] {
                    FlatNode::Cut { dim, lo, magic, ncuts, base } => {
                        let v = packet.values[dim as usize];
                        let idx = div_by_step(v.saturating_sub(lo), magic).min(u64::from(ncuts) - 1)
                            as u32;
                        self.children[(base + idx) as usize]
                    }
                    FlatNode::Split { dim, threshold, left, right } => {
                        if packet.values[dim as usize] < threshold {
                            left
                        } else {
                            right
                        }
                    }
                    _ => match self.step(instance, nid, packet, skip) {
                        Step::Descend(child) => child,
                        Step::Done(rank) => {
                            emit(pi as usize, rank);
                            continue;
                        }
                    },
                };
                // A packet in flight is in neither list yet, so both
                // cursors stay in bounds (`kept <= i`, `done < n`).
                let entry = (pi, child & !LEAF_TAG);
                let leaf = (child >> 31) as usize;
                frontier[kept] = entry;
                reached[done] = entry;
                kept += 1 - leaf;
                done += leaf;
            }
            live = kept;
        }
        let reached = &reached[..done];
        match instance {
            Instance::Portable => self.scan_leaves(instance, reached, packets, skip, emit),
            #[cfg(target_arch = "x86_64")]
            Instance::Avx512(cpu) => avx512::scan_leaves(cpu, self, reached, packets, skip, emit),
        }
    }

    /// The leaf pass: emit the rank `instance` scans for each `(packet,
    /// leaf)` in `reached`. Inlined into the AVX-512F instance's
    /// target-feature function, so its chunk scan inlines too. A
    /// leaf-tagged id always names a leaf; were it any other node, the
    /// lookup walks on from it, still exactly.
    // nc-lint: kernel
    #[inline(always)]
    fn scan_leaves<S: RankSkip, F: FnMut(usize, Option<u32>)>(
        &self,
        instance: Instance,
        reached: &[(u32, u32)],
        packets: &[Packet],
        skip: S,
        emit: &mut F,
    ) {
        for &(pi, leaf) in reached {
            let packet = &packets[pi as usize];
            let rank = if let FlatNode::Leaf { start, end } = self.nodes[leaf as usize] {
                instance.scan(self, start, end, packet, skip)
            } else {
                self.classify_from(instance, leaf, packet, skip)
            };
            emit(pi as usize, rank);
        }
    }
}

/// The wavefront's per-batch buffers of `(packet, node)` pairs.
struct Wavefront<'a> {
    /// Packets in flight; each round compacts it in place.
    frontier: &'a mut [(u32, u32)],
    /// Packets that reached a leaf, with that leaf.
    reached: &'a mut [(u32, u32)],
}

/// The AVX-512F instance of the leaf pass: it tests a leaf 8 entries at
/// a time. Each entry is one vector compare against the key; the 8
/// compare masks fold into a chunk mask of matching entries, bits past
/// the leaf's end are cleared, and the lowest set bit whose rank `skip`
/// keeps wins: no branch per entry.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{FlatTree, Instance, LeafEntry, RankSkip, CHUNK};
    use classbench::Packet;
    use std::arch::x86_64::{__m512i, _mm512_cmpgt_epu32_mask, _mm512_load_si512};

    /// Proof that this CPU runs AVX-512F: only [`detect`] makes one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Cpu(());

    /// The one platform check: a [`Cpu`] when this CPU has AVX-512F.
    pub(super) fn detect() -> Option<Cpu> {
        is_x86_feature_detected!("avx512f").then_some(Cpu(()))
    }

    /// [`FlatTree::scan_leaves`] compiled for AVX-512F, so that every
    /// leaf's chunk scan inlines into the one loop.
    pub(super) fn scan_leaves<S: RankSkip, F: FnMut(usize, Option<u32>)>(
        cpu: Cpu,
        tree: &FlatTree,
        reached: &[(u32, u32)],
        packets: &[Packet],
        skip: S,
        emit: &mut F,
    ) {
        // SAFETY: a `Cpu` exists only where `detect` found AVX-512F.
        unsafe { scan_leaves_avx512(cpu, tree, reached, packets, skip, emit) }
    }

    #[target_feature(enable = "avx512f")]
    fn scan_leaves_avx512<S: RankSkip, F: FnMut(usize, Option<u32>)>(
        cpu: Cpu,
        tree: &FlatTree,
        reached: &[(u32, u32)],
        packets: &[Packet],
        skip: S,
        emit: &mut F,
    ) {
        tree.scan_leaves(Instance::Avx512(cpu), reached, packets, skip, emit);
    }

    /// One leaf's chunk scan for `packet`: [`Instance::scan`] on this
    /// instance.
    #[inline(always)]
    pub(super) fn scan<S: RankSkip>(
        _: Cpu,
        tree: &FlatTree,
        start: u32,
        end: u32,
        packet: &Packet,
        skip: S,
    ) -> Option<u32> {
        // SAFETY: a `Cpu` exists only where `detect` found AVX-512F.
        unsafe { scan_chunks(tree, start, end, packet, skip) }
    }

    /// One entry as a vector.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load(entry: &LeafEntry) -> __m512i {
        // SAFETY: a `LeafEntry` is 64 bytes at 64-byte alignment.
        unsafe { _mm512_load_si512((entry as *const LeafEntry).cast()) }
    }

    /// [`FlatTree::scan`], 8 entries per chunk.
    // nc-lint: kernel
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn scan_chunks<S: RankSkip>(
        tree: &FlatTree,
        start: u32,
        end: u32,
        packet: &Packet,
        skip: S,
    ) -> Option<u32> {
        let key = load(&LeafEntry::key(packet));
        let (mut at, end) = (start as usize, end as usize);
        while at < end {
            let mut hits = 0u32;
            for (i, entry) in tree.leaf_entries[at..at + CHUNK].iter().enumerate() {
                hits |= u32::from(_mm512_cmpgt_epu32_mask(load(entry), key) == 0) << i;
            }
            hits &= (1 << (end - at).min(CHUNK)) - 1;
            while hits != 0 {
                let rank = tree.leaf_rules[at + hits.trailing_zeros() as usize];
                if !skip.skips(rank) {
                    return Some(rank);
                }
                hits &= hits - 1;
            }
            at += CHUNK;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{
        generate_rules, generate_trace, ClassifierFamily, Dim, GeneratorConfig, Rule, TraceConfig,
    };

    fn agreement_check(tree: &DecisionTree, rules: &classbench::RuleSet, probes: usize) {
        let flat = FlatTree::compile(tree);
        assert_eq!(flat.num_nodes(), tree.num_nodes());
        let trace = generate_trace(rules, &TraceConfig::new(probes).with_seed(91));
        for p in &trace {
            assert_eq!(flat.classify(p), tree.classify(p), "at {p}");
        }
        // The batched path returns bit-identical results.
        let mut batch = vec![None; trace.len()];
        flat.classify_batch(&trace, &mut batch);
        for (p, got) in trace.iter().zip(&batch) {
            assert_eq!(*got, flat.classify(p), "batch at {p}");
        }
    }

    #[test]
    fn compiled_cut_tree_agrees() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 150).with_seed(90));
        let mut tree = DecisionTree::new(&rules);
        let kids = tree.cut_node(tree.root(), Dim::SrcIp, 8);
        for k in kids {
            if !tree.is_terminal(k, 8) {
                tree.cut_node(k, Dim::DstPort, 4);
            }
        }
        agreement_check(&tree, &rules, 500);
    }

    #[test]
    fn compiled_mixed_kinds_agree() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 150).with_seed(92));
        let mut tree = DecisionTree::new(&rules);
        let all = tree.rules_at(tree.root()).to_vec();
        let (a, b) = all.split_at(all.len() / 2);
        let parts = tree.partition_node(tree.root(), vec![a.to_vec(), b.to_vec()]);
        tree.multicut_node(parts[0], &[(Dim::SrcIp, 4), (Dim::Proto, 2)]);
        tree.split_node(parts[1], Dim::DstPort, 1024);
        let leaves: Vec<usize> = tree.leaf_ids().collect();
        for id in leaves {
            let range = *tree.node(id).space.range(Dim::SrcPort);
            if range.len() > 4096 && tree.node(id).num_rules() > 4 {
                let mid1 = range.lo + range.len() / 3;
                let mid2 = range.lo + 2 * range.len() / 3;
                tree.dense_cut_node(id, Dim::SrcPort, vec![range.lo, mid1, mid2, range.hi]);
                break;
            }
        }
        agreement_check(&tree, &rules, 600);
    }

    #[test]
    fn compiled_tree_drops_deleted_rules() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 80).with_seed(93));
        let mut tree = DecisionTree::new(&rules);
        tree.cut_node(tree.root(), Dim::DstIp, 8);
        let top = tree.rules().iter().map(|r| r.priority).max().unwrap();
        let id = crate::updates::insert_rule(&mut tree, Rule::default_rule(top + 1));
        crate::updates::delete_rule(&mut tree, id).unwrap();
        let flat = FlatTree::compile(&tree);
        assert_eq!(flat.num_rules(), tree.num_active_rules());
        let trace = generate_trace(&rules, &TraceConfig::new(300).with_seed(94));
        for p in &trace {
            assert_eq!(flat.classify(p), tree.classify(p));
        }
    }

    #[test]
    fn resident_bytes_is_positive_and_scales() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 60).with_seed(97));
        let mut small_tree = DecisionTree::new(&rules);
        let small = FlatTree::compile(&small_tree).resident_bytes();
        small_tree.cut_node(small_tree.root(), Dim::SrcIp, 32);
        let bigger = FlatTree::compile(&small_tree).resident_bytes();
        assert!(small > 0);
        assert!(bigger > small);
    }

    #[test]
    fn resident_bytes_counts_every_pool_exactly() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 40).with_seed(98));
        let mut tree = DecisionTree::new(&rules);
        tree.cut_node(tree.root(), Dim::SrcIp, 4);
        let flat = FlatTree::compile(&tree);
        let expected = std::mem::size_of::<FlatTree>()
            + flat.nodes.capacity() * std::mem::size_of::<FlatNode>()
            + flat.children.capacity() * 4
            + flat.leaf_rules.capacity() * 4
            + flat.bounds.capacity() * 8
            + flat.cut_dims.capacity() * std::mem::size_of::<FlatCutDim>()
            + flat.leaf_entries.capacity() * 64
            + flat.orig_ids.capacity() * 4
            + flat.rule_prio.capacity() * 4;
        assert_eq!(flat.resident_bytes(), expected);
        // The rank tables hold every active rule once, and the scan
        // entries every leaf entry plus the never-matching tail.
        assert_eq!(flat.orig_ids.len(), tree.num_active_rules());
        assert_eq!(flat.rule_prio.len(), tree.num_active_rules());
        assert_eq!(flat.leaf_entries.len(), flat.leaf_rules.len() + CHUNK - 1);
    }

    #[test]
    fn nodes_are_breadth_first_ordered() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 120).with_seed(99));
        let mut tree = DecisionTree::new(&rules);
        let kids = tree.cut_node(tree.root(), Dim::SrcIp, 4);
        for k in kids {
            if !tree.is_terminal(k, 4) {
                tree.cut_node(k, Dim::DstIp, 4);
            }
        }
        let flat = FlatTree::compile(&tree);
        assert_eq!(flat.root, 0);
        // In BFS order every parent precedes its children, and the
        // direct children of the root are the very next nodes.
        match flat.nodes[0] {
            FlatNode::Cut { base, ncuts, .. } => {
                let first: Vec<u32> =
                    flat.children[base as usize..(base + ncuts) as usize].to_vec();
                assert_eq!(first, (1..=ncuts).collect::<Vec<u32>>());
            }
            ref other => panic!("root should be the cut node, got {other:?}"),
        }
    }

    #[test]
    fn reciprocal_division_matches_hardware_division() {
        // Deterministic sweep over awkward steps and 32-bit dividends.
        let steps = [1u64, 2, 3, 5, 7, 10, 255, 256, 1 << 16, (1 << 16) + 1, 0x8000_0000 - 1];
        let xs = [0u64, 1, 2, 1023, 65_535, 1 << 20, u32::MAX as u64 - 1, u32::MAX as u64];
        for &s in &steps {
            let magic = step_magic(s);
            for &x in &xs {
                assert_eq!(div_by_step(x, magic), x / s, "x={x} step={s}");
            }
        }
    }

    #[test]
    fn batch_handles_empty_and_odd_sizes() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 90).with_seed(89));
        let mut tree = DecisionTree::new(&rules);
        tree.cut_node(tree.root(), Dim::DstIp, 8);
        let flat = FlatTree::compile(&tree);
        for len in [0usize, 1, 2, 15, 16, 19, 100] {
            let trace = generate_trace(&rules, &TraceConfig::new(len).with_seed(len as u64));
            let mut out = vec![None; len];
            flat.classify_batch(&trace, &mut out);
            for (p, got) in trace.iter().zip(&out) {
                assert_eq!(*got, flat.classify(p), "len={len} at {p}");
            }
        }
    }

    #[test]
    fn empty_range_rule_never_matches_on_any_path() {
        use classbench::{DimRange, RuleSet};
        // A degenerate rule (empty SrcPort range) is legal in the rule
        // arena and lands in the root leaf; no packet may ever match
        // it, on the scalar or the batched path, in debug or release.
        let mut degenerate = Rule::default_rule(9);
        degenerate.ranges[Dim::SrcPort.index()] = DimRange::new(0, 0);
        let rules = RuleSet::new(vec![degenerate, Rule::default_rule(1)]);
        let tree = DecisionTree::new(&rules);
        let flat = FlatTree::compile(&tree);
        let probes = [
            Packet::new(0, 0, 0, 0, 0),
            Packet::new(1, 2, 3, 4, 6),
            Packet::new(u64::from(u32::MAX), 0, 65535, 65535, 255),
        ];
        let mut batch = vec![None; probes.len()];
        flat.classify_batch(&probes, &mut batch);
        for (p, &batched) in probes.iter().zip(&batch) {
            assert_eq!(tree.classify(p), Some(1), "at {p}");
            assert_eq!(flat.classify(p), Some(1), "at {p}");
            assert_eq!(batched, Some(1), "at {p}");
        }
    }

    #[test]
    fn stale_snapshot_is_detected_and_refused() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 60).with_seed(88));
        let mut tree = DecisionTree::new(&rules);
        tree.cut_node(tree.root(), Dim::SrcIp, 4);
        let flat = FlatTree::compile(&tree);
        assert_eq!(flat.generation(), tree.generation());
        assert!(!flat.is_stale(&tree));
        let p = Packet::new(1, 2, 3, 4, 6);
        assert_eq!(flat.classify_checked(&tree, &p).unwrap(), tree.classify(&p));

        // Any tree mutation makes the deployed snapshot stale, and the
        // checked lookups turn the silent wrong answer into an error.
        let top = tree.rules().iter().map(|r| r.priority).max().unwrap();
        crate::updates::insert_rule(&mut tree, Rule::default_rule(top + 1));
        assert!(flat.is_stale(&tree));
        let err = flat.classify_checked(&tree, &p).unwrap_err();
        assert_eq!(err.compiled, flat.generation());
        assert_eq!(err.current, tree.generation());
        let mut out = vec![None; 1];
        assert!(flat.classify_batch_checked(&tree, &[p], &mut out).is_err());

        // Recompiling restores freshness.
        let fresh = FlatTree::compile(&tree);
        assert!(!fresh.is_stale(&tree));
        assert_eq!(fresh.classify_checked(&tree, &p).unwrap(), tree.classify(&p));
    }

    /// Every leaf-pass instance this CPU runs, narrowest first.
    fn runnable() -> Vec<(&'static str, Instance)> {
        let mut all = vec![("portable", Instance::Portable)];
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = avx512::detect() {
            all.push(("avx512", Instance::Avx512(cpu)));
        }
        all
    }

    #[test]
    fn batches_take_the_widest_instance_the_tests_run() {
        // CI prints this line, so that a run on a CPU without AVX-512F
        // is not taken for a test of that instance.
        let names: Vec<&str> = runnable().iter().map(|(name, _)| *name).collect();
        println!("dtree leaf-scan instances tested on this CPU: {}", names.join(", "));
        assert_eq!(runnable().last().map(|&(_, inst)| inst), Some(Instance::widest()));
        #[cfg(target_arch = "x86_64")]
        assert_eq!(names.contains(&"avx512"), is_x86_feature_detected!("avx512f"));
    }

    /// The winning rank by linear scan over the table in rank order,
    /// passing over `skip`.
    fn linear_rank(tree: &DecisionTree, flat: &FlatTree, p: &Packet, skip: &[u64]) -> Option<u32> {
        (0..flat.num_rules() as u32)
            .find(|&r| !skip.skips(r) && tree.rule(flat.rank_to_id(r)).matches(p))
    }

    /// Every instance, batched and per packet, and the scalar entry
    /// point against the linear scan on `packets` under each skip set.
    fn instances_agree(tree: &DecisionTree, packets: &[Packet], skips: &[Vec<u64>]) {
        let flat = FlatTree::compile(tree);
        for skip in skips {
            let want: Vec<Option<u32>> =
                packets.iter().map(|p| linear_rank(tree, &flat, p, skip)).collect();
            for (p, &w) in packets.iter().zip(&want) {
                assert_eq!(flat.classify_rank(p, &skip[..]), w, "scalar at {p}");
            }
            for (name, inst) in runnable() {
                for (p, &w) in packets.iter().zip(&want) {
                    assert_eq!(
                        flat.classify_from(inst, flat.root, p, &skip[..]),
                        w,
                        "{name} at {p}"
                    );
                }
                let mut got = vec![Some(u32::MAX); packets.len()];
                flat.classify_batch_on(inst, packets, &skip[..], |pi, rank| got[pi] = rank);
                assert_eq!(got, want, "{name}, skip {skip:?}");
            }
        }
    }

    /// Each packet, and copies with one field at 0 and at its maximum.
    fn with_edges(packets: &[Packet]) -> Vec<Packet> {
        let max = [u64::from(u32::MAX), u64::from(u32::MAX), 65_535, 65_535, 255];
        let mut all = packets.to_vec();
        for p in packets {
            for (d, &m) in max.iter().enumerate() {
                for v in [0, m] {
                    let mut q = *p;
                    q.values[d] = v;
                    all.push(q);
                }
            }
        }
        all.push(Packet::new(0, 0, 0, 0, 0));
        all.push(Packet::new(max[0], max[1], max[2], max[3], max[4]));
        all
    }

    /// Rank bitset of `ranks`.
    fn bitset(ranks: impl IntoIterator<Item = u32>) -> Vec<u64> {
        let mut words = vec![0u64; 64];
        for r in ranks {
            words[r as usize / 64] |= 1 << (r % 64);
        }
        words
    }

    #[test]
    fn every_instance_matches_the_linear_scan_on_leaf_sizes() {
        use classbench::{DimRange, RuleSet};
        // A root cut on protocol into 8 leaves of 0, 1, 7, 8, 9, 16, 0
        // and 17 entries; the 17-entry leaf is the table's last, so its
        // second chunk reads the never-matching tail. In a leaf, entry
        // `j` admits source ports below `(j + 1) * 1000`, so a packet's
        // first match moves through every chunk position, and every
        // later entry matches too.
        let sizes = [0usize, 1, 7, 8, 9, 16, 0, 17];
        let mut rules = Vec::new();
        for (g, &n) in sizes.iter().enumerate() {
            for j in 0..n {
                let mut r = Rule::default_rule(0);
                r.ranges[Dim::Proto.index()] = DimRange::new(32 * g as u64, 32 * g as u64 + 1);
                r.ranges[Dim::SrcPort.index()] = DimRange::new(0, (j as u64 + 1) * 1000);
                rules.push(r);
            }
        }
        // An empty range at the top of the 9-entry leaf.
        rules[16].ranges[Dim::DstPort.index()] = DimRange::new(80, 80);
        let count = rules.len() as i32;
        for (i, r) in rules.iter_mut().enumerate() {
            r.priority = count - i as i32;
        }
        let rules = RuleSet::new(rules);
        let mut tree = DecisionTree::new(&rules);
        tree.cut_node(tree.root(), Dim::Proto, 8);
        let leaves: Vec<usize> = tree.leaf_ids().map(|id| tree.rules_at(id).len()).collect();
        assert_eq!(leaves, sizes);
        let mut packets = Vec::new();
        for g in 0..8u64 {
            for sp in (0..18_500).step_by(500) {
                packets.push(Packet::new(1, 2, sp, 80 + g % 2, 32 * g));
            }
        }
        let last = (count - 17) as u32..count as u32;
        let skips = [
            bitset([]),
            // Every third rank: many first matches inside a chunk give
            // way to a later entry of the same chunk.
            bitset((0..count as u32).filter(|r| r % 3 == 0)),
            // Every match of the last leaf.
            bitset(last.clone()),
            // The last leaf's entries 2 and 8: the first match of a
            // packet at port 2500 gives way to entry 3, and at 8500 to
            // entry 9, in the next chunk.
            bitset([last.start + 2, last.start + 8]),
        ];
        instances_agree(&tree, &with_edges(&packets), &skips);
    }

    #[test]
    fn every_instance_matches_the_linear_scan_on_every_node_kind() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 200).with_seed(95));
        let trace = with_edges(&generate_trace(&rules, &TraceConfig::new(300).with_seed(96)));
        let skips = [bitset([]), bitset((0..200).filter(|r| r % 4 == 1))];
        // A root leaf, with an empty-range rule in it.
        let mut empty = rules.rules().to_vec();
        empty[3].ranges[Dim::SrcPort.index()] = classbench::DimRange::new(7, 7);
        let single = DecisionTree::new(&classbench::RuleSet::new(empty));
        instances_agree(&single, &trace, &skips);
        // A root partition over a multicut, a split over a dense cut,
        // and a cut with a partition below it.
        let mut tree = DecisionTree::new(&rules);
        let all = tree.rules_at(tree.root()).to_vec();
        let third = all.len() / 3;
        let parts = tree.partition_node(
            tree.root(),
            vec![all[..third].to_vec(), all[third..2 * third].to_vec(), all[2 * third..].to_vec()],
        );
        tree.multicut_node(parts[0], &[(Dim::SrcIp, 4), (Dim::Proto, 2)]);
        let (left, _) = tree.split_node(parts[1], Dim::DstPort, 1024);
        tree.dense_cut_node(left, Dim::DstPort, vec![0, 80, 443, 1024]);
        let kids = tree.cut_node(parts[2], Dim::DstIp, 4);
        let below = tree.rules_at(kids[0]).to_vec();
        if below.len() >= 2 {
            let (a, b) = below.split_at(below.len() / 2);
            tree.partition_node(kids[0], vec![a.to_vec(), b.to_vec()]);
        }
        instances_agree(&tree, &trace, &skips);
        // The same shapes below a root cut, so no partition is at the root.
        let mut tree = DecisionTree::new(&rules);
        let kids = tree.cut_node(tree.root(), Dim::Proto, 2);
        let all = tree.rules_at(kids[0]).to_vec();
        let (a, b) = all.split_at(all.len() / 2);
        let parts = tree.partition_node(kids[0], vec![a.to_vec(), b.to_vec()]);
        tree.split_node(parts[0], Dim::SrcPort, 4096);
        tree.multicut_node(kids[1], &[(Dim::DstIp, 2), (Dim::DstPort, 2)]);
        instances_agree(&tree, &trace, &skips);
    }

    #[test]
    fn a_chunk_stops_at_its_leaf_end() {
        use classbench::{DimRange, RuleSet};
        // Two leaves under a protocol cut, both listing every rule; the
        // file then drops the wide rule from the first leaf, so the next
        // entries in the table after that leaf are the second leaf's
        // narrow and wide rules. A packet of the first leaf that only the
        // wide rule matches matches nothing there, as in the tree,
        // although its 8-entry chunk reads the wide rule's entry.
        let mut narrow = Rule::default_rule(1);
        narrow.ranges[Dim::SrcPort.index()] = DimRange::new(0, 1000);
        let mut tree = DecisionTree::new(&RuleSet::new(vec![narrow, Rule::default_rule(0)]));
        tree.cut_node(tree.root(), Dim::Proto, 2);
        let (both, first) = (r#""rules":[0,1],"kind":"Leaf""#, r#""rules":[0],"kind":"Leaf""#);
        let tree = DecisionTree::from_json(&tree.to_json().replacen(both, first, 1)).unwrap();
        let flat = FlatTree::compile(&tree);
        let packets = [
            Packet::new(1, 2, 500, 80, 6),
            Packet::new(1, 2, 5000, 80, 6),
            Packet::new(1, 2, 5000, 80, 200),
        ];
        let want: Vec<Option<u32>> =
            packets.iter().map(|p| tree.classify(p).and_then(|id| flat.rank_of(id))).collect();
        assert_eq!(want, [Some(0), None, Some(1)]);
        for (name, inst) in runnable() {
            let mut got = vec![Some(u32::MAX); packets.len()];
            flat.classify_batch_on(inst, &packets, NoSkip, |pi, rank| got[pi] = rank);
            assert_eq!(got, want, "{name}");
            let one: Vec<Option<u32>> =
                packets.iter().map(|p| flat.classify_from(inst, flat.root, p, NoSkip)).collect();
            assert_eq!(one, want, "{name} per packet");
        }
    }

    #[test]
    #[should_panic(expected = "output slice must match")]
    fn batch_rejects_mismatched_output() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 10).with_seed(1));
        let tree = DecisionTree::new(&rules);
        let flat = FlatTree::compile(&tree);
        let trace = generate_trace(&rules, &TraceConfig::new(4).with_seed(1));
        let mut out = vec![None; 3];
        flat.classify_batch(&trace, &mut out);
    }
}
