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
//!   inline, one padded 64-byte entry per rule in precedence (rank)
//!   order. A leaf scan reads them sequentially, in prefetch order,
//!   instead of dragging whole cloned `Rule` structs through the cache.
//! * **Division-free cut indexing.** Equal-size cuts precompute a
//!   Granlund–Montgomery/Lemire style reciprocal at compile time, so
//!   the per-level child-index computation is a multiply-and-shift
//!   rather than a hardware `u64` divide.
//! * **Batched lookup.** [`FlatTree::classify_batch`] traverses many
//!   packets as an interleaved wavefront: a level-synchronous frontier
//!   advances every in-flight packet one node per round, so
//!   independent node fetches overlap in the memory pipeline instead
//!   of serialising per packet.
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

/// Width of one `leaf_bounds` entry in `u32` words: 8 lower bounds
/// then 8 inclusive upper bounds. The five real dimensions are padded
/// to a power-of-two lane count with always-true lanes (`lo = 0`,
/// `hi = u32::MAX`) so the per-rule match test is two straight-line
/// 8-wide compare loops the compiler can vectorise.
const LEAF_ENTRY: usize = 16;

/// Lanes per bound half of a [`LEAF_ENTRY`] (real dims + padding).
const LEAF_LANES: usize = LEAF_ENTRY / 2;

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

/// One rule's leaf-scan entry (see [`FlatTree`]'s `leaf_bounds`).
/// Padding lanes are always-true; a degenerate empty range (lo >= hi,
/// matches nothing) gets the unsatisfiable lane [1, 0] so the rule
/// never wins, exactly like `Rule::matches`.
fn scan_entry(ranges: &[DimRange; NUM_DIMS]) -> [u32; LEAF_ENTRY] {
    let mut entry = [0u32; LEAF_ENTRY];
    let (los, his) = entry.split_at_mut(LEAF_LANES);
    his.fill(u32::MAX);
    for ((lo, hi), rg) in los.iter_mut().zip(his.iter_mut()).zip(ranges) {
        (*lo, *hi) = if rg.is_empty() {
            (1, 0)
        } else {
            debug_assert!(rg.hi <= 1 << 32);
            (rg.lo as u32, (rg.hi - 1) as u32)
        };
    }
    entry
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
    /// Continue at this node.
    Descend(u32),
    /// Lookup finished with this winning table rank (if any).
    Done(Option<u32>),
}

/// A compiled decision tree (see module docs).
#[derive(Debug, Clone)]
pub struct FlatTree {
    /// Compiled nodes in breadth-first order; the root is node 0.
    nodes: Vec<FlatNode>,
    children: Vec<u32>,
    leaf_rules: Vec<u32>,
    bounds: Vec<u64>,
    cut_dims: Vec<FlatCutDim>,
    /// Cache-packed rule bounds: entry `j` of `leaf_rules` owns
    /// `leaf_bounds[16j..16j+16]` — eight lower bounds then eight
    /// **inclusive** upper bounds (five real dimensions plus
    /// always-true padding lanes; see [`LEAF_ENTRY`]). Ranks are
    /// precedence order (rank 0 wins every tie), so `leaf_rules` and
    /// the scan never consult priorities. A leaf scan walks these
    /// sequentially — one 64-byte line per rule in prefetch order.
    /// `u32` is lossless here: every dimension's values fit in 32
    /// bits, and a degenerate empty range is encoded as the
    /// unsatisfiable lane `[1, 0]` rather than wrapping.
    leaf_bounds: Vec<u32>,
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
            entries.push(scan_entry(&rule.ranges));
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
        }

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
            leaf_bounds: Vec::with_capacity(leaf_entries * LEAF_ENTRY),
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
                        flat.leaf_bounds.extend_from_slice(&entries[rank as usize]);
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

        // A deployment artifact should hold no slack capacity (and
        // `resident_bytes` reports capacity, not length).
        flat.nodes.shrink_to_fit();
        flat.children.shrink_to_fit();
        flat.leaf_rules.shrink_to_fit();
        flat.leaf_bounds.shrink_to_fit();
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
            + heap(&self.leaf_bounds)
            + heap(&self.orig_ids)
            + heap(&self.rule_prio)
    }

    /// Scan `leaf_rules[start..end]` (ascending rank = precedence
    /// order) for the first rule containing the packet whose rank
    /// `skip` does not skip.
    ///
    /// Bounds come from the cache-packed `leaf_bounds` copy, and the
    /// dimension test is evaluated branch-free (`&`, not `&&`) over
    /// the padded 8-lane halves: whether one dimension matches is
    /// data-dependent and would mispredict, while the one per-rule
    /// "matched?" branch is almost always false until the winner. The
    /// fixed-width lane loops vectorise, and `chunks_exact` keeps the
    /// compares free of per-element bounds checks. The skip test runs
    /// only on a matched entry, and vanishes for [`NoSkip`].
    // nc-lint: kernel
    #[inline]
    fn leaf_scan<S: RankSkip>(
        &self,
        start: u32,
        end: u32,
        packet: &Packet,
        skip: S,
    ) -> Option<u32> {
        let mut pv = [0u32; LEAF_LANES];
        for (lane, &v) in pv.iter_mut().zip(&packet.values) {
            *lane = v as u32;
        }
        let (s, e) = (start as usize, end as usize);
        let entries = self.leaf_bounds[s * LEAF_ENTRY..e * LEAF_ENTRY]
            .chunks_exact(LEAF_ENTRY)
            .zip(&self.leaf_rules[s..e]);
        for (b, &rank) in entries {
            let (los, his) = b.split_at(LEAF_LANES);
            let mut matched = true;
            for lane in 0..LEAF_LANES {
                matched &= pv[lane] >= los[lane];
            }
            for lane in 0..LEAF_LANES {
                matched &= pv[lane] <= his[lane];
            }
            if matched && !skip.skips(rank) {
                return Some(rank);
            }
        }
        None
    }

    /// Advance a lookup at `id` by one node.
    // nc-lint: kernel
    #[inline]
    fn step<S: RankSkip>(&self, id: u32, packet: &Packet, skip: S) -> Step {
        match self.nodes[id as usize] {
            FlatNode::Leaf { start, end } => Step::Done(self.leaf_scan(start, end, packet, skip)),
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
                    if let Some(ti) = self.classify_from(c, packet, skip) {
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
        self.classify_from(self.root, packet, skip)
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

    /// Returns the winning *table* rank (precedence order), or `None`.
    ///
    /// The loop tests the dominant node kinds (equal-size cuts, then
    /// leaves, then splits) with cheap conditional branches before
    /// falling back to the full dispatch: a `match` over all six
    /// variants compiles to an indirect jump whose target is
    /// data-dependent and mispredicts every level, while "is it a
    /// Cut?" is predicted almost perfectly on cut-built trees.
    // nc-lint: kernel
    fn classify_from<S: RankSkip>(&self, mut id: u32, packet: &Packet, skip: S) -> Option<u32> {
        loop {
            let node = &self.nodes[id as usize];
            if let FlatNode::Cut { dim, lo, magic, ncuts, base } = *node {
                let v = packet.values[dim as usize];
                let idx = div_by_step(v.saturating_sub(lo), magic).min(u64::from(ncuts) - 1) as u32;
                id = self.children[(base + idx) as usize];
                continue;
            }
            if let FlatNode::Leaf { start, end } = *node {
                return self.leaf_scan(start, end, packet, skip);
            }
            if let FlatNode::Split { dim, threshold, left, right } = *node {
                id = if packet.values[dim as usize] < threshold { left } else { right };
                continue;
            }
            match self.step(id, packet, skip) {
                Step::Descend(next) => id = next,
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
    // nc-lint: kernel
    pub fn classify_batch_with<S: RankSkip, F: FnMut(usize, Option<u32>)>(
        &self,
        packets: &[Packet],
        skip: S,
        mut emit: F,
    ) {
        if let FlatNode::Partition { start, end } = self.nodes[self.root as usize] {
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
                self.classify_batch_ranks(c, packets, skip, |pi, rank| {
                    if let Some(rank) = rank {
                        best[pi] = best[pi].min(rank);
                    }
                });
            }
            for (pi, &rank) in best.iter().enumerate() {
                emit(pi, (rank != NO_RANK).then_some(rank));
            }
        } else {
            self.classify_batch_ranks(self.root, packets, skip, emit);
        }
    }

    /// The wavefront core: classify every packet starting from node
    /// `from`, reporting each packet's winning table rank (or `None`)
    /// through `emit` exactly once, in no particular order.
    ///
    /// Traversal is level-synchronous: a frontier of `(packet, node)`
    /// pairs advances every in-flight packet by one node per round.
    /// Within a round the iterations are fully independent — no
    /// packet's next node depends on another's — so the CPU can keep
    /// many node fetches in flight at once instead of serialising on
    /// one packet's root-to-leaf dependence chain. Finished packets
    /// (leaf reached, or interior partition resolved via the scalar
    /// path) simply drop out of the next round's frontier.
    // nc-lint: kernel
    fn classify_batch_ranks<S: RankSkip, F: FnMut(usize, Option<u32>)>(
        &self,
        from: u32,
        packets: &[Packet],
        skip: S,
        mut emit: F,
    ) {
        // nc-lint: allow(no-alloc-in-kernels, reason = "one frontier allocation per batch, amortised over every packet in it")
        let mut frontier: Vec<(u32, u32)> = (0..packets.len() as u32).map(|i| (i, from)).collect();
        // nc-lint: allow(no-alloc-in-kernels, reason = "second frontier buffer, swapped and reused across wavefront rounds")
        let mut next_round: Vec<(u32, u32)> = Vec::with_capacity(frontier.len());
        while !frontier.is_empty() {
            for &(pi, nid) in &frontier {
                let packet = &packets[pi as usize];
                // One full dispatch per packet per round. Because a
                // round holds one tree level, the node kinds it meets
                // are near-homogeneous and the dispatch branch stays
                // well predicted — unlike the scalar loop, which
                // alternates kinds along each root-to-leaf path.
                match self.nodes[nid as usize] {
                    FlatNode::Cut { dim, lo, magic, ncuts, base } => {
                        let v = packet.values[dim as usize];
                        let idx = div_by_step(v.saturating_sub(lo), magic).min(u64::from(ncuts) - 1)
                            as u32;
                        next_round.push((pi, self.children[(base + idx) as usize]));
                    }
                    FlatNode::Leaf { start, end } => {
                        emit(pi as usize, self.leaf_scan(start, end, packet, skip));
                    }
                    _ => match self.step(nid, packet, skip) {
                        Step::Descend(id) => next_round.push((pi, id)),
                        Step::Done(result) => emit(pi as usize, result),
                    },
                }
            }
            std::mem::swap(&mut frontier, &mut next_round);
            next_round.clear();
        }
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
            + flat.leaf_bounds.capacity() * 4
            + flat.orig_ids.capacity() * 4
            + flat.rule_prio.capacity() * 4;
        assert_eq!(flat.resident_bytes(), expected);
        // The rank tables hold every active rule once, and the scan
        // bounds every leaf entry in every lane.
        assert_eq!(flat.orig_ids.len(), tree.num_active_rules());
        assert_eq!(flat.rule_prio.len(), tree.num_active_rules());
        assert_eq!(flat.leaf_bounds.len(), LEAF_ENTRY * flat.leaf_rules.len());
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
