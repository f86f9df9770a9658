//! The arena-backed decision tree and its expansion operations.

use crate::node::{Node, NodeId, NodeKind, RuleId, RuleSpan};
use crate::space::NodeSpace;
use crate::store::RuleStore;
use classbench::{Dim, DimRange, Packet, Rule, RuleSet, NUM_DIMS};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Bit set in the separability cache when a node's mask is computed.
const SEP_COMPUTED: u8 = 1 << 7;

/// A packet-classification decision tree.
///
/// The tree reads its rules from a **shared, immutable-by-sharing
/// [`RuleStore`]**: rule ids are indices that never shift, so
/// incremental updates (appending new rules, marking deletions) do not
/// invalidate the rule lists stored at leaves, and thousands of
/// episode trees built over the same rule set share one store instead
/// of deep-cloning it ([`DecisionTree::with_store`]). When constructed
/// with [`DecisionTree::new`] from a [`RuleSet`], rule ids equal the
/// rule set's priority-order indices, so `classify` results are
/// directly comparable with [`RuleSet::classify`].
///
/// Per-node rule lists live as `(start, len)` spans in one growable
/// per-tree pool, so expanding a node performs **zero per-child
/// allocations**: a counting pass sizes every child's span, one pool
/// `resize` reserves them, and a fill pass writes each rule into every
/// child it overlaps — O(parent rules × overlapped children) instead
/// of the old per-child rescans (O(parent rules × children × dims)).
///
/// Match precedence is *higher priority wins, ties broken by lower rule
/// id* — identical to the linear-scan ground truth.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    store: Arc<RuleStore>,
    active: Vec<bool>,
    /// Maintained count of `true` entries in `active`, so
    /// [`Self::num_active_rules`] is O(1) in reward/stats loops.
    num_active: usize,
    nodes: Vec<Node>,
    /// The shared rule-id pool all node spans index into.
    pool: Vec<RuleId>,
    /// Pool entries no span covers any more: windows a leaf insert
    /// re-homed and tails a removal or truncation cut off. The live
    /// updates compact the pool once this outgrows the live part.
    garbage: usize,
    root: NodeId,
    /// Lazily computed per-node separability masks (bit `d` = dimension
    /// `d` separable, [`SEP_COMPUTED`] = entry valid). Invalidated on
    /// any mutation of the node's rule list.
    sep_cache: Vec<u8>,
    /// Bumped on every structural or rule mutation (expansions,
    /// truncation, rule insertion/deletion). A compiled [`crate::FlatTree`]
    /// records the generation it was built from, so a snapshot that no
    /// longer reflects this tree is detectable ([`crate::FlatTree::is_stale`])
    /// instead of silently serving stale matches.
    generation: u64,
}

/// Hand-written so the JSON deployment format stays exactly the four
/// fields it has always been — `rules`, `active`, `nodes` (each node an
/// object with `space`/`rules`/`kind`/`depth`/`parent`, the per-node
/// rule lists materialised from the span pool), `root`. `num_active`,
/// `generation`, and the separability cache are derived state, never
/// serialised — trees saved by earlier versions load unchanged, a
/// loaded file cannot smuggle in a count that disagrees with `active`,
/// and a freshly loaded tree starts at generation 0.
impl Serialize for DecisionTree {
    fn serialize_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert(
            "rules",
            serde::Value::Array(self.store.rules().iter().map(|r| r.serialize_value()).collect()),
        );
        map.insert("active", self.active.serialize_value());
        let nodes: Vec<serde::Value> = self
            .nodes
            .iter()
            .map(|n| {
                let mut m = serde::Map::new();
                m.insert("space", n.space.serialize_value());
                m.insert("rules", self.span_slice(n.span).to_vec().serialize_value());
                m.insert("kind", n.kind.serialize_value());
                m.insert("depth", n.depth.serialize_value());
                m.insert("parent", n.parent.serialize_value());
                serde::Value::Object(m)
            })
            .collect();
        map.insert("nodes", serde::Value::Array(nodes));
        map.insert("root", self.root.serialize_value());
        serde::Value::Object(map)
    }
}

impl Deserialize for DecisionTree {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("DecisionTree: expected object"))?;
        let field = |name: &str| {
            obj.get(name).ok_or_else(|| {
                serde::Error::custom(format!("DecisionTree: missing field `{name}`"))
            })
        };
        let rules: Vec<Rule> = Deserialize::deserialize_value(field("rules")?)?;
        let active: Vec<bool> = Deserialize::deserialize_value(field("active")?)?;
        let node_values = field("nodes")?
            .as_array()
            .ok_or_else(|| serde::Error::custom("DecisionTree: `nodes` must be an array"))?;
        let mut pool = Vec::new();
        let mut nodes = Vec::with_capacity(node_values.len());
        for nv in node_values {
            let nobj = nv
                .as_object()
                .ok_or_else(|| serde::Error::custom("DecisionTree: node must be an object"))?;
            let nfield = |name: &str| {
                nobj.get(name).ok_or_else(|| {
                    serde::Error::custom(format!("DecisionTree: node missing field `{name}`"))
                })
            };
            let space: NodeSpace = Deserialize::deserialize_value(nfield("space")?)?;
            let rules: Vec<RuleId> = Deserialize::deserialize_value(nfield("rules")?)?;
            let kind: NodeKind = Deserialize::deserialize_value(nfield("kind")?)?;
            let depth: usize = Deserialize::deserialize_value(nfield("depth")?)?;
            let parent: Option<NodeId> = Deserialize::deserialize_value(nfield("parent")?)?;
            let span = RuleSpan { start: pool.len(), len: rules.len() };
            pool.extend(rules);
            nodes.push(Node { space, span, kind, depth, parent });
        }
        let root: NodeId = Deserialize::deserialize_value(field("root")?)?;
        check_structure(rules.len(), active.len(), &nodes, &pool, root)
            .map_err(|why| serde::Error::custom(format!("DecisionTree: {why}")))?;
        let num_active = active.iter().filter(|&&a| a).count();
        let sep_cache = vec![0; nodes.len()];
        Ok(DecisionTree {
            store: Arc::new(RuleStore::from_rules(rules)),
            active,
            num_active,
            nodes,
            pool,
            garbage: 0,
            root,
            sep_cache,
            generation: 0,
        })
    }
}

/// Refuse a decoded arena that lookups, compilation or the cost model
/// could not walk: a `root`, child or rule id out of range, an `active`
/// list of the wrong length, an interior node with fewer than 2
/// children or a child count its cut does not produce, and a child that
/// does not come after its parent (the expansions always append
/// children, so this also rules out cycles, and
/// [`crate::stats::subtree_metrics`]' reverse pass relies on it). The
/// root must have depth 0 and no parent; every other node must be
/// listed as a child by exactly one node, record it as its `parent`
/// and sit at its depth + 1, as `push_child` writes
/// them, so a stored depth is never larger than the node count.
fn check_structure(
    num_rules: usize,
    active_len: usize,
    nodes: &[Node],
    pool: &[RuleId],
    root: NodeId,
) -> Result<(), String> {
    if active_len != num_rules {
        return Err(format!("`active` has {active_len} entries for {num_rules} rules"));
    }
    if root >= nodes.len() {
        return Err(format!("root {root} out of range ({} nodes)", nodes.len()));
    }
    if nodes[root].depth != 0 || nodes[root].parent.is_some() {
        return Err(format!(
            "root {root}: depth {} and parent {:?}, not 0 and none",
            nodes[root].depth, nodes[root].parent
        ));
    }
    // Which node lists each node as a child; the root must stay unlisted.
    // Children come after their parents, so every node that may list
    // `id` has been checked by the time `id` is, and a node refused here
    // is refused before its own depth is read.
    let mut listed_by = vec![None; nodes.len()];
    for (id, node) in nodes.iter().enumerate() {
        if id != root && listed_by[id].is_none() {
            return Err(format!("node {id}: no node lists it as a child"));
        }
        let rules = &pool[node.span.start..node.span.start + node.span.len];
        if let Some(r) = rules.iter().find(|&&r| r >= num_rules) {
            return Err(format!("node {id}: rule id {r} out of range ({num_rules} rules)"));
        }
        let children = node.kind.children();
        let pieces = match &node.kind {
            NodeKind::Leaf => continue,
            NodeKind::Cut { ncuts, .. } => *ncuts,
            NodeKind::MultiCut { dims, .. } => {
                dims.iter().fold(1usize, |n, &(_, ncuts)| n.saturating_mul(ncuts))
            }
            NodeKind::DenseCut { bounds, .. } => bounds.len().saturating_sub(1),
            NodeKind::Split { .. } | NodeKind::Partition { .. } => children.len(),
        };
        if children.len() < 2 {
            return Err(format!("node {id}: {} children, fewer than 2", children.len()));
        }
        if pieces != children.len() {
            return Err(format!("node {id}: {} children for {pieces} cuts", children.len()));
        }
        if let Some(&c) = children.iter().find(|&&c| c >= nodes.len()) {
            return Err(format!("node {id}: child {c} out of range ({} nodes)", nodes.len()));
        }
        if let Some(&c) = children.iter().find(|&&c| c <= id) {
            return Err(format!("node {id}: child {c} does not come after its parent"));
        }
        for &c in children {
            if c == root || listed_by[c].replace(id).is_some() {
                return Err(format!("node {c}: listed as a child more than once or as the root"));
            }
            if nodes[c].parent != Some(id) || nodes[c].depth != node.depth + 1 {
                return Err(format!(
                    "node {c}: parent {:?} at depth {}, but node {id} at depth {} lists it",
                    nodes[c].parent, nodes[c].depth, node.depth
                ));
            }
        }
    }
    Ok(())
}

impl DecisionTree {
    /// Start a tree for `rules`: a single root leaf owning every rule
    /// and the full header space. Builds a private [`RuleStore`]; use
    /// [`Self::with_store`] to share one store across many trees.
    pub fn new(rules: &RuleSet) -> Self {
        Self::with_store(Arc::new(RuleStore::from_ruleset(rules)))
    }

    /// Start a tree over a shared rule store — the episode-construction
    /// fast path: no rules are copied, only the per-tree state (node
    /// arena, rule-id pool, active flags) is allocated.
    pub fn with_store(store: Arc<RuleStore>) -> Self {
        let n = store.len();
        let root = Node::leaf(NodeSpace::full(), RuleSpan { start: 0, len: n }, 0, None);
        DecisionTree {
            active: vec![true; n],
            num_active: n,
            store,
            nodes: vec![root],
            pool: (0..n).collect(),
            garbage: 0,
            root: 0,
            sep_cache: vec![0],
            generation: 0,
        }
    }

    /// The shared rule store behind this tree.
    pub fn store(&self) -> &Arc<RuleStore> {
        &self.store
    }

    /// Rebuild a live tree's *structure* from an externally built
    /// `template` (e.g. a freshly retrained tree) while keeping the
    /// live tree `onto`'s rule arena, ids, and active flags.
    ///
    /// `map[i]` is the `onto`-arena id of template rule `i`: the
    /// template is built over a snapshot of `onto`'s active rules in
    /// priority order ([`crate::serve::ClassifierHandle::rule_snapshot`]),
    /// and the graft copies the template's node arena verbatim while
    /// remapping every leaf rule list through `map`. Because the
    /// snapshot order is a stable sort by descending priority, equal
    /// priorities keep ascending-handle-id order, so the template's
    /// (priority, lower-id) precedence maps exactly onto the live
    /// arena's — leaf lists stay in serving precedence order.
    ///
    /// The grafted tree's generation starts one past `onto`'s, so every
    /// [`crate::FlatTree`] compiled from the old tree is immediately
    /// detectable as stale.
    ///
    /// # Panics
    /// Panics if `map` does not cover the template's rules exactly or
    /// names ids outside `onto`'s arena.
    pub fn graft(template: &DecisionTree, map: &[RuleId], onto: &DecisionTree) -> DecisionTree {
        assert_eq!(template.store.len(), map.len(), "map must cover every template rule");
        assert!(map.iter().all(|&id| id < onto.store.len()), "map id outside the target arena");
        DecisionTree {
            store: Arc::clone(&onto.store),
            active: onto.active.clone(),
            num_active: onto.num_active,
            nodes: template.nodes.clone(),
            pool: template.pool.iter().map(|&r| map[r]).collect(),
            garbage: template.garbage,
            root: template.root,
            sep_cache: vec![0; template.nodes.len()],
            generation: onto.generation + 1,
        }
    }

    /// Monotonic mutation counter: any expansion, truncation, or rule
    /// update advances it. Compare with [`crate::FlatTree::generation`]
    /// to detect stale compiled snapshots.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Record a mutation (see [`Self::generation`]).
    #[inline]
    fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The node arena (all nodes ever created, in creation order).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// The rule arena (including deleted rules; see [`Self::is_active`]).
    pub fn rules(&self) -> &[Rule] {
        self.store.rules()
    }

    /// Borrow a rule by id.
    pub fn rule(&self, id: RuleId) -> &Rule {
        self.store.rule(id)
    }

    #[inline]
    fn span_slice(&self, span: RuleSpan) -> &[RuleId] {
        &self.pool[span.start..span.start + span.len]
    }

    /// The rule ids stored at a node, in precedence order.
    #[inline]
    pub fn rules_at(&self, id: NodeId) -> &[RuleId] {
        self.span_slice(self.nodes[id].span)
    }

    /// True while the rule has not been deleted by an update.
    pub fn is_active(&self, id: RuleId) -> bool {
        self.active[id]
    }

    /// Number of non-deleted rules. O(1): the count is maintained by
    /// rule insertion and deletion rather than scanned on demand.
    pub fn num_active_rules(&self) -> usize {
        debug_assert_eq!(self.num_active, self.active.iter().filter(|&&a| a).count());
        self.num_active
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if rule `a` takes precedence over rule `b`.
    #[inline]
    pub fn precedes(&self, a: RuleId, b: RuleId) -> bool {
        let (pa, pb) = (self.store.rule(a).priority, self.store.rule(b).priority);
        pa > pb || (pa == pb && a < b)
    }

    /// Ground-truth linear scan over the arena (used by the validator
    /// and as the reference for incremental updates).
    pub fn linear_classify(&self, packet: &Packet) -> Option<RuleId> {
        let mut best: Option<RuleId> = None;
        for (id, rule) in self.store.rules().iter().enumerate() {
            if self.active[id] && rule.matches(packet) && best.is_none_or(|b| self.precedes(id, b))
            {
                best = Some(id);
            }
        }
        best
    }

    /// Index of the child a packet descends into under an equal-size cut
    /// of `range` into `ncuts` pieces. Clamped, so packets outside the
    /// (possibly region-compacted) range map to the nearest child; leaf
    /// matching re-checks full rule predicates, preserving correctness.
    #[inline]
    fn cut_child_index(range: &classbench::DimRange, ncuts: usize, value: u64) -> usize {
        let step = (range.len() / ncuts as u64).max(1);
        ((value.saturating_sub(range.lo)) / step).min(ncuts as u64 - 1) as usize
    }

    /// Classify a packet: id of the highest-precedence matching rule.
    pub fn classify(&self, packet: &Packet) -> Option<RuleId> {
        self.walk(self.root, packet, &mut |_| {})
    }

    /// Classify and report the lookup cost: the number of nodes visited,
    /// counting every consulted partition child subtree (the same
    /// accounting as Eq. 1/3, but for this packet's actual path rather
    /// than the worst case). Used for traffic-aware objectives (§8).
    pub fn classify_traced(&self, packet: &Packet) -> (Option<RuleId>, usize) {
        let mut visited = 0usize;
        let result = self.walk(self.root, packet, &mut |_| visited += 1);
        (result, visited)
    }

    /// How many packets of `trace` pass through each node during lookup
    /// (partition children each see every packet their parent sees).
    /// Index-aligned with the node arena.
    pub fn node_visit_counts(&self, trace: &[Packet]) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for packet in trace {
            self.walk(self.root, packet, &mut |id| counts[id] += 1);
        }
        counts
    }

    /// The one lookup walk: descend from `id` along `packet`'s path,
    /// calling `visit` at every node it passes (each child of a
    /// partition included), and return the highest-precedence match.
    fn walk(
        &self,
        mut id: NodeId,
        packet: &Packet,
        visit: &mut impl FnMut(NodeId),
    ) -> Option<RuleId> {
        loop {
            visit(id);
            let node = &self.nodes[id];
            match &node.kind {
                NodeKind::Leaf => {
                    return self
                        .span_slice(node.span)
                        .iter()
                        .copied()
                        .find(|&r| self.active[r] && self.store.rule(r).matches(packet));
                }
                NodeKind::Cut { dim, ncuts, children } => {
                    let idx =
                        Self::cut_child_index(node.space.range(*dim), *ncuts, packet.value(*dim));
                    id = children[idx];
                }
                NodeKind::MultiCut { dims, children } => {
                    let mut idx = 0usize;
                    for &(dim, ncuts) in dims {
                        let i =
                            Self::cut_child_index(node.space.range(dim), ncuts, packet.value(dim));
                        idx = idx * ncuts + i;
                    }
                    id = children[idx];
                }
                NodeKind::DenseCut { dim, bounds, children } => {
                    let v = packet.value(*dim);
                    // First boundary strictly above v, minus one, gives the
                    // child whose [bounds[i], bounds[i+1]) contains v.
                    // Clamp for packets outside the node's range.
                    let idx = bounds
                        .partition_point(|&b| b <= v)
                        .saturating_sub(1)
                        .min(children.len() - 1);
                    id = children[idx];
                }
                NodeKind::Split { dim, threshold, children } => {
                    id = if packet.value(*dim) < *threshold { children[0] } else { children[1] };
                }
                NodeKind::Partition { children } => {
                    // All partitions must be consulted; highest precedence wins.
                    let mut best: Option<RuleId> = None;
                    for &c in children {
                        if let Some(r) = self.walk(c, packet, visit) {
                            if best.is_none_or(|b| self.precedes(r, b)) {
                                best = Some(r);
                            }
                        }
                    }
                    return best;
                }
            }
        }
    }

    /// Inclusive child-index range a rule with raw projection
    /// `[rl, rh)` overlaps under an equal-size cut of `range` into
    /// `ncuts` pieces with the given `step`. Matches the per-child
    /// `DimRange::overlaps` filter exactly, including the degenerate
    /// tail (ranges shorter than `ncuts` produce empty trailing
    /// children anchored at `range.hi`, which a rule extending past
    /// `range.hi` *does* overlap under the half-open predicate).
    #[inline]
    fn cut_span_of(range: &DimRange, step: u64, ncuts: usize, rl: u64, rh: u64) -> (usize, usize) {
        let first = ((rl.max(range.lo) - range.lo) / step).min(ncuts as u64 - 1) as usize;
        let last = if rh > range.hi {
            ncuts - 1
        } else {
            (((rh - 1).max(range.lo) - range.lo) / step).min(ncuts as u64 - 1) as usize
        };
        (first, last)
    }

    /// Single-pass child assignment: size every child's span (counting
    /// pass), reserve them contiguously in the pool, then write each
    /// active, parent-intersecting rule into the children reported by
    /// `children_of` (inclusive index range). Rules land in each child
    /// in parent order, so child lists are exactly the old per-child
    /// filter's output. Zero allocations besides the single pool grow
    /// and the per-child bookkeeping.
    fn assign_spans(
        &mut self,
        id: NodeId,
        nchildren: usize,
        children_of: impl Fn(&RuleStore, RuleId) -> (usize, usize),
    ) -> Vec<RuleSpan> {
        let parent = self.nodes[id].span;
        let space = self.nodes[id].space;
        let mut counts = vec![0usize; nchildren];
        for i in parent.start..parent.start + parent.len {
            let r = self.pool[i];
            if !self.active[r] || !self.store.intersects(r, &space) {
                continue;
            }
            let (first, last) = children_of(&self.store, r);
            for c in &mut counts[first..=last] {
                *c += 1;
            }
        }
        let mut spans = Vec::with_capacity(nchildren);
        let mut cursors = Vec::with_capacity(nchildren);
        let mut offset = self.pool.len();
        for &c in &counts {
            spans.push(RuleSpan { start: offset, len: c });
            cursors.push(offset);
            offset += c;
        }
        self.pool.resize(offset, 0);
        for i in parent.start..parent.start + parent.len {
            let r = self.pool[i];
            if !self.active[r] || !self.store.intersects(r, &space) {
                continue;
            }
            let (first, last) = children_of(&self.store, r);
            for cur in &mut cursors[first..=last] {
                self.pool[*cur] = r;
                *cur += 1;
            }
        }
        spans
    }

    fn push_child(&mut self, parent: NodeId, space: NodeSpace, span: RuleSpan) -> NodeId {
        let depth = self.nodes[parent].depth + 1;
        let id = self.nodes.len();
        self.nodes.push(Node::leaf(space, span, depth, Some(parent)));
        self.sep_cache.push(0);
        id
    }

    /// Apply an equal-size cut along `dim` into `ncuts` sub-ranges
    /// (HiCuts / NeuroCuts cut action). Returns the new children.
    ///
    /// # Panics
    /// Panics if the node is not a leaf or `ncuts < 2`.
    pub fn cut_node(&mut self, id: NodeId, dim: Dim, ncuts: usize) -> Vec<NodeId> {
        assert!(self.nodes[id].is_leaf(), "node {id} already expanded");
        assert!(ncuts >= 2, "a cut needs at least 2 pieces");
        let range = *self.nodes[id].space.range(dim);
        let step = (range.len() / ncuts as u64).max(1);
        let d = dim.index();
        let spans = self.assign_spans(id, ncuts, |store, r| {
            let (rl, rh) = store.proj(d, r);
            Self::cut_span_of(&range, step, ncuts, rl, rh)
        });
        let spaces = self.nodes[id].space.cut(dim, ncuts);
        let children: Vec<NodeId> =
            spaces.into_iter().zip(spans).map(|(s, span)| self.push_child(id, s, span)).collect();
        self.nodes[id].kind = NodeKind::Cut { dim, ncuts, children: children.clone() };
        self.bump_generation();
        children
    }

    /// Apply simultaneous cuts along several dimensions (HyperCuts).
    /// Children are created row-major in `dims` order.
    ///
    /// # Panics
    /// Panics if the node is not a leaf, `dims` is empty, contains a
    /// repeated dimension, or any count is `< 2`.
    pub fn multicut_node(&mut self, id: NodeId, dims: &[(Dim, usize)]) -> Vec<NodeId> {
        assert!(self.nodes[id].is_leaf(), "node {id} already expanded");
        assert!(!dims.is_empty(), "multicut needs at least one dimension");
        assert!(dims.iter().all(|&(_, n)| n >= 2), "each cut needs >= 2 pieces");
        let mut seen = [false; NUM_DIMS];
        for &(d, _) in dims {
            assert!(!seen[d.index()], "dimension {d} repeated in multicut");
            seen[d.index()] = true;
        }
        let specs: Vec<(usize, DimRange, u64, usize)> = dims
            .iter()
            .map(|&(dim, n)| {
                let range = *self.nodes[id].space.range(dim);
                (dim.index(), range, (range.len() / n as u64).max(1), n)
            })
            .collect();
        let nchildren: usize = dims.iter().map(|&(_, n)| n).product();
        // Row-major composite index: the first dimension is the most
        // significant digit, matching `NodeSpace::multi_cut` and the
        // lookup path. A single-dim multicut degenerates to the plain
        // cut assignment; true multi-dim cuts enumerate the Cartesian
        // product of each rule's per-dimension index ranges.
        let spans = if let [(d, range, step, n)] = specs[..] {
            self.assign_spans(id, nchildren, |store, r| {
                let (rl, rh) = store.proj(d, r);
                Self::cut_span_of(&range, step, n, rl, rh)
            })
        } else {
            self.multi_spans(id, &specs, nchildren)
        };
        let spaces = self.nodes[id].space.multi_cut(dims);
        let children: Vec<NodeId> =
            spaces.into_iter().zip(spans).map(|(s, span)| self.push_child(id, s, span)).collect();
        self.nodes[id].kind =
            NodeKind::MultiCut { dims: dims.to_vec(), children: children.clone() };
        self.bump_generation();
        children
    }

    /// Enumerate the composite (row-major) child indices rule `r`
    /// overlaps under a multi-dimension cut and invoke `visit` on each.
    fn for_each_multi_child(
        store: &RuleStore,
        specs: &[(usize, DimRange, u64, usize)],
        r: RuleId,
        mut visit: impl FnMut(usize),
    ) {
        let k = specs.len();
        let mut first = [0usize; NUM_DIMS];
        let mut last = [0usize; NUM_DIMS];
        for (i, &(d, range, step, n)) in specs.iter().enumerate() {
            let (rl, rh) = store.proj(d, r);
            let (f, l) = Self::cut_span_of(&range, step, n, rl, rh);
            first[i] = f;
            last[i] = l;
        }
        // Odometer over the per-dimension index ranges.
        let mut idx = first;
        loop {
            let mut composite = 0usize;
            for (i, &(_, _, _, n)) in specs.iter().enumerate() {
                composite = composite * n + idx[i];
            }
            visit(composite);
            let mut dim = k;
            loop {
                if dim == 0 {
                    return;
                }
                dim -= 1;
                if idx[dim] < last[dim] {
                    idx[dim] += 1;
                    break;
                }
                idx[dim] = first[dim];
            }
        }
    }

    /// The multi-dimension analogue of [`Self::assign_spans`]: counting
    /// pass + fill pass over composite child indices.
    fn multi_spans(
        &mut self,
        id: NodeId,
        specs: &[(usize, DimRange, u64, usize)],
        nchildren: usize,
    ) -> Vec<RuleSpan> {
        let parent = self.nodes[id].span;
        let space = self.nodes[id].space;
        let mut counts = vec![0usize; nchildren];
        for i in parent.start..parent.start + parent.len {
            let r = self.pool[i];
            if !self.active[r] || !self.store.intersects(r, &space) {
                continue;
            }
            Self::for_each_multi_child(&self.store, specs, r, |c| counts[c] += 1);
        }
        let mut spans = Vec::with_capacity(nchildren);
        let mut cursors = Vec::with_capacity(nchildren);
        let mut offset = self.pool.len();
        for &c in &counts {
            spans.push(RuleSpan { start: offset, len: c });
            cursors.push(offset);
            offset += c;
        }
        self.pool.resize(offset, 0);
        let store = Arc::clone(&self.store);
        for i in parent.start..parent.start + parent.len {
            let r = self.pool[i];
            if !self.active[r] || !store.intersects(r, &space) {
                continue;
            }
            let pool = &mut self.pool;
            Self::for_each_multi_child(&store, specs, r, |c| {
                pool[cursors[c]] = r;
                cursors[c] += 1;
            });
        }
        spans
    }

    /// Apply an equi-dense cut at the explicit `bounds` (EffiCuts):
    /// child `i` covers `[bounds[i], bounds[i+1])` in `dim`.
    ///
    /// # Panics
    /// Panics if the node is not a leaf, the bounds are not strictly
    /// increasing, do not start/end exactly at the node's range, or
    /// would create fewer than two children.
    pub fn dense_cut_node(&mut self, id: NodeId, dim: Dim, bounds: Vec<u64>) -> Vec<NodeId> {
        assert!(self.nodes[id].is_leaf(), "node {id} already expanded");
        assert!(bounds.len() >= 3, "dense cut needs at least two children");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must strictly increase");
        let range = *self.nodes[id].space.range(dim);
        assert_eq!(bounds[0], range.lo, "bounds must start at the node range");
        assert_eq!(*bounds.last().unwrap(), range.hi, "bounds must end at the node range");
        let d = dim.index();
        let nchildren = bounds.len() - 1;
        let spans = self.assign_spans(id, nchildren, |store, r| {
            let (rl, rh) = store.proj(d, r);
            // First child whose upper bound exceeds the rule's start;
            // last child whose lower bound the rule's end exceeds.
            let first = bounds[1..].partition_point(|&b| b <= rl).min(nchildren - 1);
            let last = bounds[..nchildren].partition_point(|&b| b < rh).saturating_sub(1);
            (first, last)
        });
        let children: Vec<NodeId> = bounds
            .windows(2)
            .zip(spans)
            .map(|(w, span)| {
                let mut space = self.nodes[id].space;
                space.ranges[d] = DimRange::new(w[0], w[1]);
                self.push_child(id, space, span)
            })
            .collect();
        self.nodes[id].kind = NodeKind::DenseCut { dim, bounds, children: children.clone() };
        self.bump_generation();
        children
    }

    /// Apply a binary threshold split (HyperSplit / CutSplit):
    /// left child gets `[lo, threshold)`, right `[threshold, hi)`.
    ///
    /// # Panics
    /// Panics if the node is not a leaf or the threshold is outside the
    /// node's open range (which would create an empty child).
    pub fn split_node(&mut self, id: NodeId, dim: Dim, threshold: u64) -> (NodeId, NodeId) {
        assert!(self.nodes[id].is_leaf(), "node {id} already expanded");
        let range = *self.nodes[id].space.range(dim);
        assert!(
            range.lo < threshold && threshold < range.hi,
            "threshold {threshold} outside open range {range}"
        );
        let d = dim.index();
        let spans = self.assign_spans(id, 2, |store, r| {
            let (rl, rh) = store.proj(d, r);
            (if rl < threshold { 0 } else { 1 }, if rh > threshold { 1 } else { 0 })
        });
        let (ls, rs) = self.nodes[id].space.split(dim, threshold);
        let left = self.push_child(id, ls, spans[0]);
        let right = self.push_child(id, rs, spans[1]);
        self.nodes[id].kind = NodeKind::Split { dim, threshold, children: [left, right] };
        self.bump_generation();
        (left, right)
    }

    /// Apply a rule partition: children share the node's space and own
    /// the given disjoint rule subsets.
    ///
    /// # Panics
    /// Panics if the node is not a leaf, fewer than two subsets are
    /// given, or a subset is empty. That the subsets exactly cover the
    /// node's rules is asserted in debug builds only — the O(n log n)
    /// sort-and-compare was measurable on every partition node of the
    /// training hot path, and both in-tree planners construct subsets
    /// by partitioning the node's own list.
    pub fn partition_node(&mut self, id: NodeId, subsets: Vec<Vec<RuleId>>) -> Vec<NodeId> {
        assert!(self.nodes[id].is_leaf(), "node {id} already expanded");
        assert!(subsets.len() >= 2, "a partition needs at least 2 subsets");
        assert!(subsets.iter().all(|s| !s.is_empty()), "empty partition subset");
        debug_assert!(
            {
                let mut all: Vec<RuleId> = subsets.iter().flatten().copied().collect();
                all.sort_unstable();
                let mut expected = self.rules_at(id).to_vec();
                expected.sort_unstable();
                all == expected
            },
            "subsets must exactly cover the node's rules"
        );

        let space = self.nodes[id].space;
        let children: Vec<NodeId> = subsets
            .into_iter()
            .map(|mut subset| {
                // Keep precedence order within each partition.
                subset.sort_by(|&a, &b| {
                    let (pa, pb) = (self.store.rule(a).priority, self.store.rule(b).priority);
                    pb.cmp(&pa).then(a.cmp(&b))
                });
                let span = RuleSpan { start: self.pool.len(), len: subset.len() };
                self.pool.extend_from_slice(&subset);
                self.push_child(id, space, span)
            })
            .collect();
        self.nodes[id].kind = NodeKind::Partition { children: children.clone() };
        self.bump_generation();
        children
    }

    /// HiCuts' rule-overlap optimisation: once a rule fully covers the
    /// node's space, every packet reaching the node matches it, so all
    /// lower-precedence rules at the node are unreachable and are
    /// dropped. Returns how many rules were removed.
    pub fn truncate_covered(&mut self, id: NodeId) -> usize {
        let node = &self.nodes[id];
        let space = node.space;
        let cover = self
            .span_slice(node.span)
            .iter()
            .position(|&r| self.active[r] && self.store.covers(r, &space));
        match cover {
            Some(pos) if pos + 1 < self.nodes[id].span.len => {
                let removed = self.nodes[id].span.len - pos - 1;
                self.nodes[id].span.len = pos + 1;
                self.garbage += removed;
                self.sep_cache[id] = 0;
                self.bump_generation();
                removed
            }
            _ => 0,
        }
    }

    pub(crate) fn push_rule_impl(&mut self, rule: Rule) -> RuleId {
        let id = Arc::make_mut(&mut self.store).push(rule);
        self.active.push(true);
        self.num_active += 1;
        self.bump_generation();
        id
    }

    /// Insert `id` into a leaf's rule list at its precedence position.
    /// The list is re-homed at the end of the pool (spans are append-
    /// only windows), and the old window becomes garbage; once garbage
    /// outgrows the live spans, the pool is compacted.
    pub(crate) fn leaf_insert_sorted(&mut self, node: NodeId, id: RuleId) {
        debug_assert!(self.nodes[node].is_leaf());
        let span = self.nodes[node].span;
        let pos =
            self.span_slice(span).iter().position(|&r| self.precedes(id, r)).unwrap_or(span.len);
        let start = self.pool.len();
        self.pool.reserve(span.len + 1);
        self.pool.extend_from_within(span.start..span.start + pos);
        self.pool.push(id);
        self.pool.extend_from_within(span.start + pos..span.start + span.len);
        self.nodes[node].span = RuleSpan { start, len: span.len + 1 };
        self.sep_cache[node] = 0;
        self.bump_generation();
        self.collect_garbage(span.len);
    }

    /// Remove `id` from a leaf's rule list if present (in-place span
    /// compaction; the cut-off tail becomes garbage, as in
    /// [`Self::leaf_insert_sorted`]).
    pub(crate) fn leaf_remove(&mut self, node: NodeId, id: RuleId) {
        debug_assert!(self.nodes[node].is_leaf());
        let span = self.nodes[node].span;
        let mut w = span.start;
        for i in span.start..span.start + span.len {
            let r = self.pool[i];
            if r != id {
                self.pool[w] = r;
                w += 1;
            }
        }
        self.nodes[node].span.len = w - span.start;
        self.sep_cache[node] = 0;
        self.bump_generation();
        self.collect_garbage(span.start + span.len - w);
    }

    /// Count `made` newly abandoned pool entries, and rewrite the pool
    /// to the live spans in node order once garbage exceeds the live
    /// part. A compaction copies at most one entry per garbage entry
    /// made since the last one, so its amortised cost is O(1) per
    /// entry. Contents do not change, so neither does the generation.
    fn collect_garbage(&mut self, made: usize) {
        self.garbage += made;
        if self.garbage <= self.pool.len() - self.garbage {
            return;
        }
        let mut pool = Vec::with_capacity(self.pool.len() - self.garbage);
        for node in &mut self.nodes {
            let span = node.span;
            node.span.start = pool.len();
            pool.extend_from_slice(&self.pool[span.start..span.start + span.len]);
        }
        self.pool = pool;
        self.garbage = 0;
    }

    /// Length of the rule-id pool, garbage included.
    #[cfg(test)]
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Mark a rule deleted.
    pub(crate) fn deactivate_rule(&mut self, id: RuleId) {
        if self.active[id] {
            self.num_active -= 1;
        }
        self.active[id] = false;
        // Separability is defined over *active* rules: a deletion can
        // flip any node's mask, so drop the whole cache.
        self.sep_cache.iter_mut().for_each(|s| *s = 0);
        self.bump_generation();
    }

    /// Serialise the full tree (rule arena + nodes) to JSON — the
    /// deployment format: a built classifier can be shipped to and
    /// loaded by any process without retraining.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("tree serialises")
    }

    /// Load a tree saved by [`Self::to_json`]. A tree whose structure
    /// lookups could not walk is refused with an error naming the node:
    /// an id out of range, a child count its cut does not produce, or a
    /// child that does not come after its parent.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Iterate over the ids of all current leaf nodes.
    pub fn leaf_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].is_leaf())
    }

    /// Iterate over the ids of all internal (expanded) nodes.
    pub fn internal_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).filter(|&i| !self.nodes[i].is_leaf())
    }

    /// True when the node holds at most `binth` rules (the standard
    /// leaf-termination condition in all the cutting papers).
    pub fn is_terminal(&self, id: NodeId, binth: usize) -> bool {
        self.nodes[id].span.len <= binth
    }

    /// Clip `(lo, hi)` to `s` with the same anchoring as
    /// [`DimRange::intersect`] (empty results collapse to `max(lo)`).
    #[inline]
    fn clip_proj((lo, hi): (u64, u64), s: &DimRange) -> (u64, u64) {
        let l = lo.max(s.lo);
        let h = hi.min(s.hi).max(l);
        (l, h)
    }

    /// Compute the per-dimension separability mask of a node: bit `d`
    /// set when [`Self::dim_separable`] holds for dimension `d`. One
    /// pass over the node's rules covers all five dimensions, with an
    /// early exit once every cuttable dimension is known separable.
    fn compute_separability(&self, id: NodeId) -> u8 {
        let node = &self.nodes[id];
        let mut pending = 0u8;
        for (d, r) in node.space.ranges.iter().enumerate() {
            if r.len() >= 2 {
                pending |= 1 << d;
            }
        }
        if pending == 0 {
            return 0;
        }
        let mut mask = 0u8;
        let mut heads = [(0u64, 0u64); NUM_DIMS];
        let mut have_head = false;
        for &r in self.span_slice(node.span) {
            if !self.active[r] {
                continue;
            }
            if !have_head {
                for (d, h) in heads.iter_mut().enumerate() {
                    *h = Self::clip_proj(self.store.proj(d, r), &node.space.ranges[d]);
                }
                have_head = true;
                continue;
            }
            let mut p = pending;
            while p != 0 {
                let d = p.trailing_zeros() as usize;
                p &= p - 1;
                if Self::clip_proj(self.store.proj(d, r), &node.space.ranges[d]) != heads[d] {
                    mask |= 1 << d;
                    pending &= !(1 << d);
                }
            }
            if pending == 0 {
                break;
            }
        }
        mask
    }

    /// The node's per-dimension separability as a 5-bit mask (bit `d`
    /// set ⇔ [`Self::dim_separable`] for dimension `d`), **memoized**:
    /// computed at most once per node in a single pass over its rules
    /// and invalidated by any mutation of the node's rule list
    /// (truncation, leaf insertion/removal, rule deletion). The episode
    /// hot loop asks once per visited node; the cache makes repeat
    /// queries (progress checks, builders revisiting) free.
    pub fn separability_mask(&mut self, id: NodeId) -> u8 {
        let cached = self.sep_cache[id];
        if cached & SEP_COMPUTED != 0 {
            return cached & !SEP_COMPUTED;
        }
        let mask = self.compute_separability(id);
        self.sep_cache[id] = mask | SEP_COMPUTED;
        mask
    }

    /// True when cutting `dim` could still separate the node's rules:
    /// the node's range in `dim` can be cut (length ≥ 2) and at least
    /// two active rules have different projections onto it (clipped to
    /// the node's space). Cutting a non-separable dimension replicates
    /// every rule into some child for no discrimination gain.
    pub fn dim_separable(&self, id: NodeId, dim: Dim) -> bool {
        if self.sep_cache[id] & SEP_COMPUTED != 0 {
            return self.sep_cache[id] & (1 << dim.index()) != 0;
        }
        self.compute_separability(id) & (1 << dim.index()) != 0
    }

    /// True when some cut could still separate the node's rules (see
    /// [`Self::dim_separable`]). When false, no sequence of cuts can
    /// ever shrink the rule list — every tree builder must treat the
    /// node as terminal or recurse forever.
    pub fn is_separable(&self, id: NodeId) -> bool {
        if self.sep_cache[id] & SEP_COMPUTED != 0 {
            return self.sep_cache[id] & !SEP_COMPUTED != 0;
        }
        self.compute_separability(id) != 0
    }

    /// Rule counts each child of an equal-size cut would receive,
    /// without materialising the children: one pass over the node's
    /// rules, O(rules + overlapped children) instead of the old
    /// per-child rescan. Exactly the counts [`Self::cut_node`] would
    /// assign.
    pub fn cut_child_counts(&self, id: NodeId, dim: Dim, ncuts: usize) -> Vec<usize> {
        let node = &self.nodes[id];
        let range = *node.space.range(dim);
        let step = (range.len() / ncuts as u64).max(1);
        let d = dim.index();
        let space = node.space;
        let mut counts = vec![0usize; ncuts];
        for &r in self.span_slice(node.span) {
            if !self.active[r] || !self.store.intersects(r, &space) {
                continue;
            }
            let (rl, rh) = self.store.proj(d, r);
            let (first, last) = Self::cut_span_of(&range, step, ncuts, rl, rh);
            for c in &mut counts[first..=last] {
                *c += 1;
            }
        }
        counts
    }

    /// Rule counts for a simultaneous multi-dimension cut (HyperCuts),
    /// single-pass like [`Self::cut_child_counts`].
    pub fn multicut_child_counts(&self, id: NodeId, dims: &[(Dim, usize)]) -> Vec<usize> {
        let node = &self.nodes[id];
        let specs: Vec<(usize, DimRange, u64, usize)> = dims
            .iter()
            .map(|&(dim, n)| {
                let range = *node.space.range(dim);
                (dim.index(), range, (range.len() / n as u64).max(1), n)
            })
            .collect();
        let nchildren: usize = dims.iter().map(|&(_, n)| n).product();
        let space = node.space;
        let mut counts = vec![0usize; nchildren];
        for &r in self.span_slice(node.span) {
            if !self.active[r] || !self.store.intersects(r, &space) {
                continue;
            }
            Self::for_each_multi_child(&self.store, &specs, r, |c| counts[c] += 1);
        }
        counts
    }

    /// Rule counts each equi-dense-cut child would receive, single-pass
    /// (EffiCuts' progress probe).
    pub fn dense_child_counts(&self, id: NodeId, dim: Dim, bounds: &[u64]) -> Vec<usize> {
        let node = &self.nodes[id];
        let d = dim.index();
        let nchildren = bounds.len() - 1;
        let space = node.space;
        let mut counts = vec![0usize; nchildren];
        for &r in self.span_slice(node.span) {
            if !self.active[r] || !self.store.intersects(r, &space) {
                continue;
            }
            let (rl, rh) = self.store.proj(d, r);
            let first = bounds[1..].partition_point(|&b| b <= rl).min(nchildren - 1);
            let last = bounds[..nchildren].partition_point(|&b| b < rh).saturating_sub(1);
            for c in &mut counts[first..=last] {
                *c += 1;
            }
        }
        counts
    }

    /// True when cutting would make progress: at least one child would
    /// hold strictly fewer rules than the node. Builders use this to
    /// avoid infinite recursion when every rule spans the whole node.
    pub fn cut_makes_progress(&self, id: NodeId, dim: Dim, ncuts: usize) -> bool {
        let n = self.nodes[id].span.len;
        self.cut_child_counts(id, dim, ncuts).iter().any(|&c| c < n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{generate_rules, ClassifierFamily, DimRange, GeneratorConfig};

    fn small_rules() -> RuleSet {
        let mut r_tcp = Rule::default_rule(2);
        r_tcp.ranges[Dim::Proto.index()] = DimRange::exact(6);
        let mut r_low = Rule::default_rule(1);
        r_low.ranges[Dim::DstPort.index()] = DimRange::new(0, 1024);
        let r_def = Rule::default_rule(0);
        RuleSet::new(vec![r_tcp, r_low, r_def])
    }

    #[test]
    fn fresh_tree_is_single_leaf_with_all_rules() {
        let rs = small_rules();
        let t = DecisionTree::new(&rs);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.rules_at(t.root()), &[0, 1, 2][..]);
        assert_eq!(t.num_active_rules(), 3);
        assert!(t.node(t.root()).is_leaf());
    }

    #[test]
    fn shared_store_trees_do_not_clone_rules() {
        let rs = small_rules();
        let store = Arc::new(RuleStore::from_ruleset(&rs));
        let a = DecisionTree::with_store(Arc::clone(&store));
        let b = DecisionTree::with_store(Arc::clone(&store));
        assert!(Arc::ptr_eq(a.store(), b.store()));
        assert_eq!(a.rules().len(), 3);
        let p = Packet::new(1, 2, 3, 4, 6);
        assert_eq!(a.classify(&p), b.classify(&p));
    }

    #[test]
    fn classify_on_unexpanded_root_equals_linear_scan() {
        let rs = small_rules();
        let t = DecisionTree::new(&rs);
        let p = Packet::new(1, 2, 3, 4, 6);
        assert_eq!(t.classify(&p), Some(0)); // TCP rule
        assert_eq!(t.classify(&p), t.linear_classify(&p));
        let p = Packet::new(1, 2, 3, 500, 17);
        assert_eq!(t.classify(&p), Some(1)); // low dst port
        let p = Packet::new(1, 2, 3, 5000, 17);
        assert_eq!(t.classify(&p), Some(2)); // default
    }

    #[test]
    fn cut_assigns_rules_by_intersection() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        let kids = t.cut_node(t.root(), Dim::DstPort, 4);
        assert_eq!(kids.len(), 4);
        // Child 0 covers dst ports [0, 16384): all three rules intersect.
        assert_eq!(t.rules_at(kids[0]).len(), 3);
        // Children 1..4 exclude [0, 1024): the low-port rule drops out.
        for &k in &kids[1..] {
            assert_eq!(t.rules_at(k), &[0, 2][..]);
            assert_eq!(t.node(k).depth, 1);
            assert_eq!(t.node(k).parent, Some(t.root()));
        }
        // Lookup still agrees with the linear scan.
        let p = Packet::new(0, 0, 0, 800, 17);
        assert_eq!(t.classify(&p), Some(1));
        let p = Packet::new(0, 0, 0, 40000, 6);
        assert_eq!(t.classify(&p), Some(0));
    }

    #[test]
    fn multicut_row_major_lookup() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        let kids = t.multicut_node(t.root(), &[(Dim::DstPort, 2), (Dim::Proto, 2)]);
        assert_eq!(kids.len(), 4);
        // proto=6 < 128 -> inner index 0; dstport 40000 -> outer index 1.
        let p = Packet::new(0, 0, 0, 40000, 6);
        assert_eq!(t.classify(&p), Some(0));
        let p = Packet::new(0, 0, 0, 100, 200);
        assert_eq!(t.classify(&p), Some(1));
    }

    #[test]
    fn dense_cut_routes_by_boundary() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        let kids = t.dense_cut_node(t.root(), Dim::DstPort, vec![0, 1024, 8192, 65536]);
        assert_eq!(kids.len(), 3);
        assert_eq!(t.rules_at(kids[0]), &[0, 1, 2][..]);
        assert_eq!(t.rules_at(kids[1]), &[0, 2][..]);
        assert_eq!(t.classify(&Packet::new(0, 0, 0, 1023, 17)), Some(1));
        assert_eq!(t.classify(&Packet::new(0, 0, 0, 1024, 17)), Some(2));
        assert_eq!(t.classify(&Packet::new(0, 0, 0, 60000, 6)), Some(0));
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn dense_cut_rejects_unsorted_bounds() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        t.dense_cut_node(t.root(), Dim::DstPort, vec![0, 9000, 1024, 65536]);
    }

    #[test]
    fn split_routes_by_threshold() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        let (l, r) = t.split_node(t.root(), Dim::DstPort, 1024);
        assert_eq!(t.rules_at(l), &[0, 1, 2][..]);
        assert_eq!(t.rules_at(r), &[0, 2][..]);
        assert_eq!(t.classify(&Packet::new(0, 0, 0, 1023, 17)), Some(1));
        assert_eq!(t.classify(&Packet::new(0, 0, 0, 1024, 17)), Some(2));
    }

    #[test]
    #[should_panic(expected = "outside open range")]
    fn split_at_boundary_panics() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        t.split_node(t.root(), Dim::DstPort, 0);
    }

    #[test]
    fn partition_searches_all_children() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        let kids = t.partition_node(t.root(), vec![vec![1], vec![0, 2]]);
        assert_eq!(kids.len(), 2);
        // Match in the second partition child, but rule 1 (other child)
        // has higher precedence for low ports.
        assert_eq!(t.classify(&Packet::new(0, 0, 0, 100, 6)), Some(0));
        assert_eq!(t.classify(&Packet::new(0, 0, 0, 100, 17)), Some(1));
        assert_eq!(t.classify(&Packet::new(0, 0, 0, 9999, 17)), Some(2));
    }

    // The cover check is a `debug_assert!` (partitioning is a training
    // hot path), so only debug builds panic.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exactly cover")]
    fn partition_must_cover_rules() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        t.partition_node(t.root(), vec![vec![0], vec![1]]); // missing rule 2
    }

    #[test]
    #[should_panic(expected = "already expanded")]
    fn double_expansion_panics() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        t.cut_node(t.root(), Dim::Proto, 2);
        t.cut_node(t.root(), Dim::Proto, 2);
    }

    #[test]
    fn truncate_covered_drops_unreachable_rules() {
        // Highest-precedence rule covers protocols [0, 128); after
        // cutting proto in two, it fully covers the left child's space,
        // making the two lower-precedence rules unreachable there.
        let mut r_cover = Rule::default_rule(2);
        r_cover.ranges[Dim::Proto.index()] = DimRange::new(0, 128);
        let mut r_low = Rule::default_rule(1);
        r_low.ranges[Dim::DstPort.index()] = DimRange::new(0, 1024);
        let rs = RuleSet::new(vec![r_cover, r_low, Rule::default_rule(0)]);
        let mut t = DecisionTree::new(&rs);
        let kids = t.cut_node(t.root(), Dim::Proto, 2);
        assert_eq!(t.rules_at(kids[0]), &[0, 1, 2][..]);
        let removed = t.truncate_covered(kids[0]);
        assert_eq!(removed, 2);
        assert_eq!(t.rules_at(kids[0]), &[0][..]);
        // Classification through the truncated node is still correct.
        assert_eq!(t.classify(&Packet::new(0, 0, 0, 9999, 6)), Some(0));
        // The untouched right child still resolves to the default rule.
        assert_eq!(t.classify(&Packet::new(0, 0, 0, 9999, 200)), Some(2));
    }

    #[test]
    fn cut_makes_progress_detection() {
        let rs = small_rules();
        let t = DecisionTree::new(&rs);
        // All three rules are full-width in SrcIp: cutting there cannot
        // separate them.
        assert!(!t.cut_makes_progress(t.root(), Dim::SrcIp, 8));
        // Cutting DstPort separates the low-port rule.
        assert!(t.cut_makes_progress(t.root(), Dim::DstPort, 8));
    }

    #[test]
    fn separability_mask_matches_per_dim_queries_and_memoizes() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 80).with_seed(9));
        let mut t = DecisionTree::new(&rs);
        let kids = t.cut_node(t.root(), Dim::SrcIp, 8);
        for id in std::iter::once(t.root()).chain(kids) {
            let mask = t.separability_mask(id);
            for (d, &dim) in classbench::DIMS.iter().enumerate() {
                assert_eq!(mask & (1 << d) != 0, t.dim_separable(id, dim), "node {id} dim {dim}");
            }
            assert_eq!(mask != 0, t.is_separable(id));
            // Memoized: a second query returns the same mask.
            assert_eq!(t.separability_mask(id), mask);
        }
        // Truncation invalidates the cache.
        let victim = *t.nodes[t.root()].kind.children().first().unwrap();
        let before = t.separability_mask(victim);
        t.truncate_covered(victim);
        let after = t.separability_mask(victim);
        // The fresh mask is recomputed from the (possibly shorter) list
        // and still matches the immutable per-dim queries.
        for (d, &dim) in classbench::DIMS.iter().enumerate() {
            assert_eq!(after & (1 << d) != 0, t.dim_separable(victim, dim));
        }
        let _ = before;
    }

    #[test]
    fn child_counts_match_materialised_children() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 120).with_seed(31));
        for ncuts in [2, 7, 32] {
            let mut t = DecisionTree::new(&rs);
            let sim = t.cut_child_counts(t.root(), Dim::SrcIp, ncuts);
            let kids = t.cut_node(t.root(), Dim::SrcIp, ncuts);
            let real: Vec<usize> = kids.iter().map(|&k| t.rules_at(k).len()).collect();
            assert_eq!(sim, real, "ncuts {ncuts}");
        }
        let mut t = DecisionTree::new(&rs);
        let dims = [(Dim::SrcIp, 4), (Dim::DstIp, 2), (Dim::Proto, 2)];
        let sim = t.multicut_child_counts(t.root(), &dims);
        let kids = t.multicut_node(t.root(), &dims);
        let real: Vec<usize> = kids.iter().map(|&k| t.rules_at(k).len()).collect();
        assert_eq!(sim, real);
        let mut t = DecisionTree::new(&rs);
        let bounds = vec![0, 1 << 8, 1 << 20, 1 << 30, 1 << 32];
        let sim = t.dense_child_counts(t.root(), Dim::DstIp, &bounds);
        let kids = t.dense_cut_node(t.root(), Dim::DstIp, bounds);
        let real: Vec<usize> = kids.iter().map(|&k| t.rules_at(k).len()).collect();
        assert_eq!(sim, real);
    }

    #[test]
    fn degenerate_tiny_range_cut_matches_reference_filter() {
        // A 2-wide proto range cut into 8 produces six empty trailing
        // children anchored at the range top; the half-open overlap
        // predicate still assigns wide rules to them. The single-pass
        // assignment must reproduce that exactly.
        let mut narrow = Rule::default_rule(1);
        narrow.ranges[Dim::Proto.index()] = DimRange::new(5, 7);
        let rs = RuleSet::new(vec![narrow, Rule::default_rule(0)]);
        let mut t = DecisionTree::new(&rs);
        // Shrink the root range to [5, 7) via a split, then cut into 8.
        let (_, r) = t.split_node(t.root(), Dim::Proto, 5);
        let (mid, _) = t.split_node(r, Dim::Proto, 7);
        let kids = t.cut_node(mid, Dim::Proto, 8);
        assert_eq!(kids.len(), 8);
        for &k in &kids {
            let space = t.node(k).space;
            let reference: Vec<RuleId> = t
                .rules_at(mid)
                .iter()
                .copied()
                .filter(|&r| t.is_active(r) && space.intersects_rule(t.rule(r)))
                .collect();
            assert_eq!(t.rules_at(k), &reference[..], "child {k} space {space}");
        }
    }

    #[test]
    fn generated_rules_classify_consistently() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 200).with_seed(3));
        let mut t = DecisionTree::new(&rs);
        let kids = t.cut_node(t.root(), Dim::SrcIp, 16);
        for k in kids {
            if !t.is_terminal(k, 8) {
                t.cut_node(k, Dim::DstIp, 4);
            }
        }
        let trace = classbench::generate_trace(&rs, &classbench::TraceConfig::new(300));
        for p in &trace {
            assert_eq!(t.classify(p), rs.classify(p), "packet {p}");
        }
    }

    #[test]
    fn classify_traced_counts_path_nodes() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        let kids = t.cut_node(t.root(), Dim::DstPort, 4);
        t.cut_node(kids[0], Dim::Proto, 2);
        // Path through the expanded child: root + cut child + leaf = 3.
        let (r, visited) = t.classify_traced(&Packet::new(0, 0, 0, 100, 6));
        assert_eq!(r, Some(0));
        assert_eq!(visited, 3);
        // Path through an unexpanded child: root + leaf = 2.
        let (_, visited) = t.classify_traced(&Packet::new(0, 0, 0, 50000, 6));
        assert_eq!(visited, 2);
        // classify_traced agrees with classify.
        let p = Packet::new(0, 0, 0, 500, 17);
        assert_eq!(t.classify_traced(&p).0, t.classify(&p));
    }

    #[test]
    fn classify_traced_counts_all_partitions() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        t.partition_node(t.root(), vec![vec![0], vec![1, 2]]);
        // Root + both partition children are always consulted.
        let (_, visited) = t.classify_traced(&Packet::new(0, 0, 0, 0, 6));
        assert_eq!(visited, 3);
    }

    #[test]
    fn visit_counts_route_like_lookup() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        let kids = t.cut_node(t.root(), Dim::DstPort, 2);
        let trace = vec![
            Packet::new(0, 0, 0, 100, 6),   // low half
            Packet::new(0, 0, 0, 200, 17),  // low half
            Packet::new(0, 0, 0, 60000, 6), // high half
        ];
        let counts = t.node_visit_counts(&trace);
        assert_eq!(counts[t.root()], 3);
        assert_eq!(counts[kids[0]], 2);
        assert_eq!(counts[kids[1]], 1);
        // Totals match per-packet traced costs.
        let total: usize = counts.iter().sum();
        let traced: usize = trace.iter().map(|p| t.classify_traced(p).1).sum();
        assert_eq!(total, traced);
    }

    #[test]
    fn leaf_and_internal_iterators() {
        let rs = small_rules();
        let mut t = DecisionTree::new(&rs);
        t.cut_node(t.root(), Dim::Proto, 2);
        assert_eq!(t.leaf_ids().count(), 2);
        assert_eq!(t.internal_ids().count(), 1);
        assert_eq!(t.num_nodes(), 3);
    }
}
