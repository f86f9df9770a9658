//! The cost model every tree in the workspace is scored by: worst-case
//! classification time and bytes, per the paper's recursion (Eqs. 1–4).
//!
//! For a node `n` with per-node access cost `t_n = 1` and byte cost
//! `s_n`:
//!
//! * cut/split node:  `T_n = 1 + max_i T_i`, `S_n = s_n + Σ_i S_i`  (Eq. 1, 2)
//! * partition node:  `T_n = 1 + Σ_i T_i`,  `S_n = s_n + Σ_i S_i`  (Eq. 3, 4)
//! * leaf:            `T_n = 1`,            `S_n = s_n`
//!
//! `T_root` is the metric plotted as *classification time* in Figures 8,
//! 10 and 11 — for non-partitioned trees it is simply the tree depth.
//!
//! The byte costs `s_n` are constants, the same for every algorithm, so
//! ratios between algorithms are meaningful even though absolute bytes
//! differ from the authors' C++ structures. They follow the
//! HyperCuts/EffiCuts conventions: an interior node costs
//! [`NODE_HEADER_BYTES`] plus [`CHILD_PTR_BYTES`] per child (plus
//! [`DENSE_BOUND_BYTES`] per interior boundary of an equi-dense cut); a
//! leaf costs the header plus [`LEAF_RULE_REF_BYTES`] per stored rule, so
//! rule replication is charged at every leaf a rule reaches; and each
//! active rule costs [`RULE_TABLE_ENTRY_BYTES`] once, in the rule table
//! the whole classifier shares.
//!
//! [`subtree_metrics`] computes `T` and `S` for every node in one
//! reverse pass. [`TreeStats::compute`] reads its root entry and the
//! NeuroCuts environment reads it per node for its rewards (Eq. 5). The
//! recursive [`subtree_time`] and [`subtree_bytes`] restate Eqs. 1–4
//! directly and serve as the reference the tests check the pass against.

use crate::node::{NodeId, NodeKind};
use crate::tree::DecisionTree;
use serde::{Deserialize, Serialize};

/// Fixed bytes of every node (kind tag, bounds, counts).
pub const NODE_HEADER_BYTES: usize = 16;
/// Bytes of one child pointer at an interior node.
pub const CHILD_PTR_BYTES: usize = 4;
/// Bytes of one rule reference at a leaf (rule pointer + priority cache).
pub const LEAF_RULE_REF_BYTES: usize = 8;
/// Bytes of one rule in the shared rule table: two bounds of
/// 4+4+2+2+1 bytes, padded, plus the priority.
pub const RULE_TABLE_ENTRY_BYTES: usize = 36;
/// Bytes of one interior boundary an equi-dense cut stores.
pub const DENSE_BOUND_BYTES: usize = 4;

/// Summary statistics of a built tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeStats {
    /// Worst-case classification time `T_root` (Eqs. 1/3).
    pub time: usize,
    /// Total bytes: every node plus the shared rule table.
    pub bytes: usize,
    /// Bytes per active rule (the paper's space metric).
    pub bytes_per_rule: f64,
    /// Number of nodes in the tree.
    pub nodes: usize,
    /// Number of leaves.
    pub leaves: usize,
    /// Maximum node depth (levels below the root).
    pub max_depth: usize,
    /// Total leaf rule references divided by active rules — the rule
    /// replication factor the partition heuristics fight.
    pub replication: f64,
    /// Largest number of rules stored in any leaf.
    pub largest_leaf: usize,
}

/// Bytes charged to one node, excluding the shared rule table. Rules
/// listed at an interior node are not charged: they live in its
/// children.
fn node_bytes(kind: &NodeKind, num_rules: usize) -> usize {
    NODE_HEADER_BYTES
        + match kind {
            NodeKind::Leaf => LEAF_RULE_REF_BYTES * num_rules,
            NodeKind::DenseCut { bounds, children, .. } => {
                CHILD_PTR_BYTES * children.len()
                    + DENSE_BOUND_BYTES * bounds.len().saturating_sub(2)
            }
            other => CHILD_PTR_BYTES * other.children().len(),
        }
}

/// Per-node `(Time, Space)` of every subtree, computed in one reverse
/// pass over the arena: children always come after their parent (the
/// expansions append them, and [`DecisionTree::from_json`] refuses a
/// tree where they do not), so reverse id order is a valid post-order.
///
/// `Space` is the structural bytes of the subtree (Algorithm 1's
/// `Space(s)`), excluding the rule table the whole classifier shares.
pub fn subtree_metrics(tree: &DecisionTree) -> (Vec<usize>, Vec<usize>) {
    let n = tree.num_nodes();
    let mut time = vec![0usize; n];
    let mut bytes = vec![0usize; n];
    for id in (0..n).rev() {
        let node = tree.node(id);
        let kids = node.kind.children();
        let kid_times = kids.iter().map(|&c| time[c]);
        time[id] = 1 + if node.kind.is_partition() {
            kid_times.sum::<usize>()
        } else {
            kid_times.max().unwrap_or(0)
        };
        bytes[id] = node_bytes(&node.kind, node.num_rules())
            + kids.iter().map(|&c| bytes[c]).sum::<usize>();
    }
    (time, bytes)
}

/// Worst-case classification time of the subtree rooted at `id`
/// (`Time(s)` in Algorithm 1), by direct recursion: the reference
/// [`subtree_metrics`] is tested against.
pub fn subtree_time(tree: &DecisionTree, id: NodeId) -> usize {
    let node = tree.node(id);
    match &node.kind {
        NodeKind::Leaf => 1,
        NodeKind::Partition { children } => {
            1 + children.iter().map(|&c| subtree_time(tree, c)).sum::<usize>()
        }
        other => 1 + other.children().iter().map(|&c| subtree_time(tree, c)).max().unwrap_or(0),
    }
}

/// Bytes of the subtree rooted at `id` (`Space(s)` in Algorithm 1),
/// excluding the shared rule table, by direct recursion: the reference
/// [`subtree_metrics`] is tested against.
pub fn subtree_bytes(tree: &DecisionTree, id: NodeId) -> usize {
    let node = tree.node(id);
    let own = node_bytes(&node.kind, node.num_rules());
    own + node.kind.children().iter().map(|&c| subtree_bytes(tree, c)).sum::<usize>()
}

/// Average lookup cost (nodes visited) over a packet trace — the
/// traffic-aware classification-time metric of the paper's conclusion
/// (§8: optimising for a specific traffic pattern rather than the worst
/// case). Returns 0 for an empty trace.
pub fn average_lookup_cost(tree: &DecisionTree, trace: &[classbench::Packet]) -> f64 {
    if trace.is_empty() {
        return 0.0;
    }
    let total: usize = trace.iter().map(|p| tree.classify_traced(p).1).sum();
    total as f64 / trace.len() as f64
}

impl TreeStats {
    /// Compute all statistics for a tree.
    pub fn compute(tree: &DecisionTree) -> TreeStats {
        let (time, bytes) = subtree_metrics(tree);
        let time = time[tree.root()];
        let bytes = bytes[tree.root()] + RULE_TABLE_ENTRY_BYTES * tree.num_active_rules();
        let mut leaves = 0usize;
        let mut max_depth = 0usize;
        let mut leaf_rule_refs = 0usize;
        let mut largest_leaf = 0usize;
        for node in tree.nodes() {
            max_depth = max_depth.max(node.depth);
            if node.is_leaf() {
                leaves += 1;
                leaf_rule_refs += node.num_rules();
                largest_leaf = largest_leaf.max(node.num_rules());
            }
        }
        let active = tree.num_active_rules().max(1);
        TreeStats {
            time,
            bytes,
            bytes_per_rule: bytes as f64 / active as f64,
            nodes: tree.num_nodes(),
            leaves,
            max_depth,
            replication: leaf_rule_refs as f64 / active as f64,
            largest_leaf,
        }
    }
}

impl std::fmt::Display for TreeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "time={} bytes/rule={:.1} nodes={} leaves={} depth={} replication={:.2}x largest_leaf={}",
            self.time,
            self.bytes_per_rule,
            self.nodes,
            self.leaves,
            self.max_depth,
            self.replication,
            self.largest_leaf
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{Dim, DimRange, Rule, RuleSet};

    fn rules() -> RuleSet {
        let mut a = Rule::default_rule(2);
        a.ranges[Dim::Proto.index()] = DimRange::exact(6);
        let mut b = Rule::default_rule(1);
        b.ranges[Dim::DstPort.index()] = DimRange::new(0, 1024);
        RuleSet::new(vec![a, b, Rule::default_rule(0)])
    }

    #[test]
    fn single_leaf_has_time_one() {
        let t = DecisionTree::new(&rules());
        let s = TreeStats::compute(&t);
        assert_eq!(s.time, 1);
        assert_eq!(s.nodes, 1);
        assert_eq!(s.leaves, 1);
        assert_eq!(s.max_depth, 0);
        assert_eq!(s.largest_leaf, 3);
        assert!((s.replication - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cut_time_is_one_plus_max_child() {
        let mut t = DecisionTree::new(&rules());
        let kids = t.cut_node(t.root(), Dim::DstPort, 4);
        assert_eq!(subtree_time(&t, t.root()), 2);
        // Expand one child further: the max branch dominates.
        t.cut_node(kids[0], Dim::Proto, 2);
        assert_eq!(subtree_time(&t, t.root()), 3);
        let s = TreeStats::compute(&t);
        assert_eq!(s.time, 3);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.leaves, 5);
    }

    #[test]
    fn partition_time_is_one_plus_sum() {
        let mut t = DecisionTree::new(&rules());
        let kids = t.partition_node(t.root(), vec![vec![0], vec![1, 2]]);
        // Both children are leaves (T=1 each): root T = 1 + 1 + 1 = 3.
        assert_eq!(subtree_time(&t, t.root()), 3);
        // Expanding one partition child adds to the sum.
        t.cut_node(kids[1], Dim::DstPort, 2);
        assert_eq!(subtree_time(&t, t.root()), 4);
    }

    #[test]
    fn subtree_bytes_match_model_totals() {
        let mut t = DecisionTree::new(&rules());
        t.cut_node(t.root(), Dim::Proto, 2);
        let s = TreeStats::compute(&t);
        assert_eq!(s.bytes, subtree_bytes(&t, t.root()) + 3 * RULE_TABLE_ENTRY_BYTES);
        // Root: header + 2 pointers; two leaves: header + their refs.
        let refs: usize = t.leaf_ids().map(|id| t.node(id).num_rules()).sum();
        assert_eq!(s.bytes, (16 + 2 * 4) + 2 * 16 + 8 * refs + 3 * 36);
    }

    #[test]
    fn metrics_match_recursive_reference() {
        let mut t = DecisionTree::new(&rules());
        let kids = t.cut_node(t.root(), Dim::DstPort, 4);
        t.cut_node(kids[0], Dim::Proto, 2);
        let part_kids = t.partition_node(kids[1], vec![vec![0], vec![2]]);
        t.cut_node(part_kids[0], Dim::SrcIp, 2);
        let (time, bytes) = subtree_metrics(&t);
        for id in 0..t.num_nodes() {
            assert_eq!(time[id], subtree_time(&t, id), "time at node {id}");
            assert_eq!(bytes[id], subtree_bytes(&t, id), "bytes at node {id}");
        }
    }

    fn three_wildcards() -> DecisionTree {
        DecisionTree::new(&RuleSet::from_ordered(vec![Rule::default_rule(0); 3]))
    }

    #[test]
    fn leaf_cost_scales_with_rules() {
        assert_eq!(node_bytes(&NodeKind::Leaf, 0), 16);
        assert_eq!(node_bytes(&NodeKind::Leaf, 10), 16 + 80);
    }

    #[test]
    fn internal_cost_scales_with_children() {
        let kind = NodeKind::Cut { dim: Dim::SrcIp, ncuts: 32, children: (0..32).collect() };
        // Rules listed at internal nodes are not charged: they live in
        // the children after expansion.
        assert_eq!(node_bytes(&kind, 99), 16 + 32 * 4);
        // An equi-dense cut also stores its interior boundaries.
        let dense = NodeKind::DenseCut {
            dim: Dim::SrcIp,
            bounds: vec![0, 5, 9, 20],
            children: vec![1, 2, 3],
        };
        assert_eq!(node_bytes(&dense, 99), 16 + 3 * 4 + 2 * 4);
    }

    #[test]
    fn tree_bytes_single_leaf() {
        let s = TreeStats::compute(&three_wildcards());
        // One leaf with 3 rules + 3 rule-table entries.
        assert_eq!(s.bytes, 16 + 3 * 8 + 3 * 36);
        assert!((s.bytes_per_rule - (16.0 + 24.0 + 108.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn replication_is_charged_per_leaf() {
        let mut t = three_wildcards();
        let before = TreeStats::compute(&t).bytes;
        // All rules are full wildcards: a cut replicates every rule into
        // both children, adding a whole extra leaf's worth of refs.
        t.cut_node(t.root(), Dim::SrcIp, 2);
        let after = TreeStats::compute(&t).bytes;
        // Root became internal (16 + 2*4), two leaves of 3 rules each.
        assert_eq!(after, (16 + 8) + 2 * (16 + 24) + 3 * 36);
        assert!(after > before);
    }

    #[test]
    fn bytes_per_rule_guard_against_empty() {
        let t = DecisionTree::new(&RuleSet::from_ordered(vec![]));
        assert!(TreeStats::compute(&t).bytes_per_rule.is_finite());
    }

    #[test]
    fn replication_counts_leaf_refs() {
        let mut t = DecisionTree::new(&rules());
        // Cutting SrcIp replicates all (wildcard-in-SrcIp) rules into
        // both children: replication 2x.
        t.cut_node(t.root(), Dim::SrcIp, 2);
        let s = TreeStats::compute(&t);
        assert!((s.replication - 2.0).abs() < 1e-9);
    }

    #[test]
    fn average_cost_bounded_by_worst_case() {
        let mut t = DecisionTree::new(&rules());
        let kids = t.cut_node(t.root(), Dim::DstPort, 4);
        t.cut_node(kids[0], Dim::Proto, 2);
        let trace: Vec<classbench::Packet> =
            (0..64).map(|i| classbench::Packet::new(0, 0, 0, i * 1024, i % 256)).collect();
        let avg = average_lookup_cost(&t, &trace);
        let worst = TreeStats::compute(&t).time as f64;
        assert!(avg >= 1.0);
        assert!(avg <= worst, "avg {avg} > worst {worst}");
        // Empty trace is well-defined.
        assert_eq!(average_lookup_cost(&t, &[]), 0.0);
    }

    #[test]
    fn display_mentions_key_fields() {
        let t = DecisionTree::new(&rules());
        let s = TreeStats::compute(&t).to_string();
        assert!(s.contains("time=1"));
        assert!(s.contains("bytes/rule="));
    }
}
