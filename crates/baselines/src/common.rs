//! Shared helpers for the baseline tree builders: node-local statistics
//! (distinct ranges, endpoints) and the build limits.

use classbench::{Dim, DIMS};
use dtree::{DecisionTree, NodeId};

/// Safety limits: every recursion stops at `binth` rules, `max_depth`
/// levels, or `max_nodes` total nodes, whichever comes first. The
/// depth and node caps exist so that adversarial inputs degrade to
/// larger leaves instead of runaway trees.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Terminal leaf threshold (rules per leaf).
    pub(crate) binth: usize,
    /// Maximum node depth.
    pub(crate) max_depth: usize,
    /// Maximum total nodes in the tree.
    pub(crate) max_nodes: usize,
}

/// The limits of HiCuts, HyperCuts and EffiCuts: 16 rules per leaf,
/// depth 100, 2M nodes.
pub(crate) const LIMITS: Limits = Limits { binth: 16, max_depth: 100, max_nodes: 2_000_000 };

/// The limits of HyperSplit and CutSplit: as [`LIMITS`], but binary
/// splits get depth 200.
pub(crate) const SPLIT_LIMITS: Limits = Limits { max_depth: 200, ..LIMITS };

impl Limits {
    /// True when the node must become a leaf under these limits.
    pub(crate) fn must_stop(&self, tree: &DecisionTree, id: NodeId) -> bool {
        tree.is_terminal(id, self.binth)
            || tree.node(id).depth >= self.max_depth
            || tree.num_nodes() >= self.max_nodes
    }
}

/// Number of distinct rule projections (clipped to the node's range) in
/// `dim` — HiCuts' classic dimension-choice statistic: more distinct
/// ranges means cutting this dimension discriminates more rules.
pub fn distinct_ranges(tree: &DecisionTree, id: NodeId, dim: Dim) -> usize {
    let node = tree.node(id);
    let space = node.space.range(dim);
    let mut ranges: Vec<(u64, u64)> = tree
        .rules_at(id)
        .iter()
        .filter(|&&r| tree.is_active(r))
        .map(|&r| {
            let clipped = tree.rule(r).range(dim).intersect(space);
            (clipped.lo, clipped.hi)
        })
        .collect();
    ranges.sort_unstable();
    ranges.dedup();
    ranges.len()
}

/// Sorted, deduplicated rule-range endpoints strictly inside the node's
/// range in `dim` — the candidate split thresholds for HyperSplit and
/// the candidate boundaries for equi-dense cuts.
pub fn interior_endpoints(tree: &DecisionTree, id: NodeId, dim: Dim) -> Vec<u64> {
    let node = tree.node(id);
    let space = node.space.range(dim);
    let mut points: Vec<u64> = Vec::with_capacity(node.num_rules() * 2);
    for &r in tree.rules_at(id) {
        if !tree.is_active(r) {
            continue;
        }
        let clipped = tree.rule(r).range(dim).intersect(space);
        if clipped.is_empty() {
            continue;
        }
        if clipped.lo > space.lo {
            points.push(clipped.lo);
        }
        if clipped.hi < space.hi {
            points.push(clipped.hi);
        }
    }
    points.sort_unstable();
    points.dedup();
    points
}

/// Dimensions ordered by decreasing distinct-range count; dimensions
/// whose node range cannot be cut (length < 2) are excluded.
pub fn dims_by_distinct_ranges(tree: &DecisionTree, id: NodeId) -> Vec<(Dim, usize)> {
    let node = tree.node(id);
    let mut out: Vec<(Dim, usize)> = DIMS
        .iter()
        .filter(|&&d| node.space.range(d).len() >= 2)
        .map(|&d| (d, distinct_ranges(tree, id, d)))
        .collect();
    out.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{DimRange, Rule, RuleSet};

    fn tree() -> DecisionTree {
        let mut a = Rule::default_rule(3);
        a.ranges[Dim::DstPort.index()] = DimRange::new(0, 1024);
        let mut b = Rule::default_rule(2);
        b.ranges[Dim::DstPort.index()] = DimRange::new(512, 2048);
        let mut c = Rule::default_rule(1);
        c.ranges[Dim::Proto.index()] = DimRange::exact(6);
        let rs = RuleSet::new(vec![a, b, c, Rule::default_rule(0)]);
        DecisionTree::new(&rs)
    }

    #[test]
    fn distinct_ranges_counts_projections() {
        let t = tree();
        // DstPort projections: [0,1024), [512,2048), full, full -> 3 distinct.
        assert_eq!(distinct_ranges(&t, t.root(), Dim::DstPort), 3);
        // Proto: exact(6), full x3 -> 2 distinct.
        assert_eq!(distinct_ranges(&t, t.root(), Dim::Proto), 2);
        // SrcIp: all full -> 1.
        assert_eq!(distinct_ranges(&t, t.root(), Dim::SrcIp), 1);
    }

    #[test]
    fn interior_endpoints_excludes_space_bounds() {
        let t = tree();
        assert_eq!(interior_endpoints(&t, t.root(), Dim::DstPort), vec![512, 1024, 2048]);
        assert_eq!(interior_endpoints(&t, t.root(), Dim::Proto), vec![6, 7]);
        assert!(interior_endpoints(&t, t.root(), Dim::SrcIp).is_empty());
    }

    // The builders price a cut by the counts `cut_child_counts` simulates
    // without materialising children; they must equal the real cut's.
    #[test]
    fn simulate_cut_matches_real_cut() {
        let mut t = tree();
        let sim = t.cut_child_counts(t.root(), &[(Dim::DstPort, 4)]);
        let kids = t.cut_node(t.root(), Dim::DstPort, 4);
        let real: Vec<usize> = kids.iter().map(|&k| t.node(k).num_rules()).collect();
        assert_eq!(sim, real);
    }

    #[test]
    fn simulate_multicut_matches_real() {
        let mut t = tree();
        let dims = [(Dim::DstPort, 2), (Dim::Proto, 2)];
        let sim = t.cut_child_counts(t.root(), &dims);
        let kids = t.multicut_node(t.root(), &dims);
        let real: Vec<usize> = kids.iter().map(|&k| t.node(k).num_rules()).collect();
        assert_eq!(sim, real);
    }

    #[test]
    fn dims_ordered_by_discrimination() {
        let t = tree();
        let order = dims_by_distinct_ranges(&t, t.root());
        assert_eq!(order[0].0, Dim::DstPort);
        assert_eq!(order[0].1, 3);
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn build_limits_stop_conditions() {
        let t = tree();
        let tight = Limits { binth: 10, ..LIMITS };
        assert!(tight.must_stop(&t, t.root())); // 4 rules <= 10
        let loose = Limits { binth: 2, max_depth: 0, ..LIMITS };
        assert!(loose.must_stop(&t, t.root())); // depth 0 >= 0
        let nodes = Limits { binth: 2, max_depth: 100, max_nodes: 1 };
        assert!(nodes.must_stop(&t, t.root())); // already 1 node
    }
}
