//! HyperSplit: balanced rule-boundary splits (Qi et al., INFOCOM 2009).
//!
//! Instead of equal-size cuts, HyperSplit picks a rule-range endpoint as
//! a binary split threshold, choosing the dimension/threshold pair that
//! most evenly balances the rules across the two children; at most
//! [`MAX_CANDIDATES`] thresholds are tried per dimension. Binary splits
//! give logarithmic-ish depth with far less rule replication than wide
//! equal cuts — the memory-friendly end of the design space, and the
//! post-processing stage CutSplit applies inside its partitions.
//! Recursion stops at 16 rules per leaf, depth 200 or 2M nodes.

use crate::common::{interior_endpoints, SPLIT_LIMITS};
use classbench::{Dim, RuleSet, DIMS};
use dtree::{DecisionTree, NodeId};

/// At most this many candidate thresholds are evaluated per dimension
/// (evenly sampled from the endpoint list) to bound the per-node work
/// on large nodes.
pub const MAX_CANDIDATES: usize = 32;

/// Score of a split: `(max(left, right), left + right)` — primary
/// balance, secondary total replication. Lower is better.
type Score = (usize, usize);

fn split_score(tree: &DecisionTree, id: NodeId, dim: Dim, threshold: u64) -> Score {
    let node = tree.node(id);
    let (ls, rs) = node.space.split(dim, threshold);
    let mut left = 0usize;
    let mut right = 0usize;
    for &r in tree.rules_at(id) {
        if !tree.is_active(r) {
            continue;
        }
        let rule = tree.rule(r);
        if ls.intersects_rule(rule) {
            left += 1;
        }
        if rs.intersects_rule(rule) {
            right += 1;
        }
    }
    (left.max(right), left + right)
}

/// Best `(dim, threshold)` for a node, or `None` when no endpoint-based
/// split makes progress.
fn choose_split(tree: &DecisionTree, id: NodeId) -> Option<(Dim, u64)> {
    let n = tree.node(id).num_rules();
    let mut best: Option<(Score, Dim, u64)> = None;
    for &dim in &DIMS {
        let endpoints = interior_endpoints(tree, id, dim);
        if endpoints.is_empty() {
            continue;
        }
        // Evenly sample candidates when there are too many endpoints.
        let step = endpoints.len().div_ceil(MAX_CANDIDATES);
        for t in endpoints.iter().step_by(step.max(1)) {
            let score = split_score(tree, id, dim, *t);
            if score.0 >= n {
                continue; // no progress: one side keeps every rule
            }
            if best.as_ref().is_none_or(|(s, _, _)| score < *s) {
                best = Some((score, dim, *t));
            }
        }
    }
    best.map(|(_, d, t)| (d, t))
}

/// Build a HyperSplit tree for `rules`.
pub fn build_hypersplit(rules: &RuleSet) -> DecisionTree {
    let mut tree = DecisionTree::new(rules);
    let mut stack = vec![tree.root()];
    split_subtrees(&mut tree, &mut stack);
    tree
}

/// Drive HyperSplit recursion over the given work stack; exposed so
/// CutSplit can run the same post-splitting over its pre-cut leaves.
pub(crate) fn split_subtrees(tree: &mut DecisionTree, stack: &mut Vec<NodeId>) {
    while let Some(id) = stack.pop() {
        if SPLIT_LIMITS.must_stop(tree, id) {
            continue;
        }
        if let Some((dim, threshold)) = choose_split(tree, id) {
            let (l, r) = tree.split_node(id, dim, threshold);
            tree.truncate_covered(l);
            tree.truncate_covered(r);
            stack.push(l);
            stack.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{generate_rules, ClassifierFamily, GeneratorConfig};
    use dtree::{validate::assert_tree_valid, NodeKind, TreeStats};

    #[test]
    fn builds_valid_trees_for_all_families() {
        for fam in ClassifierFamily::ALL {
            let rs = generate_rules(&GeneratorConfig::new(fam, 300).with_seed(31));
            let tree = build_hypersplit(&rs);
            assert_tree_valid(&tree, 400, 32);
        }
    }

    #[test]
    fn only_binary_splits_are_used() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 200).with_seed(33));
        let tree = build_hypersplit(&rs);
        for n in tree.nodes() {
            assert!(
                matches!(n.kind, NodeKind::Leaf | NodeKind::Split { .. }),
                "unexpected kind {:?}",
                n.kind
            );
        }
    }

    #[test]
    fn less_replication_than_hicuts() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 400).with_seed(34));
        let hs = TreeStats::compute(&build_hypersplit(&rs));
        let hc = TreeStats::compute(&crate::hicuts::build_hicuts(&rs));
        // HyperSplit's raison d'être: balanced splits replicate less on
        // wildcard-heavy (FW) rule sets.
        assert!(hs.bytes_per_rule <= hc.bytes_per_rule * 1.5, "hypersplit {hs} vs hicuts {hc}");
    }

    #[test]
    fn splits_balance_children() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 300).with_seed(35));
        let tree = build_hypersplit(&rs);
        // Spot-check the root split: neither child should hold everything.
        if let NodeKind::Split { children, .. } = &tree.node(tree.root()).kind {
            let total = tree.node(tree.root()).num_rules();
            for &c in children.iter() {
                assert!(tree.node(c).num_rules() < total);
            }
        } else {
            panic!("root should have been split");
        }
    }

    #[test]
    fn trace_agreement() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 250).with_seed(36));
        let tree = build_hypersplit(&rs);
        let trace = classbench::generate_trace(&rs, &classbench::TraceConfig::new(400));
        for p in &trace {
            assert_eq!(tree.classify(p), rs.classify(p));
        }
    }

    #[test]
    fn binth_respected_where_progress_is_possible() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 300).with_seed(37));
        let tree = build_hypersplit(&rs);
        for id in tree.leaf_ids() {
            if tree.node(id).num_rules() > SPLIT_LIMITS.binth
                && tree.node(id).depth < SPLIT_LIMITS.max_depth
            {
                assert!(choose_split(&tree, id).is_none());
            }
        }
    }
}
