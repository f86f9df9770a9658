//! The two partition actions NeuroCuts can take at top nodes (§4):
//! *simple* single-dimension coverage-threshold partitions with a
//! learned threshold, and the *EffiCuts* partition heuristic.

use crate::actions::COVERAGE_LEVELS;
use crate::env::NodeMeta;
use baselines::efficuts::{partition_by_largeness, LARGENESS_THRESHOLD, MIN_PARTITION};
use classbench::Dim;
use dtree::{DecisionTree, NodeId, RuleId};

/// Outcome of a simple partition: the two rule subsets and the
/// coverage-window metadata their nodes will carry.
#[derive(Debug, Clone)]
pub struct SimpleSplit {
    /// Rules with coverage ≤ the threshold level ("small" side).
    pub small: Vec<RuleId>,
    /// Rules with coverage > the threshold level ("large" side).
    pub large: Vec<RuleId>,
    /// Metadata for the small child (window upper bound tightened).
    pub small_meta: NodeMeta,
    /// Metadata for the large child (window lower bound raised).
    pub large_meta: NodeMeta,
}

/// Plan a simple partition of node `id` at coverage `level` of `dim`.
///
/// Returns `None` when the level falls outside the node's current
/// coverage window for `dim` or either side would be empty — the
/// environment then falls back to a cut action.
pub fn plan_simple_partition(
    tree: &DecisionTree,
    id: NodeId,
    meta: &NodeMeta,
    dim: Dim,
    level: usize,
) -> Option<SimpleSplit> {
    let (lo, hi) = meta.coverage_window[dim.index()];
    if level <= lo as usize || level >= hi as usize {
        return None;
    }
    let threshold = COVERAGE_LEVELS[level];
    let (small, large): (Vec<RuleId>, Vec<RuleId>) =
        tree.rules_at(id).iter().partition(|&&r| tree.rule(r).largeness(dim) <= threshold);
    if small.is_empty() || large.is_empty() {
        return None;
    }
    let mut small_meta = *meta;
    small_meta.coverage_window[dim.index()] = (lo, level as u8);
    let mut large_meta = *meta;
    large_meta.coverage_window[dim.index()] = (level as u8, hi);
    Some(SimpleSplit { small, large, small_meta, large_meta })
}

/// Plan an EffiCuts partition of node `id`: the separable-tree grouping
/// of [`baselines::efficuts`] under its own constants, tagged with
/// partition ids for the observation encoding. Returns `None` when the
/// rules all fall in one group (nothing to partition).
pub fn plan_efficuts_partition(
    tree: &DecisionTree,
    id: NodeId,
    meta: &NodeMeta,
) -> Option<(Vec<Vec<RuleId>>, Vec<NodeMeta>)> {
    let groups =
        partition_by_largeness(tree, tree.rules_at(id), LARGENESS_THRESHOLD, MIN_PARTITION);
    if groups.len() < 2 {
        return None;
    }
    let metas = (0..groups.len())
        .map(|i| {
            let mut m = *meta;
            m.efficuts_id = Some(i.min(255) as u8);
            // EffiCuts children are final partitions: no further
            // partitioning below them.
            m.top = false;
            m
        })
        .collect();
    Some((groups, metas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{generate_rules, ClassifierFamily, DimRange, GeneratorConfig, Rule, RuleSet};

    fn mixed_tree() -> DecisionTree {
        // Two wide rules (full SrcIp) and two narrow ones.
        let mut narrow1 = Rule::default_rule(3);
        narrow1.ranges[Dim::SrcIp.index()] = DimRange::new(0, 1 << 16);
        let mut narrow2 = Rule::default_rule(2);
        narrow2.ranges[Dim::SrcIp.index()] = DimRange::new(1 << 20, 1 << 21);
        let wide = Rule::default_rule(1);
        let rs = RuleSet::new(vec![narrow1, narrow2, wide, Rule::default_rule(0)]);
        DecisionTree::new(&rs)
    }

    #[test]
    fn simple_partition_separates_by_coverage() {
        let tree = mixed_tree();
        let meta = NodeMeta::root();
        // Level 4 = 16% coverage: narrow rules below, wildcards above.
        let split = plan_simple_partition(&tree, tree.root(), &meta, Dim::SrcIp, 4).unwrap();
        assert_eq!(split.small.len(), 2);
        assert_eq!(split.large.len(), 2);
        assert_eq!(split.small_meta.coverage_window[0], (0, 4));
        assert_eq!(split.large_meta.coverage_window[0], (4, 7));
        // Windows in other dimensions untouched.
        assert_eq!(split.small_meta.coverage_window[1], (0, 7));
    }

    #[test]
    fn simple_partition_rejects_empty_sides() {
        let tree = mixed_tree();
        let meta = NodeMeta::root();
        // Every rule is full-width in DstIp -> small side empty at any level.
        assert!(plan_simple_partition(&tree, tree.root(), &meta, Dim::DstIp, 3).is_none());
    }

    #[test]
    fn simple_partition_respects_window() {
        let tree = mixed_tree();
        let mut meta = NodeMeta::root();
        meta.coverage_window[Dim::SrcIp.index()] = (2, 5);
        assert!(plan_simple_partition(&tree, tree.root(), &meta, Dim::SrcIp, 2).is_none());
        assert!(plan_simple_partition(&tree, tree.root(), &meta, Dim::SrcIp, 5).is_none());
        assert!(plan_simple_partition(&tree, tree.root(), &meta, Dim::SrcIp, 6).is_none());
    }

    #[test]
    fn efficuts_partition_tags_children() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 200).with_seed(61));
        let tree = DecisionTree::new(&rs);
        let meta = NodeMeta::root();
        let (groups, metas) = plan_efficuts_partition(&tree, tree.root(), &meta).unwrap();
        assert!(groups.len() >= 2);
        assert_eq!(groups.len(), metas.len());
        for (i, m) in metas.iter().enumerate() {
            assert_eq!(m.efficuts_id, Some(i as u8));
            assert!(!m.top);
        }
        // Groups cover all rules.
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, tree.node(tree.root()).num_rules());
    }

    #[test]
    fn efficuts_partition_none_when_uniform() {
        // All rules share the same largeness signature -> single group.
        let rs = RuleSet::new(vec![Rule::default_rule(1), Rule::default_rule(0)]);
        let tree = DecisionTree::new(&rs);
        assert!(plan_efficuts_partition(&tree, tree.root(), &NodeMeta::root()).is_none());
    }
}
