//! EffiCuts: separable trees + equi-dense cuts (Vamanan et al.,
//! SIGCOMM 2010).
//!
//! EffiCuts attacks rule replication with two ideas this module
//! implements:
//!
//! 1. **Separable trees** — partition the rules by their per-dimension
//!    "largeness" signature (a rule is *large* in a dimension when it
//!    covers more than [`LARGENESS_THRESHOLD`] of the full span). Rules
//!    that are large in the same set of dimensions never force each
//!    other to replicate, so each signature gets its own tree.
//!    **Selective tree merging** then folds partitions smaller than
//!    [`MIN_PARTITION`] into a partition whose signature differs in one
//!    dimension, bounding the number of trees (and thus lookup cost).
//! 2. **Equi-dense cuts** — instead of equal-size cuts, cut at rule
//!    boundaries chosen so children receive roughly equal numbers of
//!    rules, eliminating the empty/duplicate children of equal-size
//!    cutting; at most [`MAX_FANOUT`] children per cut.
//!
//! Recursion stops at 16 rules per leaf, depth 100 or 2M nodes. The
//! paper's NeuroCuts uses this module's partitioner, with the same
//! constants, as its "EffiCuts partition action" (§4, §6.3).

use crate::common::{dims_by_distinct_ranges, interior_endpoints, LIMITS};
use classbench::{Dim, RuleSet, DIMS};
use dtree::{DecisionTree, NodeId, RuleId};

/// Coverage fraction above which a rule counts as "large" in a
/// dimension (0.5 in the paper).
pub const LARGENESS_THRESHOLD: f64 = 0.5;

/// Partitions smaller than this are merged into a 1-bit-different
/// neighbour (selective tree merging).
pub const MIN_PARTITION: usize = 16;

/// Maximum children per equi-dense cut.
pub const MAX_FANOUT: usize = 16;

/// Largeness signature of a rule: bit `d` set when the rule is large in
/// dimension `d`.
pub fn largeness_signature(rule: &classbench::Rule, threshold: f64) -> u8 {
    let mut sig = 0u8;
    for &d in &DIMS {
        if rule.largeness(d) > threshold {
            sig |= 1 << d.index();
        }
    }
    sig
}

/// Partition rule ids by largeness signature, then apply selective tree
/// merging: every partition smaller than `min_partition` is folded into
/// the largest partition whose signature differs in exactly one bit
/// (preferring supersets, which can only make rules *smaller* relative
/// to their tree). Returns the rule-id groups, largest first.
pub fn partition_by_largeness(
    tree: &DecisionTree,
    ids: &[RuleId],
    threshold: f64,
    min_partition: usize,
) -> Vec<Vec<RuleId>> {
    let mut by_sig: std::collections::BTreeMap<u8, Vec<RuleId>> = Default::default();
    for &id in ids {
        let sig = largeness_signature(tree.rule(id), threshold);
        by_sig.entry(sig).or_default().push(id);
    }

    // Selective merging: smallest partitions first.
    loop {
        let sigs: Vec<u8> = by_sig.keys().copied().collect();
        let Some(&small) = sigs
            .iter()
            .filter(|&&s| by_sig[&s].len() < min_partition)
            .min_by_key(|&&s| by_sig[&s].len())
        else {
            break;
        };
        if by_sig.len() <= 1 {
            break;
        }
        // Best 1-bit neighbour: prefer supersets (extra large dims),
        // then the largest partition.
        let neighbour = sigs
            .iter()
            .filter(|&&s| s != small && (s ^ small).count_ones() == 1)
            .max_by_key(|&&s| ((s & small) == small, by_sig[&s].len()));
        let target = match neighbour {
            Some(&t) => t,
            // No 1-bit neighbour: merge into the overall largest other
            // partition to keep the tree count bounded.
            None => {
                *sigs.iter().filter(|&&s| s != small).max_by_key(|&&s| by_sig[&s].len()).unwrap()
            }
        };
        let moved = by_sig.remove(&small).unwrap();
        by_sig.get_mut(&target).unwrap().extend(moved);
    }

    let mut groups: Vec<Vec<RuleId>> = by_sig.into_values().collect();
    groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
    groups
}

/// Equi-dense boundaries for cutting `dim` at node `id` into at most
/// [`MAX_FANOUT`] children with roughly equal rule counts. Returns `None`
/// when fewer than two children are possible.
fn equi_dense_bounds(tree: &DecisionTree, id: NodeId, dim: Dim) -> Option<Vec<u64>> {
    let node = tree.node(id);
    let space = *node.space.range(dim);
    let endpoints = interior_endpoints(tree, id, dim);
    if endpoints.is_empty() {
        return None;
    }
    let n = node.num_rules();
    let target = n.div_ceil(MAX_FANOUT).max(1);

    // Sweep the endpoints, counting rules that *start* before each
    // candidate; emit a boundary whenever a chunk has accumulated
    // roughly `target` rule starts. This balances rule density without
    // simulating every child.
    let mut starts: Vec<u64> = tree
        .rules_at(id)
        .iter()
        .filter(|&&r| tree.is_active(r))
        .map(|&r| tree.rule(r).range(dim).intersect(&space).lo)
        .collect();
    starts.sort_unstable();

    let mut bounds = vec![space.lo];
    for &e in &endpoints {
        let since_last = starts.iter().filter(|&&s| s >= *bounds.last().unwrap() && s < e).count();
        if since_last >= target && bounds.len() < MAX_FANOUT {
            bounds.push(e);
        }
    }
    bounds.push(space.hi);
    bounds.dedup();
    if bounds.len() >= 3 {
        Some(bounds)
    } else {
        None
    }
}

/// Grow one separable tree (below one partition child) with equi-dense
/// cuts.
fn grow_equidense(tree: &mut DecisionTree, root: NodeId) {
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if LIMITS.must_stop(tree, id) {
            continue;
        }
        let n = tree.node(id).num_rules();
        for (dim, distinct) in dims_by_distinct_ranges(tree, id) {
            if distinct <= 1 {
                break;
            }
            if let Some(bounds) = equi_dense_bounds(tree, id, dim) {
                // Progress check: some child must shrink.
                if tree.dense_child_counts(id, dim, &bounds).iter().all(|&c| c >= n) {
                    continue;
                }
                for c in tree.dense_cut_node(id, dim, bounds) {
                    tree.truncate_covered(c);
                    stack.push(c);
                }
                break;
            }
        }
    }
}

/// Build an EffiCuts classifier: a top-level rule partition by largeness
/// signature (with selective merging), one equi-dense tree per group.
pub fn build_efficuts(rules: &RuleSet) -> DecisionTree {
    let mut tree = DecisionTree::new(rules);
    let root = tree.root();
    let all = tree.rules_at(root).to_vec();
    let groups = partition_by_largeness(&tree, &all, LARGENESS_THRESHOLD, MIN_PARTITION);
    let children: Vec<NodeId> =
        if groups.len() >= 2 { tree.partition_node(root, groups) } else { vec![root] };
    for c in children {
        grow_equidense(&mut tree, c);
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{generate_rules, ClassifierFamily, DimRange, GeneratorConfig, Rule};
    use dtree::{validate::assert_tree_valid, NodeKind, TreeStats};

    #[test]
    fn signature_flags_large_dims() {
        let r = Rule::default_rule(0);
        assert_eq!(largeness_signature(&r, LARGENESS_THRESHOLD), 0b11111);
        let mut narrow = Rule::default_rule(0);
        narrow.ranges[Dim::SrcIp.index()] = DimRange::exact(5);
        narrow.ranges[Dim::Proto.index()] = DimRange::exact(6);
        assert_eq!(
            largeness_signature(&narrow, LARGENESS_THRESHOLD),
            (1 << Dim::DstIp.index()) | (1 << Dim::SrcPort.index()) | (1 << Dim::DstPort.index())
        );
    }

    #[test]
    fn partition_groups_disjoint_and_cover() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 300).with_seed(41));
        let tree = DecisionTree::new(&rs);
        let all = tree.rules_at(tree.root()).to_vec();
        let groups = partition_by_largeness(&tree, &all, LARGENESS_THRESHOLD, MIN_PARTITION);
        let mut seen: Vec<RuleId> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        let mut expected = all.clone();
        expected.sort_unstable();
        assert_eq!(seen, expected);
        // Merging keeps small fragments out.
        for g in &groups[..groups.len() - 1] {
            assert!(!g.is_empty());
        }
    }

    #[test]
    fn merging_reduces_partition_count() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 300).with_seed(42));
        let tree = DecisionTree::new(&rs);
        let all = tree.rules_at(tree.root()).to_vec();
        let merged = partition_by_largeness(&tree, &all, LARGENESS_THRESHOLD, MIN_PARTITION);
        let unmerged = partition_by_largeness(&tree, &all, LARGENESS_THRESHOLD, 1);
        assert!(merged.len() <= unmerged.len());
    }

    #[test]
    fn builds_valid_trees_for_all_families() {
        for fam in ClassifierFamily::ALL {
            let rs = generate_rules(&GeneratorConfig::new(fam, 300).with_seed(43));
            let tree = build_efficuts(&rs);
            assert_tree_valid(&tree, 400, 44);
        }
    }

    #[test]
    fn root_is_a_partition_on_mixed_rule_sets() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 400).with_seed(45));
        let tree = build_efficuts(&rs);
        assert!(matches!(tree.node(tree.root()).kind, NodeKind::Partition { .. }));
    }

    #[test]
    fn much_less_replication_than_hicuts_on_fw() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 500).with_seed(46));
        let ef = TreeStats::compute(&build_efficuts(&rs));
        let hi = TreeStats::compute(&crate::hicuts::build_hicuts(&rs));
        // The EffiCuts headline: drastically less memory on
        // wildcard-heavy sets, at some cost in classification time.
        assert!(ef.bytes_per_rule < hi.bytes_per_rule, "efficuts {ef} vs hicuts {hi}");
        assert!(ef.replication < hi.replication);
    }

    #[test]
    fn trace_agreement() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 250).with_seed(47));
        let tree = build_efficuts(&rs);
        let trace = classbench::generate_trace(&rs, &classbench::TraceConfig::new(400));
        for p in &trace {
            assert_eq!(tree.classify(p), rs.classify(p));
        }
    }
}
