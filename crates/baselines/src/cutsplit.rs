//! CutSplit: cutting + splitting combined (Li et al., INFOCOM 2018).
//!
//! CutSplit observes that equal-size cuts (HiCuts) are cheap and
//! effective while a field is *small* (specific prefixes), and that
//! rule-boundary splits (HyperSplit) are memory-efficient once rules
//! get dense and overlapping. It therefore:
//!
//! 1. partitions rules into four subsets by which IP fields are small
//!    (covering at most [`SMALL_THRESHOLD`] of the address space):
//!    source small & destination small / only source / only
//!    destination / neither;
//! 2. runs **FiCuts** — fixed-dimension equal-size cuts in exactly the
//!    small field(s), [`FICUTS_FANOUT`] pieces per step — until nodes
//!    hold at most [`PRECUT_THRESHOLD`] rules;
//! 3. finishes each remaining node with HyperSplit post-splitting.
//!
//! Recursion stops at 16 rules per leaf, depth 200 (FiCuts: 100) or 2M
//! nodes.

use crate::common::SPLIT_LIMITS;
use crate::hypersplit::split_subtrees;
use classbench::{Dim, RuleSet};
use dtree::{DecisionTree, NodeId, RuleId};

/// A rule's IP field is "small" when it covers at most this fraction of
/// the address space (the paper's /16 boundary = `2^-16`).
pub const SMALL_THRESHOLD: f64 = 1.0 / 65536.0;

/// FiCuts keeps cutting while a node holds more rules than this.
pub const PRECUT_THRESHOLD: usize = 32;

/// Equal-size cuts per FiCuts step (per dimension).
pub const FICUTS_FANOUT: usize = 8;

/// The four CutSplit subsets, keyed by which IP dimensions are small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the `Small` postfix is the paper's term
enum Subset {
    /// Both source and destination IP are small: FiCuts in both.
    BothSmall,
    /// Only the source IP is small.
    SrcSmall,
    /// Only the destination IP is small.
    DstSmall,
    /// Neither is small: straight to HyperSplit.
    NeitherSmall,
}

fn classify_rule(tree: &DecisionTree, id: RuleId) -> Subset {
    let src_small = tree.rule(id).largeness(Dim::SrcIp) <= SMALL_THRESHOLD;
    let dst_small = tree.rule(id).largeness(Dim::DstIp) <= SMALL_THRESHOLD;
    match (src_small, dst_small) {
        (true, true) => Subset::BothSmall,
        (true, false) => Subset::SrcSmall,
        (false, true) => Subset::DstSmall,
        (false, false) => Subset::NeitherSmall,
    }
}

/// FiCuts: keep applying fixed-dimension equal-size cuts below `root`
/// while nodes hold more than [`PRECUT_THRESHOLD`] rules and the cut
/// makes progress; leave the rest for post-splitting.
fn ficuts(tree: &mut DecisionTree, root: NodeId, dims: &[Dim]) -> Vec<NodeId> {
    let mut stack = vec![root];
    let mut remaining = Vec::new();
    while let Some(id) = stack.pop() {
        let n = tree.node(id).num_rules();
        if n <= PRECUT_THRESHOLD
            || tree.node(id).depth >= SPLIT_LIMITS.max_depth / 2
            || tree.num_nodes() >= SPLIT_LIMITS.max_nodes
        {
            remaining.push(id);
            continue;
        }
        let children = match dims {
            [d] => {
                let fan = FICUTS_FANOUT.min(tree.node(id).space.range(*d).len().max(2) as usize);
                if tree.cut_child_counts(id, &[(*d, fan)]).iter().all(|&c| c >= n) {
                    remaining.push(id);
                    continue;
                }
                tree.cut_node(id, *d, fan)
            }
            [a, b] => {
                let fan = (FICUTS_FANOUT / 2).max(2);
                let spec = [(*a, fan), (*b, fan)];
                if tree.cut_child_counts(id, &spec).iter().all(|&c| c >= n) {
                    remaining.push(id);
                    continue;
                }
                tree.multicut_node(id, &spec)
            }
            _ => {
                remaining.push(id);
                continue;
            }
        };
        for c in children {
            tree.truncate_covered(c);
            stack.push(c);
        }
    }
    remaining
}

/// Build a CutSplit classifier for `rules`.
pub fn build_cutsplit(rules: &RuleSet) -> DecisionTree {
    let mut tree = DecisionTree::new(rules);
    let root = tree.root();
    let all = tree.rules_at(root).to_vec();

    let mut groups: Vec<(Subset, Vec<RuleId>)> = vec![
        (Subset::BothSmall, Vec::new()),
        (Subset::SrcSmall, Vec::new()),
        (Subset::DstSmall, Vec::new()),
        (Subset::NeitherSmall, Vec::new()),
    ];
    for &id in &all {
        let s = classify_rule(&tree, id);
        groups.iter_mut().find(|(g, _)| *g == s).unwrap().1.push(id);
    }
    groups.retain(|(_, ids)| !ids.is_empty());

    let children: Vec<(Subset, NodeId)> = if groups.len() >= 2 {
        let subsets: Vec<Subset> = groups.iter().map(|(s, _)| *s).collect();
        let ids = tree.partition_node(root, groups.into_iter().map(|(_, v)| v).collect());
        subsets.into_iter().zip(ids).collect()
    } else {
        vec![(groups.pop().map(|(s, _)| s).unwrap_or(Subset::NeitherSmall), root)]
    };

    for (subset, node) in children {
        let dims: &[Dim] = match subset {
            Subset::BothSmall => &[Dim::SrcIp, Dim::DstIp],
            Subset::SrcSmall => &[Dim::SrcIp],
            Subset::DstSmall => &[Dim::DstIp],
            Subset::NeitherSmall => &[],
        };
        let mut remaining =
            if dims.is_empty() { vec![node] } else { ficuts(&mut tree, node, dims) };
        split_subtrees(&mut tree, &mut remaining);
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{generate_rules, ClassifierFamily, GeneratorConfig};
    use dtree::{validate::assert_tree_valid, NodeKind, TreeStats};

    #[test]
    fn builds_valid_trees_for_all_families() {
        for fam in ClassifierFamily::ALL {
            let rs = generate_rules(&GeneratorConfig::new(fam, 300).with_seed(51));
            let tree = build_cutsplit(&rs);
            assert_tree_valid(&tree, 400, 52);
        }
    }

    #[test]
    fn partitions_by_small_fields() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 400).with_seed(53));
        let tree = build_cutsplit(&rs);
        // FW sets mix specific and wildcard IPs, so the root partitions.
        assert!(matches!(tree.node(tree.root()).kind, NodeKind::Partition { .. }));
    }

    #[test]
    fn uses_both_cuts_and_splits() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 500).with_seed(54));
        let tree = build_cutsplit(&rs);
        let cuts = tree
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Cut { .. } | NodeKind::MultiCut { .. }))
            .count();
        let splits =
            tree.nodes().iter().filter(|n| matches!(n.kind, NodeKind::Split { .. })).count();
        assert!(cuts > 0, "FiCuts phase should cut");
        assert!(splits > 0, "post-splitting should split");
    }

    #[test]
    fn memory_competitive_with_efficuts() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 500).with_seed(55));
        let cs = TreeStats::compute(&build_cutsplit(&rs));
        let hi = TreeStats::compute(&crate::hicuts::build_hicuts(&rs));
        // CutSplit's claim: much less memory than pure cutting.
        assert!(cs.bytes_per_rule < hi.bytes_per_rule, "cutsplit {cs} vs hicuts {hi}");
    }

    #[test]
    fn trace_agreement() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 250).with_seed(56));
        let tree = build_cutsplit(&rs);
        let trace = classbench::generate_trace(&rs, &classbench::TraceConfig::new(400));
        for p in &trace {
            assert_eq!(tree.classify(p), rs.classify(p));
        }
    }
}
