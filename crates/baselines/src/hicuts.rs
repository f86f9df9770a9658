//! HiCuts: hierarchical intelligent cuttings (Gupta & McKeown, 1999).
//!
//! At every node HiCuts (i) picks the dimension whose rule projections
//! are most distinct, and (ii) picks the largest power-of-two cut count,
//! at most [`MAX_CUTS`], whose *space measure* — total child rule
//! references plus the child pointers themselves — stays within
//! [`SPFAC`] `* rules(node)`. Children apply the rule-overlap
//! optimisation (drop rules shadowed by a covering higher-priority
//! rule). Recursion stops at 16 rules per leaf, depth 100 or 2M nodes.

use crate::common::{dims_by_distinct_ranges, Limits, LIMITS};
use classbench::{Dim, RuleSet};
use dtree::{DecisionTree, NodeId};

/// Space factor: budget multiplier for the per-node space measure. The
/// original paper uses 1.5–4; larger builds shallower, fatter trees.
pub const SPFAC: f64 = 4.0;

/// Upper bound on cuts per node (a power of two).
pub const MAX_CUTS: usize = 64;

/// Space measure of a candidate cut: children rule references plus one
/// pointer per child (HiCuts' `sm()` heuristic).
fn space_measure(child_counts: &[usize]) -> usize {
    child_counts.iter().sum::<usize>() + child_counts.len()
}

/// Pick the number of cuts for `dim`: the largest power of two within
/// [`MAX_CUTS`] whose space measure stays within budget, provided it
/// makes progress. Returns `None` when even 2 cuts make no progress.
fn choose_ncuts(tree: &DecisionTree, id: NodeId, dim: Dim) -> Option<usize> {
    let n = tree.node(id).num_rules();
    let budget = (SPFAC * n as f64).max(4.0) as usize;
    let range_len = tree.node(id).space.range(dim).len();
    let mut best: Option<usize> = None;
    let mut ncuts = 2usize;
    while ncuts <= MAX_CUTS && (ncuts as u64) <= range_len.max(2) {
        let counts = tree.cut_child_counts(id, &[(dim, ncuts)]);
        if space_measure(&counts) > budget {
            break;
        }
        // Progress: some child strictly smaller than the parent.
        if counts.iter().any(|&c| c < n) {
            best = Some(ncuts);
        }
        ncuts *= 2;
    }
    best
}

/// Build a HiCuts tree for `rules`.
pub fn build_hicuts(rules: &RuleSet) -> DecisionTree {
    build(rules, &LIMITS)
}

fn build(rules: &RuleSet, limits: &Limits) -> DecisionTree {
    let mut tree = DecisionTree::new(rules);
    let mut stack: Vec<NodeId> = vec![tree.root()];
    while let Some(id) = stack.pop() {
        if limits.must_stop(&tree, id) {
            continue;
        }
        // Try dimensions in decreasing discrimination order until one
        // admits a budget-respecting, progress-making cut; the node
        // stays a leaf when none does.
        for (dim, distinct) in dims_by_distinct_ranges(&tree, id) {
            if distinct <= 1 {
                break; // no dimension separates the rules
            }
            if let Some(ncuts) = choose_ncuts(&tree, id, dim) {
                for c in tree.cut_node(id, dim, ncuts) {
                    tree.truncate_covered(c);
                    stack.push(c);
                }
                break;
            }
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{generate_rules, ClassifierFamily, GeneratorConfig};
    use dtree::{validate::assert_tree_valid, TreeStats};

    #[test]
    fn builds_valid_trees_for_all_families() {
        for fam in ClassifierFamily::ALL {
            let rs = generate_rules(&GeneratorConfig::new(fam, 300).with_seed(1));
            let tree = build_hicuts(&rs);
            assert_tree_valid(&tree, 400, 11);
            let stats = TreeStats::compute(&tree);
            assert!(stats.time > 1, "{fam}: tree should have real depth");
        }
    }

    #[test]
    fn respects_binth() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 400).with_seed(2));
        let tree = build_hicuts(&rs);
        // Every leaf either satisfies binth or could make no progress.
        for id in tree.leaf_ids() {
            let n = tree.node(id).num_rules();
            if n > LIMITS.binth {
                // Oversized leaves are only allowed when no dimension
                // could separate their rules within budget.
                let any_progress = dims_by_distinct_ranges(&tree, id)
                    .iter()
                    .any(|&(d, _)| choose_ncuts(&tree, id, d).is_some());
                assert!(!any_progress, "leaf with {n} rules could still be cut");
            }
        }
    }

    #[test]
    fn classification_agrees_with_ground_truth_on_trace() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 250).with_seed(7));
        let tree = build_hicuts(&rs);
        let trace = classbench::generate_trace(&rs, &classbench::TraceConfig::new(500));
        for p in &trace {
            assert_eq!(tree.classify(p), rs.classify(p));
        }
    }

    #[test]
    fn depth_limit_is_respected() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 300).with_seed(8));
        assert!(TreeStats::compute(&build_hicuts(&rs)).max_depth <= LIMITS.max_depth);
        // A tighter cap holds too.
        let tree = build(&rs, &Limits { binth: 2, max_depth: 3, ..LIMITS });
        assert!(TreeStats::compute(&tree).max_depth <= 3);
    }
}
