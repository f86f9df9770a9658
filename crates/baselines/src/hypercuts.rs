//! HyperCuts: multidimensional cutting (Singh et al., SIGCOMM 2003).
//!
//! HyperCuts generalises HiCuts by cutting several dimensions at one
//! node. Dimension selection follows the paper: dimensions whose
//! distinct-projection count is at least the mean are candidates, at
//! most [`MAX_DIMS`] of them. The cut counts are grown greedily —
//! repeatedly double the count of whichever candidate dimension most
//! reduces the largest child — under a global child budget of
//! [`SPFAC`] `* sqrt(rules(node))`, capped at [`MAX_CHILDREN`].
//! Children apply the rule-overlap optimisation. Recursion stops at 16
//! rules per leaf, depth 100 or 2M nodes.

use crate::common::{dims_by_distinct_ranges, LIMITS};
use classbench::{Dim, RuleSet};
use dtree::{DecisionTree, NodeId};

/// Space factor: child budget multiplier (`SPFAC * sqrt(n)`).
pub const SPFAC: f64 = 4.0;

/// Maximum dimensions cut simultaneously (the paper typically uses up
/// to 2–3 in practice).
pub const MAX_DIMS: usize = 2;

/// Hard cap on children per node regardless of budget. It binds once
/// a node holds more than `(MAX_CHILDREN / SPFAC)^2` = 1,024 rules.
pub const MAX_CHILDREN: usize = 128;

/// Greedily grow per-dimension cut counts under the child budget.
/// Returns the chosen `(dim, ncuts)` list (only dims with `ncuts >= 2`),
/// or `None` if no multicut makes progress.
fn choose_multicut(tree: &DecisionTree, id: NodeId) -> Option<Vec<(Dim, usize)>> {
    let n = tree.node(id).num_rules();
    let budget = ((SPFAC * (n as f64).sqrt()) as usize).clamp(4, MAX_CHILDREN);

    // Candidate dims: distinct count at least the mean (HyperCuts'
    // rule), keeping at most `MAX_DIMS` of the most discriminating.
    let ranked = dims_by_distinct_ranges(tree, id);
    if ranked.is_empty() || ranked[0].1 <= 1 {
        return None;
    }
    let mean = ranked.iter().map(|&(_, c)| c).sum::<usize>() as f64 / ranked.len() as f64;
    let mut candidates: Vec<Dim> = ranked
        .iter()
        .filter(|&&(_, c)| c as f64 >= mean && c > 1)
        .map(|&(d, _)| d)
        .take(MAX_DIMS)
        .collect();
    if candidates.is_empty() {
        candidates.push(ranked[0].0);
    }

    // Start all candidates at 1 cut and double the most helpful one.
    let mut counts: Vec<usize> = vec![1; candidates.len()];
    loop {
        let current: Vec<(Dim, usize)> = candidates
            .iter()
            .zip(&counts)
            .filter(|&(_, &c)| c >= 2)
            .map(|(&d, &c)| (d, c))
            .collect();
        let current_worst = if current.is_empty() {
            n
        } else {
            *tree.cut_child_counts(id, &current).iter().max().unwrap_or(&n)
        };

        let mut best: Option<(usize, usize)> = None; // (candidate idx, worst child)
        for i in 0..candidates.len() {
            let doubled = counts[i] * 2;
            let total: usize =
                counts.iter().enumerate().map(|(j, &c)| if j == i { doubled } else { c }).product();
            if total > budget || (doubled as u64) > tree.node(id).space.range(candidates[i]).len() {
                continue;
            }
            let trial: Vec<(Dim, usize)> = candidates
                .iter()
                .enumerate()
                .map(|(j, &d)| (d, if j == i { doubled } else { counts[j] }))
                .filter(|&(_, c)| c >= 2)
                .collect();
            if trial.is_empty() {
                continue;
            }
            let worst = *tree.cut_child_counts(id, &trial).iter().max().unwrap();
            if worst < current_worst && best.is_none_or(|(_, w)| worst < w) {
                best = Some((i, worst));
            }
        }
        match best {
            Some((i, _)) => counts[i] *= 2,
            None => break,
        }
    }

    let chosen: Vec<(Dim, usize)> =
        candidates.into_iter().zip(counts).filter(|&(_, c)| c >= 2).collect();
    if chosen.is_empty() {
        return None;
    }
    // Require progress.
    let sim = tree.cut_child_counts(id, &chosen);
    if sim.iter().any(|&c| c < n) {
        Some(chosen)
    } else {
        None
    }
}

/// Build a HyperCuts tree for `rules`.
pub fn build_hypercuts(rules: &RuleSet) -> DecisionTree {
    let mut tree = DecisionTree::new(rules);
    let mut stack: Vec<NodeId> = vec![tree.root()];
    while let Some(id) = stack.pop() {
        if LIMITS.must_stop(&tree, id) {
            continue;
        }
        if let Some(dims) = choose_multicut(&tree, id) {
            for c in tree.multicut_node(id, &dims) {
                tree.truncate_covered(c);
                stack.push(c);
            }
        }
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
            let rs = generate_rules(&GeneratorConfig::new(fam, 300).with_seed(21));
            let tree = build_hypercuts(&rs);
            assert_tree_valid(&tree, 400, 22);
        }
    }

    #[test]
    fn uses_multidimensional_cuts() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 500).with_seed(23));
        let tree = build_hypercuts(&rs);
        let multi = tree
            .nodes()
            .iter()
            .filter(|n| matches!(&n.kind, NodeKind::MultiCut { dims, .. } if dims.len() >= 2))
            .count();
        assert!(multi > 0, "expected at least one true multi-dim cut");
    }

    #[test]
    fn shallower_than_hicuts_on_average() {
        // HyperCuts' motivation: multi-dim cuts reduce depth. Check the
        // trend across seeds rather than requiring it per-instance.
        let mut hyper_depth = 0usize;
        let mut hi_depth = 0usize;
        for seed in 0..3 {
            let rs =
                generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 400).with_seed(seed));
            hyper_depth += TreeStats::compute(&build_hypercuts(&rs)).time;
            hi_depth += TreeStats::compute(&crate::hicuts::build_hicuts(&rs)).time;
        }
        assert!(hyper_depth <= hi_depth + 3, "hypercuts {hyper_depth} vs hicuts {hi_depth}");
    }

    #[test]
    fn child_budget_is_respected() {
        // The cap only binds above 1,024 rules at a node: the root here.
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 1500).with_seed(25));
        let tree = build_hypercuts(&rs);
        assert!(tree.node(tree.root()).num_rules() > 1024);
        for n in tree.nodes() {
            assert!(n.kind.children().len() <= MAX_CHILDREN);
        }
        assert_tree_valid(&tree, 300, 26);
    }

    #[test]
    fn trace_agreement() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 250).with_seed(27));
        let tree = build_hypercuts(&rs);
        let trace = classbench::generate_trace(&rs, &classbench::TraceConfig::new(400));
        for p in &trace {
            assert_eq!(tree.classify(p), rs.classify(p));
        }
    }
}
