//! The NeuroCuts reward (Eq. 5 and Algorithm 1, line 17):
//!
//! ```text
//! R(node) = -( c · f(Time(subtree)) + (1 − c) · f(Space(subtree)) )
//! ```
//!
//! `Time` and `Space` are the cost model's per-node subtree metrics
//! (Eqs. 1–4, [`dtree::stats::subtree_metrics`]). The rewards are the
//! *true* objective; the paper explicitly avoids reward engineering (§4
//! footnote 2).

use crate::config::{NeuroCutsConfig, RewardScaling};
use dtree::{DecisionTree, NodeKind};
use serde::{Deserialize, Serialize};

/// The scalarised objective `c·f(T) + (1−c)·f(S)` (Eq. 5); rewards are
/// its negation. Lower objective = better tree.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Objective {
    /// Time-space coefficient `c`.
    pub c: f64,
    /// Reward scaling `f`.
    pub scaling: RewardScaling,
}

impl Objective {
    /// Build from a NeuroCuts configuration.
    pub fn from_config(cfg: &NeuroCutsConfig) -> Self {
        Objective { c: cfg.time_space_coeff, scaling: cfg.reward_scaling }
    }

    /// Scalarise a `(time, bytes)` pair. `time` is a float so the
    /// traffic-aware objective can pass an expected lookup cost.
    pub fn value(&self, time: f64, bytes: usize) -> f64 {
        self.c * self.scaling.apply(time) + (1.0 - self.c) * self.scaling.apply(bytes as f64)
    }

    /// Reward for a node whose subtree has the given metrics.
    pub fn reward(&self, time: f64, bytes: usize) -> f64 {
        -self.value(time, bytes)
    }
}

/// Traffic-weighted expected lookup time per subtree (the paper's §8
/// extension: optimise for a *specific traffic pattern* rather than the
/// worst case). `counts[id]` is how many trace packets reach node `id`
/// ([`DecisionTree::node_visit_counts`]).
///
/// Recursion: a leaf costs 1; a cut-like node costs 1 plus the
/// visit-weighted mean of its children (falling back to the worst-case
/// `max` for subtrees the trace never reaches, so unexercised branches
/// are not free); a partition node costs 1 plus the sum of its children
/// (every partition is always consulted).
pub fn subtree_avg_time(tree: &DecisionTree, counts: &[usize]) -> Vec<f64> {
    let n = tree.num_nodes();
    assert_eq!(counts.len(), n, "counts must align with the node arena");
    let mut avg = vec![0.0f64; n];
    for id in (0..n).rev() {
        let node = tree.node(id);
        avg[id] = match &node.kind {
            NodeKind::Leaf => 1.0,
            NodeKind::Partition { children } => 1.0 + children.iter().map(|&c| avg[c]).sum::<f64>(),
            other => {
                let kids = other.children();
                let here = counts[id];
                if here == 0 {
                    1.0 + kids.iter().map(|&c| avg[c]).fold(0.0f64, f64::max)
                } else {
                    1.0 + kids.iter().map(|&c| avg[c] * counts[c] as f64 / here as f64).sum::<f64>()
                }
            }
        };
    }
    avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionMode;
    use classbench::{Dim, DimRange, Rule, RuleSet};
    use dtree::stats::subtree_time;

    fn rules() -> RuleSet {
        let mut a = Rule::default_rule(2);
        a.ranges[Dim::Proto.index()] = DimRange::exact(6);
        let mut b = Rule::default_rule(1);
        b.ranges[Dim::DstPort.index()] = DimRange::new(0, 1024);
        RuleSet::new(vec![a, b, Rule::default_rule(0)])
    }

    #[test]
    fn pure_time_objective_is_depth() {
        let mut cfg = crate::NeuroCutsConfig::smoke_test();
        cfg.time_space_coeff = 1.0;
        cfg.reward_scaling = RewardScaling::Linear;
        let obj = Objective::from_config(&cfg);
        assert_eq!(obj.value(12.0, 999_999), 12.0);
        assert_eq!(obj.reward(12.0, 999_999), -12.0);
    }

    #[test]
    fn pure_space_objective_ignores_time() {
        let mut cfg = crate::NeuroCutsConfig::smoke_test();
        cfg.time_space_coeff = 0.0;
        cfg.reward_scaling = RewardScaling::Linear;
        let obj = Objective::from_config(&cfg);
        assert_eq!(obj.value(999.0, 1000), 1000.0);
    }

    #[test]
    fn mixed_objective_uses_log_scaling() {
        let cfg = crate::NeuroCutsConfig::smoke_test()
            .with_coeff(0.5)
            .with_partition_mode(PartitionMode::Simple);
        let obj = Objective::from_config(&cfg);
        let v = obj.value(16.0, 4096);
        let expect = 0.5 * (16f64).ln() + 0.5 * (4096f64).ln();
        assert!((v - expect).abs() < 1e-9);
    }

    #[test]
    fn avg_time_reduces_to_worst_case_without_traffic_reach() {
        // With zero counts everywhere, avg time falls back to the
        // worst-case max recursion and therefore equals subtree_time.
        let mut t = DecisionTree::new(&rules());
        let kids = t.cut_node(t.root(), Dim::DstPort, 4);
        t.cut_node(kids[0], Dim::Proto, 2);
        let counts = vec![0usize; t.num_nodes()];
        let avg = subtree_avg_time(&t, &counts);
        for (id, &a) in avg.iter().enumerate() {
            assert!((a - subtree_time(&t, id) as f64).abs() < 1e-9, "node {id}");
        }
    }

    #[test]
    fn avg_time_weights_by_visits() {
        let mut t = DecisionTree::new(&rules());
        let kids = t.cut_node(t.root(), Dim::DstPort, 2);
        // Expand only the low-port child so paths differ in length.
        t.cut_node(kids[0], Dim::Proto, 2);
        // All traffic to the high-port (shallow) side: avg = 2.
        let trace: Vec<classbench::Packet> =
            (0..10).map(|i| classbench::Packet::new(0, 0, 0, 60000 + i, 6)).collect();
        let counts = t.node_visit_counts(&trace);
        let avg = subtree_avg_time(&t, &counts);
        assert!((avg[t.root()] - 2.0).abs() < 1e-9, "got {}", avg[t.root()]);
        // Worst case is 3 (through the expanded child).
        assert_eq!(subtree_time(&t, t.root()), 3);
        // Mixed traffic lands strictly between.
        let mixed: Vec<classbench::Packet> = (0..10)
            .map(|i| classbench::Packet::new(0, 0, 0, if i < 5 { 100 } else { 60000 }, 6))
            .collect();
        let counts = t.node_visit_counts(&mixed);
        let avg = subtree_avg_time(&t, &counts);
        assert!(avg[t.root()] > 2.0 && avg[t.root()] < 3.0, "got {}", avg[t.root()]);
    }

    #[test]
    fn better_trees_get_higher_reward() {
        let cfg = crate::NeuroCutsConfig::smoke_test();
        let obj = Objective::from_config(&cfg);
        assert!(obj.reward(5.0, 100) > obj.reward(10.0, 100));
    }
}
