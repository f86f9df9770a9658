//! Differential tests for the serving path: the scalar compiled
//! lookup, the batched wavefront lookup, and the sharded multi-core
//! lookup must all return **bit-identical** rule ids to the arena
//! tree's `classify` — and, where rule ids are comparable, to the
//! `RuleSet` linear-scan ground truth — on every node kind
//! (Cut / MultiCut / DenseCut / Split / Partition) and on the
//! empty-leaf and deleted-rule edge cases.

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, Dim, DimRange, GeneratorConfig, Packet, Rule,
    RuleSet, TraceConfig,
};
use dtree::{updates, ClassifierHandle, DecisionTree, FlatTree, RebuildPolicy, Snapshot};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng as _, SeedableRng as _};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A bare tree's serving snapshot: its compile plus an empty overlay.
fn snapshot_of(tree: &DecisionTree) -> Arc<Snapshot> {
    ClassifierHandle::new(tree.clone(), RebuildPolicy::never()).snapshot()
}

/// Assert every serving path agrees on `trace`.
///
/// `ruleset` enables the linear-scan ground-truth comparison; pass
/// `None` when the tree has diverged from the rule set (incremental
/// updates renumber nothing, but inserted rules are not in the set).
fn assert_all_paths_agree(tree: &DecisionTree, ruleset: Option<&RuleSet>, trace: &[Packet]) {
    let snap = snapshot_of(tree);
    let flat = snap.flat();
    let mut batch = vec![None; trace.len()];
    flat.classify_batch(trace, &mut batch);
    for threads in [1, 2, 4, 7] {
        let mut sharded = vec![None; trace.len()];
        snap.classify_sharded(trace, &mut sharded, threads);
        assert_eq!(sharded, batch, "sharded({threads}) diverged from batch");
    }
    for (p, &batched) in trace.iter().zip(&batch) {
        let scalar = flat.classify(p);
        let arena = tree.classify(p);
        assert_eq!(scalar, arena, "flat vs tree at {p}");
        assert_eq!(batched, scalar, "batch vs flat at {p}");
        assert_eq!(arena, tree.linear_classify(p), "tree vs arena linear scan at {p}");
        if let Some(rs) = ruleset {
            assert_eq!(arena, rs.classify(p), "tree vs RuleSet ground truth at {p}");
        }
    }
}

#[test]
fn cut_tree_all_paths_agree() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 300).with_seed(11));
    let mut tree = DecisionTree::new(&rules);
    for k in tree.cut_node(tree.root(), Dim::SrcIp, 16) {
        if !tree.is_terminal(k, 8) {
            tree.cut_node(k, Dim::DstIp, 4);
        }
    }
    let trace = generate_trace(&rules, &TraceConfig::new(500).with_seed(12));
    assert_all_paths_agree(&tree, Some(&rules), &trace);
}

#[test]
fn multicut_tree_all_paths_agree() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 250).with_seed(13));
    let mut tree = DecisionTree::new(&rules);
    for k in tree.multicut_node(tree.root(), &[(Dim::SrcIp, 4), (Dim::DstIp, 4)]) {
        if !tree.is_terminal(k, 8) && tree.dim_separable(k, Dim::DstPort) {
            tree.multicut_node(k, &[(Dim::DstPort, 4), (Dim::Proto, 2)]);
        }
    }
    let trace = generate_trace(&rules, &TraceConfig::new(500).with_seed(14));
    assert_all_paths_agree(&tree, Some(&rules), &trace);
}

#[test]
fn dense_cut_tree_all_paths_agree() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 200).with_seed(15));
    let mut tree = DecisionTree::new(&rules);
    let range = *tree.node(tree.root()).space.range(Dim::SrcIp);
    let q = range.len() / 4;
    tree.dense_cut_node(
        tree.root(),
        Dim::SrcIp,
        vec![range.lo, range.lo + q / 2, range.lo + q, range.lo + 3 * q, range.hi],
    );
    let trace = generate_trace(&rules, &TraceConfig::new(500).with_seed(16));
    assert_all_paths_agree(&tree, Some(&rules), &trace);
}

#[test]
fn split_tree_all_paths_agree() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 200).with_seed(17));
    let mut tree = DecisionTree::new(&rules);
    let (l, r) = tree.split_node(tree.root(), Dim::DstPort, 1024);
    tree.split_node(l, Dim::SrcIp, 1 << 31);
    tree.split_node(r, Dim::Proto, 17);
    let trace = generate_trace(&rules, &TraceConfig::new(500).with_seed(18));
    assert_all_paths_agree(&tree, Some(&rules), &trace);
}

#[test]
fn partition_tree_all_paths_agree() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 200).with_seed(19));
    let mut tree = DecisionTree::new(&rules);
    let all = tree.rules_at(tree.root()).to_vec();
    let third = all.len() / 3;
    let (a, rest) = all.split_at(third);
    let (b, c) = rest.split_at(third);
    let parts = tree.partition_node(tree.root(), vec![a.to_vec(), b.to_vec(), c.to_vec()]);
    for p in parts {
        if !tree.is_terminal(p, 16) {
            tree.cut_node(p, Dim::SrcIp, 4);
        }
    }
    let trace = generate_trace(&rules, &TraceConfig::new(500).with_seed(20));
    assert_all_paths_agree(&tree, Some(&rules), &trace);
}

#[test]
fn empty_leaves_classify_to_none_on_every_path() {
    // No default rule: packets outside every rule fall through to None,
    // and cutting concentrates the rules so some leaves are empty.
    let mut narrow = Rule::default_rule(5);
    narrow.ranges[Dim::SrcIp.index()] = DimRange::new(0, 1 << 16);
    let mut other = Rule::default_rule(3);
    other.ranges[Dim::SrcIp.index()] = DimRange::new(1 << 20, 1 << 21);
    other.ranges[Dim::Proto.index()] = DimRange::exact(6);
    let rules = RuleSet::new(vec![narrow, other]);
    let mut tree = DecisionTree::new(&rules);
    tree.cut_node(tree.root(), Dim::SrcIp, 32);
    let flat = FlatTree::compile(&tree);
    // High src-ip space is uncovered: every path must return None.
    let miss = Packet::new(u64::from(u32::MAX) - 5, 0, 0, 0, 17);
    assert_eq!(tree.classify(&miss), None);
    assert_eq!(flat.classify(&miss), None);
    let hit = Packet::new(100, 0, 0, 0, 17);
    assert_eq!(flat.classify(&hit), Some(0));
    let trace: Vec<Packet> = (0..200u64)
        .map(|i| Packet::new((i * 7919) % (1 << 32), i % (1 << 32), i % 65536, i % 65536, i % 256))
        .collect();
    assert_all_paths_agree(&tree, Some(&rules), &trace);
}

#[test]
fn deleted_rules_are_invisible_to_every_path() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 150).with_seed(21));
    let mut tree = DecisionTree::new(&rules);
    for k in tree.cut_node(tree.root(), Dim::DstIp, 8) {
        if !tree.is_terminal(k, 8) {
            tree.cut_node(k, Dim::SrcPort, 4);
        }
    }
    // Insert a shadowing rule, delete it again, and delete some
    // original rules outright.
    let top = tree.rules().iter().map(|r| r.priority).max().unwrap();
    let id = updates::insert_rule(&mut tree, Rule::default_rule(top + 1));
    updates::delete_rule(&mut tree, id).unwrap();
    for victim in [0usize, 7, 42] {
        if tree.is_active(victim) {
            updates::delete_rule(&mut tree, victim).unwrap();
        }
    }
    let flat = FlatTree::compile(&tree);
    assert_eq!(flat.num_rules(), tree.num_active_rules());
    // Rule ids in the tree no longer line up with the rule set
    // (deletions), so compare the tree-side paths only.
    let trace = generate_trace(&rules, &TraceConfig::new(400).with_seed(22));
    assert_all_paths_agree(&tree, None, &trace);
    for p in &trace {
        assert_ne!(flat.classify(p), Some(id), "deleted rule resurfaced at {p}");
    }
}

/// Expand `tree` with `steps` random operations covering all five node
/// kinds (the invariants suite exercises structure; here the point is
/// serving-path parity on every kind, including DenseCut/MultiCut).
fn random_expand_all_kinds(tree: &mut DecisionTree, rng: &mut ChaCha8Rng, steps: usize) {
    for _ in 0..steps {
        let leaves: Vec<usize> = tree
            .leaf_ids()
            .filter(|&id| tree.node(id).num_rules() > 2 && tree.is_separable(id))
            .collect();
        let Some(&id) = leaves.as_slice().choose(rng) else { return };
        let dims: Vec<Dim> = classbench::DIMS
            .iter()
            .copied()
            .filter(|&d| tree.node(id).space.range(d).len() >= 4)
            .collect();
        let Some(&dim) = dims.as_slice().choose(rng) else { continue };
        match rng.gen_range(0..5) {
            0 => {
                let ncuts = *[2usize, 4, 8, 16].choose(rng).unwrap();
                tree.cut_node(id, dim, ncuts);
            }
            1 => {
                let second: Vec<Dim> = dims.iter().copied().filter(|&d| d != dim).collect();
                match second.as_slice().choose(rng) {
                    Some(&d2) => tree.multicut_node(id, &[(dim, 2), (d2, 2)]),
                    None => tree.cut_node(id, dim, 2),
                };
            }
            2 => {
                // Quartile bounds: strictly increasing for any len >= 4.
                let range = *tree.node(id).space.range(dim);
                let len = range.len();
                tree.dense_cut_node(
                    id,
                    dim,
                    vec![range.lo, range.lo + len / 4, range.lo + len / 2, range.hi],
                );
            }
            3 => {
                let range = *tree.node(id).space.range(dim);
                let t = rng.gen_range(range.lo + 1..range.hi);
                tree.split_node(id, dim, t);
            }
            _ => {
                let rules = tree.rules_at(id).to_vec();
                let k = rng.gen_range(1..rules.len());
                let (a, b) = rules.split_at(k);
                tree.partition_node(id, vec![a.to_vec(), b.to_vec()]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_serving_paths_agree_on_random_trees(seed in 0u64..1000, steps in 1usize..20) {
        let rules = generate_rules(
            &GeneratorConfig::new(ClassifierFamily::Fw, 100).with_seed(seed));
        let mut tree = DecisionTree::new(&rules);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e41);
        random_expand_all_kinds(&mut tree, &mut rng, steps);

        let snap = snapshot_of(&tree);
        let flat = snap.flat();
        prop_assert_eq!(flat.num_nodes(), tree.num_nodes());

        // Random valid packets plus a rule-biased trace.
        let mut prng = ChaCha8Rng::seed_from_u64(seed ^ 0xbead);
        let mut trace: Vec<Packet> = (0..60)
            .map(|_| Packet::new(
                prng.gen_range(0..1u64 << 32),
                prng.gen_range(0..1u64 << 32),
                prng.gen_range(0..1u64 << 16),
                prng.gen_range(0..1u64 << 16),
                prng.gen_range(0..256),
            ))
            .collect();
        trace.extend(generate_trace(&rules, &TraceConfig::new(60).with_seed(seed)));

        let mut batch = vec![None; trace.len()];
        flat.classify_batch(&trace, &mut batch);
        let mut sharded = vec![None; trace.len()];
        snap.classify_sharded(&trace, &mut sharded, 3);
        for (i, p) in trace.iter().enumerate() {
            let arena = tree.classify(p);
            prop_assert_eq!(arena, rules.classify(p), "tree vs ground truth at {}", p);
            prop_assert_eq!(flat.classify(p), arena, "flat vs tree at {}", p);
            prop_assert_eq!(batch[i], arena, "batch vs tree at {}", p);
            prop_assert_eq!(sharded[i], arena, "sharded vs tree at {}", p);
        }
    }
}
