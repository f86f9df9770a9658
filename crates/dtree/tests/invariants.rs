//! Structural property tests: arbitrary random expansion sequences must
//! preserve every tree invariant — arena consistency, space tiling,
//! rule assignment by intersection, and lookup ≡ linear scan, also
//! after deleting the covering rules of truncated leaves.

use classbench::{generate_rules, ClassifierFamily, Dim, GeneratorConfig, Packet, Rule};
use dtree::{ClassifierHandle, DecisionTree, NodeKind, RebuildPolicy, RuleId};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng as _, SeedableRng as _};
use rand_chacha::ChaCha8Rng;

/// Expand `tree` with `steps` random operations drawn from `rng`.
fn random_expand(tree: &mut DecisionTree, rng: &mut ChaCha8Rng, steps: usize) {
    for _ in 0..steps {
        let leaves: Vec<usize> = tree
            .leaf_ids()
            .filter(|&id| tree.node(id).num_rules() > 2 && tree.is_separable(id))
            .collect();
        let Some(&id) = leaves.as_slice().choose(rng) else { return };
        let dims: Vec<Dim> = classbench::DIMS
            .iter()
            .copied()
            .filter(|&d| tree.node(id).space.range(d).len() >= 2)
            .collect();
        let Some(&dim) = dims.as_slice().choose(rng) else { continue };
        match rng.gen_range(0..4) {
            0 => {
                let ncuts = *[2usize, 4, 8].choose(rng).unwrap();
                tree.cut_node(id, dim, ncuts);
            }
            1 => {
                let range = *tree.node(id).space.range(dim);
                if range.len() >= 3 {
                    let t = rng.gen_range(range.lo + 1..range.hi);
                    tree.split_node(id, dim, t);
                } else {
                    tree.cut_node(id, dim, 2);
                }
            }
            2 => {
                // Partition into two arbitrary non-empty subsets.
                let rules = tree.rules_at(id).to_vec();
                if rules.len() >= 2 {
                    let k = rng.gen_range(1..rules.len());
                    let (a, b) = rules.split_at(k);
                    tree.partition_node(id, vec![a.to_vec(), b.to_vec()]);
                }
            }
            _ => {
                let kids = tree.cut_node(id, dim, 2);
                for k in kids {
                    tree.truncate_covered(k);
                }
            }
        }
    }
}

/// Give `n` random leaves a rule covering exactly their space, ranked
/// among their rules, and truncate below it; half of them then get a
/// second covering rule ranked among the rules that truncation
/// dropped. Returns the new rules.
fn cover_and_truncate(tree: &mut DecisionTree, rng: &mut ChaCha8Rng, n: usize) -> Vec<RuleId> {
    let mut covering = Vec::new();
    for _ in 0..n {
        let leaves: Vec<usize> =
            tree.leaf_ids().filter(|&l| tree.node(l).num_rules() > 1).collect();
        let Some(&leaf) = leaves.as_slice().choose(rng) else { break };
        let under = *tree.rules_at(leaf).choose(rng).expect("a leaf with rules");
        let rule =
            Rule { ranges: tree.node(leaf).space.ranges, priority: tree.rule(under).priority };
        let cover = dtree::updates::insert_rule(tree, rule.clone());
        let listed = tree.rules_at(leaf).to_vec();
        tree.truncate_covered(leaf);
        covering.push(cover);
        let below: Vec<RuleId> = listed.into_iter().skip_while(|&r| r != cover).skip(1).collect();
        if let Some(&low) = below.choose(rng).filter(|_| rng.gen_bool(0.5)) {
            let priority = tree.rule(low).priority;
            covering.push(dtree::updates::insert_rule(tree, Rule { priority, ..rule }));
        }
    }
    covering
}

/// Delete `n` random active rules from `tree` and from `handle`, which
/// serves a copy of it; every other one is picked from `covering`
/// while any of those is active.
fn random_deletes(
    tree: &mut DecisionTree,
    handle: &ClassifierHandle,
    rng: &mut ChaCha8Rng,
    covering: &[RuleId],
    n: usize,
) {
    for k in 0..n {
        let active: Vec<RuleId> = (0..tree.rules().len()).filter(|&r| tree.is_active(r)).collect();
        let picked: Vec<RuleId> = covering.iter().copied().filter(|&r| tree.is_active(r)).collect();
        let pool = if k % 2 == 0 && !picked.is_empty() { picked } else { active };
        let Some(&id) = pool.as_slice().choose(rng) else { return };
        dtree::updates::delete_rule(tree, id).expect("an active rule deletes");
        handle.delete(id).expect("the handle deletes it too");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_random_expansions_keep_all_invariants(
        seed in 0u64..1000, steps in 1usize..25, deletes in 0usize..24)
    {
        let rules = generate_rules(
            &GeneratorConfig::new(ClassifierFamily::Ipc, 80).with_seed(seed));
        let mut tree = DecisionTree::new(&rules);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
        random_expand(&mut tree, &mut rng, steps);

        // (1) Arena consistency: children point back to their parent and
        // sit one level deeper; non-partition children tile the parent.
        for (id, node) in tree.nodes().iter().enumerate() {
            for &c in node.kind.children() {
                prop_assert_eq!(tree.node(c).parent, Some(id));
                prop_assert_eq!(tree.node(c).depth, node.depth + 1);
            }
            match &node.kind {
                NodeKind::Partition { children } => {
                    // Partition children share the parent's space and
                    // exactly cover its rules.
                    let mut all: Vec<usize> = children
                        .iter()
                        .flat_map(|&c| tree.rules_at(c).to_vec())
                        .collect();
                    all.sort_unstable();
                    let mut expect = tree.rules_at(id).to_vec();
                    expect.sort_unstable();
                    prop_assert_eq!(all, expect);
                    for &c in children {
                        prop_assert_eq!(tree.node(c).space, node.space);
                    }
                }
                k => {
                    // Space-dividing kinds: child volumes sum to parent.
                    let kids = k.children();
                    if !kids.is_empty() {
                        let vol: u128 =
                            kids.iter().map(|&c| tree.node(c).space.volume()).sum();
                        prop_assert_eq!(vol, node.space.volume());
                    }
                }
            }
        }

        // (2) Rule assignment: every leaf holds exactly the rules that
        // intersect its space, minus covered-rule truncation, which can
        // only *remove* shadowed rules (checked via lookup equivalence).
        for id in tree.leaf_ids() {
            let node = tree.node(id);
            for &r in tree.rules_at(id) {
                prop_assert!(node.space.intersects_rule(tree.rule(r)));
            }
        }

        // (3) Lookup equals the linear scan (includes the effect of
        // truncate_covered, which must never change results), also
        // after deleting the covering rules of truncated leaves, in
        // place and through a handle.
        let covering = cover_and_truncate(&mut tree, &mut rng, 4);
        let handle = ClassifierHandle::new(tree.clone(), RebuildPolicy::never());
        random_deletes(&mut tree, &handle, &mut rng, &covering, deletes);
        let snapshot = handle.snapshot();
        let mut prng = ChaCha8Rng::seed_from_u64(seed ^ 0x7777);
        let corners: Vec<Packet> = tree.rules().iter().map(|r| r.low_corner()).collect();
        for k in 0..40 + corners.len() {
            let p = corners.get(k).copied().unwrap_or_else(|| Packet::new(
                prng.gen_range(0..1u64 << 32),
                prng.gen_range(0..1u64 << 32),
                prng.gen_range(0..1u64 << 16),
                prng.gen_range(0..1u64 << 16),
                prng.gen_range(0..256),
            ));
            prop_assert_eq!(tree.classify(&p), tree.linear_classify(&p), "at {}", p);
            prop_assert_eq!(snapshot.classify(&p), tree.linear_classify(&p), "served at {}", p);
            // Traced lookup agrees with plain lookup.
            prop_assert_eq!(tree.classify_traced(&p).0, tree.classify(&p));
        }

        // (4) Serialisation round-trip preserves everything observable.
        let restored = DecisionTree::from_json(&tree.to_json()).unwrap();
        prop_assert_eq!(restored.num_nodes(), tree.num_nodes());
        let p = Packet::new(1, 2, 3, 4, 6);
        prop_assert_eq!(restored.classify(&p), tree.classify(&p));
    }

    #[test]
    fn prop_stats_sane_after_random_expansion(seed in 0u64..500, steps in 1usize..20) {
        let rules = generate_rules(
            &GeneratorConfig::new(ClassifierFamily::Acl, 60).with_seed(seed));
        let mut tree = DecisionTree::new(&rules);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9999);
        random_expand(&mut tree, &mut rng, steps);
        let stats = dtree::TreeStats::compute(&tree);
        prop_assert!(stats.time >= 1);
        prop_assert!(stats.max_depth < stats.nodes);
        prop_assert!(stats.leaves >= 1);
        prop_assert!(stats.bytes > 0);
        // Worst-case time bounds every individual lookup cost.
        let mut prng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..10 {
            let p = Packet::new(
                prng.gen_range(0..1u64 << 32),
                prng.gen_range(0..1u64 << 32),
                prng.gen_range(0..1u64 << 16),
                prng.gen_range(0..1u64 << 16),
                prng.gen_range(0..256),
            );
            prop_assert!(tree.classify_traced(&p).1 <= stats.time);
        }
    }
}
