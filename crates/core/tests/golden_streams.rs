//! Golden decision-stream / tree-hash differential suite.
//!
//! The tree builder's determinism contract (PR 4, extended by the
//! arena-backed rule store): for a fixed `(rules, net, seed)` the
//! episode's decision stream, the resulting tree structure, and every
//! node's rule list are **bit-identical** regardless of how the builder
//! is implemented internally — child assignment is a pure filter of the
//! parent's precedence-ordered rule list.
//!
//! Three layers of enforcement:
//!
//! 1. **Golden hashes**: greedy (argmax) episodes for four ClassBench
//!    rule sets × all three partition modes are hashed (actions + node
//!    kinds + children + rule lists + spaces — integers only, so the
//!    constants are platform-stable) and pinned. Any change to the
//!    builder that alters a decision stream or an assigned rule set
//!    trips these.
//! 2. **Reference re-derivation**: every expanded node's child rule
//!    lists are recomputed with the *old scalar reference path* — the
//!    per-child `space.intersects_rule` filter over the parent's list —
//!    and compared to what the builder actually stored.
//! 3. **Scalar/vecenv agreement** on sampled episodes across all
//!    families and partition modes (extends the PR 4 bit-identity pins,
//!    which cover one family).

use classbench::{generate_rules, ClassifierFamily, GeneratorConfig};
use dtree::{DecisionTree, NodeKind};
use neurocuts::{NeuroCutsConfig, NeuroCutsEnv, PartitionMode, VecEnv};
use nn::{NetConfig, PolicyValueNet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rl::RolloutBatch;

/// FNV-1a over u64 words: stable, dependency-free, platform-independent.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: u64) {
        let mut h = self.0;
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// The four pinned rule sets: one per ClassBench family plus a second
/// ACL variant (different seed and size), so both specific-prefix and
/// wildcard-heavy geometries are covered.
fn rule_sets() -> Vec<(&'static str, classbench::RuleSet)> {
    vec![
        ("acl", generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 40).with_seed(11))),
        ("fw", generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 36).with_seed(12))),
        ("ipc", generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 40).with_seed(13))),
        ("acl2", generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 64).with_seed(14))),
    ]
}

const MODES: [(&str, PartitionMode); 3] = [
    ("none", PartitionMode::None),
    ("simple", PartitionMode::Simple),
    ("efficuts", PartitionMode::EffiCuts),
];

fn env_and_net(rules: &classbench::RuleSet, mode: PartitionMode) -> (NeuroCutsEnv, PolicyValueNet) {
    let mut cfg = NeuroCutsConfig::smoke_test().with_partition_mode(mode);
    // An untrained argmax policy happily builds 100-deep trees; a tight
    // depth cap keeps greedy episodes small without losing coverage of
    // any expansion kind.
    cfg.max_tree_depth = 6;
    let env = NeuroCutsEnv::new(rules.clone(), cfg);
    let mut rng = ChaCha8Rng::seed_from_u64(0xD00D);
    let net = PolicyValueNet::new(
        NetConfig {
            obs_dim: env.encoder.obs_dim(),
            dim_actions: env.action_space.dim_actions(),
            num_actions: env.action_space.num_actions(),
            hidden: [32, 32],
        },
        &mut rng,
    );
    (env, net)
}

/// Hash everything the determinism contract promises: the decision
/// stream (actions in order) and the full tree (kinds, children,
/// spaces, depths, rule lists). Integers only — no floats — so the
/// golden constants do not depend on libm.
fn episode_fingerprint(tree: &DecisionTree, actions: &[(usize, usize)]) -> u64 {
    let mut h = Fnv::new();
    h.push(actions.len() as u64);
    for &(d, a) in actions {
        h.push(d as u64);
        h.push(a as u64);
    }
    h.push(tree.num_nodes() as u64);
    for id in 0..tree.num_nodes() {
        let node = tree.node(id);
        let kind_tag = match &node.kind {
            NodeKind::Leaf => 0u64,
            NodeKind::Cut { dim, ncuts, .. } => 1 + 8 * (dim.index() as u64 * 64 + *ncuts as u64),
            NodeKind::MultiCut { dims, .. } => 2 + 8 * dims.len() as u64,
            NodeKind::DenseCut { dim, bounds, .. } => {
                3 + 8 * (dim.index() as u64 * 64 + bounds.len() as u64)
            }
            NodeKind::Split { dim, threshold, .. } => 4 + 8 * (dim.index() as u64 + 5 * *threshold),
            NodeKind::Partition { .. } => 5,
        };
        h.push(kind_tag);
        h.push(node.kind.children().len() as u64);
        for &c in node.kind.children() {
            h.push(c as u64);
        }
        h.push(node.depth as u64);
        for r in &node.space.ranges {
            h.push(r.lo);
            h.push(r.hi);
        }
        let rules = tree.rules_at(id);
        h.push(rules.len() as u64);
        for &r in rules {
            h.push(r as u64);
        }
    }
    h.0
}

/// Build one greedy episode and fingerprint it.
fn greedy_fingerprint(env: &NeuroCutsEnv, net: &PolicyValueNet) -> u64 {
    let ep = env.build_tree(net, 0, true);
    let actions: Vec<(usize, usize)> =
        ep.samples.iter().map(|s| (s.dim_action, s.act_action)).collect();
    episode_fingerprint(&ep.tree, &actions)
}

/// The old scalar reference path: re-derive every expanded node's child
/// rule lists with the per-child intersection filter and compare with
/// what the builder stored. Partition children are instead checked to
/// be a disjoint cover in precedence order.
fn assert_children_match_reference(tree: &DecisionTree) {
    for id in 0..tree.num_nodes() {
        let node = tree.node(id);
        let parent_rules = tree.rules_at(id);
        match &node.kind {
            NodeKind::Leaf => {}
            NodeKind::Partition { children } => {
                let mut all: Vec<usize> =
                    children.iter().flat_map(|&c| tree.rules_at(c).to_vec()).collect();
                all.sort_unstable();
                let mut expected = parent_rules.to_vec();
                expected.sort_unstable();
                assert_eq!(all, expected, "partition node {id} children don't cover the parent");
                for &c in children {
                    let rules = tree.rules_at(c);
                    for w in rules.windows(2) {
                        assert!(
                            tree.precedes(w[0], w[1]),
                            "partition child {c} not in precedence order"
                        );
                    }
                }
            }
            other => {
                // Reconstruct each child's space from the stored child
                // nodes (spaces are part of the golden fingerprint, so
                // they are themselves pinned) and re-filter.
                for &c in other.children() {
                    let child = tree.node(c);
                    let reference: Vec<usize> = parent_rules
                        .iter()
                        .copied()
                        .filter(|&r| tree.is_active(r) && child.space.intersects_rule(tree.rule(r)))
                        .collect();
                    let stored = tree.rules_at(c);
                    // `truncate_covered` may have dropped a suffix of the
                    // reference list; the stored list must be a prefix.
                    assert!(
                        stored.len() <= reference.len() && stored == &reference[..stored.len()],
                        "node {c}: stored rules {stored:?} are not a prefix of the reference \
                         filter {reference:?}"
                    );
                }
            }
        }
    }
}

fn batch_fingerprint(batch: &RolloutBatch) -> u64 {
    let mut h = Fnv::new();
    h.push(batch.samples.len() as u64);
    for s in &batch.samples {
        h.push(s.dim_action as u64);
        h.push(s.act_action as u64);
        h.push(s.log_prob.to_bits() as u64);
        h.push(s.reward.to_bits() as u64);
        for &o in &s.obs {
            h.push(o.to_bits() as u64);
        }
    }
    h.0
}

/// Golden constants captured from the pre-arena scalar builder; the
/// arena-backed builder must reproduce every one bit-for-bit.
/// Ordered as `rule_sets()` × `MODES`.
const GOLDEN_GREEDY: [(&str, &str, u64); 12] = [
    ("acl", "none", 0xf33b59e21f992a71),
    ("acl", "simple", 0xf33b59e21f992a71),
    ("acl", "efficuts", 0x3a9b76f85f095149),
    ("fw", "none", 0x0da7671c0d8076f7),
    ("fw", "simple", 0x0da7671c0d8076f7),
    ("fw", "efficuts", 0x7d0112f75fc102e7),
    ("ipc", "none", 0x7e23a518fcdd2ae2),
    ("ipc", "simple", 0x7e23a518fcdd2ae2),
    ("ipc", "efficuts", 0xf6df11957ded7985),
    ("acl2", "none", 0x188eb39c97ca1942),
    ("acl2", "simple", 0x188eb39c97ca1942),
    ("acl2", "efficuts", 0x70a19640519b14f9),
];

#[test]
fn greedy_streams_match_golden_hashes() {
    let sets = rule_sets();
    let mut idx = 0;
    let mut failures = Vec::new();
    for (fam, rules) in &sets {
        for (mode_name, mode) in MODES {
            let (env, net) = env_and_net(rules, mode);
            let got = greedy_fingerprint(&env, &net);
            let (gf, gm, want) = GOLDEN_GREEDY[idx];
            assert_eq!((gf, gm), (*fam, mode_name), "golden table out of order");
            if got != want {
                failures.push(format!("    (\"{fam}\", \"{mode_name}\", {got:#018x}),"));
            }
            idx += 1;
        }
    }
    assert!(
        failures.is_empty(),
        "golden decision-stream hashes changed; if the change is intended, update the table:\n{}",
        failures.join("\n")
    );
}

#[test]
fn builder_children_match_scalar_reference_filter() {
    for (fam, rules) in &rule_sets() {
        for (mode_name, mode) in MODES {
            let (env, net) = env_and_net(rules, mode);
            // One greedy and two sampled episodes per configuration.
            for (seed, greedy) in [(0, true), (7, false), (8, false)] {
                let ep = env.build_tree(&net, seed, greedy);
                assert_children_match_reference(&ep.tree);
                dtree::validate::assert_tree_valid(&ep.tree, 30, 9);
                let _ = (fam, mode_name);
            }
        }
    }
}

#[test]
fn scalar_and_vecenv_streams_agree_for_all_families_and_modes() {
    for (_fam, rules) in &rule_sets() {
        for (_mode_name, mode) in MODES {
            let (env, net) = env_and_net(rules, mode);
            let batch = VecEnv::new(env.clone(), 1, 4242).collect(&net, 30, 1);
            let mut scalar = RolloutBatch::default();
            let mut k = 0u64;
            while scalar.len() < 30 {
                let ep = env.build_tree(&net, 4242 + k, false);
                scalar.push_episode(ep.samples, -ep.objective);
                k += 1;
            }
            assert_eq!(batch_fingerprint(&batch), batch_fingerprint(&scalar));
        }
    }
}
