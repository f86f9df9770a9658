//! End-to-end integration: the full pipeline from rule generation
//! through training to a validated, deployable tree, spanning every
//! crate in the workspace.

use baselines::{build_hicuts, Baseline};
use classbench::{
    generate_rules, generate_trace, parse_rules, write_rules, ClassifierFamily, GeneratorConfig,
    TraceConfig,
};
use dtree::stats::{subtree_bytes, subtree_metrics, subtree_time, RULE_TABLE_ENTRY_BYTES};
use dtree::validate::assert_tree_valid;
use dtree::{DecisionTree, NodeKind, TreeStats};
use neurocuts::{NeuroCutsConfig, PartitionMode, Trainer};

#[test]
fn generate_train_classify_pipeline() {
    // Generate -> serialise -> parse (the ClassBench interchange loop).
    let generated =
        generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 120).with_seed(100));
    let rules = parse_rules(&write_rules(&generated)).expect("format round-trips");
    assert_eq!(rules.len(), generated.len());

    // Train with a tiny budget.
    let mut trainer = Trainer::new(rules.clone(), NeuroCutsConfig::smoke_test()).unwrap();
    let (tree, _, _) = trainer.train_to_tree().unwrap();
    assert_tree_valid(&tree, 400, 101);

    // The learned tree and the baseline agree with the ground truth on
    // a realistic trace.
    let hicuts = build_hicuts(&rules);
    let trace = generate_trace(&rules, &TraceConfig::new(600).with_seed(102));
    for p in &trace {
        let truth = rules.classify(p);
        assert_eq!(tree.classify(p), truth);
        assert_eq!(hicuts.classify(p), truth);
    }
}

#[test]
fn trained_policy_transfers_within_same_rules() {
    // Checkpoint a policy, restore it into a fresh trainer, and verify
    // the greedy trees coincide — the deployment story for retraining
    // on classifier updates.
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 90).with_seed(103));
    let mut a = Trainer::new(rules.clone(), NeuroCutsConfig::smoke_test()).unwrap();
    let _ = a.step().unwrap();
    let ckpt = a.save_policy();
    let (_, sa) = a.greedy_tree();

    let mut b = Trainer::new(rules, NeuroCutsConfig::smoke_test()).unwrap();
    b.load_policy(&ckpt).unwrap();
    let (tb, sb) = b.greedy_tree();
    assert_eq!(sa, sb);
    assert_tree_valid(&tb, 300, 104);
}

#[test]
fn all_partition_modes_end_to_end() {
    for mode in [PartitionMode::None, PartitionMode::Simple, PartitionMode::EffiCuts] {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 80).with_seed(105));
        let cfg = NeuroCutsConfig::smoke_test().with_partition_mode(mode);
        let mut trainer = Trainer::new(rules.clone(), cfg).unwrap();
        let (tree, stats, _) = trainer.train_to_tree().unwrap();
        assert_tree_valid(&tree, 300, 106);
        assert!(stats.time >= 1, "{mode:?}");
    }
}

#[test]
fn space_objective_trains_smaller_trees_than_it_reports() {
    // Untrained-policy rollouts are heavy-tailed; scan a few seeds until
    // one training run completes a tree within the smoke budget.
    let best = (107u64..117)
        .find_map(|seed| {
            let rules =
                generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 80).with_seed(seed));
            let cfg = NeuroCutsConfig::smoke_test().with_coeff(0.0).with_seed(seed);
            Trainer::new(rules, cfg).unwrap().train().unwrap().best
        })
        .expect("at least one of ten seeds completes a tree");
    // c = 0 with log scaling: objective is log(bytes).
    let expect = (best.stats.bytes as f64
        - (RULE_TABLE_ENTRY_BYTES * best.tree.num_active_rules()) as f64)
        .max(1.0)
        .ln();
    assert!((best.objective - expect).abs() < 1e-6);
}

#[test]
fn stats_are_consistent_across_the_stack() {
    // The cost model's one reverse pass equals the recursive Eqs. 1–4
    // at every node, and `TreeStats` reads its root entry, on every
    // baseline's tree for each family and on a trained NeuroCuts tree:
    // cuts, multi-cuts, dense cuts, splits and partitions.
    let mut trees: Vec<(String, DecisionTree)> = Vec::new();
    for family in ClassifierFamily::ALL {
        let rules = generate_rules(&GeneratorConfig::new(family, 200).with_seed(108));
        for b in Baseline::ALL {
            trees.push((format!("{} on {family}", b.name()), b.build_tree(&rules)));
        }
    }
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 200).with_seed(109));
    let cfg = NeuroCutsConfig::smoke_test().with_partition_mode(PartitionMode::Simple);
    let (tree, _, _) = Trainer::new(rules, cfg).unwrap().train_to_tree().unwrap();
    trees.push(("NeuroCuts".to_string(), (*tree).clone()));

    let mut kinds = [false; 6];
    for (name, tree) in &trees {
        let (time, bytes) = subtree_metrics(tree);
        for (id, node) in tree.nodes().iter().enumerate() {
            assert_eq!(time[id], subtree_time(tree, id), "{name}: time at node {id}");
            assert_eq!(bytes[id], subtree_bytes(tree, id), "{name}: bytes at node {id}");
            kinds[match node.kind {
                NodeKind::Leaf => 0,
                NodeKind::Cut { .. } => 1,
                NodeKind::MultiCut { .. } => 2,
                NodeKind::DenseCut { .. } => 3,
                NodeKind::Split { .. } => 4,
                NodeKind::Partition { .. } => 5,
            }] = true;
        }
        let stats = TreeStats::compute(tree);
        assert_eq!(stats.time, time[tree.root()], "{name}");
        let table = RULE_TABLE_ENTRY_BYTES * tree.num_active_rules();
        assert_eq!(stats.bytes, bytes[tree.root()] + table, "{name}");
    }
    assert_eq!(kinds, [true; 6], "every node kind is covered");
}
