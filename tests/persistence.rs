//! Persistence integration: trees and policies must survive a
//! serialise/deserialise round trip bit-for-bit in behaviour — the
//! deployment path (train once, ship the tree).

use baselines::Baseline;
use classbench::{generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, TraceConfig};
use dtree::DecisionTree;

#[test]
fn tree_json_roundtrip_preserves_classification() {
    for family in ClassifierFamily::ALL {
        let rules = generate_rules(&GeneratorConfig::new(family, 200).with_seed(300));
        let tree = Baseline::HiCuts.build_tree(&rules);
        let restored = DecisionTree::from_json(&tree.to_json()).expect("round-trips");
        let trace = generate_trace(&rules, &TraceConfig::new(300).with_seed(301));
        for p in &trace {
            assert_eq!(tree.classify(p), restored.classify(p), "{family} at {p}");
        }
        assert_eq!(tree.num_nodes(), restored.num_nodes());
        assert_eq!(tree.num_active_rules(), restored.num_active_rules());
    }
}

#[test]
fn partitioned_tree_roundtrips() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 250).with_seed(302));
    for tree in [Baseline::EffiCuts.build_tree(&rules), Baseline::CutSplit.build_tree(&rules)] {
        let restored = DecisionTree::from_json(&tree.to_json()).unwrap();
        let trace = generate_trace(&rules, &TraceConfig::new(200).with_seed(303));
        for p in &trace {
            assert_eq!(tree.classify(p), restored.classify(p));
        }
    }
}

#[test]
fn updated_tree_roundtrips_with_inactive_rules() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 150).with_seed(304));
    let mut tree = Baseline::HiCuts.build_tree(&rules);
    let top = tree.rules().iter().map(|r| r.priority).max().unwrap();
    let id = dtree::updates::insert_rule(&mut tree, classbench::Rule::default_rule(top + 1));
    dtree::updates::delete_rule(&mut tree, id).unwrap();
    let restored = DecisionTree::from_json(&tree.to_json()).unwrap();
    assert!(!restored.is_active(id));
    let trace = generate_trace(&rules, &TraceConfig::new(200).with_seed(305));
    for p in &trace {
        assert_eq!(restored.classify(p), rules.classify(p));
    }
}

#[test]
fn corrupted_json_is_rejected() {
    assert!(DecisionTree::from_json("{}").is_err());
    assert!(DecisionTree::from_json("not json").is_err());
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 20).with_seed(306));
    let tree = Baseline::HiCuts.build_tree(&rules);
    let mut json = tree.to_json();
    json.truncate(json.len() / 2);
    assert!(DecisionTree::from_json(&json).is_err());
}
