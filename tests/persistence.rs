//! Persistence integration: trees and policies must survive a
//! serialise/deserialise round trip bit-for-bit in behaviour — the
//! deployment path (train once, ship the tree).

use baselines::Baseline;
use classbench::{
    generate_rules, generate_trace, ClassifierFamily, Dim, GeneratorConfig, Rule, RuleSet,
    TraceConfig,
};
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

    // Well-formed JSON whose structure a lookup could not walk: each
    // edit of a valid tree is refused with an error naming the cause.
    let rules = RuleSet::new(vec![Rule::default_rule(1), Rule::default_rule(0)]);
    let refused = |tree: &DecisionTree, from: &str, to: &str, why: &str| {
        let json = tree.to_json();
        assert!(json.contains(from), "{from} is not in {json}");
        assert!(DecisionTree::from_json(&json).is_ok());
        let err = DecisionTree::from_json(&json.replacen(from, to, 1)).expect_err(to).to_string();
        assert!(err.contains(why), "{to}: {err}");
    };
    let mut cut = DecisionTree::new(&rules);
    cut.cut_node(cut.root(), Dim::DstPort, 2);
    let children = r#""children":[1,2]"#;
    refused(&cut, children, r#""children":[0,2]"#, "node 0: child 0 does not come after");
    refused(&cut, children, r#""children":[1,9]"#, "node 0: child 9 out of range");
    refused(&cut, r#""ncuts":2"#, r#""ncuts":3"#, "node 0: 2 children for 3 cuts");
    refused(&cut, r#""ncuts":2,"children":[1,2]"#, r#""ncuts":1,"children":[1]"#, "fewer than 2");
    refused(&cut, r#""rules":[0,1],"kind":"Leaf""#, r#""rules":[0,5],"kind":"Leaf""#, "rule id 5");
    refused(&cut, r#""active":[true,true]"#, r#""active":[true]"#, "`active` has 1 entries");
    refused(&cut, r#""root":0"#, r#""root":3"#, "root 3 out of range");
    // A rule range the leaf tables cannot hold: past its span, or inverted.
    let (ip, bad_ip) = (r#"{"lo":0,"hi":4294967296}"#, r#"{"lo":0,"hi":4294967297}"#);
    refused(&cut, ip, bad_ip, "rule 0: SrcIp range [0, 4294967297) exceeds");
    let (proto, bad) = (r#"{"lo":0,"hi":256}],"priority":0"#, r#"{"lo":7,"hi":6}],"priority":0"#);
    refused(&cut, proto, bad, "rule 1: Proto range [7, 6) has inverted");
    let mut multi = DecisionTree::new(&rules);
    multi.multicut_node(multi.root(), &[(Dim::DstPort, 2), (Dim::Proto, 2)]);
    refused(&multi, r#"[1,2,3,4]"#, r#"[1,2,3]"#, "node 0: 3 children for 4 cuts");
    let mut dense = DecisionTree::new(&rules);
    dense.dense_cut_node(dense.root(), Dim::DstPort, vec![0, 80, 65536]);
    refused(&dense, r#"[0,80,65536]"#, r#"[0,80,443,65536]"#, "node 0: 2 children for 3 cuts");
    // A depth or parent the file got wrong: level tables are sized from
    // the largest depth, so a huge one used to overflow an allocation.
    let leaf = r#""kind":"Leaf","depth":1,"parent":0"#;
    refused(
        &cut,
        leaf,
        r#""kind":"Leaf","depth":4611686018427387904,"parent":0"#,
        "node 1: parent",
    );
    refused(&cut, leaf, r#""kind":"Leaf","depth":1,"parent":null"#, "node 1: parent None");
    refused(&cut, r#""depth":0,"parent":null"#, r#""depth":0,"parent":2"#, "root 0: depth 0");
    // An interior node no node lists, at depth `usize::MAX`: refused
    // before its children's depths are compared with its own + 1 (which
    // overflows). The root lists its sibling and its second child
    // instead, and that child records the root as its parent.
    let mut deep = DecisionTree::new(&rules);
    let kids = deep.cut_node(deep.root(), Dim::DstPort, 2);
    deep.cut_node(kids[0], Dim::SrcPort, 2);
    let json = deep.to_json();
    assert!(DecisionTree::from_json(&json).is_ok());
    let (lower, last) = (r#""depth":2,"parent":1"#, r#""depth":1,"parent":0"#);
    let at = json.rfind(lower).expect(&json);
    let json = format!("{}{last}{}", &json[..at], &json[at + lower.len()..]);
    let json = json.replacen(r#""children":[1,2]"#, r#""children":[2,4]"#, 1);
    let json = json.replacen(last, r#""depth":18446744073709551615,"parent":0"#, 1);
    let err = DecisionTree::from_json(&json).expect_err(&json).to_string();
    assert!(err.contains("node 1: no node lists it"), "{err}");
}
