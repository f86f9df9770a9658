//! Classifier updates without retraining (§4, "Handling classifier
//! updates"): add access-control rules for new devices into an
//! existing learned tree, delete stale ones, and rebuild only when the
//! accumulated churn crosses a threshold.
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, Dim, DimRange, GeneratorConfig, Rule,
    TraceConfig,
};
use dtree::updates::{delete_rule, insert_rule, UpdateLog};
use dtree::validate::validate_tree;
use dtree::TreeStats;
use neurocuts::{NeuroCutsConfig, Trainer};

fn main() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 200).with_seed(5));
    let cfg = NeuroCutsConfig::small(12_000);
    let mut trainer = Trainer::new(rules.clone(), cfg).expect("trainable rule set");
    let (tree, _, _) = trainer.train_to_tree().expect("training makes progress");
    // Updates mutate the tree in place, so take it out of the shared
    // best-tree snapshot (clones only if the record still holds it).
    let mut tree = std::sync::Arc::unwrap_or_clone(tree);
    println!("trained tree: {}", TreeStats::compute(&tree));

    // New devices come online: add one high-priority allow rule each.
    let top = tree.rules().iter().map(|r| r.priority).max().unwrap();
    let mut log = UpdateLog::default();
    let mut added = Vec::new();
    for i in 0..20u64 {
        let mut r = Rule::default_rule(top + 1 + i as i32);
        r.ranges[Dim::SrcIp.index()] = DimRange::from_prefix(0xc0a80000 + (i << 8), 24, 32); // 192.168.i.0/24
        r.ranges[Dim::DstPort.index()] = DimRange::exact(443);
        added.push(insert_rule(&mut tree, r));
        log.inserted += 1;
    }
    println!("inserted {} device rules in place", log.inserted);

    // A packet from a new device now matches its rule.
    let p = classbench::Packet::new(0xc0a80001, 0, 12345, 443, 6);
    assert_eq!(tree.classify(&p), Some(added[0]));

    // Devices decommissioned: delete half the new rules.
    for &id in added.iter().step_by(2) {
        delete_rule(&mut tree, id).expect("rule is active");
        log.deleted += 1;
    }
    println!("deleted {} rules in place", log.deleted);
    assert_ne!(tree.classify(&p), Some(added[0]));

    // The updated tree still classifies perfectly.
    let violations = validate_tree(&tree, 2000, 0);
    assert!(violations.is_empty(), "updates broke the tree: {violations:?}");
    let trace = generate_trace(&rules, &TraceConfig::new(5000));
    for pkt in &trace {
        assert_eq!(tree.classify(pkt), tree.linear_classify(pkt));
    }
    println!("validated: tree lookup ≡ linear scan after all updates");

    // Rebuild policy: retrain once churn is large (the paper: "when
    // enough small updates accumulate ... NeuroCuts re-runs training").
    let churn = log.churn(tree.num_active_rules());
    println!("accumulated churn: {:.1}% of active rules", churn * 100.0);
    if churn > 0.10 {
        println!("churn over 10% -> this is where a production deployment would retrain");
    }
}
