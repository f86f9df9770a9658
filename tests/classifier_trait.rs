//! Conformance suite for the unified [`Classifier`] trait: every
//! implementation (the five hand-tuned baselines plus NeuroCuts) must
//! agree with the linear-scan ground truth on scalar *and* batch
//! paths, and report sane build statistics.
//!
//! The baselines run under full proptest randomisation; NeuroCuts
//! (which trains per case) runs on generated ClassBench rule sets with
//! randomised seeds and a smoke-scale budget.

use baselines::{build_baseline_classifier, Classifier, BASELINE_CLASSIFIERS};
use classbench::{
    generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, Packet, RuleSet, TraceConfig,
};
use neurocuts::{NeuroCutsClassifier, NeuroCutsConfig};
use proptest::prelude::*;

mod common;
use common::{arb_packet, arb_ruleset};

/// The shared conformance contract: scalar classify, batch classify,
/// and the linear scan must agree packet-for-packet, and the reported
/// stats must satisfy the trait's invariants.
fn assert_conforms(c: &dyn Classifier, rules: &RuleSet, packets: &[Packet]) {
    let name = c.name();
    let mut batch = vec![None; packets.len()];
    c.classify_batch(packets, &mut batch);
    for (i, p) in packets.iter().enumerate() {
        let scalar = c.classify(p);
        assert_eq!(scalar, rules.classify(p), "{name} scalar vs linear scan at {p}");
        assert_eq!(batch[i], scalar, "{name} batch vs scalar at {p}");
    }

    let s = c.stats();
    assert!(s.time() >= 1, "{name}: time {} < 1", s.time());
    assert!(s.tree.nodes >= 1, "{name}: no nodes");
    // `max_depth` counts edges, so a root-only tree reports 0; it can
    // never reach the node count.
    assert!(s.tree.max_depth < s.tree.nodes, "{name}: max_depth ≥ nodes");
    assert!(s.tree.leaves >= 1, "{name}: no leaves");
    assert!(s.tree.bytes > 0, "{name}: zero tree bytes");
    assert!(
        s.tree.bytes_per_rule.is_finite() && s.tree.bytes_per_rule > 0.0,
        "{name}: bytes_per_rule {} not positive-finite",
        s.tree.bytes_per_rule
    );
    assert!(s.resident_bytes > 0, "{name}: zero resident bytes");
    assert!(s.build_secs >= 0.0, "{name}: negative build time");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All five baseline implementations conform on fully random rule
    /// sets and uniformly random packets (including packets far from
    /// any generated trace).
    #[test]
    fn prop_baseline_classifiers_conform(
        rules in arb_ruleset(40),
        packets in proptest::collection::vec(arb_packet(), 40))
    {
        for name in BASELINE_CLASSIFIERS {
            let c = build_baseline_classifier(name, &rules).expect("known baseline");
            prop_assert_eq!(c.name(), name);
            assert_conforms(c.as_ref(), &rules, &packets);
        }
    }
}

proptest! {
    // Each case trains a policy, so keep the case count small; the
    // seed randomisation still varies rules and traffic across runs.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// NeuroCuts conforms on generated rule sets: trace packets (which
    /// hit rules) plus random packets (which mostly miss).
    #[test]
    fn prop_neurocuts_classifier_conforms(
        seed in 0u64..64,
        random_packets in proptest::collection::vec(arb_packet(), 20))
    {
        let rules = generate_rules(
            &GeneratorConfig::new(ClassifierFamily::Acl, 60).with_seed(seed));
        let mut packets =
            generate_trace(&rules, &TraceConfig::new(60).with_seed(seed ^ 0xffff));
        packets.extend(random_packets);
        let c = NeuroCutsClassifier::train(&rules, NeuroCutsConfig::smoke_test())
            .expect("trainable rule set");
        prop_assert_eq!(c.name(), "NeuroCuts");
        assert_conforms(&c, &rules, &packets);
    }
}

/// One deterministic pass over all six implementations through the
/// bench harness factory — the exact objects `bench_sweep` measures.
#[test]
fn all_six_classifiers_conform_via_factory() {
    for family in ClassifierFamily::ALL {
        let rules = generate_rules(&GeneratorConfig::new(family, 120).with_seed(7));
        let trace = generate_trace(&rules, &TraceConfig::new(256).with_seed(8));
        let cfg = NeuroCutsConfig::smoke_test();
        for name in nc_bench::CLASSIFIER_NAMES {
            let c = nc_bench::build_classifier(name, &rules, &cfg);
            assert_eq!(c.name(), name);
            let mut batch = vec![None; trace.len()];
            c.classify_batch(&trace, &mut batch);
            for (i, p) in trace.iter().enumerate() {
                let scalar = c.classify(p);
                assert_eq!(scalar, rules.classify(p), "{name} scalar at {p}");
                assert_eq!(batch[i], scalar, "{name} batch at {p}");
            }
            assert!(c.stats().time() >= 1, "{name}");
            assert!(c.stats().resident_bytes > 0, "{name}");
        }
    }
}
