//! Workspace-level property tests: randomised rule sets, packets, and
//! builder choices must never break the classification invariant.

use baselines::Baseline;
use classbench::{generate_rules, ClassifierFamily, Dim, GeneratorConfig};
use proptest::prelude::*;

mod common;
use common::{arb_packet, arb_rule, arb_ruleset};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_hicuts_matches_linear_scan(
        rules in arb_ruleset(40),
        packets in proptest::collection::vec(arb_packet(), 30))
    {
        let tree = Baseline::HiCuts.build_tree(&rules);
        for p in &packets {
            prop_assert_eq!(tree.classify(p), rules.classify(p), "at {}", p);
        }
    }

    #[test]
    fn prop_hypersplit_matches_linear_scan(
        rules in arb_ruleset(40),
        packets in proptest::collection::vec(arb_packet(), 30))
    {
        let tree = Baseline::HyperSplit.build_tree(&rules);
        for p in &packets {
            prop_assert_eq!(tree.classify(p), rules.classify(p), "at {}", p);
        }
    }

    #[test]
    fn prop_efficuts_matches_linear_scan(
        rules in arb_ruleset(40),
        packets in proptest::collection::vec(arb_packet(), 30))
    {
        let tree = Baseline::EffiCuts.build_tree(&rules);
        for p in &packets {
            prop_assert_eq!(tree.classify(p), rules.classify(p), "at {}", p);
        }
    }

    #[test]
    fn prop_cutsplit_matches_linear_scan(
        rules in arb_ruleset(40),
        packets in proptest::collection::vec(arb_packet(), 30))
    {
        let tree = Baseline::CutSplit.build_tree(&rules);
        for p in &packets {
            prop_assert_eq!(tree.classify(p), rules.classify(p), "at {}", p);
        }
    }

    #[test]
    fn prop_updates_preserve_invariant(
        seed in 0u64..50,
        extra in arb_rule(1_000_000),
        packets in proptest::collection::vec(arb_packet(), 20))
    {
        let rules = generate_rules(
            &GeneratorConfig::new(ClassifierFamily::Acl, 60).with_seed(seed));
        let mut tree = Baseline::HiCuts.build_tree(&rules);
        let id = dtree::updates::insert_rule(&mut tree, extra);
        for p in &packets {
            prop_assert_eq!(tree.classify(p), tree.linear_classify(p), "after insert at {}", p);
        }
        dtree::updates::delete_rule(&mut tree, id).unwrap();
        for p in &packets {
            prop_assert_eq!(tree.classify(p), rules.classify(p), "after delete at {}", p);
        }
    }

    #[test]
    fn prop_rule_matching_is_geometric(rule in arb_rule(0), packet in arb_packet()) {
        // A rule matches iff the packet is inside in every dimension —
        // matching must equal the per-dimension containment conjunction.
        let expect = classbench::DIMS.iter().all(|&d| {
            rule.range(d).contains(packet.value(d))
        });
        prop_assert_eq!(rule.matches(&packet), expect);
        let _ = Dim::SrcIp; // keep the import exercised under cfg changes
    }
}
