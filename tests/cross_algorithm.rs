//! Cross-algorithm integration: all five baselines and NeuroCuts must
//! classify every probe identically to the linear-scan ground truth on
//! every family — the "perfect accuracy by construction" premise (§3.2).

use baselines::Baseline;
use classbench::{generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, TraceConfig};
use dtree::validate::assert_tree_valid;
use dtree::TreeStats;

#[test]
fn every_algorithm_matches_ground_truth_on_every_family() {
    for family in ClassifierFamily::ALL {
        let rules = generate_rules(&GeneratorConfig::new(family, 250).with_seed(200));
        let trace = generate_trace(&rules, &TraceConfig::new(300).with_seed(201));
        for b in Baseline::ALL {
            let (name, tree) = (b.name(), b.build_tree(&rules));
            assert_tree_valid(&tree, 200, 202);
            for p in &trace {
                assert_eq!(
                    tree.classify(p),
                    rules.classify(p),
                    "{name} on {family} disagrees at {p}"
                );
            }
        }
    }
}

#[test]
fn expected_shape_relationships_hold() {
    // The qualitative relationships the paper's Figures 8/9 rest on,
    // aggregated over seeds so individual instances may deviate.
    let mut hicuts_time = 0.0f64;
    let mut efficuts_time = 0.0f64;
    let mut hicuts_space = 0.0f64;
    let mut efficuts_space = 0.0f64;
    for seed in 0..3u64 {
        let rules =
            generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 400).with_seed(seed));
        let hi = TreeStats::compute(&Baseline::HiCuts.build_tree(&rules));
        let ef = TreeStats::compute(&Baseline::EffiCuts.build_tree(&rules));
        hicuts_time += hi.time as f64;
        efficuts_time += ef.time as f64;
        hicuts_space += hi.bytes_per_rule;
        efficuts_space += ef.bytes_per_rule;
    }
    // EffiCuts trades classification time for much less memory.
    assert!(
        efficuts_space < hicuts_space,
        "EffiCuts {efficuts_space} should use less memory than HiCuts {hicuts_space}"
    );
    assert!(
        efficuts_time >= hicuts_time * 0.7,
        "EffiCuts should not also dominate time on FW sets"
    );
}

#[test]
fn all_families_and_algorithms_have_sane_stats() {
    for family in ClassifierFamily::ALL {
        let rules = generate_rules(&GeneratorConfig::new(family, 200).with_seed(203));
        for b in Baseline::ALL {
            let (name, stats) = (b.name(), TreeStats::compute(&b.build_tree(&rules)));
            assert!(stats.time >= 1, "{name}/{family}");
            assert!(stats.nodes >= 1);
            assert!(stats.leaves >= 1);
            assert!(stats.bytes_per_rule.is_finite());
            assert!(stats.replication >= 0.99, "{name}/{family}: {stats}");
        }
    }
}
