//! Differential suite for the skewed traffic generators: seed
//! determinism is pinned with golden trace hashes, and skewed traffic
//! classifies identically to the linear-scan ground truth through
//! every algorithm's [`Classifier`] — skew changes *which* packets
//! arrive, never *what* they match.

use baselines::Classifier;
use classbench::{
    generate_rules, generate_skewed_trace, generate_trace, trace_hash, ClassifierFamily,
    GeneratorConfig, SkewedTraceConfig, TraceConfig, TrafficSkew,
};
use neurocuts::NeuroCutsConfig;

/// Golden `trace_hash` values for acl/300/seed 0 rules with trace
/// seed 42 and 512 packets. These pin the generators' byte-for-byte
/// output across refactors and platforms (the default Zipf exponent
/// avoids `powf` precisely so these stay stable); regenerating them
/// means every committed `BENCH_sweep.json` trace identity changes,
/// so treat a mismatch as a bug unless the generator intentionally
/// changed.
const GOLDEN_UNIFORM: u64 = 0x73de_3a19_fd2e_5deb;
const GOLDEN_ZIPF: u64 = 0x062a_5562_261c_34d8;
const GOLDEN_LOCALITY: u64 = 0xbf54_2383_b871_d59c;

const SKEWS: [TrafficSkew; 3] = [TrafficSkew::Uniform, TrafficSkew::ZIPF, TrafficSkew::LOCALITY];

fn golden_rules() -> classbench::RuleSet {
    generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 300).with_seed(0))
}

fn skewed(rules: &classbench::RuleSet, skew: TrafficSkew, seed: u64) -> Vec<classbench::Packet> {
    generate_skewed_trace(rules, &SkewedTraceConfig::new(512, skew).with_seed(seed))
}

#[test]
fn golden_hashes_pin_generator_output() {
    let rules = golden_rules();
    for (skew, golden) in [
        (TrafficSkew::Uniform, GOLDEN_UNIFORM),
        (TrafficSkew::ZIPF, GOLDEN_ZIPF),
        (TrafficSkew::LOCALITY, GOLDEN_LOCALITY),
    ] {
        let h = trace_hash(&skewed(&rules, skew, 42));
        assert_eq!(
            h,
            golden,
            "{} trace hash drifted: got {h:#018x}, golden {golden:#018x}",
            skew.tag()
        );
    }
}

#[test]
fn same_seed_reproduces_different_seed_diverges() {
    let rules = golden_rules();
    for skew in SKEWS {
        let a = skewed(&rules, skew, 7);
        let b = skewed(&rules, skew, 7);
        assert_eq!(a, b, "{}: same seed must reproduce the trace", skew.tag());
        let c = skewed(&rules, skew, 8);
        assert_ne!(trace_hash(&a), trace_hash(&c), "{}: different seeds must diverge", skew.tag());
    }
}

/// The three skews generate *different* traffic from each other (same
/// seed, same rules) — otherwise the sweep's skew axis measures
/// nothing.
#[test]
fn skews_generate_distinct_traffic() {
    let rules = golden_rules();
    let hashes: Vec<u64> = SKEWS.iter().map(|&s| trace_hash(&skewed(&rules, s, 42))).collect();
    assert_ne!(hashes[0], hashes[1], "uniform vs zipf");
    assert_ne!(hashes[0], hashes[2], "uniform vs locality");
    assert_ne!(hashes[1], hashes[2], "zipf vs locality");
}

/// Skew must not perturb classification semantics: every classifier
/// answers skewed traffic exactly as the linear scan does, and the
/// uniform skew variant agrees packet-for-packet with whatever the
/// classifier says about the plain uniform generator's packets.
#[test]
fn skewed_traffic_classifies_identically_to_ground_truth() {
    let rules = golden_rules();
    let cfg = NeuroCutsConfig::smoke_test();
    let classifiers: Vec<Classifier> = nc_bench::CLASSIFIER_NAMES
        .iter()
        .map(|n| nc_bench::build_classifier(n, &rules, &cfg))
        .collect();

    // Plain uniform trace: the pre-existing ground-truth path.
    let uniform = generate_trace(&rules, &TraceConfig::new(256).with_seed(9));
    for c in &classifiers {
        for p in &uniform {
            assert_eq!(c.classify(p), rules.classify(p), "{} uniform at {p}", c.name());
        }
    }

    // Skewed traces: same contract, scalar and batch.
    for skew in SKEWS {
        let trace = skewed(&rules, skew, 9);
        let truth: Vec<_> = trace.iter().map(|p| rules.classify(p)).collect();
        assert!(truth.iter().all(|t| t.is_some()), "{}: skewed packets hit rules", skew.tag());
        for c in &classifiers {
            let mut batch = vec![None; trace.len()];
            c.classify_batch(&trace, &mut batch);
            for (i, p) in trace.iter().enumerate() {
                assert_eq!(
                    c.classify(p),
                    truth[i],
                    "{} scalar on {} trace at {p}",
                    c.name(),
                    skew.tag()
                );
                assert_eq!(batch[i], truth[i], "{} batch on {} trace at {p}", c.name(), skew.tag());
            }
        }
    }
}

/// `TrafficSkew::parse` round-trips every tag the sweep emits.
#[test]
fn skew_tags_round_trip() {
    for skew in SKEWS {
        assert_eq!(TrafficSkew::parse(skew.tag()), Some(skew));
    }
    assert_eq!(TrafficSkew::parse("zipf:1.3"), Some(TrafficSkew::Zipf { exponent: 1.3 }));
    assert_eq!(
        TrafficSkew::parse("locality:8x16"),
        Some(TrafficSkew::LocalityBurst { working_set: 8, burst: 16 })
    );
    assert_eq!(TrafficSkew::parse("bursty"), None);
}
