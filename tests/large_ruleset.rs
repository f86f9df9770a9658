//! Nightly-scale smoke test: a 100k-rule `fw` classifier built and
//! served end-to-end as a `baselines::Classifier`.
//!
//! `#[ignore]` by default — it takes minutes in release mode and far
//! longer in debug — and runs in CI only on the nightly schedule:
//!
//! ```text
//! cargo test --release --test large_ruleset -- --ignored --nocapture
//! ```
//!
//! EffiCuts is the builder under test because it is the baseline
//! designed for exactly this regime (memory-bounded trees on 100k+
//! rule sets); the RL loop's large-scale behaviour is covered by the
//! figure harnesses, not here.

use baselines::Baseline;
use classbench::{
    generate_rules, generate_skewed_trace, ClassifierFamily, GeneratorConfig, SkewedTraceConfig,
    TrafficSkew,
};

/// Upper bound on the compiled `FlatTree`'s resident footprint for
/// fw/100k/seed 0. Measured 2026-08: ~20.6 MB resident (depth 110,
/// ~35.6k nodes, 56.5 tree-model bytes/rule — EffiCuts' separable
/// trees keep replication near 1). The 48 MB bound leaves >2x headroom
/// for node-layout changes while still tripping on a replication
/// regression (which shows up as 5-10x, not 2x).
const RESIDENT_BYTES_BOUND: usize = 48 * 1024 * 1024;

#[test]
#[ignore = "nightly scale: ~100k rules, minutes in release mode"]
fn efficuts_serves_100k_fw_rules() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 100_000).with_seed(0));
    assert!(rules.len() >= 90_000, "generator under-delivered: {} rules", rules.len());

    let c = Baseline::EffiCuts.build(&rules);
    let s = c.stats();
    eprintln!(
        "fw/100k: time={} nodes={} bytes/rule={:.1} resident={} B built in {:.1}s",
        s.time(),
        s.tree.nodes,
        s.tree.bytes_per_rule,
        s.resident_bytes,
        s.build_secs
    );
    assert!(s.time() >= 1);
    assert!(
        s.resident_bytes <= RESIDENT_BYTES_BOUND,
        "FlatTree resident footprint {} B exceeds the {} B bound — replication regression?",
        s.resident_bytes,
        RESIDENT_BYTES_BOUND
    );

    // Sampled verification against the linear scan, over skewed as
    // well as uniform arrival patterns (the sweep's three cells).
    for skew in [TrafficSkew::Uniform, TrafficSkew::ZIPF, TrafficSkew::LOCALITY] {
        let trace =
            generate_skewed_trace(&rules, &SkewedTraceConfig::new(2_000, skew).with_seed(3));
        let mut batch = vec![None; trace.len()];
        c.classify_batch(&trace, &mut batch);
        for (i, p) in trace.iter().enumerate() {
            let truth = rules.classify(p);
            assert_eq!(c.classify(p), truth, "scalar on {} trace at {p}", skew.tag());
            assert_eq!(batch[i], truth, "batch on {} trace at {p}", skew.tag());
        }
    }
}
