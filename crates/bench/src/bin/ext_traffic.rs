//! Extension experiment (paper §8, "Conclusion"): optimise for the
//! *average* classification time under a specific traffic pattern
//! instead of the worst case.
//!
//! We train two policies on the same classifier — one with the standard
//! worst-case objective, one traffic-aware — and compare both trees'
//! average lookup cost on a held-out trace drawn from the same skewed
//! pattern. The traffic-aware tree should match or beat the worst-case
//! tree on average cost (it concentrates depth where no traffic goes).
//!
//! ```text
//! cargo run --release -p nc-bench --bin ext_traffic
//! ```

use classbench::{generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, TraceConfig};
use dtree::average_lookup_cost;
use nc_bench::*;
use neurocuts::Trainer;

fn main() {
    let size = suite_size();
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, size).with_seed(2));
    // Heavily skewed traffic: most packets hit the top rules.
    let mut trace_cfg = TraceConfig::new(2000).with_seed(5);
    trace_cfg.skew = 2.0;
    trace_cfg.uniform_fraction = 0.02;
    let train_trace = generate_trace(&rules, &trace_cfg);
    let held_out = generate_trace(&rules, &trace_cfg.clone().with_seed(6));

    println!(
        "traffic-aware objective extension on acl3 at {size} rules ({}-packet trace)\n",
        train_trace.len()
    );

    let base_cfg = harness_config().with_coeff(1.0).with_seed(8);

    let mut worst_case = Trainer::new(rules.clone(), base_cfg.clone()).expect("trainable rule set");
    let (wc_tree, wc_stats, _) = worst_case.train_to_tree().expect("training makes progress");

    let mut traffic_aware =
        Trainer::new(rules.clone(), base_cfg).expect("trainable rule set").set_traffic(train_trace);
    let (ta_tree, ta_stats, _) = traffic_aware.train_to_tree().expect("training makes progress");

    let wc_avg = average_lookup_cost(&wc_tree, &held_out);
    let ta_avg = average_lookup_cost(&ta_tree, &held_out);
    println!("{:<22} {:>12} {:>16}", "", "worst-case", "avg (held-out)");
    println!("{:<22} {:>12} {:>16.2}", "worst-case objective", wc_stats.time, wc_avg);
    println!("{:<22} {:>12} {:>16.2}", "traffic-aware", ta_stats.time, ta_avg);
    println!(
        "\ntraffic-aware tree is {:.1}% better on average lookup cost",
        improvement(ta_avg, wc_avg) * 100.0
    );
    // Both remain exact classifiers.
    for p in held_out.iter().take(500) {
        assert_eq!(wc_tree.classify(p), rules.classify(p));
        assert_eq!(ta_tree.classify(p), rules.classify(p));
    }
    println!("both trees validated against the ground truth on the held-out trace");
}
