//! Domain scenario: an access-control firewall.
//!
//! Parses a ClassBench-format ACL (the interchange format real seed
//! files use), trains a time-optimised NeuroCuts policy, then serves a
//! skewed packet trace through the learned tree, reporting per-rule hit
//! counts — the workload the paper's introduction motivates (firewalls
//! and access control, §1).
//!
//! ```text
//! cargo run --release --example acl_firewall
//! ```

use classbench::{
    generate_rules, generate_trace, parse_rules, write_rules, ClassifierFamily, GeneratorConfig,
    TraceConfig,
};
use neurocuts::{NeuroCutsConfig, Trainer};

fn main() {
    // Export + re-import through the ClassBench text format, as one
    // would with real seed-generated filter sets.
    let generated = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 300).with_seed(9));
    let text = write_rules(&generated);
    println!("ACL in ClassBench format (first 3 rules):");
    for line in text.lines().take(3) {
        println!("  {line}");
    }
    let rules = parse_rules(&text).expect("round-trips");
    assert_eq!(rules.len(), generated.len());

    // Time-optimised NeuroCuts (c = 1, no partitioning): the firewall
    // fast path cares about worst-case lookup latency.
    let cfg = NeuroCutsConfig::small(24_000).with_coeff(1.0);
    let mut trainer = Trainer::new(rules.clone(), cfg).expect("trainable rule set");
    let (tree, stats, _) = trainer.train_to_tree().expect("training makes progress");
    println!(
        "\nlearned firewall tree: depth {} ({} nodes, {:.0} bytes/rule)",
        stats.time, stats.nodes, stats.bytes_per_rule
    );

    // Serve a skewed traffic trace and account per-rule hits.
    let trace = generate_trace(&rules, &TraceConfig::new(20_000).with_seed(4));
    let mut hits = vec![0usize; rules.len()];
    let mut misses = 0usize;
    for p in &trace {
        match tree.classify(p) {
            Some(rule_id) => hits[rule_id] += 1,
            None => misses += 1,
        }
    }
    assert_eq!(misses, 0, "the default rule catches everything");

    let mut ranked: Vec<(usize, usize)> =
        hits.iter().copied().enumerate().filter(|&(_, h)| h > 0).collect();
    ranked.sort_by_key(|&(_, h)| std::cmp::Reverse(h));
    println!("\ntop-5 matched rules over {} packets:", trace.len());
    for (rule_id, count) in ranked.iter().take(5) {
        println!("  rule #{rule_id:<4} {count:>6} hits   {}", rules.rule(*rule_id));
    }
    let default_hits = hits.last().copied().unwrap_or(0);
    println!("  default rule: {default_hits} hits");
}
