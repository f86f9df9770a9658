//! Build all five baselines on the same classifiers and print a
//! side-by-side comparison of classification time (tree depth) and
//! memory (bytes/rule) — a miniature of the paper's Figures 8 and 9
//! without the RL training (see the `nc-bench` binaries for the full
//! figure regeneration, and `bench_sweep` for the full scenario matrix).
//!
//! ```text
//! cargo run --release --example compare_baselines
//! ```

use baselines::Baseline;
use classbench::{generate_rules, ClassifierFamily, GeneratorConfig};

fn main() {
    for family in ClassifierFamily::ALL {
        for seed in 0..2u64 {
            let cfg = GeneratorConfig::new(family, 1000).with_seed(seed);
            let rules = generate_rules(&cfg);
            println!("\n=== {} ({} rules) ===", cfg.label(), rules.len());
            for baseline in Baseline::ALL {
                let c = baseline.build(&rules);
                let s = c.stats();
                println!(
                    "  {:<11} time={:>3}  bytes/rule={:>9.1}  nodes={:>6}  replication={:>6.2}x  \
                     built in {:>8.4}s",
                    c.name(),
                    s.tree.time,
                    s.tree.bytes_per_rule,
                    s.tree.nodes,
                    s.tree.replication,
                    s.build_secs
                );
            }
        }
    }
}
