//! Quickstart: generate a classifier, train NeuroCuts briefly, and
//! compare the learned tree against HiCuts on the same rules.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use baselines::build_hicuts;
use classbench::{generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, TraceConfig};
use dtree::TreeStats;
use neurocuts::{NeuroCutsConfig, Trainer};

fn main() {
    // 1. A synthetic ACL classifier (ClassBench-style).
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 256).with_seed(1));
    println!("generated {} rules (default rule: {})", rules.len(), rules.has_default());

    // 2. Train a NeuroCuts policy with a small budget. `small(n)` is a
    //    few-hundred-rule configuration; `paper_default()` is Table 1.
    let cfg = NeuroCutsConfig::small(30_000);
    let mut trainer = Trainer::new(rules.clone(), cfg).expect("trainable rule set");
    println!("training...");
    let report = trainer.train().expect("training makes progress");
    for h in &report.history {
        println!(
            "  iter {:>2}: {:>6} steps, mean return {:>10.2}, best objective {:>8.1}",
            h.iteration, h.timesteps, h.mean_return, h.best_objective
        );
    }

    // Best tree found during training, or the current policy's greedy
    // tree if every training rollout truncated (tiny budgets only).
    let (tree, stats) = trainer.deployed_tree();
    println!("\nNeuroCuts tree: {stats}");

    // 3. The hand-tuned baseline on the same rules.
    let hicuts = build_hicuts(&rules);
    println!("HiCuts tree:    {}", TreeStats::compute(&hicuts));

    // 4. Both classify identically to the linear-scan ground truth.
    let trace = generate_trace(&rules, &TraceConfig::new(1000));
    for p in &trace {
        let truth = rules.classify(p);
        assert_eq!(tree.classify(p), truth, "NeuroCuts mismatch on {p}");
        assert_eq!(hicuts.classify(p), truth, "HiCuts mismatch on {p}");
    }
    println!("\nverified {} packets: both trees match the linear scan exactly", trace.len());
}
