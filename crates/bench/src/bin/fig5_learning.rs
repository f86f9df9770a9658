//! Figure 5: visualising the learning process on an FW rule set.
//!
//! The paper shows: (a) a randomly initialised policy generating a
//! huge, poorly shaped tree; learning to reduce depth; converging to a
//! compact tree specialised in SrcIP/SrcPort/DstPort cuts; and (b)
//! HiCuts producing a much deeper, larger tree on the same rules
//! (fw5_1k: depth 29, 15× larger, 3× slower).
//!
//! This binary prints the per-level node histograms (the textual
//! equivalent of the figure) at the start, middle, and end of training,
//! plus the HiCuts comparison.
//!
//! ```text
//! cargo run --release -p nc-bench --bin fig5_learning
//! ```

use baselines::Baseline;
use classbench::{generate_rules, ClassifierFamily, GeneratorConfig, DIMS};
use dtree::{LevelProfile, TreeStats};
use nc_bench::*;
use neurocuts::{PartitionMode, Trainer};

fn show(tag: &str, profile: &LevelProfile, stats: &TreeStats) {
    println!("--- {tag}: {stats}");
    print!("{}", profile.render_ascii(48));
    let totals = profile.total_cut_dims();
    print!("cut-dimension mix:");
    for (i, dim) in DIMS.iter().enumerate() {
        print!(" {}={}", dim.name(), totals[i]);
    }
    println!("\n");
}

fn main() {
    // fw5_1k analog: the wildcard-heavy family of the paper's figure.
    let size = suite_size();
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, size).with_seed(4)); // fw5
    println!("Figure 5: learning to split fw5 at {size} rules ({} loaded)\n", rules.len());

    let mut cfg =
        harness_config().with_coeff(1.0).with_partition_mode(PartitionMode::Simple).with_seed(5);
    cfg.patience = 0; // run the full budget so snapshots are comparable
    let iters_budget = (cfg.max_timesteps / cfg.timesteps_per_batch).max(2);
    let mut trainer = Trainer::new(rules.clone(), cfg).expect("trainable rule set");

    // Snapshot 0: a tree from the randomly initialised policy.
    let (tree0, stats0) = trainer.greedy_tree();
    show("random policy (left panel)", &LevelProfile::compute(&tree0), &stats0);

    // Train halfway, snapshot, then finish.
    for _ in 0..iters_budget / 2 {
        let s = trainer.step().expect("training makes progress");
        println!(
            "iter {:>2}: mean return {:>10.2}, best objective {:>8.1}",
            s.iteration, s.mean_return, s.best_objective
        );
    }
    let (tree1, stats1) = trainer.greedy_tree();
    show("\nmid-training (center panel)", &LevelProfile::compute(&tree1), &stats1);

    for _ in iters_budget / 2..iters_budget {
        let s = trainer.step().expect("training makes progress");
        println!(
            "iter {:>2}: mean return {:>10.2}, best objective {:>8.1}",
            s.iteration, s.mean_return, s.best_objective
        );
    }
    let (final_tree, final_stats) = trainer.deployed_tree();
    show("\nconverged policy (right panel)", &LevelProfile::compute(&final_tree), &final_stats);

    // Panel (b): HiCuts on the same rules.
    let hicuts = Baseline::HiCuts.build_tree(&rules);
    let hstats = TreeStats::compute(&hicuts);
    show("HiCuts comparison (panel b)", &LevelProfile::compute(&hicuts), &hstats);
    println!(
        "HiCuts is {:.1}x larger and {:.1}x slower than the converged NeuroCuts tree",
        hstats.nodes as f64 / final_stats.nodes.max(1) as f64,
        hstats.time as f64 / final_stats.time.max(1) as f64
    );
    println!("(paper, fw5_1k: 15x larger, 3x slower, depth 29 vs 12)");
}
