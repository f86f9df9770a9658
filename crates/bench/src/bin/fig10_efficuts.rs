//! Figure 10: NeuroCuts restricted to the EffiCuts partition action vs
//! EffiCuts itself — sorted rankings of space and time improvement
//! across the suite.
//!
//! Paper results to reproduce (§6.3): with the EffiCuts partitioner,
//! NeuroCuts gives a ~29% median space improvement over EffiCuts at
//! about the same classification time, doing as well or better on all
//! 36 rule sets for space.
//!
//! ```text
//! cargo run --release -p nc-bench --bin fig10_efficuts
//! ```

use baselines::Baseline;
use dtree::TreeStats;
use nc_bench::*;
use neurocuts::PartitionMode;

fn main() {
    let suite = suite();
    println!(
        "Figure 10: NeuroCuts (EffiCuts partitioner) vs EffiCuts, {} rules/classifier\n",
        suite_size()
    );

    let mut space_improvements: Vec<(String, f64)> = Vec::new();
    let mut time_improvements: Vec<(String, f64)> = Vec::new();

    for entry in &suite {
        let efficuts = TreeStats::compute(&Baseline::EffiCuts.build_tree(&entry.rules));
        // Space-focused objective with the EffiCuts partition action
        // only (the figure's headline claim is the space improvement,
        // with time "about the same").
        let cfg = harness_config()
            .with_coeff(0.0)
            .with_partition_mode(PartitionMode::EffiCuts)
            .with_seed(3);
        let result = run_neurocuts(&entry.rules, cfg);
        space_improvements.push((
            entry.label.clone(),
            improvement(result.stats.bytes_per_rule, efficuts.bytes_per_rule),
        ));
        time_improvements.push((
            entry.label.clone(),
            improvement(result.stats.time as f64, efficuts.time as f64),
        ));
    }

    // Figure 10a: sorted space-improvement ranking.
    space_improvements.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("(a) space improvement (1 - NeuroCuts/EffiCuts), sorted:");
    for (label, imp) in &space_improvements {
        println!("  {label:<12} {:>7.1}%  {}", imp * 100.0, bar(*imp));
    }
    let med_space = median(&space_improvements.iter().map(|x| x.1).collect::<Vec<_>>());
    println!("  median: {:.1}% (paper: 29%)\n", med_space * 100.0);

    // Figure 10b: sorted time-improvement ranking.
    time_improvements.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("(b) time improvement, sorted:");
    for (label, imp) in &time_improvements {
        println!("  {label:<12} {:>7.1}%  {}", imp * 100.0, bar(*imp));
    }
    let med_time = median(&time_improvements.iter().map(|x| x.1).collect::<Vec<_>>());
    println!("  median: {:.1}% (paper: ~0%, 'about the same')", med_time * 100.0);
}

fn bar(imp: f64) -> String {
    let n = (imp.abs() * 40.0).round() as usize;
    let ch = if imp >= 0.0 { '+' } else { '-' };
    std::iter::repeat_n(ch, n.min(60)).collect()
}
