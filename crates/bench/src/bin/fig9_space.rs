//! Figure 9: memory footprint (bytes per rule) for the baselines and
//! space-optimised NeuroCuts across the ClassBench suite.
//!
//! Paper results to reproduce (§6.2): NeuroCuts far below HiCuts and
//! HyperCuts, a 40% median improvement over EffiCuts, but typically
//! *above* CutSplit (26% higher median).
//!
//! ```text
//! cargo run --release -p nc-bench --bin fig9_space
//! ```

use dtree::TreeStats;
use nc_bench::*;
use neurocuts::PartitionMode;

fn main() {
    let suite = suite();
    println!(
        "Figure 9: memory footprint (bytes/rule), {} rules/classifier, {} RL timesteps\n",
        suite_size(),
        train_timesteps()
    );
    print_row(
        "classifier",
        &FIGURE_BASELINES
            .iter()
            .map(|b| b.name().to_string())
            .chain(["NeuroCuts".to_string()])
            .collect::<Vec<_>>(),
    );

    let mut baseline_space: Vec<Vec<f64>> = vec![Vec::new(); FIGURE_BASELINES.len()];
    let mut neuro_space: Vec<f64> = Vec::new();

    for entry in &suite {
        let mut cells = Vec::new();
        for (i, b) in FIGURE_BASELINES.iter().enumerate() {
            let s = TreeStats::compute(&b.build_tree(&entry.rules)).bytes_per_rule;
            baseline_space[i].push(s);
            cells.push(format!("{s:.1}"));
        }
        // Space-optimised NeuroCuts: c = 0 with the EffiCuts partition
        // action (the paper's space-optimised runs use the partitioners).
        let cfg = harness_config()
            .with_coeff(0.0)
            .with_partition_mode(PartitionMode::EffiCuts)
            .with_seed(2);
        let result = run_neurocuts(&entry.rules, cfg);
        neuro_space.push(result.stats.bytes_per_rule);
        cells.push(format!("{:.1}", result.stats.bytes_per_rule));
        print_row(&entry.label, &cells);
    }

    println!("\n--- medians ---");
    for (i, b) in FIGURE_BASELINES.iter().enumerate() {
        let med_imp = median(
            &neuro_space
                .iter()
                .zip(&baseline_space[i])
                .map(|(&n, &b)| improvement(n, b))
                .collect::<Vec<_>>(),
        );
        println!(
            "NeuroCuts vs {:<10} median space improvement: {:>7.1}%",
            b.name(),
            med_imp * 100.0
        );
    }
    println!(
        "\npaper shape: >>0% vs HiCuts/HyperCuts, ~40% vs EffiCuts, negative vs CutSplit (-26%)"
    );
}
