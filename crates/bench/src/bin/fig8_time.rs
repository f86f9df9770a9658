//! Figure 8: classification time (tree depth) for HiCuts, HyperCuts,
//! EffiCuts, CutSplit, and time-optimised NeuroCuts across the
//! ClassBench suite.
//!
//! Paper result to reproduce (§6.1): NeuroCuts improves the median by
//! 20% / 38% / 52% / 56% over HiCuts / HyperCuts / EffiCuts / CutSplit,
//! beats the per-classifier minimum of all baselines in 70% of cases,
//! with an 18% median all-baseline improvement.
//!
//! ```text
//! NC_SIZE=1000 NC_TIMESTEPS=9000 cargo run --release -p nc-bench --bin fig8_time
//! ```

use baselines::Baseline;
use dtree::TreeStats;
use nc_bench::*;
use neurocuts::PartitionMode;

fn main() {
    let suite = suite();
    println!(
        "Figure 8: classification time (tree depth), {} rules/classifier, {} RL timesteps\n",
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

    let mut baseline_times: Vec<Vec<f64>> = vec![Vec::new(); FIGURE_BASELINES.len()];
    let mut neuro_times: Vec<f64> = Vec::new();
    let mut beat_min = 0usize;
    let mut vs_all_best: Vec<f64> = Vec::new();

    for entry in &suite {
        let mut cells = Vec::new();
        let mut best_baseline = f64::INFINITY;
        for (i, b) in FIGURE_BASELINES.iter().enumerate() {
            let t = TreeStats::compute(&b.build_tree(&entry.rules)).time as f64;
            baseline_times[i].push(t);
            best_baseline = best_baseline.min(t);
            cells.push(format!("{t:.0}"));
        }
        // Time-optimised NeuroCuts: c = 1; the simple partitioner is
        // allowed (the paper's best time trees use none or simple) —
        // it rescues wildcard-heavy FW sets from replication blowup.
        let cfg = harness_config()
            .with_coeff(1.0)
            .with_partition_mode(PartitionMode::Simple)
            .with_seed(1);
        let result = run_neurocuts(&entry.rules, cfg);
        let t = result.stats.time as f64;
        neuro_times.push(t);
        if t <= best_baseline {
            beat_min += 1;
        }
        vs_all_best.push(improvement(t, best_baseline));
        cells.push(format!("{t:.0}"));
        print_row(&entry.label, &cells);
    }

    println!("\n--- medians ---");
    for (i, b) in FIGURE_BASELINES.iter().enumerate() {
        let med_imp = median(
            &neuro_times
                .iter()
                .zip(&baseline_times[i])
                .map(|(&n, &b)| improvement(n, b))
                .collect::<Vec<_>>(),
        );
        println!(
            "NeuroCuts vs {:<10} median improvement: {:>6.1}%  (paper: {}%)",
            b.name(),
            med_imp * 100.0,
            match b {
                Baseline::HiCuts => 20,
                Baseline::HyperCuts => 38,
                Baseline::EffiCuts => 52,
                _ => 56,
            }
        );
    }
    println!(
        "beats the min of all baselines on {}/{} classifiers ({:.0}%; paper: 70%)",
        beat_min,
        suite.len(),
        100.0 * beat_min as f64 / suite.len() as f64
    );
    println!(
        "median all-baseline improvement: {:.1}% (paper: 18%), mean {:.1}% (paper: 12%)",
        median(&vs_all_best) * 100.0,
        vs_all_best.iter().sum::<f64>() / vs_all_best.len() as f64 * 100.0
    );
}
