//! Sweep the time-space coefficient `c` on one classifier — a
//! single-classifier miniature of Figure 11: classification time
//! improves as `c → 1`, bytes-per-rule improves as `c → 0`.
//!
//! Each point trains a `Classifier` (`neurocuts::train_classifier`)
//! and is cross-checked against the direct `Trainer` path: training is
//! deterministic for a fixed `(rules, config)`, so the two must
//! produce bit-identical `TreeStats`.
//!
//! ```text
//! cargo run --release --example tradeoff_sweep
//! ```

use classbench::{generate_rules, ClassifierFamily, GeneratorConfig};
use neurocuts::{train_classifier, NeuroCutsConfig, PartitionMode, Trainer};

fn main() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 300).with_seed(3));
    println!("sweeping c on {} rules (simple partitioner, log reward scaling)\n", rules.len());
    println!("{:>5} | {:>10} | {:>12} | {:>9}", "c", "time", "bytes/rule", "build (s)");
    println!("{:->5}-+-{:->10}-+-{:->12}-+-{:->9}", "", "", "", "");

    for &c in &[0.0, 0.1, 0.5, 1.0] {
        let cfg = NeuroCutsConfig::small(18_000)
            .with_coeff(c)
            .with_partition_mode(PartitionMode::Simple)
            .with_seed(11);
        let classifier = train_classifier(&rules, cfg.clone()).expect("trainable rule set");
        let s = classifier.stats();
        println!(
            "{c:>5.1} | {:>10} | {:>12.1} | {:>9.2}",
            s.tree.time, s.tree.bytes_per_rule, s.build_secs
        );

        // `train_classifier` must pick the exact tree the direct
        // trainer does — bit-identical stats, not merely similar ones.
        let mut trainer = Trainer::new(rules.clone(), cfg).expect("trainable rule set");
        let (_, direct, _) = trainer.train_to_tree().expect("training makes progress");
        assert_eq!(
            s.tree, direct,
            "c={c}: train_classifier's tree diverged from the direct Trainer path"
        );
    }
    println!("\nexpect time to shrink towards c=1 and bytes/rule towards c=0");
    println!("all train_classifier trees bit-identical to the direct Trainer path");
}
