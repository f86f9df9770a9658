//! Shared harness for regenerating the paper's evaluation figures.
//!
//! Every figure binary (`fig5_learning` … `fig11_tradeoff`,
//! `ablation_*`) is built from the pieces here: the 36-classifier
//! ClassBench suite of §6, baseline runners, NeuroCuts runners, and
//! plain-text table output. Scale is controlled by environment
//! variables so the same binaries run as quick smoke checks or as
//! overnight full-scale reproductions:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `NC_SIZE` | rules per classifier | 300 |
//! | `NC_TIMESTEPS` | RL timesteps per NeuroCuts run | 24000 |
//! | `NC_VARIANTS` | seed variants per family (≤5/5/2) | full suite |
//! | `NC_FAMILIES` | comma list of `acl,fw,ipc` | all |
//!
//! The paper trained to 10M timesteps per classifier on AWS; shapes
//! (who wins, by what factor) are what these defaults reproduce.
//!
//! The JSON benchmark emitters (`bench_train`, `bench_build`,
//! `bench_lifecycle`, `bench_recovery`, `bench_sweep`) share [`emit`].

#![warn(missing_docs)]

pub mod emit;

use baselines::Classifier;
use classbench::{generate_rules, ClassifierFamily, GeneratorConfig, RuleSet};
use dtree::{DecisionTree, TreeStats};
use neurocuts::{NeuroCutsClassifier, NeuroCutsConfig, Trainer};

/// One classifier of the evaluation suite.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Paper-style label, e.g. `acl3_1k`.
    pub label: String,
    /// Family the rules were drawn from.
    pub family: ClassifierFamily,
    /// The rules.
    pub rules: RuleSet,
}

/// Rules per classifier (`NC_SIZE`, default 300).
pub fn suite_size() -> usize {
    emit::knob("NC_SIZE", 300)
}

/// RL timesteps per NeuroCuts run (`NC_TIMESTEPS`, default 24000).
pub fn train_timesteps() -> usize {
    emit::knob("NC_TIMESTEPS", 24_000)
}

/// The evaluation suite: `acl1..5, fw1..5, ipc1..2` at [`suite_size`]
/// rules each (the paper's Figure 8/9 x-axis at one size tier; set
/// `NC_SIZE=10000`/`100000` for the other tiers).
pub fn suite() -> Vec<SuiteEntry> {
    let size = suite_size();
    let max_variants = emit::knob("NC_VARIANTS", usize::MAX);
    let families: Vec<ClassifierFamily> = match std::env::var("NC_FAMILIES") {
        Ok(list) => ClassifierFamily::ALL
            .into_iter()
            .filter(|f| list.split(',').any(|t| t.trim() == f.tag()))
            .collect(),
        Err(_) => ClassifierFamily::ALL.to_vec(),
    };
    let mut out = Vec::new();
    for family in families {
        for seed in 0..family.num_variants().min(max_variants) as u64 {
            let cfg = GeneratorConfig::new(family, size).with_seed(seed);
            out.push(SuiteEntry { label: cfg.label(), family, rules: generate_rules(&cfg) });
        }
    }
    out
}

/// The four hand-tuned baselines of §6, by name.
pub const BASELINE_NAMES: [&str; 4] = ["HiCuts", "HyperCuts", "EffiCuts", "CutSplit"];

/// All six [`Classifier`] implementations, sweep order: NeuroCuts
/// first, then the baselines.
pub const CLASSIFIER_NAMES: [&str; 6] =
    ["NeuroCuts", "HiCuts", "HyperCuts", "HyperSplit", "EffiCuts", "CutSplit"];

/// Build one baseline by name on `rules`, routed through the unified
/// [`Classifier`] trait (every figure/ablation binary therefore rides
/// the same build path the sweep measures).
///
/// # Panics
/// Panics on an unknown name.
pub fn build_baseline(name: &str, rules: &RuleSet) -> DecisionTree {
    baselines::build_baseline_compiled(name, rules)
        .unwrap_or_else(|| panic!("unknown baseline {name}"))
        .into_tree()
}

/// Build one of the six [`Classifier`] implementations by name.
/// NeuroCuts trains under `nc_cfg`; the baselines use their default
/// configurations (the trait's `build`).
///
/// # Panics
/// Panics on an unknown name or an untrainable rule set — the
/// harnesses generate their own rule sets, so those are bugs here.
pub fn build_classifier(
    name: &str,
    rules: &RuleSet,
    nc_cfg: &NeuroCutsConfig,
) -> Box<dyn Classifier> {
    if name == "NeuroCuts" {
        Box::new(NeuroCutsClassifier::train(rules, nc_cfg.clone()).expect("trainable rule set"))
    } else {
        baselines::build_baseline_classifier(name, rules)
            .unwrap_or_else(|| panic!("unknown classifier {name}"))
    }
}

/// The harness-scale NeuroCuts configuration: `small()` with the
/// `NC_TIMESTEPS` budget (the rollout cap and batch scale with it).
pub fn harness_config() -> NeuroCutsConfig {
    NeuroCutsConfig::small(train_timesteps())
}

/// Outcome of one NeuroCuts run on one classifier.
#[derive(Debug, Clone)]
pub struct NeuroCutsResult {
    /// Best completed tree's stats (falls back to the greedy tree when
    /// every training rollout truncated).
    pub stats: TreeStats,
    /// The tree behind `stats` (an `Arc` snapshot shared with the
    /// trainer's best-tree record).
    pub tree: std::sync::Arc<DecisionTree>,
    /// Timesteps actually consumed.
    pub timesteps: usize,
}

/// Train NeuroCuts on `rules` under `cfg` and return the best tree
/// (best completed training rollout, or the greedy tree if better /
/// the only completed one).
///
/// # Panics
/// Panics on degenerate inputs ([`neurocuts::TrainError`]) — the
/// figure harness generates its own rule sets, so those are bugs here,
/// not user error.
pub fn run_neurocuts(rules: &RuleSet, cfg: NeuroCutsConfig) -> NeuroCutsResult {
    let mut trainer = Trainer::new(rules.clone(), cfg).expect("trainable rule set");
    let report = trainer.train().expect("training makes progress");
    let objective = *trainer.env().objective();
    let score = |s: &TreeStats| objective.value(s.time, s.bytes);
    let (greedy_tree, greedy_stats) = trainer.greedy_tree();
    match report.best {
        Some(best) if score(&best.stats) <= score(&greedy_stats) => {
            NeuroCutsResult { stats: best.stats, tree: best.tree, timesteps: report.timesteps }
        }
        _ => {
            NeuroCutsResult { stats: greedy_stats, tree: greedy_tree, timesteps: report.timesteps }
        }
    }
}

/// Median of a sample (mean of middle pair for even sizes).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `1 - a/b`: the paper's improvement metric (positive = `a` better).
pub fn improvement(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        1.0 - a / b
    }
}

/// Print a row of a fixed-width results table.
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<12}");
    for c in cells {
        print!(" {c:>12}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn improvement_signs() {
        assert!((improvement(5.0, 10.0) - 0.5).abs() < 1e-12);
        assert!(improvement(10.0, 5.0) < 0.0);
        assert_eq!(improvement(1.0, 0.0), 0.0);
    }

    #[test]
    fn baselines_build_by_name() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 100));
        for name in BASELINE_NAMES {
            let tree = build_baseline(name, &rules);
            assert!(TreeStats::compute(&tree).time >= 1, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown baseline")]
    fn unknown_baseline_panics() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 10));
        let _ = build_baseline("TCAM", &rules);
    }

    #[test]
    fn classifier_factory_covers_all_six() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 60).with_seed(4));
        let cfg = NeuroCutsConfig::smoke_test();
        for name in CLASSIFIER_NAMES {
            let c = build_classifier(name, &rules, &cfg);
            assert_eq!(c.name(), name);
            assert!(c.stats().time() >= 1, "{name}");
        }
    }
}
