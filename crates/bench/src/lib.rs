//! Shared harness for the paper's evaluation and the JSON benchmark
//! emitters.
//!
//! `bench_repro` reproduces §6 — Figures 8–11 and the ablations — from
//! one run table it writes to `BENCH_repro.json`: the four figure
//! baselines per classifier of the suite below, and one training per
//! distinct NeuroCuts configuration, every tree checked against the
//! linear scan. Three binaries stay outside that table:
//!
//! - `fig5_learning` renders trees from the middle of one training run
//!   (Fig. 5);
//! - `fig6_variations` renders trees sampled from one stochastic policy
//!   (Fig. 6);
//! - `ext_traffic` trains through `Trainer::set_traffic` (§8) and scores
//!   its trees on a held-out trace.
//!
//! None of them is a per-classifier suite table. Every trained tree any
//! of them reports is [`neurocuts::Trainer::deployed_tree`], the tree
//! the CLI, the sweep and the lifecycle worker deploy. Scale is
//! controlled by environment variables, so the same binaries run as
//! quick smoke checks or as full-scale reproductions:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `NC_SIZE` | rules per classifier | 300 |
//! | `NC_TIMESTEPS` | RL timesteps per NeuroCuts run | 24000 |
//! | `NC_VARIANTS` | seed variants per family (at least 1; ≤5/5/2 used) | full suite |
//! | `NC_FAMILIES` | comma list of `acl,fw,ipc` | all |
//!
//! A value that does not parse, or an unknown family tag, ends the
//! process naming it ([`emit::knob`], [`families`]). The paper trained
//! to 10M timesteps per classifier on AWS; shapes (who wins, by what
//! factor) are what these budgets reproduce.
//!
//! The JSON emitters (`bench_repro`, `bench_train`, `bench_build`,
//! `bench_lifecycle`, `bench_sweep`) share [`emit`].

#![warn(missing_docs)]

pub mod emit;

use baselines::{Baseline, Classifier};
use classbench::{generate_rules, ClassifierFamily, GeneratorConfig, RuleSet};
use neurocuts::{train_classifier, NeuroCutsConfig};

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
    // Zero variants would leave the figures nothing to take a median of.
    let max_variants = emit::knob("NC_VARIANTS", std::num::NonZeroUsize::MAX).get();
    let mut out = Vec::new();
    for family in families() {
        for seed in 0..family.num_variants().min(max_variants) as u64 {
            let cfg = GeneratorConfig::new(family, size).with_seed(seed);
            out.push(SuiteEntry { label: cfg.label(), family, rules: generate_rules(&cfg) });
        }
    }
    out
}

/// The families named by `NC_FAMILIES`, a comma list of `acl,fw,ipc`
/// tags in the order given (all three when unset). An unknown tag ends
/// the process naming it.
pub fn families() -> Vec<ClassifierFamily> {
    emit::list("NC_FAMILIES", "acl,fw,ipc", |t| {
        ClassifierFamily::ALL.into_iter().find(|f| f.tag() == t)
    })
}

/// The four hand-tuned baselines the figures compare against (§6):
/// every [`Baseline`] but HyperSplit.
pub const FIGURE_BASELINES: [Baseline; 4] =
    [Baseline::HiCuts, Baseline::HyperCuts, Baseline::EffiCuts, Baseline::CutSplit];

/// The six algorithms, sweep order: NeuroCuts, then every [`Baseline`]
/// in [`Baseline::ALL`] order.
pub const CLASSIFIER_NAMES: [&str; 6] = {
    let mut names = ["NeuroCuts"; 6];
    let mut i = 0;
    while i < Baseline::ALL.len() {
        names[i + 1] = Baseline::ALL[i].name();
        i += 1;
    }
    names
};

/// Build one of the six algorithms in [`CLASSIFIER_NAMES`] by name.
/// NeuroCuts trains under `nc_cfg`; the baselines use their default
/// configurations ([`Baseline::build`]).
///
/// # Panics
/// Panics on an unknown name or an untrainable rule set — the
/// harnesses generate their own rule sets, so those are bugs here.
pub fn build_classifier(name: &str, rules: &RuleSet, nc_cfg: &NeuroCutsConfig) -> Classifier {
    if name == "NeuroCuts" {
        train_classifier(rules, nc_cfg.clone()).expect("trainable rule set")
    } else {
        Baseline::from_name(name)
            .unwrap_or_else(|| panic!("unknown classifier {name}"))
            .build(rules)
    }
}

/// The harness-scale NeuroCuts configuration: `small()` with the
/// `NC_TIMESTEPS` budget (the rollout cap and batch scale with it).
pub fn harness_config() -> NeuroCutsConfig {
    NeuroCutsConfig::small(train_timesteps())
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
    use dtree::TreeStats;

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
        for b in FIGURE_BASELINES {
            let tree = b.build_tree(&rules);
            assert!(TreeStats::compute(&tree).time >= 1, "{}", b.name());
        }
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
