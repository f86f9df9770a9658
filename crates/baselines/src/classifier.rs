//! One classifier type for every algorithm in the workspace.
//!
//! Every algorithm here — the five hand-tuned baselines and the trained
//! NeuroCuts policy (`neurocuts::train_classifier`) — ends at the same
//! place: a [`DecisionTree`] compiled to a [`FlatTree`] for serving.
//! [`Classifier`] is that end state, so harnesses (`bench_sweep`, the
//! examples, the conformance suites) treat "a classifier" as one type:
//!
//! * **lookup** — [`Classifier::classify`] (scalar) and
//!   [`Classifier::classify_batch`] (wavefront) return the same
//!   [`RuleId`]s as the rule set's linear scan;
//! * **accounting** — [`Classifier::stats`] reports depth, node count,
//!   bytes/rule, compiled footprint, and build time.
//!
//! [`Baseline`] is the one place a baseline's name maps to its builder.

use crate::{build_cutsplit, build_efficuts, build_hicuts, build_hypercuts, build_hypersplit};
use classbench::{Packet, RuleSet};
use dtree::{DecisionTree, FlatTree, RuleId, TreeStats};
use std::time::Instant;

/// Build-time and shape statistics every [`Classifier`] reports.
///
/// `tree` carries the paper's metrics (worst-case classification time,
/// bytes/rule, node and leaf counts); the extra fields account for the
/// compiled serving artifact and the cost of producing it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierStats {
    /// Arena-tree statistics (Eqs. 1–4): `time`, `bytes_per_rule`,
    /// `nodes`, `max_depth`, `replication`, …
    pub tree: TreeStats,
    /// Wall-clock seconds to build the tree *and* compile it to the
    /// serving [`FlatTree`].
    pub build_secs: f64,
    /// Resident bytes of the compiled [`FlatTree`] (exact capacity
    /// accounting, see [`FlatTree::resident_bytes`]).
    pub resident_bytes: usize,
}

impl ClassifierStats {
    /// Worst-case classification time in memory accesses (the paper's
    /// `T_root`, ≥ 1 for any non-empty tree).
    pub fn time(&self) -> usize {
        self.tree.time
    }
}

/// Time a closure, returning its result and elapsed wall-clock seconds
/// (clamped away from zero so rate computations stay finite).
///
/// Lives here — not in the training crates — so the determinism-pure
/// domains (`core`, `rl`, `nn`, `dtree`) never touch a wall clock
/// themselves: callers pass the deterministic work in and only the
/// *measurement* reads time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64().max(1e-9))
}

/// A packet classifier built from a rule set and compiled for serving:
/// an arena [`DecisionTree`] plus its compiled [`FlatTree`] and stats.
///
/// Lookups are **exact**: `classify` and `classify_batch` return the
/// same winning [`RuleId`] as the rule set's linear scan for every
/// valid packet (pinned by the workspace conformance suites).
#[derive(Debug, Clone)]
pub struct Classifier {
    name: &'static str,
    tree: DecisionTree,
    flat: FlatTree,
    stats: ClassifierStats,
}

impl Classifier {
    /// Run `build`, compile its tree, and wrap the result; `build_secs`
    /// covers both steps.
    pub fn compile_timed(name: &'static str, build: impl FnOnce() -> DecisionTree) -> Classifier {
        let ((tree, flat), build_secs) = timed(|| {
            let tree = build();
            let flat = FlatTree::compile(&tree);
            (tree, flat)
        });
        Classifier::from_parts(name, tree, flat, build_secs)
    }

    /// Wrap an already-built tree + compiled form.
    pub fn from_parts(
        name: &'static str,
        tree: DecisionTree,
        flat: FlatTree,
        build_secs: f64,
    ) -> Classifier {
        let stats = ClassifierStats {
            tree: TreeStats::compute(&tree),
            build_secs,
            resident_bytes: flat.resident_bytes(),
        };
        Classifier { name, tree, flat, stats }
    }

    /// Algorithm name as the figures print it (e.g. `"HiCuts"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The arena tree (construction form).
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// The compiled serving tree.
    pub fn flat(&self) -> &FlatTree {
        &self.flat
    }

    /// Shape and build-time statistics, computed at construction.
    pub fn stats(&self) -> &ClassifierStats {
        &self.stats
    }

    /// Classify one packet through the compiled tree; `None` means no
    /// rule matched.
    pub fn classify(&self, packet: &Packet) -> Option<RuleId> {
        self.flat.classify(packet)
    }

    /// Classify a batch through the compiled tree's wavefront path.
    /// Results equal per-packet [`Classifier::classify`] calls.
    ///
    /// # Panics
    /// Panics if `packets` and `out` have different lengths.
    pub fn classify_batch(&self, packets: &[Packet], out: &mut [Option<RuleId>]) {
        self.flat.classify_batch(packets, out);
    }
}

/// The five hand-tuned baselines of §6: the one place a name maps to an
/// algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// HiCuts ([`build_hicuts`]).
    HiCuts,
    /// HyperCuts ([`build_hypercuts`]).
    HyperCuts,
    /// HyperSplit ([`build_hypersplit`]).
    HyperSplit,
    /// EffiCuts ([`build_efficuts`]).
    EffiCuts,
    /// CutSplit ([`build_cutsplit`]).
    CutSplit,
}

impl Baseline {
    /// Every baseline, in harness order.
    pub const ALL: [Baseline; 5] = [
        Baseline::HiCuts,
        Baseline::HyperCuts,
        Baseline::HyperSplit,
        Baseline::EffiCuts,
        Baseline::CutSplit,
    ];

    /// Algorithm name as the figures print it (e.g. `"HiCuts"`).
    pub const fn name(self) -> &'static str {
        match self {
            Baseline::HiCuts => "HiCuts",
            Baseline::HyperCuts => "HyperCuts",
            Baseline::HyperSplit => "HyperSplit",
            Baseline::EffiCuts => "EffiCuts",
            Baseline::CutSplit => "CutSplit",
        }
    }

    /// The baseline whose [`name`](Baseline::name) equals `name`,
    /// ignoring ASCII case; `None` for an unknown name.
    pub fn from_name(name: &str) -> Option<Baseline> {
        Baseline::ALL.into_iter().find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// Build the arena tree.
    pub fn build_tree(self, rules: &RuleSet) -> DecisionTree {
        let build = match self {
            Baseline::HiCuts => build_hicuts,
            Baseline::HyperCuts => build_hypercuts,
            Baseline::HyperSplit => build_hypersplit,
            Baseline::EffiCuts => build_efficuts,
            Baseline::CutSplit => build_cutsplit,
        };
        build(rules)
    }

    /// Build the tree and compile it; `stats().build_secs` covers both
    /// steps.
    pub fn build(self, rules: &RuleSet) -> Classifier {
        Classifier::compile_timed(self.name(), || self.build_tree(rules))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{
        generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, TraceConfig,
    };

    fn rules() -> RuleSet {
        generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 120).with_seed(9))
    }

    #[test]
    fn every_baseline_classifier_matches_linear_scan() {
        let rs = rules();
        let trace = generate_trace(&rs, &TraceConfig::new(256).with_seed(10));
        for b in Baseline::ALL {
            let c = b.build(&rs);
            assert_eq!(c.name(), b.name());
            let mut batch = vec![None; trace.len()];
            c.classify_batch(&trace, &mut batch);
            for (i, p) in trace.iter().enumerate() {
                let scalar = c.classify(p);
                assert_eq!(scalar, rs.classify(p), "{} scalar at {p}", b.name());
                assert_eq!(batch[i], scalar, "{} batch at {p}", b.name());
            }
        }
    }

    #[test]
    fn stats_are_sane_and_timed() {
        let rs = rules();
        let c = Baseline::HiCuts.build(&rs);
        let s = c.stats();
        assert!(s.time() >= 1);
        assert!(s.tree.bytes > 0);
        assert!(s.tree.nodes >= 1);
        assert!(s.tree.bytes_per_rule.is_finite() && s.tree.bytes_per_rule > 0.0);
        assert!(s.build_secs > 0.0);
        assert!(s.resident_bytes > 0);
    }

    /// Every [`Baseline`] builds exactly the tree its builder function
    /// does: same stats, same answers.
    #[test]
    fn trait_build_equals_direct_build_bit_identically() {
        let rs = rules();
        let trace = generate_trace(&rs, &TraceConfig::new(256).with_seed(11));
        for b in Baseline::ALL {
            let direct = match b {
                Baseline::HiCuts => build_hicuts(&rs),
                Baseline::HyperCuts => build_hypercuts(&rs),
                Baseline::HyperSplit => build_hypersplit(&rs),
                Baseline::EffiCuts => build_efficuts(&rs),
                Baseline::CutSplit => build_cutsplit(&rs),
            };
            let c = b.build(&rs);
            assert_eq!(c.stats().tree, TreeStats::compute(&direct), "{}", b.name());
            for p in &trace {
                assert_eq!(c.classify(p), direct.classify(p), "{} at {p}", b.name());
            }
        }
    }

    #[test]
    fn from_name_round_trips_every_name_in_any_case() {
        for b in Baseline::ALL {
            assert_eq!(Baseline::from_name(b.name()), Some(b));
            assert_eq!(Baseline::from_name(&b.name().to_ascii_lowercase()), Some(b));
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert_eq!(Baseline::from_name("TCAM"), None);
    }

    #[test]
    fn compiled_accessors_agree() {
        let rs = rules();
        let c = Baseline::EffiCuts.build(&rs);
        assert_eq!(c.name(), "EffiCuts");
        assert_eq!(c.stats().tree, TreeStats::compute(c.tree()));
        assert_eq!(c.stats().resident_bytes, c.flat().resident_bytes());
    }

    #[test]
    fn timed_reports_positive_elapsed() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs > 0.0);
    }
}
