//! The unified [`Classifier`] trait: one boundary every packet
//! classifier in the workspace serves behind.
//!
//! Every algorithm here — the five hand-tuned baselines and the trained
//! NeuroCuts policy (`neurocuts::NeuroCutsClassifier`) — ends at the
//! same place: a [`DecisionTree`] compiled to a [`FlatTree`] for
//! serving. The trait makes that uniformity explicit so harnesses
//! (`bench_sweep`, the examples, the conformance suites) and future
//! multi-tenant serving can treat "a classifier" as one thing:
//!
//! * **build-from-ruleset** — [`Classifier::build`] constructs the
//!   classifier from a [`RuleSet`] under the algorithm's default
//!   configuration, timing the build (each concrete type also offers a
//!   config-taking constructor);
//! * **lookup** — [`Classifier::classify`] (scalar) and
//!   [`Classifier::classify_batch`] (wavefront) return the same
//!   [`RuleId`]s as the rule set's linear scan;
//! * **accounting** — [`Classifier::stats`] reports depth, node count,
//!   bytes/rule, compiled footprint, and build time.
//!
//! The trait is object safe (`build` is `where Self: Sized`), so
//! heterogeneous sweeps hold `Box<dyn Classifier>`.

use crate::{
    build_cutsplit, build_efficuts, build_hicuts, build_hypercuts, build_hypersplit,
    CutSplitConfig, EffiCutsConfig, HiCutsConfig, HyperCutsConfig, HyperSplitConfig,
};
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

/// A packet classifier built from a rule set and compiled for serving.
///
/// Implementations guarantee **exactness**: `classify` and
/// `classify_batch` return the same winning [`RuleId`] as the rule
/// set's linear scan for every valid packet (pinned by the workspace
/// conformance suites). The trait is object safe; [`Classifier::build`]
/// is reachable only on concrete types.
pub trait Classifier {
    /// Build from `rules` under the algorithm's default configuration,
    /// recording build time in [`Classifier::stats`].
    ///
    /// # Panics
    /// May panic on degenerate inputs (e.g. an empty rule set) — the
    /// harnesses generate their own rule sets, so those are caller
    /// bugs, not runtime input. Config-taking constructors on the
    /// concrete types surface typed errors where construction can
    /// actually fail (NeuroCuts training).
    fn build(rules: &RuleSet) -> Self
    where
        Self: Sized;

    /// Algorithm name as the figures print it (e.g. `"HiCuts"`).
    fn name(&self) -> &'static str;

    /// Classify one packet; `None` means no rule matched.
    fn classify(&self, packet: &Packet) -> Option<RuleId>;

    /// Classify a batch through the wavefront path. `out` must be the
    /// same length as `packets`; results equal per-packet
    /// [`Classifier::classify`] calls.
    fn classify_batch(&self, packets: &[Packet], out: &mut [Option<RuleId>]);

    /// Shape and build-time statistics.
    fn stats(&self) -> &ClassifierStats;
}

/// Time a closure, returning its result and elapsed wall-clock seconds
/// (clamped away from zero so rate computations stay finite).
///
/// Lives here — not in the training crates — so the determinism-pure
/// domains (`core`, `rl`, `nn`) never touch a wall clock themselves:
/// callers pass the deterministic work in and only the *measurement*
/// reads time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64().max(1e-9))
}

/// The shared back half of every [`Classifier`] implementation: an
/// arena [`DecisionTree`] plus its compiled [`FlatTree`] and stats.
///
/// Concrete algorithm types wrap this (see [`HiCutsClassifier`] et
/// al.); it is not itself a `Classifier` because it has no
/// build-from-ruleset story of its own.
#[derive(Debug, Clone)]
pub struct CompiledClassifier {
    name: &'static str,
    tree: DecisionTree,
    flat: FlatTree,
    stats: ClassifierStats,
}

impl CompiledClassifier {
    /// Run `build`, compile its tree, and wrap the result; `build_secs`
    /// covers both steps.
    pub fn compile_timed(
        name: &'static str,
        build: impl FnOnce() -> DecisionTree,
    ) -> CompiledClassifier {
        let ((tree, flat), build_secs) = timed(|| {
            let tree = build();
            let flat = FlatTree::compile(&tree);
            (tree, flat)
        });
        CompiledClassifier::from_parts(name, tree, flat, build_secs)
    }

    /// Wrap an already-built tree + compiled form.
    pub fn from_parts(
        name: &'static str,
        tree: DecisionTree,
        flat: FlatTree,
        build_secs: f64,
    ) -> CompiledClassifier {
        let stats = ClassifierStats {
            tree: TreeStats::compute(&tree),
            build_secs,
            resident_bytes: flat.resident_bytes(),
        };
        CompiledClassifier { name, tree, flat, stats }
    }

    /// The algorithm name.
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

    /// Stats computed at construction.
    pub fn stats(&self) -> &ClassifierStats {
        &self.stats
    }

    /// Surrender the arena tree (for harnesses that post-process it).
    pub fn into_tree(self) -> DecisionTree {
        self.tree
    }

    /// Scalar lookup through the compiled tree.
    pub fn classify(&self, packet: &Packet) -> Option<RuleId> {
        self.flat.classify(packet)
    }

    /// Batched wavefront lookup through the compiled tree.
    pub fn classify_batch(&self, packets: &[Packet], out: &mut [Option<RuleId>]) {
        self.flat.classify_batch(packets, out);
    }
}

macro_rules! baseline_classifier {
    ($(#[$doc:meta])* $ty:ident, $name:literal, $build:path, $cfg:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $ty(CompiledClassifier);

        impl $ty {
            /// Build with an explicit configuration (timed, compiled).
            pub fn with_config(rules: &RuleSet, cfg: &$cfg) -> $ty {
                $ty(CompiledClassifier::compile_timed($name, || $build(rules, cfg)))
            }

            /// The shared compiled form (tree/flat/stats access).
            pub fn inner(&self) -> &CompiledClassifier {
                &self.0
            }

            /// Surrender the compiled form.
            pub fn into_inner(self) -> CompiledClassifier {
                self.0
            }
        }

        impl Classifier for $ty {
            fn build(rules: &RuleSet) -> $ty {
                $ty::with_config(rules, &<$cfg>::default())
            }

            fn name(&self) -> &'static str {
                self.0.name()
            }

            fn classify(&self, packet: &Packet) -> Option<RuleId> {
                self.0.classify(packet)
            }

            fn classify_batch(&self, packets: &[Packet], out: &mut [Option<RuleId>]) {
                self.0.classify_batch(packets, out)
            }

            fn stats(&self) -> &ClassifierStats {
                self.0.stats()
            }
        }
    };
}

baseline_classifier!(
    /// HiCuts compiled behind the [`Classifier`] boundary.
    HiCutsClassifier,
    "HiCuts",
    build_hicuts,
    HiCutsConfig
);
baseline_classifier!(
    /// HyperCuts compiled behind the [`Classifier`] boundary.
    HyperCutsClassifier,
    "HyperCuts",
    build_hypercuts,
    HyperCutsConfig
);
baseline_classifier!(
    /// HyperSplit compiled behind the [`Classifier`] boundary.
    HyperSplitClassifier,
    "HyperSplit",
    build_hypersplit,
    HyperSplitConfig
);
baseline_classifier!(
    /// EffiCuts compiled behind the [`Classifier`] boundary.
    EffiCutsClassifier,
    "EffiCuts",
    build_efficuts,
    EffiCutsConfig
);
baseline_classifier!(
    /// CutSplit compiled behind the [`Classifier`] boundary.
    CutSplitClassifier,
    "CutSplit",
    build_cutsplit,
    CutSplitConfig
);

/// The five baseline algorithm names, harness order.
pub const BASELINE_CLASSIFIERS: [&str; 5] =
    ["HiCuts", "HyperCuts", "HyperSplit", "EffiCuts", "CutSplit"];

/// Build one baseline [`Classifier`] by harness name with its default
/// configuration; `None` for an unknown name.
pub fn build_baseline_classifier(name: &str, rules: &RuleSet) -> Option<Box<dyn Classifier>> {
    Some(match name {
        "HiCuts" => Box::new(HiCutsClassifier::build(rules)),
        "HyperCuts" => Box::new(HyperCutsClassifier::build(rules)),
        "HyperSplit" => Box::new(HyperSplitClassifier::build(rules)),
        "EffiCuts" => Box::new(EffiCutsClassifier::build(rules)),
        "CutSplit" => Box::new(CutSplitClassifier::build(rules)),
        _ => return None,
    })
}

/// Like [`build_baseline_classifier`] but keeping the concrete
/// [`CompiledClassifier`] (arena-tree access) instead of boxing.
pub fn build_baseline_compiled(name: &str, rules: &RuleSet) -> Option<CompiledClassifier> {
    Some(match name {
        "HiCuts" => HiCutsClassifier::build(rules).into_inner(),
        "HyperCuts" => HyperCutsClassifier::build(rules).into_inner(),
        "HyperSplit" => HyperSplitClassifier::build(rules).into_inner(),
        "EffiCuts" => EffiCutsClassifier::build(rules).into_inner(),
        "CutSplit" => CutSplitClassifier::build(rules).into_inner(),
        _ => return None,
    })
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
        for name in BASELINE_CLASSIFIERS {
            let c = build_baseline_classifier(name, &rs).expect("known name");
            assert_eq!(c.name(), name);
            let mut batch = vec![None; trace.len()];
            c.classify_batch(&trace, &mut batch);
            for (i, p) in trace.iter().enumerate() {
                let scalar = c.classify(p);
                assert_eq!(scalar, rs.classify(p), "{name} scalar at {p}");
                assert_eq!(batch[i], scalar, "{name} batch at {p}");
            }
        }
    }

    #[test]
    fn stats_are_sane_and_timed() {
        let rs = rules();
        let c = HiCutsClassifier::build(&rs);
        let s = c.stats();
        assert!(s.time() >= 1);
        assert!(s.tree.bytes > 0);
        assert!(s.tree.nodes >= 1);
        assert!(s.tree.bytes_per_rule.is_finite() && s.tree.bytes_per_rule > 0.0);
        assert!(s.build_secs > 0.0);
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn trait_build_equals_direct_build_bit_identically() {
        let rs = rules();
        let via_trait = CutSplitClassifier::build(&rs);
        let direct = build_cutsplit(&rs, &CutSplitConfig::default());
        assert_eq!(via_trait.stats().tree, TreeStats::compute(&direct));
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(build_baseline_classifier("TCAM", &rules()).is_none());
        assert!(build_baseline_compiled("TCAM", &rules()).is_none());
    }

    #[test]
    fn compiled_accessors_agree() {
        let rs = rules();
        let c = EffiCutsClassifier::build(&rs).into_inner();
        assert_eq!(c.name(), "EffiCuts");
        assert_eq!(c.stats().tree, TreeStats::compute(c.tree()));
        assert_eq!(c.stats().resident_bytes, c.flat().resident_bytes());
        let tree = c.clone().into_tree();
        assert_eq!(TreeStats::compute(&tree), c.stats().tree);
    }

    #[test]
    fn timed_reports_positive_elapsed() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs > 0.0);
    }
}
