//! NeuroCuts behind the unified [`Classifier`] boundary.
//!
//! The five hand-tuned baselines implement [`Classifier`] in
//! `baselines::classifier`; this module adds the sixth — and the
//! paper's actual contribution — by closing train → compile into one
//! constructor. [`NeuroCutsClassifier::train`] runs the PR 4/5
//! actor-learner pipeline ([`Trainer::train_to_tree`]), compiles the
//! best tree to the serving [`dtree::FlatTree`], and records build
//! (= training + compile) time, so sweeps measure all six algorithms
//! through one interface.
//!
//! Training itself stays deterministic for a fixed (rules, config):
//! wall-clock time enters only through the `baselines::classifier::
//! timed` measurement wrapper, never the training path.

use baselines::classifier::{timed, Classifier, ClassifierStats, CompiledClassifier};
use classbench::{Packet, RuleSet};
use dtree::{FlatTree, RuleId};

use crate::config::NeuroCutsConfig;
use crate::trainer::{TrainError, Trainer};

/// A trained NeuroCuts policy's best tree, compiled for serving.
#[derive(Debug, Clone)]
pub struct NeuroCutsClassifier(CompiledClassifier);

impl NeuroCutsClassifier {
    /// Train on `rules` under `config`, keep the best completed tree
    /// (greedy argmax fallback when every rollout truncated), and
    /// compile it. `stats().build_secs` covers training + compilation.
    ///
    /// Deterministic for a fixed (rules, config) — the same contract
    /// as [`Trainer::train_to_tree`].
    pub fn train(rules: &RuleSet, config: NeuroCutsConfig) -> Result<Self, TrainError> {
        let (built, build_secs) = timed(|| -> Result<_, TrainError> {
            let mut trainer = Trainer::new(rules.clone(), config)?;
            let (tree, _, _) = trainer.train_to_tree()?;
            let tree = (*tree).clone();
            let flat = FlatTree::compile(&tree);
            Ok((tree, flat))
        });
        let (tree, flat) = built?;
        Ok(NeuroCutsClassifier(CompiledClassifier::from_parts("NeuroCuts", tree, flat, build_secs)))
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

impl Classifier for NeuroCutsClassifier {
    /// Build with the seconds-scale [`NeuroCutsConfig::smoke_test`]
    /// budget — the trait-level default. Sweeps and production callers
    /// size their own budget via [`NeuroCutsClassifier::train`].
    fn build(rules: &RuleSet) -> NeuroCutsClassifier {
        NeuroCutsClassifier::train(rules, NeuroCutsConfig::smoke_test())
            .expect("trainable rule set")
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

#[cfg(test)]
mod tests {
    use super::*;
    use classbench::{
        generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, TraceConfig,
    };

    #[test]
    fn trained_classifier_matches_linear_scan() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 60).with_seed(21));
        let trace = generate_trace(&rules, &TraceConfig::new(200).with_seed(22));
        let c = NeuroCutsClassifier::build(&rules);
        assert_eq!(c.name(), "NeuroCuts");
        let mut batch = vec![None; trace.len()];
        c.classify_batch(&trace, &mut batch);
        for (i, p) in trace.iter().enumerate() {
            let scalar = c.classify(p);
            assert_eq!(scalar, rules.classify(p), "scalar at {p}");
            assert_eq!(batch[i], scalar, "batch at {p}");
        }
        let s = c.stats();
        assert!(s.time() >= 1);
        assert!(s.build_secs > 0.0);
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn train_is_deterministic_for_fixed_inputs() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 50).with_seed(23));
        let a = NeuroCutsClassifier::train(&rules, NeuroCutsConfig::smoke_test()).unwrap();
        let b = NeuroCutsClassifier::train(&rules, NeuroCutsConfig::smoke_test()).unwrap();
        assert_eq!(a.stats().tree, b.stats().tree);
    }

    #[test]
    fn empty_rule_set_is_a_typed_error() {
        let err = NeuroCutsClassifier::train(&RuleSet::default(), NeuroCutsConfig::smoke_test());
        assert!(err.is_err());
    }
}
