//! NeuroCuts as a [`Classifier`]: train → compile in one call.
//!
//! The five hand-tuned baselines become a [`Classifier`] through
//! `baselines::Baseline::build`; [`train_classifier`] does the same for
//! the paper's actual contribution. It runs the actor-learner pipeline
//! ([`Trainer::train_to_tree`]), compiles the chosen tree to the
//! serving [`dtree::FlatTree`], and records build (= training +
//! compile) time, so sweeps measure all six algorithms as one type.
//!
//! Training itself stays deterministic for a fixed (rules, config):
//! wall-clock time enters only through the `baselines::classifier::
//! timed` measurement wrapper, never the training path.

use baselines::classifier::{timed, Classifier};
use classbench::RuleSet;
use dtree::FlatTree;

use crate::config::NeuroCutsConfig;
use crate::trainer::{TrainError, Trainer};

/// Train on `rules` under `config`, keep the best completed tree
/// (greedy argmax fallback when every rollout truncated), and compile
/// it. `stats().build_secs` covers training + compilation.
///
/// Deterministic for a fixed (rules, config) — the same contract as
/// [`Trainer::train_to_tree`].
pub fn train_classifier(
    rules: &RuleSet,
    config: NeuroCutsConfig,
) -> Result<Classifier, TrainError> {
    let (built, build_secs) = timed(|| -> Result<_, TrainError> {
        let mut trainer = Trainer::new(rules.clone(), config)?;
        let (tree, _, _) = trainer.train_to_tree()?;
        let tree = (*tree).clone();
        let flat = FlatTree::compile(&tree);
        Ok((tree, flat))
    });
    let (tree, flat) = built?;
    Ok(Classifier::from_parts("NeuroCuts", tree, flat, build_secs))
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
        let c = train_classifier(&rules, NeuroCutsConfig::smoke_test()).unwrap();
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
        let a = train_classifier(&rules, NeuroCutsConfig::smoke_test()).unwrap();
        let b = train_classifier(&rules, NeuroCutsConfig::smoke_test()).unwrap();
        assert_eq!(a.stats().tree, b.stats().tree);
    }

    #[test]
    fn empty_rule_set_is_a_typed_error() {
        let err = train_classifier(&RuleSet::default(), NeuroCutsConfig::smoke_test());
        assert!(err.is_err());
    }
}
