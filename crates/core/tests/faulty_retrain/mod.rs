//! Retrain functions for the lifecycle worker's one test seam,
//! `LifecycleConfig::retrain`, that fail on chosen attempts. The worker
//! trains its `k`-th attempt (from 1) with the seed `train.seed + k`,
//! so a function reads `k` back from the seed it is handed. Shared by
//! the chaos soak and the lifecycle simulator.

use classbench::RuleSet;
use dtree::{DecisionTree, TreeStats};
use neurocuts::{retrain_snapshot, NeuroCutsConfig, TrainError};
use std::sync::Arc;

/// Retrain as [`retrain_snapshot`] does, except that attempt `k` panics
/// when it is in `panics` and returns a template missing rule 0 (which
/// only the worker's pre-publish spot check can catch) when it is in
/// `corrupts`.
pub fn faulty(
    rules: &RuleSet,
    cfg: &NeuroCutsConfig,
    seed: u64,
    panics: &[u64],
    corrupts: &[u64],
) -> Result<(Arc<DecisionTree>, TreeStats, usize), TrainError> {
    let k = seed.wrapping_sub(cfg.seed);
    if panics.contains(&k) {
        panic!("injected retrain panic (attempt {k})");
    }
    let (tree, stats, timesteps) = retrain_snapshot(rules, cfg, seed)?;
    if !corrupts.contains(&k) {
        return Ok((tree, stats, timesteps));
    }
    let mut sabotaged = (*tree).clone();
    dtree::updates::delete_rule(&mut sabotaged, 0)
        .expect("template rule 0 exists: the trainer refuses empty rule sets");
    Ok((Arc::new(sabotaged), stats, timesteps))
}
