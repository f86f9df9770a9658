//! The NeuroCuts training loop (Algorithm 1 + Figure 7).
//!
//! Each iteration: the vectorised collector ([`crate::VecEnv`]) steps
//! `num_envs` lockstep tree-building environments against the frozen
//! policy — one batched forward per step, `workers` threads — the
//! completed episodes are concatenated into a multi-env batch, and PPO
//! updates the shared policy/value network. The best completed tree
//! across all rollouts is tracked continuously; training stops at the
//! timestep budget or after `patience` iterations without improvement.
//! Degenerate inputs surface as [`TrainError`]s instead of panics.

use crate::config::NeuroCutsConfig;
pub use crate::env::BestTree;
use crate::env::NeuroCutsEnv;
use crate::vecenv::VecEnv;
use classbench::RuleSet;
use dtree::{DecisionTree, TreeStats};
use nn::{NetConfig, PolicyValueNet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rl::{Ppo, QConfig, QLearner, UpdateStats};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Why a [`Trainer`] could not be built or make progress. Surfaced as
/// a `Result` instead of a panic so callers (the CLI, long-running
/// harnesses) can report the degenerate input and move on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The rule set has no rules: there is no classifier to learn.
    EmptyRuleSet,
    /// Every episode ends before the policy gets a single decision —
    /// the root is already terminal (≤ `binth` rules, inseparable
    /// rules, zero rollout budget, ...), so there are no actions to
    /// optimise.
    NothingToLearn {
        /// Rules in the set.
        rules: usize,
        /// The leaf threshold that makes the root terminal.
        binth: usize,
    },
    /// A collection round produced zero experiences (every episode
    /// truncated before its first decision).
    EmptyBatch,
    /// A policy checkpoint could not be restored: unparseable JSON or
    /// a network shape that doesn't match this trainer's configuration.
    BadCheckpoint(
        /// What was wrong with the checkpoint.
        String,
    ),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyRuleSet => write!(f, "cannot train on an empty rule set"),
            TrainError::NothingToLearn { rules, binth } => write!(
                f,
                "nothing to learn: every episode ends before the first decision \
                 ({rules} rules, binth {binth})"
            ),
            TrainError::EmptyBatch => write!(f, "rollout collection produced an empty batch"),
            TrainError::BadCheckpoint(why) => write!(f, "cannot restore checkpoint: {why}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// The policy-optimisation algorithm behind a [`Trainer`]: PPO (the
/// paper's choice) or the Q-learning baseline it rejected (§4).
enum Learner {
    Ppo(Ppo),
    Q(QLearner),
}

/// Diagnostics for one training iteration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Total environment timesteps consumed so far.
    pub timesteps: usize,
    /// Episodes (trees) completed this iteration.
    pub episodes: usize,
    /// Mean episode return this iteration (−objective; higher better).
    pub mean_return: f64,
    /// Best objective seen so far (lower better).
    pub best_objective: f64,
    /// PPO update diagnostics.
    pub ppo: UpdateStats,
}

/// The outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-iteration history.
    pub history: Vec<IterationStats>,
    /// The best tree found (None only if every rollout truncated).
    pub best: Option<BestTree>,
    /// Total timesteps consumed.
    pub timesteps: usize,
}

/// Trains a NeuroCuts policy for one rule set.
pub struct Trainer {
    env: NeuroCutsEnv,
    vec_env: VecEnv,
    net: PolicyValueNet,
    learner: Learner,
    config: NeuroCutsConfig,
    timesteps: usize,
    iterations: usize,
}

impl Trainer {
    /// Set up policy, PPO learner, and the vectorised environment for
    /// `rules`. Rejects inputs the training loop could do nothing
    /// with: an empty rule set, or one whose root node is already
    /// terminal (the policy would never get a decision, so every batch
    /// would be empty).
    pub fn new(rules: RuleSet, config: NeuroCutsConfig) -> Result<Self, TrainError> {
        if rules.is_empty() {
            return Err(TrainError::EmptyRuleSet);
        }
        let env = NeuroCutsEnv::new(rules, config.clone());
        // Probe one episode up to its first decision: if none exists
        // (root terminal under `binth`, inseparable rules, zero rollout
        // budget), no amount of training can produce experiences.
        let mut probe = env.start_episode(config.seed, false);
        if !env.next_decision(&mut probe) {
            return Err(TrainError::NothingToLearn {
                rules: env.rules().len(),
                binth: config.binth,
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x006e_6574); // "net"
        let net = PolicyValueNet::new(
            NetConfig {
                obs_dim: env.encoder.obs_dim(),
                dim_actions: env.action_space.dim_actions(),
                num_actions: env.action_space.num_actions(),
                hidden: config.hidden,
            },
            &mut rng,
        );
        let learner = if config.use_qlearning {
            Learner::Q(QLearner::new(
                QConfig {
                    sgd_iters: config.ppo.sgd_iters,
                    minibatch: config.ppo.minibatch,
                    adam: config.ppo.adam,
                    ..Default::default()
                },
                config.seed,
            ))
        } else {
            Learner::Ppo(Ppo::new(config.ppo, config.seed))
        };
        let vec_env = Self::make_collector(&env, &config);
        Ok(Trainer { env, vec_env, net, learner, config, timesteps: 0, iterations: 0 })
    }

    /// The vectorised collector every trainer uses: one construction
    /// site, so plain and traffic-aware trainers can never drift onto
    /// different episode-seed schedules.
    fn make_collector(env: &NeuroCutsEnv, config: &NeuroCutsConfig) -> VecEnv {
        VecEnv::new(env.clone(), config.num_envs.max(1), config.seed.wrapping_add(1))
    }

    /// The environment (e.g. to inspect the rule set or best tree).
    pub fn env(&self) -> &NeuroCutsEnv {
        &self.env
    }

    /// Optimise for the *expected* classification time under `trace`
    /// instead of the worst case — the traffic-aware objective the
    /// paper's conclusion proposes (§8). Call before training.
    ///
    /// # Panics
    /// Panics if training has already started: the collector is
    /// rebuilt around the traffic-aware environment with its episode
    /// seed schedule restarted from zero, so a mid-training switch
    /// would silently replay already-consumed episode seeds.
    pub fn set_traffic(mut self, trace: Vec<classbench::Packet>) -> Self {
        assert_eq!(self.iterations, 0, "set_traffic must be called before training starts");
        self.env = self.env.with_traffic(trace);
        // The collector steps clones of the environment, so it must be
        // rebuilt around the traffic-aware one.
        self.vec_env = Self::make_collector(&self.env, &self.config);
        self
    }

    /// The current policy network.
    pub fn net(&self) -> &PolicyValueNet {
        &self.net
    }

    /// Run one training iteration: collect one multi-env batch through
    /// the vectorised collector (lockstep episodes, batched policy
    /// inference, `config.workers` threads) and apply one PPO update.
    /// Returns the iteration's diagnostics.
    pub fn step(&mut self) -> Result<IterationStats, TrainError> {
        let batch =
            self.vec_env.collect(&self.net, self.config.timesteps_per_batch, self.config.workers);
        if batch.is_empty() {
            return Err(TrainError::EmptyBatch);
        }
        self.timesteps += batch.len();
        let ppo_stats = match &mut self.learner {
            Learner::Ppo(ppo) => ppo.update(&mut self.net, &batch),
            Learner::Q(q) => {
                let qs = q.update(&mut self.net, &batch);
                UpdateStats { value_loss: qs.td_error, epochs: qs.epochs, ..Default::default() }
            }
        };
        let stats = IterationStats {
            iteration: self.iterations,
            timesteps: self.timesteps,
            episodes: batch.episodes,
            mean_return: batch.mean_episode_return,
            best_objective: self.env.best().map_or(f64::INFINITY, |b| b.objective),
            ppo: ppo_stats,
        };
        self.iterations += 1;
        Ok(stats)
    }

    /// Train until the timestep budget is spent or `patience`
    /// iterations pass without improving the best objective.
    pub fn train(&mut self) -> Result<TrainReport, TrainError> {
        let mut history = Vec::new();
        let mut stale = 0usize;
        let mut best_seen = f64::INFINITY;
        while self.timesteps < self.config.max_timesteps {
            let stats = self.step()?;
            if stats.best_objective + 1e-12 < best_seen {
                best_seen = stats.best_objective;
                stale = 0;
            } else if best_seen.is_finite() {
                // Patience only counts once *some* tree has completed;
                // early truncated-rollout iterations are the learning
                // phase, not stagnation.
                stale += 1;
            }
            history.push(stats);
            if self.config.patience > 0 && stale >= self.config.patience {
                break;
            }
        }
        Ok(TrainReport { history, best: self.env.best(), timesteps: self.timesteps })
    }

    /// Train to completion and hand back [`Trainer::deployed_tree`] —
    /// the train→compile→serve glue the lifecycle worker and the CLI
    /// share. Returns the tree, its stats, and the timesteps consumed.
    /// Deterministic for a fixed (rules, config).
    pub fn train_to_tree(&mut self) -> Result<(Arc<DecisionTree>, TreeStats, usize), TrainError> {
        let report = self.train()?;
        let (tree, stats) = self.deployed_tree();
        Ok((tree, stats, report.timesteps))
    }

    /// The tree to deploy: the best completed rollout so far, or the
    /// greedy argmax tree when no rollout has completed one. The one
    /// tree-selection rule every caller (the CLI, the lifecycle
    /// worker, the emitters and the figures) deploys.
    pub fn deployed_tree(&self) -> (Arc<DecisionTree>, TreeStats) {
        match self.env.best() {
            Some(best) => (best.tree, best.stats),
            None => self.greedy_tree(),
        }
    }

    /// Build one tree greedily (argmax actions) with the current
    /// policy — the deterministic "final" tree.
    pub fn greedy_tree(&self) -> (Arc<DecisionTree>, TreeStats) {
        let ep = self.env.build_tree(&self.net, 0, true);
        let stats = TreeStats::compute(&ep.tree);
        (ep.tree, stats)
    }

    /// Sample `n` stochastic tree variations from the current policy
    /// (Figure 6).
    pub fn sample_trees(&self, n: usize, seed: u64) -> Vec<(Arc<DecisionTree>, TreeStats)> {
        (0..n)
            .map(|i| {
                let ep = self.env.build_tree(&self.net, seed.wrapping_add(i as u64), false);
                let stats = TreeStats::compute(&ep.tree);
                (ep.tree, stats)
            })
            .collect()
    }

    /// Serialise the policy (checkpoint).
    pub fn save_policy(&self) -> String {
        self.net.to_json()
    }

    /// Restore a policy saved by [`Trainer::save_policy`].
    ///
    /// Fails with [`TrainError::BadCheckpoint`] when the JSON is not a
    /// well-formed network (it doesn't parse, or a layer's shape
    /// disagrees with its own tensors or with the net's `config`) or
    /// the checkpoint's network shape doesn't match this trainer's
    /// configuration; the current policy is untouched on every error
    /// path.
    pub fn load_policy(&mut self, json: &str) -> Result<(), TrainError> {
        let net = PolicyValueNet::from_json(json)
            .map_err(|e| TrainError::BadCheckpoint(format!("not a network: {e}")))?;
        if net.config != self.net.config {
            return Err(TrainError::BadCheckpoint(format!(
                "network shape {:?} does not match trainer config {:?}",
                net.config, self.net.config
            )));
        }
        self.net = net;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionMode;
    use classbench::{generate_rules, ClassifierFamily, GeneratorConfig};
    use dtree::validate::assert_tree_valid;

    fn rules(size: usize) -> RuleSet {
        generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, size).with_seed(81))
    }

    #[test]
    fn smoke_training_improves_or_matches_initial_policy() {
        let mut trainer = Trainer::new(rules(64), NeuroCutsConfig::smoke_test()).unwrap();
        let report = trainer.train().unwrap();
        assert!(!report.history.is_empty());
        assert!(report.timesteps > 0);
        let best = report.best.expect("at least one completed tree");
        assert!(best.objective.is_finite());
        assert_tree_valid(&best.tree, 200, 82);
        // History is monotone in best objective.
        let mut prev = f64::INFINITY;
        for h in &report.history {
            assert!(h.best_objective <= prev + 1e-9);
            prev = h.best_objective;
        }
    }

    #[test]
    fn training_beats_the_random_policy_on_time() {
        // The core learning claim at smoke scale: after training, the
        // best tree is no worse than the first iteration's mean.
        let mut cfg = NeuroCutsConfig::smoke_test();
        cfg.max_timesteps = 3_000;
        cfg.timesteps_per_batch = 600;
        let mut trainer = Trainer::new(rules(64), cfg).unwrap();
        let report = trainer.train().unwrap();
        let first_mean = -report.history[0].mean_return; // mean objective
        let best = report.best.unwrap().objective;
        assert!(
            best <= first_mean + 1e-9,
            "best {best} should beat the average random tree {first_mean}"
        );
    }

    #[test]
    fn greedy_tree_is_valid_and_deterministic() {
        let mut trainer = Trainer::new(rules(64), NeuroCutsConfig::smoke_test()).unwrap();
        let _ = trainer.step().unwrap();
        let (t1, s1) = trainer.greedy_tree();
        let (_t2, s2) = trainer.greedy_tree();
        assert_eq!(s1, s2);
        assert_tree_valid(&t1, 200, 83);
    }

    #[test]
    fn deployed_tree_is_the_best_rollout_else_the_greedy_tree() {
        let mut trainer = Trainer::new(rules(64), NeuroCutsConfig::smoke_test()).unwrap();
        // No rollout has completed yet: the greedy tree.
        assert_eq!(trainer.deployed_tree().1, trainer.greedy_tree().1);
        let (tree, stats, _) = trainer.train_to_tree().unwrap();
        let best = trainer.env().best().expect("a completed rollout");
        assert!(Arc::ptr_eq(&tree, &best.tree));
        assert_eq!(stats, best.stats);
    }

    #[test]
    fn sampled_trees_vary() {
        let trainer = Trainer::new(rules(64), NeuroCutsConfig::smoke_test()).unwrap();
        let trees = trainer.sample_trees(4, 42);
        assert_eq!(trees.len(), 4);
        for (t, _) in &trees {
            assert_tree_valid(t, 100, 84);
        }
        // The stochastic policy explores: not all four identical (Fig 6).
        let times: Vec<usize> = trees.iter().map(|(_, s)| s.time).collect();
        let nodes: Vec<usize> = trees.iter().map(|(_, s)| s.nodes).collect();
        assert!(
            times.windows(2).any(|w| w[0] != w[1]) || nodes.windows(2).any(|w| w[0] != w[1]),
            "four identical trees from a stochastic policy: {times:?} {nodes:?}"
        );
    }

    #[test]
    fn checkpoint_roundtrip() {
        let mut trainer = Trainer::new(rules(64), NeuroCutsConfig::smoke_test()).unwrap();
        let _ = trainer.step().unwrap();
        let ckpt = trainer.save_policy();
        let (_, s1) = trainer.greedy_tree();
        let mut restored = Trainer::new(rules(64), NeuroCutsConfig::smoke_test()).unwrap();
        restored.load_policy(&ckpt).unwrap();
        let (_, s2) = restored.greedy_tree();
        assert_eq!(s1, s2);
    }

    #[test]
    fn malformed_checkpoints_are_refused_without_touching_the_policy() {
        let mut cfg = NeuroCutsConfig::smoke_test();
        cfg.hidden = [8, 8];
        let mut trainer = Trainer::new(rules(64), cfg.clone()).unwrap();
        let saved = trainer.save_policy();
        let json: serde_json::Value = serde_json::from_str(&saved).unwrap();
        // The 8×8 `l2`'s weight gradient one entry short: it used to load
        // and panic in the first update.
        let mut cut = json.clone();
        cut["l2"]["gw"]["data"].as_array_mut().unwrap().pop();
        // Layers 16 wide under this trainer's own config, whose `hidden`
        // therefore disagrees with them.
        let mut wide_cfg = cfg;
        wide_cfg.hidden = [16, 16];
        let wide = Trainer::new(rules(64), wide_cfg).unwrap().save_policy();
        let mut wide: serde_json::Value = serde_json::from_str(&wide).unwrap();
        wide["config"] = json["config"].clone();
        for bad in [cut, wide] {
            let bad = serde_json::to_string(&bad).unwrap();
            match trainer.load_policy(&bad) {
                Err(TrainError::BadCheckpoint(why)) => {
                    assert!(why.contains("not a network"), "{why}")
                }
                other => panic!("malformed checkpoint loaded: {other:?}"),
            }
            assert_eq!(trainer.save_policy(), saved);
        }
    }

    #[test]
    fn partition_mode_efficuts_trains() {
        // IPC mixes wildcards and specific rules, so the EffiCuts
        // partition has real work to do while random-policy episodes
        // still complete (FW-heavy sets need the paper's full 15k-step
        // budget to get through the initial random phase).
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Ipc, 80).with_seed(85));
        let mut cfg = NeuroCutsConfig::smoke_test()
            .with_partition_mode(PartitionMode::EffiCuts)
            .with_coeff(0.0);
        cfg.max_timesteps_per_rollout = 60_000;
        cfg.max_timesteps = 2_500;
        let mut trainer = Trainer::new(rules, cfg).unwrap();
        let report = trainer.train().unwrap();
        let best = report.best.expect("completed trees");
        assert_tree_valid(&best.tree, 200, 86);
    }

    #[test]
    fn empty_rule_set_is_an_error_not_a_panic() {
        let empty = classbench::parse_rules("").unwrap();
        match Trainer::new(empty, NeuroCutsConfig::smoke_test()) {
            Err(TrainError::EmptyRuleSet) => {}
            other => panic!("expected EmptyRuleSet, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn terminal_root_is_nothing_to_learn() {
        // Fewer rules than binth: the root is already a valid leaf, so
        // no episode ever reaches a decision.
        let mut cfg = NeuroCutsConfig::smoke_test();
        cfg.binth = 64;
        match Trainer::new(rules(8), cfg) {
            Err(TrainError::NothingToLearn { rules, binth }) => {
                assert_eq!(binth, 64);
                assert!(rules <= 64);
            }
            other => panic!("expected NothingToLearn, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn zero_rollout_budget_is_nothing_to_learn() {
        let mut cfg = NeuroCutsConfig::smoke_test();
        cfg.max_timesteps_per_rollout = 0;
        match Trainer::new(rules(64), cfg) {
            Err(TrainError::NothingToLearn { .. }) => {}
            other => panic!("expected NothingToLearn, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn train_error_messages_name_the_cause() {
        assert!(TrainError::EmptyRuleSet.to_string().contains("empty rule set"));
        let e = TrainError::NothingToLearn { rules: 8, binth: 64 }.to_string();
        assert!(e.contains("8 rules") && e.contains("binth 64"), "{e}");
    }

    #[test]
    fn patience_stops_early() {
        let mut cfg = NeuroCutsConfig::smoke_test();
        cfg.max_timesteps = usize::MAX / 2;
        cfg.patience = 2;
        let mut trainer = Trainer::new(rules(32), cfg).unwrap();
        let report = trainer.train().unwrap();
        // Must terminate (patience) well before the absurd budget.
        assert!(report.history.len() < 100);
    }
}
