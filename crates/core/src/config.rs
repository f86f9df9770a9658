//! NeuroCuts hyperparameters — Table 1 of the paper, as code.

use rl::PpoConfig;
use serde::{Deserialize, Serialize};

/// Which partition actions the policy may take at top nodes
/// ("Top-node partitioning" in Table 1 — the paper's most sensitive
/// hyperparameter, biasing trees towards time (`None`) vs space
/// (`EffiCuts`) or in between (`Simple`)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionMode {
    /// Cut actions only: pure cutting trees, fastest classification.
    None,
    /// Single-dimension coverage-threshold partitions with a learned
    /// threshold (§4 "Simple").
    Simple,
    /// The EffiCuts partition heuristic as a single action (§4, §6.3).
    EffiCuts,
}

/// The reward scaling function `f` in Algorithm 1 (`f(x) ∈ {x, log x}`).
/// `Log` is used whenever `c < 1` to make time and space magnitudes
/// commensurable (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RewardScaling {
    /// Identity.
    Linear,
    /// Natural log (clamped below at 1 to stay finite).
    Log,
}

impl RewardScaling {
    /// Apply the scaling.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            RewardScaling::Linear => x,
            RewardScaling::Log => x.max(1.0).ln(),
        }
    }
}

/// Full NeuroCuts configuration. `paper_default` reproduces Table 1;
/// `small` and `smoke_test` scale the budget down for laptop-scale
/// experiments and doc-tests (the paper itself notes convergence within
/// a few hundred rollouts — size affects wall-clock, not
/// rollouts-to-converge).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeuroCutsConfig {
    /// Time-space coefficient `c ∈ [0, 1]` (Eq. 5): 1 optimises
    /// classification time only, 0 memory only.
    pub time_space_coeff: f64,
    /// Allowed top-node partitioning.
    pub partition_mode: PartitionMode,
    /// Reward scaling function `f`.
    pub reward_scaling: RewardScaling,
    /// Rollout truncation: max actions per tree rollout (Table 1:
    /// {1000, 5000, 15000}).
    pub max_timesteps_per_rollout: usize,
    /// Depth truncation: nodes at this depth are forced terminal
    /// (Table 1: {100, 500}).
    pub max_tree_depth: usize,
    /// Total environment timesteps to train for (Table 1: 10M).
    pub max_timesteps: usize,
    /// Timesteps per training batch (Table 1: 60k).
    pub timesteps_per_batch: usize,
    /// Hidden layer sizes (Table 1: [512, 512]).
    pub hidden: [usize; 2],
    /// PPO settings (Table 1 defaults).
    pub ppo: PpoConfig,
    /// Leaf termination threshold (rules per leaf).
    pub binth: usize,
    /// Worker threads stepping the vectorised collector (Figure 7).
    pub workers: usize,
    /// Independent environments stepped in lockstep by the vectorised
    /// collector ([`crate::VecEnv`]); their pending observations form
    /// one batched policy forward per step. Purely a throughput knob on
    /// top of `workers` — determinism is per-environment, so results
    /// depend on `num_envs` (the seed schedule) but never on `workers`.
    pub num_envs: usize,
    /// Master seed for policy init, sampling, and shuffling.
    pub seed: u64,
    /// Stop early after this many consecutive batches without improving
    /// the best objective (`0` disables early stopping).
    pub patience: usize,
    /// Ablation switch: when false, every decision in a rollout receives
    /// the *root* reward instead of its own subtree's (the "single
    /// terminal reward" strawman §4 argues against). Default true.
    pub dense_rewards: bool,
    /// Ablation switch: when true, partition actions are allowed at any
    /// node, not only top nodes (removes the Appendix-A action mask).
    /// Default false.
    pub partition_anywhere: bool,
    /// Comparison switch: train with the Q-learning baseline instead of
    /// PPO (the alternative the paper tried and found inferior, §4).
    /// Default false.
    pub use_qlearning: bool,
}

impl NeuroCutsConfig {
    /// Exactly Table 1 (with a 15000-step rollout cap and depth 100).
    pub fn paper_default() -> Self {
        NeuroCutsConfig {
            time_space_coeff: 1.0,
            partition_mode: PartitionMode::None,
            reward_scaling: RewardScaling::Linear,
            max_timesteps_per_rollout: 15_000,
            max_tree_depth: 100,
            max_timesteps: 10_000_000,
            timesteps_per_batch: 60_000,
            hidden: [512, 512],
            ppo: PpoConfig::default(),
            binth: 16,
            workers: 4,
            num_envs: 16,
            seed: 0,
            patience: 0,
            dense_rewards: true,
            partition_anywhere: false,
            use_qlearning: false,
        }
    }

    /// A budget sized for a few-hundred-rule classifier: completes in
    /// tens of seconds and usually converges visibly. Used by the
    /// examples and the figure harness.
    pub fn small(max_timesteps: usize) -> Self {
        let mut cfg = Self::paper_default();
        cfg.hidden = [64, 64];
        cfg.max_timesteps = max_timesteps;
        // Many small batches beat a few huge ones at this scale: each
        // worker's in-flight episode overshoots the batch by up to one
        // rollout cap, so the cap is kept at half a batch to preserve
        // the number of PPO updates the budget affords.
        cfg.timesteps_per_batch = (max_timesteps / 12).clamp(1_500, 6_000);
        cfg.max_timesteps_per_rollout = (cfg.timesteps_per_batch / 2).max(1_000);
        cfg.ppo.minibatch = 256;
        cfg.ppo.sgd_iters = 6;
        cfg.ppo.adam.lr = 3e-4;
        cfg.patience = 6;
        cfg
    }

    /// A seconds-scale budget for doc-tests and CI smoke tests.
    pub fn smoke_test() -> Self {
        let mut cfg = Self::paper_default();
        cfg.hidden = [32, 32];
        cfg.max_timesteps = 1_600;
        cfg.timesteps_per_batch = 400;
        // Generous per-rollout cap: smoke tests run on tiny rule sets,
        // so even random-policy trees complete quickly, and truncated
        // episodes would never record a best tree.
        cfg.max_timesteps_per_rollout = 5_000;
        cfg.ppo.minibatch = 128;
        cfg.ppo.sgd_iters = 4;
        cfg.ppo.adam.lr = 3e-4;
        cfg.patience = 5;
        cfg.workers = 2;
        cfg.num_envs = 4;
        cfg
    }

    /// Set the time-space coefficient, switching to log scaling when
    /// mixing objectives (as the paper does for `c < 1`).
    pub fn with_coeff(mut self, c: f64) -> Self {
        assert!((0.0..=1.0).contains(&c), "c must be in [0, 1]");
        self.time_space_coeff = c;
        self.reward_scaling = if c < 1.0 { RewardScaling::Log } else { RewardScaling::Linear };
        self
    }

    /// Set the partition mode.
    pub fn with_partition_mode(mut self, mode: PartitionMode) -> Self {
        self.partition_mode = mode;
        self
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let cfg = NeuroCutsConfig::paper_default();
        assert_eq!(cfg.hidden, [512, 512]);
        assert_eq!(cfg.max_timesteps, 10_000_000);
        assert_eq!(cfg.timesteps_per_batch, 60_000);
        assert_eq!(cfg.ppo.sgd_iters, 30);
        assert_eq!(cfg.ppo.minibatch, 1000);
        assert!((cfg.ppo.adam.lr - 5e-5).abs() < 1e-12);
        assert!((cfg.ppo.entropy_coeff - 0.01).abs() < 1e-9);
        assert!((cfg.ppo.clip - 0.3).abs() < 1e-9);
        assert!((cfg.ppo.vf_clip - 10.0).abs() < 1e-9);
        assert!((cfg.ppo.kl_target - 0.01).abs() < 1e-9);
        assert_eq!(cfg.time_space_coeff, 1.0);
        assert_eq!(cfg.partition_mode, PartitionMode::None);
        assert_eq!(cfg.reward_scaling, RewardScaling::Linear);
        assert_eq!(cfg.max_timesteps_per_rollout, 15_000);
        assert_eq!(cfg.max_tree_depth, 100);
    }

    /// Every field of the smoke configuration the unit, integration and
    /// golden-stream tests train under, so that none moves unnoticed.
    #[test]
    fn smoke_test_is_pinned() {
        let want = NeuroCutsConfig {
            time_space_coeff: 1.0,
            partition_mode: PartitionMode::None,
            reward_scaling: RewardScaling::Linear,
            max_timesteps_per_rollout: 5_000,
            max_tree_depth: 100,
            max_timesteps: 1_600,
            timesteps_per_batch: 400,
            hidden: [32, 32],
            ppo: PpoConfig {
                clip: 0.3,
                vf_clip: 10.0,
                entropy_coeff: 0.01,
                vf_coeff: 1.0,
                kl_target: 0.01,
                sgd_iters: 4,
                minibatch: 128,
                adam: nn::AdamConfig { lr: 3e-4, beta1: 0.9, beta2: 0.999, eps: 1e-8 },
                max_grad_norm: 10.0,
            },
            binth: 16,
            workers: 2,
            num_envs: 4,
            seed: 0,
            patience: 5,
            dense_rewards: true,
            partition_anywhere: false,
            use_qlearning: false,
        };
        assert_eq!(NeuroCutsConfig::smoke_test(), want);
    }

    #[test]
    fn with_coeff_switches_scaling() {
        let cfg = NeuroCutsConfig::paper_default().with_coeff(0.5);
        assert_eq!(cfg.reward_scaling, RewardScaling::Log);
        let cfg = NeuroCutsConfig::paper_default().with_coeff(1.0);
        assert_eq!(cfg.reward_scaling, RewardScaling::Linear);
    }

    #[test]
    #[should_panic(expected = "c must be in")]
    fn coeff_out_of_range_panics() {
        let _ = NeuroCutsConfig::paper_default().with_coeff(1.5);
    }

    #[test]
    fn scaling_functions() {
        assert_eq!(RewardScaling::Linear.apply(42.0), 42.0);
        assert!((RewardScaling::Log.apply(std::f64::consts::E) - 1.0).abs() < 1e-12);
        // Clamped below 1 so empty subtrees don't produce -inf.
        assert_eq!(RewardScaling::Log.apply(0.0), 0.0);
    }
}
