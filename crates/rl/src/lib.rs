//! Proximal Policy Optimization over 1-step branching-process
//! experiences.
//!
//! NeuroCuts (§5) sidesteps the mismatch between tree-structured rollouts
//! and the sequential MDP assumed by off-the-shelf RL libraries by
//! treating every node decision as an independent **1-step decision
//! problem** whose reward is filled in once the relevant subtree is
//! complete. This crate implements exactly that training stack:
//!
//! * [`Sample`]/[`RolloutBatch`] — 1-step experiences with joint
//!   two-head log-probabilities and masks, and the paper's independent
//!   1-step advantages `r − V(s)` ([`RolloutBatch::advantages`]);
//! * [`Ppo`] — the clipped-surrogate actor-critic update with entropy
//!   regularisation, clipped value loss, and KL-target early stopping
//!   (the paper's PPO, Table 1 hyperparameters);
//! * [`QLearner`] — the Q-learning ablation the paper compares PPO
//!   against.
//!
//! Rollouts are collected by the environment's own vectorised
//! collector (`neurocuts::VecEnv`: lockstep envs, batched policy
//! inference), the "policy evaluation" workers of Figure 7.

#![warn(missing_docs)]

pub mod ppo;
pub mod qlearning;
pub mod rollout;

pub use ppo::{Ppo, PpoConfig, UpdateStats};
pub use qlearning::{QConfig, QLearner, QStats};
pub use rollout::{RolloutBatch, Sample};
