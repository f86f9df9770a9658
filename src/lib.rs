//! Umbrella crate for the NeuroCuts workspace: re-exports every member
//! crate so examples and integration tests can depend on one package.
//!
//! * [`classbench`] — rules, packets, ClassBench-style generation;
//! * [`dtree`] — the shared decision-tree substrate;
//! * [`baselines`] — HiCuts / HyperCuts / HyperSplit / EffiCuts /
//!   CutSplit;
//! * [`nn`] — the dense policy network;
//! * [`rl`] — PPO, Q-learning and rollout buffers;
//! * [`neurocuts`] — the RL environment and trainer (the paper's
//!   contribution).

#![warn(missing_docs)]

pub use baselines;
pub use classbench;
pub use dtree;
pub use neurocuts;
pub use nn;
pub use rl;
