//! NeuroCuts: learning decision trees for packet classification with
//! deep reinforcement learning (Liang, Zhu, Jin & Stoica, SIGCOMM 2019).
//!
//! Given a rule set and an objective — classification time, memory
//! footprint, or a weighted combination — NeuroCuts trains a stochastic
//! policy that decides, node by node, whether to *cut* a decision-tree
//! node along a dimension or *partition* its rules, and converges to
//! compact trees optimised for that exact rule set.
//!
//! The crate mirrors the paper's design section by section:
//!
//! * [`config`] — every hyperparameter of Table 1, with the paper's
//!   values as defaults;
//! * [`actions`] — the tuple action space
//!   `(Discrete(5), Discrete(cuts + partitions))` of Appendix A.1;
//! * [`obs`] — the fixed-width one-hot node encoding of Appendix A.2/A.3
//!   (binary range strings, partition-level one-hots, EffiCuts partition
//!   id, action mask);
//! * [`partitioner`] — the *simple* (coverage-threshold) and *EffiCuts*
//!   partition actions of §4;
//! * [`reward`] — the recursive time/space reward of Eqs. 1–5 with the
//!   `c` coefficient and `f ∈ {x, log x}` scaling;
//! * [`mod@env`] — the branching-decision-process environment of §5
//!   (DFS tree growth, 1-step decision experiences, rollout and depth
//!   truncation), exposed both as whole-episode builds
//!   ([`NeuroCutsEnv::build_tree`]) and as a re-entrant
//!   [`EpisodeState`] advanced one decision at a time;
//! * [`vecenv`] — the lockstep vectorised collector ([`VecEnv`]): many
//!   environments per batched policy forward, scoped worker threads,
//!   and bit-identical results regardless of the thread count;
//! * [`trainer`] — the Algorithm-1 training loop on top of [`rl`]'s PPO
//!   with parallel rollout workers (Figure 7), plus greedy/stochastic
//!   tree extraction (Figures 5 and 6) and incremental classifier
//!   updates (§4). Degenerate inputs surface as [`TrainError`]s rather
//!   than panics;
//! * [`lifecycle`] — the churn → retrain → hot-swap loop: a background
//!   [`LifecycleWorker`] watches churn, retrains on a frozen snapshot
//!   while readers keep serving, spot-checks the grafted winner against
//!   a linear scan, and publishes it through one epoch swap;
//! * [`persist`] — crash-consistent durability: generation-stamped
//!   checkpoints over `dtree::wal`'s write-ahead log, and a typed
//!   recovery path ([`recover`]) that survives `kill -9` at any
//!   instant and proves the rebuilt state against a linear scan
//!   before serving from it.
//!
//! # Quickstart
//!
//! ```
//! use classbench::{generate_rules, ClassifierFamily, GeneratorConfig};
//! use neurocuts::{NeuroCutsConfig, Trainer};
//!
//! let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 64));
//! // A deliberately tiny training budget so the doc-test is fast; see
//! // `NeuroCutsConfig::paper_default` for the Table 1 settings.
//! let cfg = NeuroCutsConfig::smoke_test();
//! let mut trainer = Trainer::new(rules, cfg).expect("non-degenerate rule set");
//! let report = trainer.train().expect("training makes progress");
//! let best = report.best.expect("training produced at least one tree");
//! assert!(best.stats.time >= 1);
//! ```

#![warn(missing_docs)]

pub mod actions;
pub mod classifier;
pub mod config;
pub mod env;
pub mod lifecycle;
pub mod obs;
pub mod partitioner;
pub mod persist;
pub mod reward;
pub mod trainer;
pub mod vecenv;

pub use actions::{Action, ActionSpace};
pub use classifier::train_classifier;
pub use config::{NeuroCutsConfig, PartitionMode, RewardScaling};
pub use env::{EpisodeState, NeuroCutsEnv, PendingDecision};
pub use lifecycle::{
    retrain_snapshot, LifecycleConfig, LifecycleError, LifecycleEvent, LifecycleReport,
    LifecycleWorker, RetrainFn, RetryPolicy,
};
pub use obs::ObsEncoder;
pub use persist::{
    recover, Checkpoint, CheckpointError, CheckpointReport, PersistConfig, PersistError,
    Persistence, RecoverError, RecoverReport,
};
pub use reward::Objective;
pub use trainer::{BestTree, IterationStats, TrainError, TrainReport, Trainer};
pub use vecenv::VecEnv;
