//! The NeuroCuts branching-decision-process environment (§5).
//!
//! One **episode** builds one complete decision tree: starting from the
//! root, the environment visits non-terminal leaves in DFS order
//! (Algorithm 1's `GrowTreeDFS`), asks the policy for a `(dimension,
//! action)` tuple at each, and applies it. Every decision is recorded as
//! an independent **1-step experience**; when the tree is finished, each
//! experience's reward is filled in from the completed subtree below it
//! (`-(c·f(Time) + (1−c)·f(Space))`). Rollout truncation and depth
//! truncation (§5.1) bound the episodes of early, unoptimised policies.

use crate::actions::{Action, ActionSpace};
use crate::config::NeuroCutsConfig;
use crate::obs::ObsEncoder;
use crate::partitioner::{plan_efficuts_partition, plan_simple_partition};
use crate::reward::{subtree_avg_time, Objective};
use classbench::{Packet, RuleSet, NUM_DIMS};
use dtree::stats::subtree_metrics;
use dtree::{DecisionTree, NodeId, TreeStats};
use nn::{MaskedCategorical, PolicyValueNet};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rl::Sample;
use std::sync::Arc;

/// Per-node bookkeeping the observation encoding needs but the tree
/// substrate doesn't store: the simple-partition coverage window per
/// dimension, the EffiCuts partition id, and whether the node is still
/// a *top node* (partition actions allowed). 12 bytes and `Copy`: the
/// decision loop reads and propagates it by value instead of cloning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeMeta {
    /// Per-dimension `(lo_level, hi_level)` coverage window: the node
    /// holds rules whose coverage fraction lies in
    /// `(LEVELS[lo], LEVELS[hi]]`.
    pub coverage_window: [(u8, u8); NUM_DIMS],
    /// EffiCuts partition id when below an EffiCuts partition.
    pub efficuts_id: Option<u8>,
    /// True while no cut has been applied above this node.
    pub top: bool,
}

impl NodeMeta {
    /// Metadata of the root: full windows, no partition, top.
    pub fn root() -> Self {
        NodeMeta { coverage_window: [(0, 7); NUM_DIMS], efficuts_id: None, top: true }
    }

    /// Metadata inherited by cut children: same windows/id, not top.
    pub fn after_cut(&self) -> Self {
        NodeMeta { top: false, ..*self }
    }
}

/// The best tree found during training: its objective, its statistics
/// and the tree itself.
#[derive(Debug, Clone)]
pub struct BestTree {
    /// The scalarised objective (lower is better).
    pub objective: f64,
    /// Full statistics of the tree.
    pub stats: TreeStats,
    /// The tree itself — an `Arc` snapshot shared with the episode that
    /// produced it, so recording an improvement under the mutex is O(1)
    /// instead of a deep tree clone.
    pub tree: Arc<DecisionTree>,
}

/// The result of building one tree with a frozen policy.
#[derive(Debug, Clone)]
pub struct Episode {
    /// The completed tree (shared with the best-tree record when the
    /// episode improved it).
    pub tree: Arc<DecisionTree>,
    /// 1-step experiences (empty if the root was already terminal).
    pub samples: Vec<Sample>,
    /// Scalarised objective of the finished tree (lower is better).
    pub objective: f64,
    /// True when the rollout hit the timestep or depth truncation.
    pub truncated: bool,
}

/// A decision awaiting the policy: the node, its encoded observation,
/// and the two validity masks. Produced by
/// [`NeuroCutsEnv::next_decision`], consumed by
/// [`NeuroCutsEnv::apply_decision`].
#[derive(Debug, Clone)]
pub struct PendingDecision {
    /// The node the policy must decide on.
    pub node: NodeId,
    /// Fixed-width observation encoding of the node.
    pub obs: Vec<f32>,
    /// Dimension-head validity mask.
    pub dim_mask: Vec<bool>,
    /// Action-head validity mask.
    pub act_mask: Vec<bool>,
}

/// One in-flight episode (one tree build), advanced a decision at a
/// time. This is the re-entrant core of [`NeuroCutsEnv::build_tree`]:
/// the serial path drives one `EpisodeState` to completion with scalar
/// policy forwards, while the vectorised collector
/// (`neurocuts::vecenv`) steps many of them in lockstep against one
/// *batched* forward per step — same code, same RNG stream, so the two
/// paths produce bit-identical episodes for the same seed.
pub struct EpisodeState {
    tree: DecisionTree,
    metas: Vec<NodeMeta>,
    stack: Vec<NodeId>,
    samples: Vec<Sample>,
    sample_nodes: Vec<NodeId>,
    rng: ChaCha8Rng,
    truncated: bool,
    greedy: bool,
    pending: Option<PendingDecision>,
}

impl EpisodeState {
    /// The decision currently awaiting the policy (if any).
    pub fn pending(&self) -> Option<&PendingDecision> {
        self.pending.as_ref()
    }
}

/// The NeuroCuts environment. Clones share the rule set and the
/// best-tree slot, so parallel rollout workers (Figure 7) all improve
/// one record.
#[derive(Clone)]
pub struct NeuroCutsEnv {
    rules: Arc<RuleSet>,
    /// The SoA rule store every episode tree shares: built once per
    /// environment, so starting an episode allocates no rule copies.
    store: Arc<dtree::RuleStore>,
    config: Arc<NeuroCutsConfig>,
    /// The tuple action space.
    pub action_space: ActionSpace,
    /// The node encoder.
    pub encoder: ObsEncoder,
    objective: Objective,
    best: Arc<Mutex<Option<BestTree>>>,
    traffic: Option<Arc<Vec<Packet>>>,
}

impl NeuroCutsEnv {
    /// An environment for `rules` under `config`.
    pub fn new(rules: RuleSet, config: NeuroCutsConfig) -> Self {
        let action_space = ActionSpace::new(config.partition_mode);
        NeuroCutsEnv {
            objective: Objective::from_config(&config),
            store: Arc::new(dtree::RuleStore::from_ruleset(&rules)),
            rules: Arc::new(rules),
            config: Arc::new(config),
            action_space,
            encoder: ObsEncoder::new(action_space),
            best: Arc::new(Mutex::new(None)),
            traffic: None,
        }
    }

    /// Switch the time term of the objective from worst-case depth to
    /// the *expected* lookup cost under this packet trace — the
    /// traffic-aware extension the paper's conclusion proposes (§8).
    /// The same trace is replayed over every rollout's tree.
    pub fn with_traffic(mut self, trace: Vec<Packet>) -> Self {
        assert!(!trace.is_empty(), "traffic trace must be non-empty");
        self.traffic = Some(Arc::new(trace));
        self
    }

    /// The rule set being optimised.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The best tree recorded so far across all clones of this
    /// environment.
    pub fn best(&self) -> Option<BestTree> {
        self.best.lock().clone()
    }

    /// Clear the best-tree record (e.g. between independent runs).
    pub fn reset_best(&self) {
        *self.best.lock() = None;
    }

    /// Build one tree with the given policy. `greedy` takes argmax
    /// actions (used to extract the final tree); otherwise actions are
    /// sampled (training rollouts, Figure 6 variations).
    pub fn build_tree(&self, net: &PolicyValueNet, seed: u64, greedy: bool) -> Episode {
        let mut st = self.start_episode(seed, greedy);
        while self.next_decision(&mut st) {
            let p = st.pending().expect("pending decision after next_decision");
            let (dim_logits, act_logits, value) = net.forward_one(&p.obs);
            self.apply_decision(&mut st, &dim_logits, &act_logits, value);
        }
        let ep = self.finish_episode(st);
        self.record_best(&ep);
        ep
    }

    /// Begin one episode (one tree build) seeded for reproducible
    /// action sampling. Drive it with [`NeuroCutsEnv::next_decision`] /
    /// [`NeuroCutsEnv::apply_decision`] and close it with
    /// [`NeuroCutsEnv::finish_episode`].
    pub fn start_episode(&self, seed: u64, greedy: bool) -> EpisodeState {
        let tree = DecisionTree::with_store(Arc::clone(&self.store));
        let root = tree.root();
        EpisodeState {
            tree,
            metas: vec![NodeMeta::root()],
            stack: vec![root],
            samples: Vec::new(),
            sample_nodes: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x0065_7069), // "epi"
            truncated: false,
            greedy,
            pending: None,
        }
    }

    /// Advance the episode to its next decision point, skipping
    /// terminal/inseparable leaves in DFS order (Algorithm 1's
    /// `GrowTreeDFS`). Returns `true` with `st.pending()` populated
    /// when the policy must act, or `false` when the episode is
    /// complete (tree finished, or rollout/depth truncation §5.1).
    pub fn next_decision(&self, st: &mut EpisodeState) -> bool {
        debug_assert!(st.pending.is_none(), "previous decision not applied");
        let cfg = &*self.config;
        while let Some(id) = st.stack.pop() {
            if st.tree.is_terminal(id, cfg.binth) {
                continue;
            }
            if st.tree.node(id).depth >= cfg.max_tree_depth {
                st.truncated = true;
                continue; // depth truncation: force terminal
            }
            // Rollout truncation (§5.1) bounds training episodes; greedy
            // extraction gets a much larger allowance so the final tree
            // always completes (a trained policy stays far below it).
            let step_cap = if st.greedy {
                cfg.max_timesteps_per_rollout.max(500_000)
            } else {
                cfg.max_timesteps_per_rollout
            };
            if st.samples.len() >= step_cap {
                st.truncated = true;
                return false; // rollout truncation
            }
            let meta = st.metas[id];
            // Inseparable rules (identical projections in every
            // dimension) can never be split apart by cutting; treat the
            // node as terminal like every cutting heuristic does, or the
            // rollout would grind through the full space grid. The mask
            // keeps only dimensions whose cuts can still discriminate
            // rules here — one memoized single-pass scan computes all
            // five dimensions at once (the old loop rescanned the rule
            // list up to ten times per node).
            let sep = st.tree.separability_mask(id);
            if sep == 0 {
                continue; // nothing separable: forced leaf
            }
            let dim_mask: Vec<bool> =
                (0..classbench::NUM_DIMS).map(|d| sep & (1 << d) != 0).collect();
            let act_mask = self.action_space.act_mask(meta.top || self.config.partition_anywhere);
            let mut obs = Vec::new();
            self.encoder.encode_into(
                &st.tree.node(id).space,
                &meta,
                &dim_mask,
                &act_mask,
                &mut obs,
            );
            st.pending = Some(PendingDecision { node: id, obs, dim_mask, act_mask });
            return true;
        }
        false
    }

    /// Apply the policy's output for the pending decision: sample (or
    /// argmax) both heads from the masked logits, decode and apply the
    /// action to the tree, and record the 1-step experience.
    ///
    /// # Panics
    /// Panics if no decision is pending.
    pub fn apply_decision(
        &self,
        st: &mut EpisodeState,
        dim_logits: &[f32],
        act_logits: &[f32],
        value: f32,
    ) {
        let p = st.pending.take().expect("no pending decision to apply");
        let id = p.node;
        let meta = st.metas[id];
        let dim_dist = MaskedCategorical::new(dim_logits, &p.dim_mask);
        let act_dist = MaskedCategorical::new(act_logits, &p.act_mask);
        let (mut dim_action, mut act_action) = if st.greedy {
            (dim_dist.argmax(), act_dist.argmax())
        } else {
            (dim_dist.sample(st.rng.gen::<f32>()), act_dist.sample(st.rng.gen::<f32>()))
        };

        // Decode and apply, falling back to a binary cut when a
        // sampled partition is invalid at this node (empty side or
        // out-of-window threshold). The *applied* action is what we
        // record, with its own log-probability, so the experience
        // stays consistent with the behaviour distribution.
        let tree = &mut st.tree;
        let metas = &mut st.metas;
        let children: Vec<NodeId> = loop {
            match self.action_space.decode(dim_action, act_action) {
                Action::Cut { dim, ncuts } => {
                    let ncuts = ncuts.min(tree.node(id).space.range(dim).len().max(2) as usize);
                    let kids = tree.cut_node(id, dim, ncuts.max(2));
                    for &k in &kids {
                        tree.truncate_covered(k);
                    }
                    let child_meta = meta.after_cut();
                    metas.resize(metas.len() + kids.len(), child_meta);
                    break kids;
                }
                Action::SimplePartition { dim, level } => {
                    match plan_simple_partition(tree, id, &meta, dim, level) {
                        Some(split) => {
                            let kids = tree.partition_node(id, vec![split.small, split.large]);
                            metas.push(split.small_meta);
                            metas.push(split.large_meta);
                            break kids;
                        }
                        None => {
                            // Fall back: binary cut on a valid dim.
                            (dim_action, act_action) = self.fallback_cut(&p.dim_mask, dim_action);
                        }
                    }
                }
                Action::EffiCutsPartition => match plan_efficuts_partition(tree, id, &meta) {
                    Some((groups, group_metas)) => {
                        let kids = tree.partition_node(id, groups);
                        metas.extend(group_metas);
                        break kids;
                    }
                    None => {
                        (dim_action, act_action) = self.fallback_cut(&p.dim_mask, dim_action);
                    }
                },
            }
        };
        debug_assert_eq!(st.metas.len(), st.tree.num_nodes());

        st.samples.push(Sample {
            obs: p.obs,
            dim_action,
            act_action,
            log_prob: dim_dist.log_prob(dim_action) + act_dist.log_prob(act_action),
            dim_mask: p.dim_mask,
            act_mask: p.act_mask,
            value,
            reward: 0.0, // filled in by finish_episode, once subtrees complete
        });
        st.sample_nodes.push(id);

        // DFS order: push children so the first child is processed
        // next (Algorithm 1's GrowTreeDFS).
        st.stack.extend(children.iter().rev());
    }

    /// Close a completed episode: fill in the delayed subtree rewards
    /// (one reverse pass computes every subtree's Time/Space; each
    /// decision is rewarded by its own subtree) and return the
    /// [`Episode`]. Does **not** touch the shared best-tree record —
    /// callers offer the episode via [`NeuroCutsEnv::record_best`] so
    /// multi-env collectors can do it in a deterministic order.
    pub fn finish_episode(&self, st: EpisodeState) -> Episode {
        let EpisodeState { tree, mut samples, sample_nodes, truncated, .. } = st;
        let tree = Arc::new(tree);
        let (time, bytes) = subtree_metrics(&tree);
        // Traffic-aware extension (§8): replace worst-case depth with
        // the expected lookup cost under the configured trace.
        let avg_time: Option<Vec<f64>> = self.traffic.as_ref().map(|trace| {
            let counts = tree.node_visit_counts(trace);
            subtree_avg_time(&tree, &counts)
        });
        let time_at = |node: NodeId| -> f64 {
            match &avg_time {
                Some(avg) => avg[node],
                None => time[node] as f64,
            }
        };
        let value_at = |node: NodeId| self.objective.value(time_at(node), bytes[node]);
        let objective = value_at(tree.root());
        if self.config.dense_rewards {
            for (s, &node) in samples.iter_mut().zip(&sample_nodes) {
                s.reward = -value_at(node) as f32;
            }
        } else {
            // Ablation: the sparse "single terminal reward" strawman.
            for s in samples.iter_mut() {
                s.reward = -objective as f32;
            }
        }
        Episode { tree, samples, objective, truncated }
    }

    /// Offer a completed episode to the shared best-tree record
    /// (truncated builds don't count: their metrics are lower bounds,
    /// not achieved trees).
    pub fn record_best(&self, ep: &Episode) {
        if ep.truncated {
            return;
        }
        let mut best = self.best.lock();
        if best.as_ref().is_none_or(|b| ep.objective < b.objective) {
            *best = Some(BestTree {
                objective: ep.objective,
                stats: TreeStats::compute(&ep.tree),
                // O(1) snapshot: the record shares the episode's tree.
                tree: Arc::clone(&ep.tree),
            });
        }
    }

    /// A guaranteed-valid fallback action: a binary cut on the sampled
    /// dimension if cuttable, else on the first cuttable dimension.
    fn fallback_cut(&self, dim_mask: &[bool], dim_action: usize) -> (usize, usize) {
        let dim = if dim_mask[dim_action] {
            dim_action
        } else {
            dim_mask.iter().position(|&m| m).expect("caller checked a dim is cuttable")
        };
        (dim, 0) // action 0 = Cut with ncuts 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionMode;
    use classbench::{generate_rules, ClassifierFamily, GeneratorConfig};
    use dtree::validate::assert_tree_valid;
    use nn::NetConfig;

    fn env_and_net(mode: PartitionMode, size: usize) -> (NeuroCutsEnv, PolicyValueNet) {
        let rules =
            generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, size).with_seed(71));
        let cfg = NeuroCutsConfig::smoke_test().with_partition_mode(mode);
        let env = NeuroCutsEnv::new(rules, cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(72);
        let net = PolicyValueNet::new(
            NetConfig {
                obs_dim: env.encoder.obs_dim(),
                dim_actions: env.action_space.dim_actions(),
                num_actions: env.action_space.num_actions(),
                hidden: [32, 32],
            },
            &mut rng,
        );
        (env, net)
    }

    #[test]
    fn episodes_build_valid_trees() {
        for mode in [PartitionMode::None, PartitionMode::Simple, PartitionMode::EffiCuts] {
            let (env, net) = env_and_net(mode, 80);
            let ep = env.build_tree(&net, 1, false);
            assert!(!ep.samples.is_empty());
            assert_tree_valid(&ep.tree, 300, 73);
        }
    }

    #[test]
    fn every_sample_has_a_negative_reward() {
        let (env, net) = env_and_net(PartitionMode::None, 80);
        let ep = env.build_tree(&net, 2, false);
        // Rewards are -(objective) of a non-empty subtree: strictly < 0.
        assert!(ep.samples.iter().all(|s| s.reward < 0.0));
        // The root decision's reward equals minus the episode objective.
        assert!((f64::from(ep.samples[0].reward) + ep.objective).abs() < 1e-3);
    }

    #[test]
    fn episodes_are_deterministic_in_seed() {
        let (env, net) = env_and_net(PartitionMode::Simple, 60);
        let a = env.build_tree(&net, 5, false);
        let b = env.build_tree(&net, 5, false);
        assert_eq!(a.samples.len(), b.samples.len());
        assert!((a.objective - b.objective).abs() < 1e-12);
        let c = env.build_tree(&net, 6, false);
        // Different seeds explore different trees (stochastic policy).
        assert!(
            a.samples.len() != c.samples.len()
                || (a.objective - c.objective).abs() > 1e-12
                || a.samples.iter().zip(&c.samples).any(|(x, y)| x.dim_action != y.dim_action)
        );
    }

    #[test]
    fn greedy_build_is_deterministic_regardless_of_seed() {
        let (env, net) = env_and_net(PartitionMode::None, 60);
        let a = env.build_tree(&net, 1, true);
        let b = env.build_tree(&net, 999, true);
        assert_eq!(a.samples.len(), b.samples.len());
        assert!((a.objective - b.objective).abs() < 1e-12);
    }

    #[test]
    fn depth_truncation_bounds_trees() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 120).with_seed(74));
        let mut cfg = NeuroCutsConfig::smoke_test();
        cfg.max_tree_depth = 3;
        cfg.max_timesteps_per_rollout = 100_000;
        let env = NeuroCutsEnv::new(rules, cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(75);
        let net = PolicyValueNet::new(
            NetConfig {
                obs_dim: env.encoder.obs_dim(),
                dim_actions: 5,
                num_actions: env.action_space.num_actions(),
                hidden: [16, 16],
            },
            &mut rng,
        );
        let ep = env.build_tree(&net, 1, false);
        assert!(TreeStats::compute(&ep.tree).max_depth <= 3);
    }

    #[test]
    fn rollout_truncation_caps_samples() {
        let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 200).with_seed(76));
        let mut cfg = NeuroCutsConfig::smoke_test();
        cfg.max_timesteps_per_rollout = 10;
        let env = NeuroCutsEnv::new(rules, cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let net = PolicyValueNet::new(
            NetConfig {
                obs_dim: env.encoder.obs_dim(),
                dim_actions: 5,
                num_actions: env.action_space.num_actions(),
                hidden: [16, 16],
            },
            &mut rng,
        );
        let ep = env.build_tree(&net, 1, false);
        assert!(ep.truncated);
        assert!(ep.samples.len() <= 10);
        // Truncated episodes must not pollute the best-tree record.
        assert!(env.best().is_none());
    }

    #[test]
    fn best_tree_is_tracked_and_shared_across_clones() {
        let (env, net) = env_and_net(PartitionMode::None, 60);
        let clone = env.clone();
        let _ = clone.build_tree(&net, 1, false);
        let best = env.best().expect("best tree recorded via the clone");
        assert!(best.objective > 0.0);
        assert!(best.stats.time >= 1);
        // A second, worse episode must not replace it.
        let before = env.best().unwrap().objective;
        for s in 2..6 {
            let _ = env.build_tree(&net, s, false);
        }
        assert!(env.best().unwrap().objective <= before);
    }

    #[test]
    fn traffic_aware_objective_uses_expected_cost() {
        let (env, net) = env_and_net(PartitionMode::None, 80);
        // A trace concentrated in one corner of the space: expected
        // lookup cost must be <= worst case, so the traffic objective is
        // never larger than the worst-case objective for the same tree.
        let trace: Vec<Packet> =
            (0..200).map(|i| Packet::new(i % 50, i % 50, i % 50, 80, 6)).collect();
        let traffic_env = env.clone().with_traffic(trace);
        let worst = env.build_tree(&net, 3, false);
        let avg = traffic_env.build_tree(&net, 3, false);
        // Same seed, same policy -> same tree shape; only the objective
        // differs.
        assert_eq!(worst.samples.len(), avg.samples.len());
        assert!(
            avg.objective <= worst.objective + 1e-9,
            "expected {} <= worst {}",
            avg.objective,
            worst.objective
        );
        assert!(avg.objective >= 1.0, "at least the root is visited");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_traffic_trace_panics() {
        let (env, _net) = env_and_net(PartitionMode::None, 20);
        let _ = env.with_traffic(Vec::new());
    }

    #[test]
    fn partition_modes_produce_partition_nodes_eventually() {
        let (env, net) = env_and_net(PartitionMode::EffiCuts, 150);
        let mut saw_partition = false;
        for seed in 0..20 {
            let ep = env.build_tree(&net, seed, false);
            if ep.tree.nodes().iter().any(|n| matches!(n.kind, dtree::NodeKind::Partition { .. })) {
                saw_partition = true;
                break;
            }
        }
        assert!(saw_partition, "EffiCuts partition never sampled in 20 episodes");
    }
}
