//! Lockstep vectorised rollout collection — the parallel actor half of
//! the paper's Figure 7, rebuilt batch-first.
//!
//! [`VecEnv`] steps `N` independent tree-building episodes in lockstep:
//! each round, every in-flight episode contributes its pending node
//! observation to **one batched policy forward**
//! ([`nn::PolicyValueNet::infer`], matrix-matrix instead of `N`
//! per-observation matrix-vector passes), then every episode applies
//! its action and advances to its next decision. Worker threads
//! (`std::thread::scope`, barrier-synchronised rounds) split the
//! environment slots into contiguous chunks and run both the chunk's
//! share of the batched forward and its env-side tree mutations.
//!
//! **Determinism.** Episode seeds are drawn from one monotone counter
//! assigned in slot order during the serial bookkeeping phase, and each
//! episode owns its own `ChaCha8Rng` stream, so the collected batch is
//! a pure function of `(env, net, base_seed, num_envs, min_samples)` —
//! the `workers` thread count provably cannot change a single bit
//! (chunking only partitions per-slot work that never crosses slots).
//! The test suite pins this: same seeds ⇒ bit-identical rollouts *and*
//! bit-identical PPO updates, serial vs parallel.

use crate::env::NeuroCutsEnv;
use nn::{InferBuffer, Matrix, PolicyValueNet};
use parking_lot::Mutex;
use rl::RolloutBatch;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use crate::env::{Episode, EpisodeState};

/// One environment slot of the lockstep collector.
#[derive(Default)]
struct Slot {
    /// The in-flight episode, if any.
    st: Option<EpisodeState>,
    /// Seed of an episode to start at the next round (set by the
    /// serial phase, consumed by the worker phase).
    restart: Option<u64>,
    /// An episode that completed this round, awaiting the serial
    /// phase's deterministic bookkeeping.
    finished: Option<Episode>,
}

/// Per-worker scratch reused across rounds: the observation batch, the
/// inference buffers, and the slot→batch-row map.
#[derive(Default)]
struct Scratch {
    x: Matrix,
    buf: InferBuffer,
    row_of: Vec<Option<usize>>,
}

/// A vectorised NeuroCuts rollout collector: `num_envs` episodes
/// stepped in lockstep with batched policy inference, optionally across
/// scoped worker threads.
///
/// Clones of the underlying [`NeuroCutsEnv`] share the best-tree
/// record, so the collector improves the same record the trainer reads.
///
/// ```
/// use classbench::{generate_rules, ClassifierFamily, GeneratorConfig};
/// use neurocuts::{NeuroCutsConfig, NeuroCutsEnv, VecEnv};
/// use nn::{NetConfig, PolicyValueNet};
/// use rand::SeedableRng;
///
/// let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 32).with_seed(7));
/// let env = NeuroCutsEnv::new(rules, NeuroCutsConfig::smoke_test());
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let net = PolicyValueNet::new(
///     NetConfig {
///         obs_dim: env.encoder.obs_dim(),
///         dim_actions: env.action_space.dim_actions(),
///         num_actions: env.action_space.num_actions(),
///         hidden: [16, 16],
///     },
///     &mut rng,
/// );
/// // Two collectors, same seeds, different thread counts: the batches
/// // are bit-identical — parallelism never changes the data.
/// let a = VecEnv::new(env.clone(), 4, 99).collect(&net, 60, 1);
/// let b = VecEnv::new(env, 4, 99).collect(&net, 60, 2);
/// assert!(a.len() >= 60);
/// assert_eq!(a.samples.len(), b.samples.len());
/// assert!(a.samples.iter().zip(&b.samples).all(|(x, y)| x.reward == y.reward));
/// ```
pub struct VecEnv {
    env: NeuroCutsEnv,
    num_envs: usize,
    base_seed: u64,
    next_episode: u64,
}

impl VecEnv {
    /// A collector over `num_envs` lockstep environment slots. Episode
    /// `k` (globally, across all slots and [`VecEnv::collect`] calls)
    /// is seeded `base_seed + k`, so a collector's output stream is
    /// fully determined by its construction arguments.
    ///
    /// # Panics
    /// Panics if `num_envs` is zero.
    pub fn new(env: NeuroCutsEnv, num_envs: usize, base_seed: u64) -> Self {
        assert!(num_envs > 0, "need at least one environment");
        VecEnv { env, num_envs, base_seed, next_episode: 0 }
    }

    /// Number of lockstep environment slots.
    pub fn num_envs(&self) -> usize {
        self.num_envs
    }

    /// The shared environment (e.g. to read the best tree).
    pub fn env(&self) -> &NeuroCutsEnv {
        &self.env
    }

    fn next_seed(counter: &mut u64, base: u64) -> u64 {
        let seed = base.wrapping_add(*counter);
        *counter += 1;
        seed
    }

    /// Collect at least `min_samples` experiences (plus the tail of
    /// any in-flight episodes, which always run to completion) across
    /// `workers` threads. Completed episodes are appended to the batch
    /// — and offered to the shared best-tree record — in deterministic
    /// (round, slot) order; the result is bit-identical for every
    /// `workers` value.
    pub fn collect(
        &mut self,
        net: &PolicyValueNet,
        min_samples: usize,
        workers: usize,
    ) -> RolloutBatch {
        let workers = workers.clamp(1, self.num_envs);
        let slots: Vec<Mutex<Slot>> = (0..self.num_envs).map(|_| Mutex::default()).collect();
        let mut counter = self.next_episode;
        for s in &slots {
            s.lock().restart = Some(Self::next_seed(&mut counter, self.base_seed));
        }
        let mut batch = RolloutBatch::default();
        let mut collected = 0usize;

        // The deterministic bookkeeping phase run between rounds:
        // harvest finished episodes in slot order, decide restarts from
        // the global seed counter, and report whether all slots idled.
        let env = &self.env;
        let base = self.base_seed;
        let mut serial_phase =
            |slots: &[Mutex<Slot>], batch: &mut RolloutBatch, counter: &mut u64| -> bool {
                let mut all_idle = true;
                for s in slots {
                    let mut slot = s.lock();
                    if let Some(ep) = slot.finished.take() {
                        env.record_best(&ep);
                        // Zero-sample episodes still make progress towards
                        // the target, or a degenerate (instantly terminal)
                        // environment would loop forever.
                        collected += ep.samples.len().max(1);
                        batch.push_episode(ep.samples, -ep.objective);
                    }
                    if slot.st.is_none() && slot.restart.is_none() && collected < min_samples {
                        slot.restart = Some(Self::next_seed(counter, base));
                    }
                    if slot.st.is_some() || slot.restart.is_some() {
                        all_idle = false;
                    }
                }
                all_idle
            };

        if workers == 1 {
            let mut scratch = Scratch::default();
            loop {
                run_round(env, net, &slots, &mut scratch);
                if serial_phase(&slots, &mut batch, &mut counter) {
                    break;
                }
            }
        } else {
            // Persistent workers, two barrier waits per round: the
            // round phase (all participants step their chunk) and the
            // hand-off to the serial phase (main thread only).
            let chunk = self.num_envs.div_ceil(workers);
            let barrier = Barrier::new(workers);
            let done = AtomicBool::new(false);
            std::thread::scope(|scope| {
                for w in 1..workers {
                    let slots = &slots
                        [(w * chunk).min(self.num_envs)..((w + 1) * chunk).min(self.num_envs)];
                    let barrier = &barrier;
                    let done = &done;
                    scope.spawn(move || {
                        let mut scratch = Scratch::default();
                        loop {
                            barrier.wait(); // round start
                            if done.load(Ordering::SeqCst) {
                                break;
                            }
                            run_round(env, net, slots, &mut scratch);
                            barrier.wait(); // round end
                        }
                    });
                }
                let my_slots = &slots[..chunk.min(self.num_envs)];
                let mut scratch = Scratch::default();
                loop {
                    barrier.wait(); // round start
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    run_round(env, net, my_slots, &mut scratch);
                    barrier.wait(); // round end
                    if serial_phase(&slots, &mut batch, &mut counter) {
                        done.store(true, Ordering::SeqCst);
                    }
                }
            });
        }

        self.next_episode = counter;
        batch
    }
}

/// One worker round over a chunk of slots: gather the chunk's pending
/// observations, run one batched forward, then apply each slot's
/// action and advance it to its next decision (starting or finishing
/// episodes as instructed). Purely per-slot — results cannot depend on
/// how slots are chunked across workers.
fn run_round(
    env: &NeuroCutsEnv,
    net: &PolicyValueNet,
    slots: &[Mutex<Slot>],
    scratch: &mut Scratch,
) {
    scratch.x.reset(env.encoder.obs_dim());
    scratch.row_of.clear();
    for s in slots {
        let slot = s.lock();
        match slot.st.as_ref().and_then(|st| st.pending()) {
            Some(p) => {
                scratch.row_of.push(Some(scratch.x.rows));
                scratch.x.push_row(&p.obs);
            }
            None => scratch.row_of.push(None),
        }
    }
    if scratch.x.rows > 0 {
        net.infer(&scratch.x, &mut scratch.buf);
    }
    for (s, row) in slots.iter().zip(&scratch.row_of) {
        let mut slot = s.lock();
        if let Some(seed) = slot.restart.take() {
            debug_assert!(slot.st.is_none());
            slot.st = Some(env.start_episode(seed, false));
        }
        let Some(st) = slot.st.as_mut() else { continue };
        if let Some(r) = *row {
            env.apply_decision(
                st,
                scratch.buf.dim_logits.row(r),
                scratch.buf.act_logits.row(r),
                scratch.buf.values.get(r, 0),
            );
        }
        if !env.next_decision(st) {
            let st = slot.st.take().expect("episode state present");
            slot.finished = Some(env.finish_episode(st));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NeuroCutsConfig, PartitionMode};
    use classbench::{generate_rules, ClassifierFamily, GeneratorConfig};
    use nn::NetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rl::{Ppo, PpoConfig};

    fn env_and_net(mode: PartitionMode, size: usize) -> (NeuroCutsEnv, PolicyValueNet) {
        let rules =
            generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, size).with_seed(91));
        let cfg = NeuroCutsConfig::smoke_test().with_partition_mode(mode);
        let env = NeuroCutsEnv::new(rules, cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(92);
        let net = PolicyValueNet::new(
            NetConfig {
                obs_dim: env.encoder.obs_dim(),
                dim_actions: env.action_space.dim_actions(),
                num_actions: env.action_space.num_actions(),
                hidden: [24, 24],
            },
            &mut rng,
        );
        (env, net)
    }

    fn assert_batches_bit_identical(a: &RolloutBatch, b: &RolloutBatch) {
        assert_eq!(a.episodes, b.episodes);
        assert_eq!(a.mean_episode_return.to_bits(), b.mean_episode_return.to_bits());
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.obs, y.obs);
            assert_eq!(x.dim_action, y.dim_action);
            assert_eq!(x.act_action, y.act_action);
            assert_eq!(x.dim_mask, y.dim_mask);
            assert_eq!(x.act_mask, y.act_mask);
            assert_eq!(x.log_prob.to_bits(), y.log_prob.to_bits());
            assert_eq!(x.value.to_bits(), y.value.to_bits());
            assert_eq!(x.reward.to_bits(), y.reward.to_bits());
        }
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit_including_ppo_updates() {
        for mode in [PartitionMode::None, PartitionMode::EffiCuts] {
            let (env, net) = env_and_net(mode, 72);
            let serial = VecEnv::new(env.clone(), 6, 1234).collect(&net, 150, 1);
            for workers in [2, 3, 6] {
                let (env_p, _) = {
                    // Fresh best-tree record per run; the net is shared.
                    let rules = generate_rules(
                        &GeneratorConfig::new(ClassifierFamily::Acl, 72).with_seed(91),
                    );
                    let cfg = NeuroCutsConfig::smoke_test().with_partition_mode(mode);
                    (NeuroCutsEnv::new(rules, cfg), ())
                };
                let parallel = VecEnv::new(env_p.clone(), 6, 1234).collect(&net, 150, workers);
                assert_batches_bit_identical(&serial, &parallel);
                // Identical batches ⇒ identical PPO updates.
                let cfg = PpoConfig { minibatch: 64, sgd_iters: 2, ..Default::default() };
                let mut net_a = net.clone();
                let mut net_b = net.clone();
                Ppo::new(cfg, 5).update(&mut net_a, &serial);
                Ppo::new(cfg, 5).update(&mut net_b, &parallel);
                assert_eq!(net_a.to_json(), net_b.to_json());
                // And the best tree found is the same tree.
                let (ba, bb) = (env.best().unwrap(), env_p.best().unwrap());
                assert_eq!(ba.objective.to_bits(), bb.objective.to_bits());
                assert_eq!(ba.stats, bb.stats);
            }
        }
    }

    #[test]
    fn single_env_matches_the_scalar_episode_path() {
        // One lockstep slot, batched inference ⇒ exactly the episodes
        // `build_tree` produces serially with the same seed stream —
        // proving the batched forward is bit-identical to forward_one.
        let (env, net) = env_and_net(PartitionMode::Simple, 64);
        let batch = VecEnv::new(env.clone(), 1, 500).collect(&net, 40, 1);
        let mut scalar = RolloutBatch::default();
        let mut k = 0u64;
        while scalar.len() < 40 {
            let ep = env.build_tree(&net, 500 + k, false);
            scalar.push_episode(ep.samples, -ep.objective);
            k += 1;
        }
        assert_batches_bit_identical(&batch, &scalar);
    }

    #[test]
    fn collect_reaches_the_sample_target() {
        let (env, net) = env_and_net(PartitionMode::None, 80);
        let batch = VecEnv::new(env, 4, 7).collect(&net, 200, 2);
        assert!(batch.len() >= 200);
        assert!(batch.episodes >= 4);
    }

    #[test]
    fn consecutive_collects_use_fresh_seeds() {
        let (env, net) = env_and_net(PartitionMode::None, 64);
        let mut vec_env = VecEnv::new(env, 3, 42);
        let a = vec_env.collect(&net, 60, 1);
        let b = vec_env.collect(&net, 60, 1);
        // Different seed window ⇒ different episodes (with overwhelming
        // probability for a stochastic policy).
        let ra: Vec<u32> = a.samples.iter().map(|s| s.reward.to_bits()).collect();
        let rb: Vec<u32> = b.samples.iter().map(|s| s.reward.to_bits()).collect();
        assert!(ra != rb, "two collects produced identical batches");
    }
}
