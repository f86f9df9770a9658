//! A Q-learning baseline over the same 1-step experiences.
//!
//! The paper (§4, "Training algorithm") notes: *"We also experimented
//! with Q-learning based approaches, but found they did not perform as
//! well."* This module reproduces that comparison point.
//!
//! For 1-step decision problems the Bellman target collapses to the
//! immediate reward, so Q-learning is regression of per-action values
//! onto observed rewards. The two network heads are read as factored
//! Q-value tables (one per action head); behaviour sampling through
//! [`nn::MaskedCategorical`] over the Q-values is Boltzmann exploration
//! with unit temperature, so the same environments used for PPO work
//! unchanged. The value head is unused.

use crate::rollout::RolloutBatch;
use nn::{AdamConfig, Matrix, PolicyValueNet};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Q-learning hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QConfig {
    /// SGD passes over the batch per update.
    pub sgd_iters: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Adam settings.
    pub adam: AdamConfig,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
    /// Scale factor applied to rewards before regression (keeps the
    /// tanh trunk in range for large-magnitude objectives).
    pub reward_scale: f32,
}

impl Default for QConfig {
    fn default() -> Self {
        QConfig {
            sgd_iters: 10,
            minibatch: 256,
            adam: AdamConfig { lr: 3e-4, ..Default::default() },
            max_grad_norm: 10.0,
            reward_scale: 0.1,
        }
    }
}

/// Diagnostics from one [`QLearner::update`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct QStats {
    /// Mean squared TD error over the last epoch.
    pub td_error: f32,
    /// Epochs run.
    pub epochs: usize,
}

/// The Q-learning baseline learner.
#[derive(Debug, Clone)]
pub struct QLearner {
    /// Hyperparameters.
    pub config: QConfig,
    rng: ChaCha8Rng,
}

impl QLearner {
    /// A learner with the given config; `seed` drives shuffling.
    pub fn new(config: QConfig, seed: u64) -> Self {
        QLearner { config, rng: ChaCha8Rng::seed_from_u64(seed ^ 0x71_6c) }
    }

    /// Regress the taken actions' Q-values onto their observed rewards.
    pub fn update(&mut self, net: &mut PolicyValueNet, batch: &RolloutBatch) -> QStats {
        assert!(!batch.is_empty(), "cannot update on an empty batch");
        let cfg = self.config;
        let mut indices: Vec<usize> = (0..batch.len()).collect();
        let mut stats = QStats::default();

        for epoch in 0..cfg.sgd_iters {
            indices.shuffle(&mut self.rng);
            let mut sq_err = 0.0f64;
            let mut counted = 0usize;
            for chunk in indices.chunks(cfg.minibatch.max(1)) {
                let rows: Vec<&[f32]> =
                    chunk.iter().map(|&i| batch.samples[i].obs.as_slice()).collect();
                let x = Matrix::from_rows(&rows);
                let cache = net.forward(x);
                let n = chunk.len();
                let mut d_dim = Matrix::zeros(n, cache.dim_logits.cols);
                let mut d_act = Matrix::zeros(n, cache.act_logits.cols);
                let d_val = Matrix::zeros(n, 1);
                for (r, &i) in chunk.iter().enumerate() {
                    let s = &batch.samples[i];
                    let target = s.reward * cfg.reward_scale;
                    // Half-weight per head: the factored Q estimate is
                    // the mean of the two heads' entries.
                    let qd = cache.dim_logits.get(r, s.dim_action);
                    let qa = cache.act_logits.get(r, s.act_action);
                    let q = 0.5 * (qd + qa);
                    let err = q - target;
                    sq_err += f64::from(err * err);
                    d_dim.set(r, s.dim_action, 0.5 * err);
                    d_act.set(r, s.act_action, 0.5 * err);
                    counted += 1;
                }
                net.zero_grad();
                net.backward(&cache, &d_dim, &d_act, &d_val);
                net.scale_grad(1.0 / n as f32);
                net.clip_grad_norm(cfg.max_grad_norm);
                net.adam_step(&cfg.adam);
            }
            stats = QStats { td_error: (sq_err / counted.max(1) as f64) as f32, epochs: epoch + 1 };
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollout::Sample;
    use nn::{MaskedCategorical, NetConfig};
    use rand::Rng;

    fn bandit_batch(net: &PolicyValueNet, rng: &mut ChaCha8Rng, n: usize) -> RolloutBatch {
        let mut samples = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for _ in 0..n {
            let ctx = rng.gen_range(0..2usize);
            let mut obs = vec![0.0f32; 2];
            obs[ctx] = 1.0;
            let (dl, al, v) = net.forward_one(&obs);
            let dim_dist = MaskedCategorical::from_logits(&dl);
            let act_dist = MaskedCategorical::from_logits(&al);
            let da = dim_dist.sample(rng.gen::<f32>());
            let aa = act_dist.sample(rng.gen::<f32>());
            let reward = if da == ctx { 1.0 } else { 0.0 };
            total += f64::from(reward);
            samples.push(Sample {
                obs,
                dim_action: da,
                act_action: aa,
                dim_mask: vec![true; 2],
                act_mask: vec![true; 1],
                log_prob: dim_dist.log_prob(da) + act_dist.log_prob(aa),
                value: v,
                reward,
            });
        }
        RolloutBatch { samples, episodes: n, mean_episode_return: total / n as f64 }
    }

    #[test]
    fn q_learning_solves_contextual_bandit_via_boltzmann() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut net = PolicyValueNet::new(
            NetConfig { obs_dim: 2, dim_actions: 2, num_actions: 1, hidden: [16, 16] },
            &mut rng,
        );
        let mut q = QLearner::new(
            QConfig {
                adam: AdamConfig { lr: 5e-3, ..Default::default() },
                reward_scale: 1.0,
                sgd_iters: 6,
                minibatch: 64,
                ..Default::default()
            },
            1,
        );
        let mut last_return = 0.0;
        for _ in 0..60 {
            let batch = bandit_batch(&net, &mut rng, 256);
            last_return = batch.mean_episode_return;
            q.update(&mut net, &batch);
        }
        // Boltzmann over learned Q: correct action value ~1, wrong ~0,
        // so softmax puts ~e/(e+1) ~ 0.73+ on the right action.
        assert!(last_return > 0.65, "Q policy reward {last_return}");
    }

    #[test]
    fn td_error_decreases_on_fixed_batch() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut net = PolicyValueNet::new(
            NetConfig { obs_dim: 2, dim_actions: 2, num_actions: 1, hidden: [8, 8] },
            &mut rng,
        );
        let batch = bandit_batch(&net, &mut rng, 128);
        let mut q = QLearner::new(
            QConfig {
                adam: AdamConfig { lr: 1e-2, ..Default::default() },
                reward_scale: 1.0,
                sgd_iters: 1,
                ..Default::default()
            },
            2,
        );
        let first = q.update(&mut net, &batch).td_error;
        for _ in 0..30 {
            q.update(&mut net, &batch);
        }
        let last = q.update(&mut net, &batch).td_error;
        assert!(last < first, "TD error {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut net = PolicyValueNet::new(
            NetConfig { obs_dim: 2, dim_actions: 2, num_actions: 1, hidden: [4, 4] },
            &mut rng,
        );
        QLearner::new(QConfig::default(), 0).update(&mut net, &RolloutBatch::default());
    }
}
