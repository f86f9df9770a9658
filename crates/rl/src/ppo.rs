//! Proximal Policy Optimization (Schulman et al., 2017) with the
//! clipped surrogate objective, entropy regularisation, clipped value
//! loss, and KL-target early stopping — the configuration the paper
//! reports in Appendix B.

use crate::rollout::RolloutBatch;
use nn::{AdamConfig, MaskedCategorical, Matrix, PolicyValueNet};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// PPO hyperparameters (defaults = Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Surrogate clip parameter (`0.3`).
    pub clip: f32,
    /// Value-function clip parameter (`10.0`).
    pub vf_clip: f32,
    /// Entropy bonus coefficient (`0.01`).
    pub entropy_coeff: f32,
    /// Value-loss coefficient.
    pub vf_coeff: f32,
    /// Target mean KL between behaviour and updated policy (`0.01`);
    /// SGD epochs stop early once the measured KL exceeds
    /// `1.5 × kl_target`.
    pub kl_target: f32,
    /// SGD passes over the batch per update (`30`).
    pub sgd_iters: usize,
    /// Minibatch size (`1000`).
    pub minibatch: usize,
    /// Adam settings (`lr = 5e-5`).
    pub adam: AdamConfig,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            clip: 0.3,
            vf_clip: 10.0,
            entropy_coeff: 0.01,
            vf_coeff: 1.0,
            kl_target: 0.01,
            sgd_iters: 30,
            minibatch: 1000,
            adam: AdamConfig::default(),
            max_grad_norm: 10.0,
        }
    }
}

/// Diagnostics from one [`Ppo::update`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Mean clipped-surrogate policy loss over the last epoch.
    pub policy_loss: f32,
    /// Mean value loss over the last epoch.
    pub value_loss: f32,
    /// Mean joint policy entropy over the last epoch.
    pub entropy: f32,
    /// Mean approximate KL (`log π_old − log π_new`) at the end.
    pub kl: f32,
    /// SGD epochs actually run (≤ `sgd_iters` due to KL early stop).
    pub epochs: usize,
}

/// The PPO learner; owns only configuration (the network is passed in).
#[derive(Debug, Clone)]
pub struct Ppo {
    /// Hyperparameters.
    pub config: PpoConfig,
    rng: ChaCha8Rng,
}

impl Ppo {
    /// A learner with the given config; `seed` drives minibatch
    /// shuffling only.
    pub fn new(config: PpoConfig, seed: u64) -> Self {
        Ppo { config, rng: ChaCha8Rng::seed_from_u64(seed ^ 0x70_706f) }
    }

    /// One PPO update of `net` on `batch`. Advantages are the paper's
    /// independent 1-step advantages `r − V(s)`
    /// ([`RolloutBatch::advantages`]), normalised batch-wide; value
    /// targets are the matching returns `A + V(s)`. Returns
    /// diagnostics.
    pub fn update(&mut self, net: &mut PolicyValueNet, batch: &RolloutBatch) -> UpdateStats {
        assert!(!batch.is_empty(), "cannot update on an empty batch");
        let cfg = self.config;
        let raw = batch.advantages();
        let advantages = crate::rollout::normalize(&raw);
        let returns: Vec<f32> = raw.iter().zip(&batch.samples).map(|(a, s)| a + s.value).collect();
        let mut indices: Vec<usize> = (0..batch.len()).collect();
        let mut stats = UpdateStats::default();

        'epochs: for epoch in 0..cfg.sgd_iters {
            indices.shuffle(&mut self.rng);
            let mut epoch_policy_loss = 0.0f64;
            let mut epoch_value_loss = 0.0f64;
            let mut epoch_entropy = 0.0f64;
            let mut epoch_kl = 0.0f64;
            let mut counted = 0usize;

            for chunk in indices.chunks(cfg.minibatch.max(1)) {
                let rows: Vec<&[f32]> =
                    chunk.iter().map(|&i| batch.samples[i].obs.as_slice()).collect();
                let x = Matrix::from_rows(&rows);
                let cache = net.forward(x);
                let n = chunk.len();

                let mut d_dim = Matrix::zeros(n, cache.dim_logits.cols);
                let mut d_act = Matrix::zeros(n, cache.act_logits.cols);
                let mut d_val = Matrix::zeros(n, 1);

                for (r, &i) in chunk.iter().enumerate() {
                    let s = &batch.samples[i];
                    let adv = advantages[i];
                    let dim_dist = MaskedCategorical::new(cache.dim_logits.row(r), &s.dim_mask);
                    let act_dist = MaskedCategorical::new(cache.act_logits.row(r), &s.act_mask);
                    let logp_new =
                        dim_dist.log_prob(s.dim_action) + act_dist.log_prob(s.act_action);
                    let ratio = (logp_new - s.log_prob).exp();
                    let clipped = ratio.clamp(1.0 - cfg.clip, 1.0 + cfg.clip);
                    let surrogate = (ratio * adv).min(clipped * adv);
                    epoch_policy_loss += f64::from(-surrogate);
                    epoch_kl += f64::from(s.log_prob - logp_new);

                    // Gradient of the clipped surrogate w.r.t. logp_new:
                    // active when the unclipped branch wins the min, or
                    // the clamp is in its identity region (where both
                    // branches coincide).
                    let unclipped_active = ratio * adv <= clipped * adv
                        || (1.0 - cfg.clip..=1.0 + cfg.clip).contains(&ratio);
                    let dsurr_dlogp = if unclipped_active { adv * ratio } else { 0.0 };
                    // Loss = -surrogate - entropy_coeff * (H_dim + H_act).
                    let dl_dlogp = -dsurr_dlogp;

                    let h = dim_dist.entropy() + act_dist.entropy();
                    epoch_entropy += f64::from(h);

                    let gd = dim_dist.dlogp_dlogits(s.dim_action);
                    let ge = dim_dist.dentropy_dlogits();
                    for (j, (g, e)) in gd.iter().zip(ge.iter()).enumerate() {
                        d_dim.set(r, j, dl_dlogp * g - cfg.entropy_coeff * e);
                    }
                    let ga = act_dist.dlogp_dlogits(s.act_action);
                    let ea = act_dist.dentropy_dlogits();
                    for (j, (g, e)) in ga.iter().zip(ea.iter()).enumerate() {
                        d_act.set(r, j, dl_dlogp * g - cfg.entropy_coeff * e);
                    }

                    // Clipped value loss (PPO2 style):
                    // L = 0.5 * max((v-R)^2, (v_clip-R)^2).
                    let v_new = cache.values.get(r, 0);
                    let v_clip = s.value + (v_new - s.value).clamp(-cfg.vf_clip, cfg.vf_clip);
                    let e_un = v_new - returns[i];
                    let e_cl = v_clip - returns[i];
                    let (loss_v, dv) = if e_un * e_un >= e_cl * e_cl {
                        (0.5 * e_un * e_un, e_un)
                    } else {
                        // Clipped branch: gradient flows only while the
                        // clamp is in its identity region.
                        let inner = (v_new - s.value).abs() < cfg.vf_clip;
                        (0.5 * e_cl * e_cl, if inner { e_cl } else { 0.0 })
                    };
                    epoch_value_loss += f64::from(loss_v);
                    d_val.set(r, 0, cfg.vf_coeff * dv);
                    counted += 1;
                }

                net.zero_grad();
                net.backward(&cache, &d_dim, &d_act, &d_val);
                net.scale_grad(1.0 / n as f32);
                net.clip_grad_norm(cfg.max_grad_norm);
                net.adam_step(&cfg.adam);
            }

            let nf = counted.max(1) as f64;
            stats = UpdateStats {
                policy_loss: (epoch_policy_loss / nf) as f32,
                value_loss: (epoch_value_loss / nf) as f32,
                entropy: (epoch_entropy / nf) as f32,
                kl: (epoch_kl / nf) as f32,
                epochs: epoch + 1,
            };
            if stats.kl > 1.5 * cfg.kl_target {
                break 'epochs;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollout::Sample;
    use nn::NetConfig;

    fn bandit_batch(net: &PolicyValueNet, rng: &mut ChaCha8Rng, n: usize) -> RolloutBatch {
        // Two contexts; dim action must match the context bit for
        // reward 1, else 0. The act head is a distractor with one action.
        use rand::Rng;
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
    fn ppo_solves_contextual_bandit() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut net = PolicyValueNet::new(
            NetConfig { obs_dim: 2, dim_actions: 2, num_actions: 1, hidden: [16, 16] },
            &mut rng,
        );
        let cfg = PpoConfig {
            minibatch: 64,
            sgd_iters: 6,
            adam: AdamConfig { lr: 5e-3, ..Default::default() },
            kl_target: 0.05,
            ..Default::default()
        };
        let mut ppo = Ppo::new(cfg, 1);
        let mut last_return = 0.0;
        for _ in 0..40 {
            let batch = bandit_batch(&net, &mut rng, 256);
            last_return = batch.mean_episode_return;
            ppo.update(&mut net, &batch);
        }
        assert!(last_return > 0.85, "policy reward {last_return}");
    }

    #[test]
    fn kl_early_stop_triggers_with_huge_lr() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut net = PolicyValueNet::new(
            NetConfig { obs_dim: 2, dim_actions: 2, num_actions: 1, hidden: [8, 8] },
            &mut rng,
        );
        let cfg = PpoConfig {
            minibatch: 32,
            sgd_iters: 30,
            adam: AdamConfig { lr: 0.5, ..Default::default() },
            kl_target: 0.01,
            ..Default::default()
        };
        let mut ppo = Ppo::new(cfg, 2);
        let batch = bandit_batch(&net, &mut rng, 128);
        let stats = ppo.update(&mut net, &batch);
        assert!(stats.epochs < 30, "expected early stop, ran {}", stats.epochs);
    }

    #[test]
    fn positive_advantage_increases_action_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut net = PolicyValueNet::new(
            NetConfig { obs_dim: 3, dim_actions: 3, num_actions: 2, hidden: [8, 8] },
            &mut rng,
        );
        let obs = vec![1.0f32, 0.0, 0.0];
        let (dl, al, v) = net.forward_one(&obs);
        let dim_dist = MaskedCategorical::from_logits(&dl);
        let act_dist = MaskedCategorical::from_logits(&al);
        let before = dim_dist.probs[1];
        // Two samples with opposite rewards so advantage normalisation
        // gives the good one positive advantage.
        let mk = |da: usize, reward: f32| Sample {
            obs: obs.clone(),
            dim_action: da,
            act_action: 0,
            dim_mask: vec![true; 3],
            act_mask: vec![true; 2],
            log_prob: dim_dist.log_prob(da) + act_dist.log_prob(0),
            value: v,
            reward,
        };
        let batch = RolloutBatch {
            samples: vec![mk(1, 1.0), mk(2, -1.0)],
            episodes: 2,
            mean_episode_return: 0.0,
        };
        let cfg = PpoConfig {
            minibatch: 2,
            sgd_iters: 5,
            adam: AdamConfig { lr: 1e-2, ..Default::default() },
            kl_target: 10.0, // no early stop
            entropy_coeff: 0.0,
            ..Default::default()
        };
        Ppo::new(cfg, 3).update(&mut net, &batch);
        let (dl_after, _, _) = net.forward_one(&obs);
        let after = MaskedCategorical::from_logits(&dl_after).probs[1];
        assert!(after > before, "p(a=1) went {before} -> {after}");
    }

    #[test]
    fn masked_actions_stay_masked_through_update() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let mut net = PolicyValueNet::new(
            NetConfig { obs_dim: 2, dim_actions: 2, num_actions: 3, hidden: [8, 8] },
            &mut rng,
        );
        let obs = vec![1.0f32, 0.0];
        let (dl, al, v) = net.forward_one(&obs);
        let act_mask = vec![true, false, true];
        let dim_dist = MaskedCategorical::from_logits(&dl);
        let act_dist = MaskedCategorical::new(&al, &act_mask);
        let s = Sample {
            obs: obs.clone(),
            dim_action: 0,
            act_action: 2,
            dim_mask: vec![true; 2],
            act_mask: act_mask.clone(),
            log_prob: dim_dist.log_prob(0) + act_dist.log_prob(2),
            value: v,
            reward: 1.0,
        };
        let batch = RolloutBatch {
            samples: vec![s.clone(), Sample { reward: -1.0, act_action: 0, ..s }],
            episodes: 2,
            mean_episode_return: 0.0,
        };
        let mut ppo = Ppo::new(PpoConfig { minibatch: 2, sgd_iters: 3, ..Default::default() }, 4);
        let stats = ppo.update(&mut net, &batch);
        assert!(stats.epochs >= 1);
        // The masked action still has zero probability under the mask.
        let (_, al_after, _) = net.forward_one(&obs);
        let d = MaskedCategorical::new(&al_after, &act_mask);
        assert_eq!(d.probs[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let mut net = PolicyValueNet::new(
            NetConfig { obs_dim: 2, dim_actions: 2, num_actions: 1, hidden: [4, 4] },
            &mut rng,
        );
        Ppo::new(PpoConfig::default(), 0).update(&mut net, &RolloutBatch::default());
    }
}
