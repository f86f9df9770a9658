//! 1-step experiences and rollout batches.

use serde::{Deserialize, Serialize};

/// One 1-step decision experience (§5: "a series of independent 1-step
/// decision problems, each of which yields an immediate reward").
///
/// The action is the paper's tuple `(dimension, cut-or-partition)`
/// sampled from two categorical heads; `log_prob` is the joint
/// log-probability under the behaviour policy; `reward` is the
/// subtree-complete return `-(c·f(Time) + (1-c)·f(Space))` filled in
/// after the episode finishes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// Observation (fixed-width node encoding).
    pub obs: Vec<f32>,
    /// Sampled dimension-head action.
    pub dim_action: usize,
    /// Sampled action-head action (cut size or partition kind).
    pub act_action: usize,
    /// Validity mask for the dimension head at this state.
    pub dim_mask: Vec<bool>,
    /// Validity mask for the action head at this state.
    pub act_mask: Vec<bool>,
    /// Joint behaviour log-probability `log π(a_dim) + log π(a_act)`.
    pub log_prob: f32,
    /// Value estimate `V(s)` under the behaviour policy.
    pub value: f32,
    /// Final (delayed) reward for this 1-step decision.
    pub reward: f32,
}

/// One episode's contiguous slice inside a [`RolloutBatch`] — which
/// environment slot produced it and where its samples live. Spans let
/// the learner treat a multi-env batch as per-env *trajectories* (for
/// GAE) instead of an undifferentiated sample pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpisodeSpan {
    /// Environment slot of the vectorised collector that produced the
    /// episode.
    pub env: usize,
    /// Index of the episode's first sample in `samples`.
    pub start: usize,
    /// Number of samples in the episode.
    pub len: usize,
}

/// A batch of experiences collected from one or more tree rollouts.
#[derive(Debug, Clone, Default)]
pub struct RolloutBatch {
    /// The 1-step experiences.
    pub samples: Vec<Sample>,
    /// Per-episode trajectory spans, in collection order. Every sample
    /// belongs to at most one span; samples outside all spans are
    /// treated as independent 1-step problems by [`RolloutBatch::gae`].
    pub spans: Vec<EpisodeSpan>,
    /// Number of completed episodes (trees).
    pub episodes: usize,
    /// Mean episode objective (caller-defined; NeuroCuts uses the tree's
    /// reward, i.e. minus the time/space objective).
    pub mean_episode_return: f64,
}

impl RolloutBatch {
    /// Number of experiences.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no experience was collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Append one completed episode from environment slot `env`,
    /// recording its span and pooling the episode-return statistics.
    pub fn push_episode(&mut self, env: usize, samples: Vec<Sample>, episode_return: f64) {
        self.spans.push(EpisodeSpan { env, start: self.samples.len(), len: samples.len() });
        self.mean_episode_return = (self.mean_episode_return * self.episodes as f64
            + episode_return)
            / (self.episodes + 1) as f64;
        self.episodes += 1;
        self.samples.extend(samples);
    }

    /// Raw per-trajectory GAE(γ, λ) advantages (Schulman et al., 2016)
    /// computed independently over each episode span:
    /// `δ_t = r_t + γ·V(s_{t+1}) − V(s_t)`,
    /// `A_t = δ_t + γλ·A_{t+1}`, with `V(s_{T+1}) = 0`.
    ///
    /// With `gamma == 0` this reduces exactly to the paper's
    /// independent 1-step advantages `A = r − V(s)` — the NeuroCuts
    /// rewards are already complete subtree returns, so no discounting
    /// across decisions is the faithful default. Samples covered by no
    /// span are likewise treated as 1-step problems.
    ///
    /// ```
    /// use rl::{RolloutBatch, Sample};
    /// let mut batch = RolloutBatch::default();
    /// let sample = |reward: f32, value: f32| Sample {
    ///     obs: vec![0.0],
    ///     dim_action: 0,
    ///     act_action: 0,
    ///     dim_mask: vec![true],
    ///     act_mask: vec![true],
    ///     log_prob: 0.0,
    ///     value,
    ///     reward,
    /// };
    /// batch.push_episode(0, vec![sample(1.0, 0.5), sample(2.0, 1.0)], 3.0);
    /// // γ = 0: plain 1-step advantages.
    /// assert_eq!(batch.gae(0.0, 0.95), vec![0.5, 1.0]);
    /// // γ = 1, λ = 1: full-return advantages (δ_t summed to episode end).
    /// assert_eq!(batch.gae(1.0, 1.0), vec![2.5, 1.0]);
    /// ```
    pub fn gae(&self, gamma: f32, lambda: f32) -> Vec<f32> {
        let mut adv: Vec<f32> = self.samples.iter().map(|s| s.reward - s.value).collect();
        if gamma != 0.0 {
            for span in &self.spans {
                let mut next_adv = 0.0f32;
                let mut next_value = 0.0f32;
                for i in (span.start..span.start + span.len).rev() {
                    let s = &self.samples[i];
                    let delta = s.reward + gamma * next_value - s.value;
                    adv[i] = delta + gamma * lambda * next_adv;
                    next_adv = adv[i];
                    next_value = s.value;
                }
            }
        }
        adv
    }

    /// 1-step advantages `A = R − V(s)`, normalised to zero mean / unit
    /// variance (the standard PPO preprocessing; with γ=0 across
    /// decisions the return of a 1-step problem is just its reward).
    /// Equivalent to `normalize(&self.gae(0.0, _))`.
    pub fn normalized_advantages(&self) -> Vec<f32> {
        normalize(&self.gae(0.0, 0.0))
    }
}

/// Normalise to zero mean, unit variance; degenerate inputs (len < 2 or
/// zero variance) get mean-centred only.
pub fn normalize(xs: &[f32]) -> Vec<f32> {
    if xs.is_empty() {
        return Vec::new();
    }
    let n = xs.len() as f32;
    let mean = xs.iter().sum::<f32>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
    let std = var.sqrt();
    if std < 1e-6 {
        xs.iter().map(|x| x - mean).collect()
    } else {
        xs.iter().map(|x| (x - mean) / std).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(reward: f32, value: f32) -> Sample {
        Sample {
            obs: vec![0.0; 4],
            dim_action: 0,
            act_action: 0,
            dim_mask: vec![true; 2],
            act_mask: vec![true; 3],
            log_prob: -1.0,
            value,
            reward,
        }
    }

    #[test]
    fn advantages_are_normalised() {
        let batch = RolloutBatch {
            samples: vec![sample(1.0, 0.0), sample(3.0, 0.0), sample(5.0, 0.0)],
            episodes: 1,
            mean_episode_return: 3.0,
            ..Default::default()
        };
        let adv = batch.normalized_advantages();
        let mean: f32 = adv.iter().sum::<f32>() / adv.len() as f32;
        assert!(mean.abs() < 1e-5);
        let var: f32 = adv.iter().map(|a| a * a).sum::<f32>() / adv.len() as f32;
        assert!((var - 1.0).abs() < 1e-4);
        // Ordering preserved.
        assert!(adv[0] < adv[1] && adv[1] < adv[2]);
    }

    #[test]
    fn constant_advantages_do_not_blow_up() {
        let batch = RolloutBatch {
            samples: vec![sample(2.0, 1.0), sample(2.0, 1.0)],
            episodes: 1,
            mean_episode_return: 2.0,
            ..Default::default()
        };
        let adv = batch.normalized_advantages();
        assert!(adv.iter().all(|a| a.abs() < 1e-6));
    }

    #[test]
    fn push_episode_records_spans_and_pools_returns() {
        let mut batch = RolloutBatch::default();
        batch.push_episode(3, vec![sample(1.0, 0.0), sample(2.0, 0.0)], 10.0);
        batch.push_episode(1, vec![sample(3.0, 0.0)], 20.0);
        assert_eq!(
            batch.spans,
            vec![
                EpisodeSpan { env: 3, start: 0, len: 2 },
                EpisodeSpan { env: 1, start: 2, len: 1 },
            ]
        );
        assert_eq!(batch.episodes, 2);
        assert!((batch.mean_episode_return - 15.0).abs() < 1e-9);
        // Zero-sample episodes (root already terminal) still count.
        batch.push_episode(0, Vec::new(), 0.0);
        assert_eq!(batch.episodes, 3);
        assert_eq!(batch.spans[2], EpisodeSpan { env: 0, start: 3, len: 0 });
    }

    #[test]
    fn gae_matches_hand_computed_values() {
        let mut batch = RolloutBatch::default();
        batch.push_episode(0, vec![sample(1.0, 0.5), sample(2.0, 1.0), sample(3.0, 2.0)], 6.0);
        // γ = 0 is the 1-step case regardless of λ.
        assert_eq!(batch.gae(0.0, 0.95), vec![0.5, 1.0, 1.0]);
        // γ = 0.5, λ = 0.5, computed backwards by hand:
        //   t=2: δ = 3 − 2 = 1,                A = 1
        //   t=1: δ = 2 + 0.5·2 − 1 = 2,        A = 2 + 0.25·1 = 2.25
        //   t=0: δ = 1 + 0.5·1 − 0.5 = 1,      A = 1 + 0.25·2.25 = 1.5625
        let adv = batch.gae(0.5, 0.5);
        assert!((adv[2] - 1.0).abs() < 1e-6);
        assert!((adv[1] - 2.25).abs() < 1e-6);
        assert!((adv[0] - 1.5625).abs() < 1e-6);
    }

    #[test]
    fn gae_is_per_span_and_spanless_samples_stay_one_step() {
        // Two episodes: discounting must not bleed across the boundary.
        let mut batch = RolloutBatch::default();
        batch.push_episode(0, vec![sample(1.0, 0.0)], 1.0);
        batch.push_episode(1, vec![sample(2.0, 0.0)], 2.0);
        assert_eq!(batch.gae(0.9, 0.9), vec![1.0, 2.0]);
        // A legacy batch without spans falls back to 1-step everywhere.
        let legacy = RolloutBatch {
            samples: vec![sample(4.0, 1.0), sample(5.0, 1.0)],
            episodes: 1,
            mean_episode_return: 9.0,
            ..Default::default()
        };
        assert_eq!(legacy.gae(0.9, 0.9), vec![3.0, 4.0]);
    }

    #[test]
    fn normalize_empty_is_empty() {
        assert!(normalize(&[]).is_empty());
    }
}
