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

/// A batch of experiences collected from one or more tree rollouts.
#[derive(Debug, Clone, Default)]
pub struct RolloutBatch {
    /// The 1-step experiences, episode after episode in collection
    /// order.
    pub samples: Vec<Sample>,
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

    /// Append one completed episode's samples, pooling the
    /// episode-return statistics.
    pub fn push_episode(&mut self, samples: Vec<Sample>, episode_return: f64) {
        self.mean_episode_return = (self.mean_episode_return * self.episodes as f64
            + episode_return)
            / (self.episodes + 1) as f64;
        self.episodes += 1;
        self.samples.extend(samples);
    }

    /// The paper's 1-step advantages `A = r − V(s)`, one per sample.
    /// Every NeuroCuts reward is already the complete return of its
    /// decision's subtree, so the decisions are independent 1-step
    /// problems and nothing is discounted across them.
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
    /// batch.push_episode(vec![sample(1.0, 0.5), sample(2.0, 1.0)], 3.0);
    /// batch.push_episode(vec![sample(3.0, 2.0)], 3.0);
    /// assert_eq!(batch.advantages(), vec![0.5, 1.0, 1.0]);
    /// ```
    pub fn advantages(&self) -> Vec<f32> {
        self.samples.iter().map(|s| s.reward - s.value).collect()
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
        };
        let adv = normalize(&batch.advantages());
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
        };
        let adv = normalize(&batch.advantages());
        assert!(adv.iter().all(|a| a.abs() < 1e-6));
    }

    #[test]
    fn push_episode_pools_returns() {
        let mut batch = RolloutBatch::default();
        batch.push_episode(vec![sample(1.0, 0.0), sample(2.0, 0.0)], 10.0);
        batch.push_episode(vec![sample(3.0, 0.0)], 20.0);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.episodes, 2);
        assert!((batch.mean_episode_return - 15.0).abs() < 1e-9);
        // Zero-sample episodes (root already terminal) still count.
        batch.push_episode(Vec::new(), 0.0);
        assert_eq!(batch.episodes, 3);
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn normalize_empty_is_empty() {
        assert!(normalize(&[]).is_empty());
    }
}
