//! Adam optimiser state and update rule (Kingma & Ba, 2015) — the
//! optimiser RLlib's PPO uses, and therefore the one the paper trained
//! with.

use serde::{Deserialize, Serialize};

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Step size (Table 1: `5e-5`).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 5e-5, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }
}

/// Per-parameter-tensor Adam moments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
}

impl AdamState {
    /// Zero-initialised moments for `n` parameters.
    pub fn new(n: usize) -> Self {
        AdamState { m: vec![0.0; n], v: vec![0.0; n] }
    }

    /// Whether the moments cover a tensor of `n` parameters.
    pub(crate) fn fits(&self, n: usize) -> bool {
        self.m.len() == n && self.v.len() == n
    }

    /// Apply one Adam update to `params` given `grads`; `t` is the
    /// 1-based global step used for bias correction.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32], cfg: &AdamConfig, t: u64) {
        assert_eq!(params.len(), grads.len());
        assert_eq!(params.len(), self.m.len());
        assert!(t >= 1, "Adam step count is 1-based");
        let bc1 = 1.0 - cfg.beta1.powi(t as i32);
        let bc2 = 1.0 - cfg.beta2.powi(t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = cfg.beta1 * self.m[i] + (1.0 - cfg.beta1) * g;
            self.v[i] = cfg.beta2 * self.v[i] + (1.0 - cfg.beta2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            params[i] -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descends_a_quadratic() {
        // Minimise f(x) = (x - 3)^2 from x = 0.
        let mut x = [0.0f32];
        let mut state = AdamState::new(1);
        let cfg = AdamConfig { lr: 0.1, ..Default::default() };
        for t in 1..=500 {
            let g = [2.0 * (x[0] - 3.0)];
            state.step(&mut x, &g, &cfg, t);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "converged to {}", x[0]);
    }

    #[test]
    fn first_step_size_is_lr() {
        // With bias correction the very first step is ~lr * sign(g).
        let mut x = [0.0f32];
        let mut state = AdamState::new(1);
        let cfg = AdamConfig { lr: 0.01, ..Default::default() };
        state.step(&mut x, &[42.0], &cfg, 1);
        assert!((x[0] + 0.01).abs() < 1e-4, "step was {}", x[0]);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_step_count() {
        let mut x = [0.0f32];
        let mut state = AdamState::new(1);
        state.step(&mut x, &[1.0], &AdamConfig::default(), 0);
    }
}
