//! The NeuroCuts policy/value network: a shared tanh trunk with two
//! categorical policy heads (dimension, action) and a scalar value head.
//!
//! Table 1 of the paper: fully-connected, tanh nonlinearity, hidden
//! layers `[512, 512]`, weight sharing between policy and value
//! parameters. The trunk is shared; only the three output heads differ.

use crate::adam::AdamConfig;
use crate::linear::Linear;
use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Network topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Observation width (315 for the NeuroCuts encoding).
    pub obs_dim: usize,
    /// First categorical head width (number of dimensions, 5).
    pub dim_actions: usize,
    /// Second categorical head width (cut + partition actions).
    pub num_actions: usize,
    /// Hidden layer widths (Table 1: `[512, 512]`).
    pub hidden: [usize; 2],
}

impl NetConfig {
    /// The paper's default model for a given observation/action space.
    pub fn paper_default(obs_dim: usize, dim_actions: usize, num_actions: usize) -> Self {
        NetConfig { obs_dim, dim_actions, num_actions, hidden: [512, 512] }
    }
}

/// Cached activations from one forward pass, needed for backprop.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// The input batch.
    pub x: Matrix,
    /// First hidden activation (post-tanh).
    pub h1: Matrix,
    /// Second hidden activation (post-tanh).
    pub h2: Matrix,
    /// Dimension-head logits `[n, dim_actions]`.
    pub dim_logits: Matrix,
    /// Action-head logits `[n, num_actions]`.
    pub act_logits: Matrix,
    /// Value estimates `[n, 1]`.
    pub values: Matrix,
}

/// Reusable activations for the batched *inference* path.
///
/// [`PolicyValueNet::infer`] writes every intermediate and output
/// activation into these preallocated matrices, so steady-state rollout
/// collection performs no per-step allocation (buffers only grow, and
/// only until they fit the largest batch seen). Unlike
/// [`ForwardCache`], nothing needed for backprop is retained — this is
/// the actor-side forward, not the learner-side one.
///
/// ```
/// use nn::{InferBuffer, Matrix, NetConfig, PolicyValueNet};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let net = PolicyValueNet::new(
///     NetConfig { obs_dim: 4, dim_actions: 2, num_actions: 3, hidden: [8, 8] },
///     &mut rng,
/// );
/// let obs = [0.25f32, -1.0, 0.5, 0.0];
/// let mut x = Matrix::default();
/// x.reset(4);
/// x.push_row(&obs);
/// let mut buf = InferBuffer::default();
/// net.infer(&x, &mut buf);
/// // Bit-identical to the scalar convenience path.
/// let (dim, act, value) = net.forward_one(&obs);
/// assert_eq!(buf.dim_logits.row(0), &dim[..]);
/// assert_eq!(buf.act_logits.row(0), &act[..]);
/// assert_eq!(buf.values.get(0, 0), value);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InferBuffer {
    h1: Matrix,
    h2: Matrix,
    /// Dimension-head logits `[n, dim_actions]`.
    pub dim_logits: Matrix,
    /// Action-head logits `[n, num_actions]`.
    pub act_logits: Matrix,
    /// Value estimates `[n, 1]`.
    pub values: Matrix,
}

/// The shared-trunk policy + value network.
///
/// Deserialisation refuses a net whose layers disagree with its
/// `config` (or, through [`Linear`]'s own check, with themselves).
#[derive(Debug, Clone, Serialize)]
pub struct PolicyValueNet {
    /// Topology.
    pub config: NetConfig,
    l1: Linear,
    l2: Linear,
    dim_head: Linear,
    act_head: Linear,
    value_head: Linear,
    steps: u64,
}

impl PolicyValueNet {
    /// Randomly initialised network. Policy heads use a small gain so
    /// the initial policy is near uniform; the value head likewise
    /// starts near zero.
    pub fn new(config: NetConfig, rng: &mut impl Rng) -> Self {
        PolicyValueNet {
            l1: Linear::new(config.obs_dim, config.hidden[0], 1.0, rng),
            l2: Linear::new(config.hidden[0], config.hidden[1], 1.0, rng),
            dim_head: Linear::new(config.hidden[1], config.dim_actions, 0.01, rng),
            act_head: Linear::new(config.hidden[1], config.num_actions, 0.01, rng),
            value_head: Linear::new(config.hidden[1], 1, 1.0, rng),
            steps: 0,
            config,
        }
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.l1.num_params()
            + self.l2.num_params()
            + self.dim_head.num_params()
            + self.act_head.num_params()
            + self.value_head.num_params()
    }

    /// Forward pass over a batch `[n, obs_dim]`.
    pub fn forward(&self, x: Matrix) -> ForwardCache {
        assert_eq!(x.cols, self.config.obs_dim, "observation width mismatch");
        let h1 = self.l1.forward(&x).tanh();
        let h2 = self.l2.forward(&h1).tanh();
        let dim_logits = self.dim_head.forward(&h2);
        let act_logits = self.act_head.forward(&h2);
        let values = self.value_head.forward(&h2);
        ForwardCache { x, h1, h2, dim_logits, act_logits, values }
    }

    /// Batched inference: forward `[n, obs_dim]` into `buf` without
    /// retaining anything for backprop and without allocating once the
    /// buffers are warm. One matrix-matrix pass replaces `n` per-row
    /// matrix-vector passes, and the results are bit-identical to
    /// [`PolicyValueNet::forward`]/[`PolicyValueNet::forward_one`]
    /// row-for-row (the same kernels run over the same row layout, and
    /// read the weight panels packed at the last weight change).
    pub fn infer(&self, x: &Matrix, buf: &mut InferBuffer) {
        assert_eq!(x.cols, self.config.obs_dim, "observation width mismatch");
        self.l1.forward_into(x, &mut buf.h1);
        buf.h1.tanh_inplace();
        self.l2.forward_into(&buf.h1, &mut buf.h2);
        buf.h2.tanh_inplace();
        self.dim_head.forward_into(&buf.h2, &mut buf.dim_logits);
        self.act_head.forward_into(&buf.h2, &mut buf.act_logits);
        self.value_head.forward_into(&buf.h2, &mut buf.values);
    }

    /// Convenience: forward a single observation, returning
    /// `(dim_logits, act_logits, value)`.
    pub fn forward_one(&self, obs: &[f32]) -> (Vec<f32>, Vec<f32>, f32) {
        let cache = self.forward(Matrix::from_rows(&[obs]));
        (cache.dim_logits.row(0).to_vec(), cache.act_logits.row(0).to_vec(), cache.values.get(0, 0))
    }

    /// Backward pass: accumulate gradients given the loss gradients at
    /// the three heads (shapes must match the cache).
    pub fn backward(
        &mut self,
        cache: &ForwardCache,
        d_dim_logits: &Matrix,
        d_act_logits: &Matrix,
        d_values: &Matrix,
    ) {
        let mut dh2 = self.dim_head.backward(&cache.h2, d_dim_logits);
        dh2.add_assign(&self.act_head.backward(&cache.h2, d_act_logits));
        dh2.add_assign(&self.value_head.backward(&cache.h2, d_values));
        let dh2_pre = Matrix::tanh_backward(&dh2, &cache.h2);
        let dh1 = self.l2.backward(&cache.h1, &dh2_pre);
        let dh1_pre = Matrix::tanh_backward(&dh1, &cache.h1);
        self.l1.accumulate_grad(&cache.x, &dh1_pre);
    }

    fn layers_mut(&mut self) -> [&mut Linear; 5] {
        [&mut self.l1, &mut self.l2, &mut self.dim_head, &mut self.act_head, &mut self.value_head]
    }

    /// Reset accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in self.layers_mut() {
            l.zero_grad();
        }
    }

    /// Scale accumulated gradients (e.g. `1/minibatch`).
    pub fn scale_grad(&mut self, s: f32) {
        for l in self.layers_mut() {
            l.scale_grad(s);
        }
    }

    /// Clip gradients to a maximum global L2 norm; returns the
    /// pre-clipping norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.layers_mut().iter().map(|l| l.grad_sq_norm()).sum::<f32>().sqrt();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            self.scale_grad(s);
        }
        norm
    }

    /// Apply one Adam update from accumulated gradients.
    pub fn adam_step(&mut self, cfg: &AdamConfig) {
        self.steps += 1;
        let t = self.steps;
        for l in self.layers_mut() {
            l.adam_step(cfg, t);
        }
    }

    /// Serialise to JSON (checkpointing).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("network serialises")
    }

    /// Load from [`PolicyValueNet::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

impl Deserialize for PolicyValueNet {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Fields {
            config: NetConfig,
            l1: Linear,
            l2: Linear,
            dim_head: Linear,
            act_head: Linear,
            value_head: Linear,
            steps: u64,
        }
        let Fields { config, l1, l2, dim_head, act_head, value_head, steps } =
            Fields::deserialize_value(value)?;
        let NetConfig { obs_dim, dim_actions, num_actions, hidden: [h0, h1] } = config;
        for (name, layer, shape) in [
            ("l1", &l1, [h0, obs_dim]),
            ("l2", &l2, [h1, h0]),
            ("dim_head", &dim_head, [dim_actions, h1]),
            ("act_head", &act_head, [num_actions, h1]),
            ("value_head", &value_head, [1, h1]),
        ] {
            let got = [layer.out_dim(), layer.in_dim()];
            if got != shape {
                return Err(serde::Error::custom(format!(
                    "PolicyValueNet: layer `{name}` is {got:?}, its config wants {shape:?}"
                )));
            }
        }
        Ok(PolicyValueNet { config, l1, l2, dim_head, act_head, value_head, steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorical::MaskedCategorical;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_net(rng: &mut ChaCha8Rng) -> PolicyValueNet {
        PolicyValueNet::new(
            NetConfig { obs_dim: 6, dim_actions: 3, num_actions: 4, hidden: [8, 8] },
            rng,
        )
    }

    #[test]
    fn forward_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = tiny_net(&mut rng);
        let x = Matrix::xavier(5, 6, 1.0, &mut rng);
        let out = net.forward(x);
        assert_eq!(out.dim_logits.rows, 5);
        assert_eq!(out.dim_logits.cols, 3);
        assert_eq!(out.act_logits.cols, 4);
        assert_eq!(out.values.cols, 1);
    }

    #[test]
    fn initial_policy_is_near_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = tiny_net(&mut rng);
        let (dim_logits, act_logits, _v) = net.forward_one(&[0.5; 6]);
        let d = MaskedCategorical::from_logits(&dim_logits);
        let a = MaskedCategorical::from_logits(&act_logits);
        // Small-gain heads -> all probabilities close to uniform.
        for &p in &d.probs {
            assert!((p - 1.0 / 3.0).abs() < 0.05, "dim prob {p}");
        }
        for &p in &a.probs {
            assert!((p - 0.25).abs() < 0.05, "act prob {p}");
        }
    }

    #[test]
    fn full_network_gradient_check() {
        // Scalar loss: weighted sum over all three heads. Check d/dθ for
        // a sample of parameters in every layer against central
        // differences.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = tiny_net(&mut rng);
        let x = Matrix::xavier(3, 6, 1.0, &mut rng);
        let cd = Matrix::xavier(3, 3, 1.0, &mut rng);
        let ca = Matrix::xavier(3, 4, 1.0, &mut rng);
        let cv = Matrix::xavier(3, 1, 1.0, &mut rng);
        let loss = |n: &PolicyValueNet| -> f32 {
            let o = n.forward(x.clone());
            let s1: f32 = o.dim_logits.data.iter().zip(cd.data.iter()).map(|(a, b)| a * b).sum();
            let s2: f32 = o.act_logits.data.iter().zip(ca.data.iter()).map(|(a, b)| a * b).sum();
            let s3: f32 = o.values.data.iter().zip(cv.data.iter()).map(|(a, b)| a * b).sum();
            s1 + s2 + s3
        };
        net.zero_grad();
        let cache = net.forward(x.clone());
        net.backward(&cache, &cd, &ca, &cv);

        // Probe a few weights in each layer via serde surgery-free
        // access: l1 isn't public, so check through the public heads
        // plus re-serialisation. Instead, perturb via JSON roundtrip.
        let eps = 1e-2f32;
        let json = serde_json::to_value(&net).unwrap();
        let layers = ["l1", "l2", "dim_head", "act_head", "value_head"];
        for layer in layers {
            let w = json[layer]["w"]["data"].as_array().unwrap();
            let idx = w.len() / 2;
            let orig = w[idx].as_f64().unwrap() as f32;
            let probe = |delta: f32| -> f32 {
                let mut j = json.clone();
                j[layer]["w"]["data"][idx] = serde_json::json!(orig + delta);
                let n: PolicyValueNet = serde_json::from_value(j).unwrap();
                loss(&n)
            };
            let numeric = (probe(eps) - probe(-eps)) / (2.0 * eps);
            let analytic = serde_json::to_value(&net).unwrap()[layer]["gw"]["data"][idx]
                .as_f64()
                .unwrap() as f32;
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "{layer}[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn value_head_can_regress() {
        // Train the value head (through the shared trunk) to predict a
        // fixed function of the input.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut net = tiny_net(&mut rng);
        let cfg = AdamConfig { lr: 0.01, ..Default::default() };
        let target = |row: &[f32]| -> f32 { row[0] - 2.0 * row[1] };
        for _ in 0..600 {
            let x = Matrix::xavier(16, 6, 1.0, &mut rng);
            let cache = net.forward(x.clone());
            let mut dv = Matrix::zeros(16, 1);
            for r in 0..16 {
                let want = target(x.row(r));
                dv.set(r, 0, cache.values.get(r, 0) - want);
            }
            let zero_d = Matrix::zeros(16, 3);
            let zero_a = Matrix::zeros(16, 4);
            net.zero_grad();
            net.backward(&cache, &zero_d, &zero_a, &dv);
            net.scale_grad(1.0 / 16.0);
            net.adam_step(&cfg);
        }
        let x = Matrix::xavier(32, 6, 1.0, &mut rng);
        let cache = net.forward(x.clone());
        let mse: f32 = (0..32)
            .map(|r| {
                let e = cache.values.get(r, 0) - target(x.row(r));
                e * e
            })
            .sum::<f32>()
            / 32.0;
        assert!(mse < 0.05, "mse {mse}");
    }

    #[test]
    fn policy_gradient_solves_a_contextual_bandit() {
        // REINFORCE sanity check: reward 1 when the sampled dim action
        // matches a context bit, else 0. The policy must learn the
        // mapping.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net = PolicyValueNet::new(
            NetConfig { obs_dim: 2, dim_actions: 2, num_actions: 2, hidden: [16, 16] },
            &mut rng,
        );
        let cfg = AdamConfig { lr: 0.01, ..Default::default() };
        for _ in 0..400 {
            let batch = 32;
            let mut xs = Matrix::zeros(batch, 2);
            for r in 0..batch {
                let ctx = rng.gen_range(0..2usize);
                xs.set(r, ctx, 1.0);
            }
            let cache = net.forward(xs.clone());
            let mut d_dim = Matrix::zeros(batch, 2);
            let d_act = Matrix::zeros(batch, 2);
            let d_val = Matrix::zeros(batch, 1);
            for r in 0..batch {
                let dist = MaskedCategorical::from_logits(cache.dim_logits.row(r));
                let a = dist.sample(rng.gen::<f32>());
                let ctx = if xs.get(r, 0) > 0.5 { 0 } else { 1 };
                let reward = if a == ctx { 1.0 } else { 0.0 };
                let adv = reward - 0.5; // fixed baseline
                                        // Gradient ascent on adv * log p(a): negate for descent.
                for (i, g) in dist.dlogp_dlogits(a).iter().enumerate() {
                    d_dim.set(r, i, -adv * g);
                }
            }
            net.zero_grad();
            net.backward(&cache, &d_dim, &d_act, &d_val);
            net.scale_grad(1.0 / batch as f32);
            net.adam_step(&cfg);
        }
        // The learned policy should strongly prefer the matching action.
        let (l0, _, _) = net.forward_one(&[1.0, 0.0]);
        let (l1, _, _) = net.forward_one(&[0.0, 1.0]);
        assert!(
            MaskedCategorical::from_logits(&l0).probs[0] > 0.8,
            "p(a=0|ctx 0) = {:?}",
            MaskedCategorical::from_logits(&l0).probs
        );
        assert!(MaskedCategorical::from_logits(&l1).probs[1] > 0.8);
    }

    #[test]
    fn batched_infer_matches_per_row_forward_bit_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let net = tiny_net(&mut rng);
        let x = Matrix::xavier(7, 6, 1.0, &mut rng);
        let mut buf = InferBuffer::default();
        net.infer(&x, &mut buf);
        // Warm buffers: run again with a different batch size to prove
        // stale contents never leak through.
        let y = Matrix::xavier(3, 6, 1.0, &mut rng);
        net.infer(&y, &mut buf);
        net.infer(&x, &mut buf);
        let cache = net.forward(x.clone());
        assert_eq!(buf.dim_logits, cache.dim_logits);
        assert_eq!(buf.act_logits, cache.act_logits);
        assert_eq!(buf.values, cache.values);
        for r in 0..x.rows {
            let (dim, act, v) = net.forward_one(x.row(r));
            assert_eq!(buf.dim_logits.row(r), &dim[..]);
            assert_eq!(buf.act_logits.row(r), &act[..]);
            assert_eq!(buf.values.get(r, 0), v);
        }
    }

    #[test]
    fn json_roundtrip_preserves_outputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let net = tiny_net(&mut rng);
        let restored = PolicyValueNet::from_json(&net.to_json()).unwrap();
        let obs = [0.1f32, -0.4, 0.9, 0.0, 1.0, -1.0];
        assert_eq!(net.forward_one(&obs), restored.forward_one(&obs));
        assert_eq!(restored.to_json(), net.to_json());
    }

    #[test]
    fn from_json_refuses_malformed_nets() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let json = serde_json::to_value(&tiny_net(&mut rng)).unwrap();
        let load =
            |j: serde_json::Value| PolicyValueNet::from_json(&serde_json::to_string(&j).unwrap());
        // An 8×8 layer whose weight gradient is one entry short: before
        // the check it loaded, and the first `backward` panicked.
        let mut cut = json.clone();
        cut["l2"]["gw"]["data"].as_array_mut().unwrap().pop();
        let err = load(cut).unwrap_err().to_string();
        assert!(err.contains("Linear [8, 8]"), "{err}");
        // A config that disagrees with the layers' shapes.
        for (key, value) in [
            ("hidden", serde_json::json!([8, 9])),
            ("obs_dim", serde_json::json!(7)),
            ("num_actions", serde_json::json!(5)),
        ] {
            let mut j = json.clone();
            j["config"][key] = value;
            let err = load(j).unwrap_err().to_string();
            assert!(err.contains("its config wants"), "{key}: {err}");
        }
    }

    #[test]
    fn grad_clipping_bounds_norm() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut net = tiny_net(&mut rng);
        let x = Matrix::xavier(4, 6, 1.0, &mut rng);
        let cache = net.forward(x);
        let big = Matrix::from_vec(4, 3, vec![100.0; 12]);
        let za = Matrix::zeros(4, 4);
        let zv = Matrix::zeros(4, 1);
        net.zero_grad();
        net.backward(&cache, &big, &za, &zv);
        let before = net.clip_grad_norm(1.0);
        assert!(before > 1.0);
        let after = net.clip_grad_norm(1.0);
        assert!(after <= 1.0 + 1e-3);
    }
}
