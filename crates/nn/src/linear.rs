//! Affine layers with gradient accumulation and Adam state.

use crate::adam::{AdamConfig, AdamState};
use crate::matrix::{Matrix, PackedWeights};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully-connected layer `y = x · Wᵀ + b` with weights `[out, in]`.
///
/// Gradients accumulate across [`Linear::backward`] calls until
/// [`Linear::zero_grad`]; [`Linear::adam_step`] applies the update.
/// Deserialisation refuses a layer whose bias, gradients or Adam moments
/// do not match the shape of its weights.
#[derive(Debug, Clone, Serialize)]
pub struct Linear {
    /// Weights, `[out, in]`, with the forward's packed panels.
    pub w: PackedWeights,
    /// Bias, `[out]`.
    pub b: Vec<f32>,
    /// Accumulated weight gradient.
    pub gw: Matrix,
    /// Accumulated bias gradient.
    pub gb: Vec<f32>,
    opt_w: AdamState,
    opt_b: AdamState,
}

impl Linear {
    /// Xavier-initialised layer; `gain < 1` makes near-zero outputs
    /// (used for policy/value heads so the initial policy is near
    /// uniform).
    pub fn new(in_dim: usize, out_dim: usize, gain: f32, rng: &mut impl Rng) -> Self {
        Linear {
            w: PackedWeights::new(Matrix::xavier(out_dim, in_dim, gain, rng)),
            b: vec![0.0; out_dim],
            gw: Matrix::zeros(out_dim, in_dim),
            gb: vec![0.0; out_dim],
            opt_w: AdamState::new(out_dim * in_dim),
            opt_b: AdamState::new(out_dim),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.cols
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.rows
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.w.data.len() + self.b.len()
    }

    /// Forward pass: `[n, in] -> [n, out]`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        self.forward_into(x, &mut y);
        y
    }

    /// [`Linear::forward`] into a caller-owned buffer (resized and
    /// overwritten) — the allocation-free kernel behind the batched
    /// inference path. Bit-identical to `forward`.
    // nc-lint: kernel
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_nt_into(&self.w, out);
        for r in 0..out.rows {
            let row = out.row_mut(r);
            for (v, b) in row.iter_mut().zip(self.b.iter()) {
                *v += b;
            }
        }
    }

    /// Backward pass: accumulate parameter gradients for the batch and
    /// return the input gradient. `x` must be the input the forward pass
    /// saw.
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        self.accumulate_grad(x, dy);
        dy.matmul_nn(&self.w)
    }

    /// The parameter half of [`Linear::backward`]: accumulate the
    /// batch's weight and bias gradients without computing the input
    /// gradient, for a first layer whose input needs none.
    pub fn accumulate_grad(&mut self, x: &Matrix, dy: &Matrix) {
        assert_eq!(x.rows, dy.rows, "batch mismatch");
        assert_eq!(dy.cols, self.out_dim());
        dy.accumulate_tn(x, &mut self.gw);
        for r in 0..dy.rows {
            for (g, d) in self.gb.iter_mut().zip(dy.row(r).iter()) {
                *g += d;
            }
        }
    }

    /// Reset accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.gw.fill_zero();
        self.gb.fill(0.0);
    }

    /// Scale accumulated gradients (e.g. by `1/batch`).
    pub fn scale_grad(&mut self, s: f32) {
        self.gw.scale(s);
        for g in &mut self.gb {
            *g *= s;
        }
    }

    /// Sum of squared gradient entries (for global-norm clipping).
    pub fn grad_sq_norm(&self) -> f32 {
        self.gw.data.iter().map(|g| g * g).sum::<f32>() + self.gb.iter().map(|g| g * g).sum::<f32>()
    }

    /// Apply one Adam update from the accumulated gradients (and repack
    /// the forward's panels).
    pub fn adam_step(&mut self, cfg: &AdamConfig, t: u64) {
        self.w.update(|w| self.opt_w.step(&mut w.data, &self.gw.data, cfg, t));
        self.opt_b.step(&mut self.b, &self.gb, cfg, t);
    }
}

impl Deserialize for Linear {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Fields {
            w: PackedWeights,
            b: Vec<f32>,
            gw: Matrix,
            gb: Vec<f32>,
            opt_w: AdamState,
            opt_b: AdamState,
        }
        let Fields { w, b, gw, gb, opt_w, opt_b } = Fields::deserialize_value(value)?;
        // `PackedWeights` has checked that `w.data` is `rows × cols` long.
        let (rows, cols) = (w.rows, w.cols);
        let wrong = if b.len() != rows || gb.len() != rows {
            "`b` and `gb` need one entry per output"
        } else if (gw.rows, gw.cols, gw.data.len()) != (rows, cols, rows * cols) {
            "`gw` needs the shape of `w`"
        } else if !opt_w.fits(rows * cols) || !opt_b.fits(rows) {
            "each Adam moment needs the length of its tensor"
        } else {
            return Ok(Linear { w, b, gw, gb, opt_w, opt_b });
        };
        Err(serde::Error::custom(format!("Linear [{rows}, {cols}]: {wrong}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn finite_diff_check(in_dim: usize, out_dim: usize, batch: usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut layer = Linear::new(in_dim, out_dim, 1.0, &mut rng);
        let x = Matrix::xavier(batch, in_dim, 1.0, &mut rng);
        // Loss = sum of outputs weighted by fixed coefficients.
        let coef = Matrix::xavier(batch, out_dim, 1.0, &mut rng);
        let loss = |l: &Linear| -> f32 {
            let y = l.forward(&x);
            y.data.iter().zip(coef.data.iter()).map(|(a, b)| a * b).sum()
        };
        layer.zero_grad();
        let dx = layer.backward(&x, &coef);

        // Weight gradients.
        let eps = 1e-2f32;
        for idx in [0, in_dim * out_dim / 2, in_dim * out_dim - 1] {
            let orig = layer.w.data[idx];
            layer.w.update(|w| w.data[idx] = orig + eps);
            let lp = loss(&layer);
            layer.w.update(|w| w.data[idx] = orig - eps);
            let lm = loss(&layer);
            layer.w.update(|w| w.data[idx] = orig);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = layer.gw.data[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + numeric.abs()),
                "w[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Bias gradient = column sums of coef.
        for j in 0..out_dim {
            let expect: f32 = (0..batch).map(|r| coef.get(r, j)).sum();
            assert!((layer.gb[j] - expect).abs() < 1e-4);
        }
        // Input gradient = coef · W.
        let expect_dx = coef.matmul_nn(&layer.w);
        for (a, b) in dx.data.iter().zip(expect_dx.data.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        finite_diff_check(5, 3, 4);
        finite_diff_check(16, 8, 2);
    }

    #[test]
    fn forward_applies_bias() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut layer = Linear::new(2, 2, 1.0, &mut rng);
        layer.w = PackedWeights::new(Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        layer.b = vec![10.0, -10.0];
        let y = layer.forward(&Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        assert_eq!(y.data, vec![11.0, -8.0]);
    }

    #[test]
    fn deserialisation_refuses_mismatched_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let json = serde_json::to_value(&Linear::new(3, 2, 1.0, &mut rng)).unwrap();
        assert!(serde_json::from_value::<Linear>(json.clone()).is_ok());
        let short = |field: &str, path: &[&str]| {
            let mut j = json.clone();
            let mut v = &mut j[field];
            for key in path {
                v = &mut v[*key];
            }
            v.as_array_mut().unwrap().pop();
            serde_json::from_value::<Linear>(j)
        };
        for (field, path) in [
            ("b", &[][..]),
            ("gb", &[]),
            ("gw", &["data"]),
            ("opt_w", &["m"]),
            ("opt_w", &["v"]),
            ("opt_b", &["m"]),
            ("opt_b", &["v"]),
        ] {
            let err = short(field, path).unwrap_err().to_string();
            assert!(err.contains("Linear [2, 3]"), "{field}{path:?}: {err}");
        }
        // A `gw` of the right length but the wrong shape.
        let mut j = json.clone();
        j["gw"]["rows"] = serde_json::json!(3);
        j["gw"]["cols"] = serde_json::json!(2);
        assert!(serde_json::from_value::<Linear>(j).is_err());
    }

    #[test]
    fn zero_grad_resets() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut layer = Linear::new(3, 2, 1.0, &mut rng);
        let x = Matrix::xavier(2, 3, 1.0, &mut rng);
        let dy = Matrix::xavier(2, 2, 1.0, &mut rng);
        layer.backward(&x, &dy);
        assert!(layer.grad_sq_norm() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.grad_sq_norm(), 0.0);
    }

    #[test]
    fn sgd_via_adam_fits_a_linear_map() {
        // Teach the layer to reproduce a fixed target map.
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let target = PackedWeights::new(Matrix::xavier(2, 4, 1.0, &mut rng));
        let mut layer = Linear::new(4, 2, 1.0, &mut rng);
        let cfg = AdamConfig { lr: 0.02, ..Default::default() };
        for t in 1..=800 {
            let x = Matrix::xavier(8, 4, 1.0, &mut rng);
            let y = layer.forward(&x);
            let want = x.matmul_nt(&target);
            // dL/dy for L = 0.5 * ||y - want||^2
            let dy = Matrix::from_vec(
                8,
                2,
                y.data.iter().zip(want.data.iter()).map(|(a, b)| a - b).collect(),
            );
            layer.zero_grad();
            layer.backward(&x, &dy);
            layer.scale_grad(1.0 / 8.0);
            layer.adam_step(&cfg, t);
        }
        // Residual should be tiny.
        let x = Matrix::xavier(16, 4, 1.0, &mut rng);
        let y = layer.forward(&x);
        let want = x.matmul_nt(&target);
        let mse: f32 =
            y.data.iter().zip(want.data.iter()).map(|(a, b)| (a - b) * (a - b)).sum::<f32>()
                / y.data.len() as f32;
        assert!(mse < 1e-3, "mse {mse}");
    }
}
