//! Row-major `f32` matrices with the few kernels the model needs.
//!
//! # Bit-identity
//!
//! The three products — the forward [`Matrix::matmul_nt_into`], the
//! input gradient [`Matrix::matmul_nn`] and the weight gradient
//! [`Matrix::accumulate_tn`] — compute every output as the sum a naive
//! loop computes: one product per step, rounded on its own (never a
//! fused multiply-add), added in the order of the summed index. Their
//! speed comes from register tiles that never reorder a sum. A tile
//! holds a few rows × a few output columns of accumulators and is
//! vectorised across the columns, so the lanes of a vector belong to
//! different outputs and each lane adds exactly what the scalar loop
//! adds. Results are therefore bit-identical at any vector width and on
//! any CPU, which is what lets the batched forward, the PPO update and
//! the golden decision streams pin exact bits. [`Matrix::tanh_inplace`]
//! runs the crate's own port of fdlibm's `tanhf` (`nn::tanh`), so
//! the activations do not depend on the host's libm either.
//!
//! The forward reads `wᵀ` from column panels that [`PackedWeights`]
//! packs once per change of the weights, not once per call.
//!
//! # Two compiled instances
//!
//! Each kernel's body is generic over its tile or lane width and compiled
//! twice: for the build's baseline target (SSE2 on x86-64, 8-column
//! tiles, 4 `tanh` lanes) and with AVX2 enabled (16-column tiles, 8
//! lanes). Every call takes the AVX2 instance when
//! `is_x86_feature_detected!("avx2")` reports it — a platform check, not
//! a setting — and the baseline instance is the only one on other CPUs.
//! Tests run both instances directly.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// `rows * cols` values, row-major.
    pub data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix — the warm-up state of reusable buffers
    /// ([`crate::InferBuffer`]); every `*_into` kernel resizes it.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialisation scaled by `gain` — the
    /// standard init for tanh networks; policy output layers use a small
    /// gain so initial policies are near-uniform.
    pub fn xavier(rows: usize, cols: usize, gain: f32, rng: &mut impl Rng) -> Self {
        let limit = gain * (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-limit..=limit)).collect();
        Matrix { rows, cols, data }
    }

    /// Borrow row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self[r][c]`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Set `self[r][c]`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// `x · wᵀ`: `[n, in] · [out, in]ᵀ -> [n, out]`.
    ///
    /// The weight layout `[out, in]` keeps each weight row contiguous,
    /// and the same layout serves the input-gradient kernel
    /// ([`Matrix::matmul_nn`]) without a transpose.
    pub fn matmul_nt(&self, w: &PackedWeights) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_nt_into(w, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] into a caller-owned output buffer, resized
    /// and overwritten in place. Reusing one buffer across calls makes
    /// steady-state batched inference allocation-free (the buffer only
    /// grows).
    ///
    /// Each output is `0.0 + x[r][0]·w[j][0] + x[r][1]·w[j][1] + …` in
    /// `k` order, bit-identical to the naive loop (see the module docs).
    /// A tile holds 4 rows × 16 output columns (8 in the baseline
    /// instance); each `k` step broadcasts one input per row against a
    /// row of one of `w`'s packed panels, which every row tile of the
    /// batch reads in turn: a `[512, 315]` weight matrix (~645 KB) is
    /// read once per *batch* from the panels, and never repacked here.
    /// A single row runs the same tiles.
    // nc-lint: kernel
    pub fn matmul_nt_into(&self, w: &PackedWeights, out: &mut Matrix) {
        assert_eq!(self.cols, w.cols, "inner dimension mismatch");
        out.rows = self.rows;
        out.cols = w.rows;
        // Resize without clearing: every element is written below, and
        // a shape-stable steady state (the hot inference case) must not
        // pay a per-call memset.
        out.data.resize(self.rows * w.rows, 0.0);
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, the only feature the
            // instance is compiled for.
            return unsafe { avx2::matmul_nt(self, w, &mut out.data) };
        }
        baseline::matmul_nt(self, w, &mut out.data);
    }

    /// `dy · w`: `[n, out] · [out, in] -> [n, in]` (input gradient).
    ///
    /// Each output is `0.0 + dy[r][0]·w[0][k] + dy[r][1]·w[1][k] + …` in
    /// `j` order, skipping every factor `dy[r][j]` equal to zero (`-0.0`
    /// included), bit-identical to the naive loop (see the module docs).
    /// A tile holds 4 rows × 16 columns (8 in the baseline instance),
    /// and a tile with no zero factor runs without the skip test.
    pub fn matmul_nn(&self, w: &Matrix) -> Matrix {
        assert_eq!(self.cols, w.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, w.cols);
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, the only feature the
            // instance is compiled for.
            unsafe { avx2::matmul_nn(self, w, &mut out.data) };
            return out;
        }
        baseline::matmul_nn(self, w, &mut out.data);
        out
    }

    /// `dyᵀ · x` accumulated into `acc`: `[n, out]ᵀ · [n, in] -> [out,
    /// in]` (weight gradient).
    ///
    /// `acc[j][k]` gains `dy[0][j]·x[0][k]`, then `dy[1][j]·x[1][k]`, …
    /// in row order, skipping every factor `dy[r][j]` equal to zero
    /// (`-0.0` included), bit-identical to the naive loop (see the
    /// module docs). A tile of 4 accumulator rows × 16 columns (8 in the
    /// baseline instance) is loaded once, swept over the whole batch and
    /// stored once. Allocation-free.
    // nc-lint: kernel
    pub fn accumulate_tn(&self, x: &Matrix, acc: &mut Matrix) {
        assert_eq!(self.rows, x.rows, "batch mismatch");
        assert_eq!(acc.rows, self.cols);
        assert_eq!(acc.cols, x.cols);
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, the only feature the
            // instance is compiled for.
            return unsafe { avx2::accumulate_tn(self, x, &mut acc.data) };
        }
        baseline::accumulate_tn(self, x, &mut acc.data);
    }

    /// Element-wise `tanh`.
    pub fn tanh(&self) -> Matrix {
        let mut out = self.clone();
        out.tanh_inplace();
        out
    }

    /// Element-wise `tanh` in place (the batched-inference variant of
    /// [`Matrix::tanh`]; identical values, no allocation): the lane-wise
    /// body of the crate's port of fdlibm's `tanhf`, bit-identical to
    /// its scalar reference.
    pub fn tanh_inplace(&mut self) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: as in `matmul_nt_into`.
            return unsafe { avx2::tanh(&mut self.data) };
        }
        baseline::tanh(&mut self.data);
    }

    /// Backprop through tanh: `dx = dy ⊙ (1 - y²)` where `y = tanh(x)`.
    pub fn tanh_backward(dy: &Matrix, y: &Matrix) -> Matrix {
        assert_eq!(dy.data.len(), y.data.len());
        Matrix {
            rows: dy.rows,
            cols: dy.cols,
            data: dy.data.iter().zip(y.data.iter()).map(|(&d, &yv)| d * (1.0 - yv * yv)).collect(),
        }
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Multiply every element by a scalar, in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Fill with zeros (gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reset to an empty `0 × cols` matrix, keeping the allocation, so
    /// rows can be appended with [`Matrix::push_row`]. This is how the
    /// vectorised rollout collector assembles each step's observation
    /// batch without reallocating.
    pub fn reset(&mut self, cols: usize) {
        self.rows = 0;
        self.cols = cols;
        self.data.clear();
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the matrix width.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Stack row slices into a matrix.
    ///
    /// # Panics
    /// Panics if rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Matrix {
        assert!(!rows.is_empty(), "cannot stack zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }
}

/// A weight matrix `w` (`[out, in]`) with `wᵀ` packed into the
/// forward's column panels, so that [`Matrix::matmul_nt_into`] reads the
/// panels instead of packing them on every call.
///
/// The panels are rebuilt whenever the weights change: at construction
/// ([`PackedWeights::new`]), on deserialisation, and in
/// [`PackedWeights::update`], the only way to write the weights, so they
/// cannot go stale. They are never serialised: the JSON is `w`'s alone.
/// Reads of `w` go through `Deref<Target = Matrix>`.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    w: Matrix,
    /// Panel `p` covers outputs `16p..16p + 16` and is
    /// `panels[p * in..(p + 1) * in]`: its row `k` holds `w[16p + c][k]`
    /// in lane `c`, and zeros in lanes past the last output.
    panels: Vec<[f32; PW]>,
}

impl PackedWeights {
    /// Pack `w`.
    pub fn new(w: Matrix) -> Self {
        // Lanes past the last output stay zero: `pack` never writes them.
        let panels = vec![[0.0; PW]; w.rows.div_ceil(PW) * w.cols];
        let mut packed = PackedWeights { w, panels };
        packed.pack();
        packed
    }

    /// Change the weights through `f`, then repack the panels.
    ///
    /// # Panics
    /// Panics if `f` changes the shape.
    pub fn update(&mut self, f: impl FnOnce(&mut Matrix)) {
        let (rows, cols) = (self.w.rows, self.w.cols);
        f(&mut self.w);
        let shape = (self.w.rows, self.w.cols, self.w.data.len());
        assert_eq!(shape, (rows, cols, rows * cols), "weight shape changed");
        self.pack();
    }

    fn pack(&mut self) {
        let n_in = self.w.cols;
        for j in 0..self.w.rows {
            let panel = &mut self.panels[j / PW * n_in..][..n_in];
            for (p, &v) in panel.iter_mut().zip(self.w.row(j)) {
                p[j % PW] = v;
            }
        }
    }
}

impl std::ops::Deref for PackedWeights {
    type Target = Matrix;

    fn deref(&self) -> &Matrix {
        &self.w
    }
}

impl Serialize for PackedWeights {
    fn serialize_value(&self) -> serde::Value {
        self.w.serialize_value()
    }
}

impl Deserialize for PackedWeights {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let w = Matrix::deserialize_value(value)?;
        if w.rows.checked_mul(w.cols) != Some(w.data.len()) {
            return Err(serde::Error::custom("PackedWeights: `data` is not `rows × cols` long"));
        }
        Ok(PackedWeights::new(w))
    }
}

/// Rows (forward and input gradient) or accumulator rows (weight
/// gradient) per register tile.
const MR: usize = 4;
/// Columns per register tile in the baseline instance: two 4-lane SSE2
/// vectors per row, so a tile's eight accumulators and its operands fit
/// the sixteen vector registers (sixteen columns would spill).
const NR_BASELINE: usize = 8;
/// Columns per register tile in the AVX2 instance: two 8-lane vectors
/// per row.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const NR_AVX2: usize = 16;
/// Columns per packed forward panel: the AVX2 tile width. The baseline
/// instance reads each panel as two 8-column halves.
const PW: usize = 16;
/// `tanh` lanes per group in the baseline instance: one SSE2 vector.
const TANH_LANES_BASELINE: usize = 4;
/// `tanh` lanes per group in the AVX2 instance: one AVX2 vector.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const TANH_LANES_AVX2: usize = 8;

/// The kernels compiled for the build's baseline target — the only
/// instance that runs on a CPU without AVX2.
pub(crate) mod baseline {
    use super::{Matrix, PackedWeights, NR_BASELINE, TANH_LANES_BASELINE};

    pub(super) fn matmul_nt(x: &Matrix, w: &PackedWeights, out: &mut [f32]) {
        super::matmul_nt_tiles::<NR_BASELINE>(x, w, out);
    }

    pub(super) fn matmul_nn(dy: &Matrix, w: &Matrix, out: &mut [f32]) {
        super::matmul_nn_tiles::<NR_BASELINE>(dy, w, out);
    }

    pub(super) fn accumulate_tn(dy: &Matrix, x: &Matrix, acc: &mut [f32]) {
        super::accumulate_tn_tiles::<NR_BASELINE>(dy, x, acc);
    }

    pub(crate) fn tanh(v: &mut [f32]) {
        crate::tanh::tanh_lanes::<TANH_LANES_BASELINE>(v);
    }
}

/// The same kernels compiled with AVX2 enabled: 8-lane vectors, and no
/// FMA, which would fuse each product into its sum and change bits. The
/// tiled and lane-wise bodies are `#[inline(always)]`, so each compiles
/// inside the instance that calls it, with that instance's target
/// features.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(crate) mod avx2 {
    use super::{Matrix, PackedWeights, NR_AVX2, TANH_LANES_AVX2};

    #[target_feature(enable = "avx2")]
    pub(super) fn matmul_nt(x: &Matrix, w: &PackedWeights, out: &mut [f32]) {
        super::matmul_nt_tiles::<NR_AVX2>(x, w, out);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn matmul_nn(dy: &Matrix, w: &Matrix, out: &mut [f32]) {
        super::matmul_nn_tiles::<NR_AVX2>(dy, w, out);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn accumulate_tn(dy: &Matrix, x: &Matrix, acc: &mut [f32]) {
        super::accumulate_tn_tiles::<NR_AVX2>(dy, x, acc);
    }

    #[target_feature(enable = "avx2")]
    pub(crate) fn tanh(v: &mut [f32]) {
        crate::tanh::tanh_lanes::<TANH_LANES_AVX2>(v);
    }
}

/// `out = x · wᵀ`, one `NR`-column strip of a packed panel at a time.
/// `out` holds `x.rows × w.rows` values.
// nc-lint: kernel
#[inline(always)]
fn matmul_nt_tiles<const NR: usize>(x: &Matrix, w: &PackedWeights, out: &mut [f32]) {
    if x.cols == 0 {
        out.fill(0.0);
        return;
    }
    for (p, panel) in w.panels.chunks_exact(x.cols).enumerate() {
        for j0 in (p * PW..w.rows.min(p * PW + PW)).step_by(NR) {
            let mut r = 0;
            while r + MR <= x.rows {
                nt_tile::<MR, NR>(x, r, panel, j0, out);
                r += MR;
            }
            for r in r..x.rows {
                nt_tile::<1, NR>(x, r, panel, j0, out);
            }
        }
    }
}

/// Rows `r..r + R`, columns `j0..j0 + NR` (fewer past the last output)
/// of `x · wᵀ`, from the panel holding column `j0`.
#[inline(always)]
fn nt_tile<const R: usize, const NR: usize>(
    x: &Matrix,
    r: usize,
    panel: &[[f32; PW]],
    j0: usize,
    out: &mut [f32],
) {
    let c0 = j0 % PW;
    let stride = out.len() / x.rows;
    let cols = NR.min(stride - j0);
    // Cut to the panel's length, so that the loop below needs no bounds
    // check and keeps its accumulators in registers.
    let xr: [&[f32]; R] = std::array::from_fn(|i| &x.row(r + i)[..panel.len()]);
    let mut acc = [[0.0f32; NR]; R];
    for (k, p) in panel.iter().enumerate() {
        let p = &p[c0..c0 + NR];
        for (a, xr) in acc.iter_mut().zip(&xr) {
            let xv = xr[k];
            for (a, &pv) in a.iter_mut().zip(p) {
                *a += xv * pv;
            }
        }
    }
    for (i, a) in acc.iter().enumerate() {
        out[(r + i) * stride + j0..][..cols].copy_from_slice(&a[..cols]);
    }
}

/// `out = dy · w`, one tile of rows at a time. `out` holds
/// `dy.rows × w.cols` values.
#[inline(always)]
fn matmul_nn_tiles<const NR: usize>(dy: &Matrix, w: &Matrix, out: &mut [f32]) {
    let mut r = 0;
    while r + MR <= dy.rows {
        nn_rows::<MR, NR>(dy, w, r, out);
        r += MR;
    }
    for r in r..dy.rows {
        nn_rows::<1, NR>(dy, w, r, out);
    }
}

/// Rows `r..r + R` of `dy · w`, one `NR`-column strip at a time.
#[inline(always)]
fn nn_rows<const R: usize, const NR: usize>(dy: &Matrix, w: &Matrix, r: usize, out: &mut [f32]) {
    let dense = dy.data[r * dy.cols..(r + R) * dy.cols].iter().all(|&d| d != 0.0);
    for k0 in (0..w.cols).step_by(NR) {
        // One call per case the compiler should specialise: the full
        // strip's constant width unrolls and vectorises the column
        // loops, and a tile without zero factors drops the skip test.
        match (w.cols - k0 >= NR, dense) {
            (true, true) => nn_tile::<R, NR>(dy, w, r, k0, NR, false, out),
            (true, false) => nn_tile::<R, NR>(dy, w, r, k0, NR, true, out),
            (false, _) => nn_tile::<R, NR>(dy, w, r, k0, w.cols - k0, true, out),
        }
    }
}

/// Rows `r..r + R`, columns `k0..k0 + cols` of `dy · w`. `skip_zeros`
/// may be clear only when no factor `dy[r + i][j]` is zero.
#[inline(always)]
fn nn_tile<const R: usize, const NR: usize>(
    dy: &Matrix,
    w: &Matrix,
    r: usize,
    k0: usize,
    cols: usize,
    skip_zeros: bool,
    out: &mut [f32],
) {
    let dyr: [&[f32]; R] = std::array::from_fn(|i| dy.row(r + i));
    let mut acc = [[0.0f32; NR]; R];
    for j in 0..w.rows {
        // A narrow last strip is zero-padded to the tile width, so
        // every strip runs the same vector loop.
        let mut wv = [0.0f32; NR];
        wv[..cols].copy_from_slice(&w.row(j)[k0..k0 + cols]);
        for (a, dyr) in acc.iter_mut().zip(&dyr) {
            let d = dyr[j];
            if !skip_zeros || d != 0.0 {
                for (a, &wv) in a.iter_mut().zip(&wv) {
                    *a += d * wv;
                }
            }
        }
    }
    for (i, a) in acc.iter().enumerate() {
        out[(r + i) * w.cols + k0..][..cols].copy_from_slice(&a[..cols]);
    }
}

/// `acc += dyᵀ · x`, one tile of accumulator rows at a time. `acc`
/// holds `dy.cols × x.cols` values.
#[inline(always)]
fn accumulate_tn_tiles<const NR: usize>(dy: &Matrix, x: &Matrix, acc: &mut [f32]) {
    let mut j = 0;
    while j + MR <= dy.cols {
        tn_rows::<MR, NR>(dy, x, j, acc);
        j += MR;
    }
    for j in j..dy.cols {
        tn_rows::<1, NR>(dy, x, j, acc);
    }
}

/// Accumulator rows `j0..j0 + R` of `acc += dyᵀ · x`, one `NR`-column
/// strip at a time.
#[inline(always)]
fn tn_rows<const R: usize, const NR: usize>(dy: &Matrix, x: &Matrix, j0: usize, acc: &mut [f32]) {
    let dense = dy.data.chunks_exact(dy.cols).all(|d| d[j0..j0 + R].iter().all(|&d| d != 0.0));
    for k0 in (0..x.cols).step_by(NR) {
        // Specialised as in `nn_rows`.
        match (x.cols - k0 >= NR, dense) {
            (true, true) => tn_tile::<R, NR>(dy, x, j0, k0, NR, false, acc),
            (true, false) => tn_tile::<R, NR>(dy, x, j0, k0, NR, true, acc),
            (false, _) => tn_tile::<R, NR>(dy, x, j0, k0, x.cols - k0, true, acc),
        }
    }
}

/// Accumulator rows `j0..j0 + R`, columns `k0..k0 + cols` of
/// `acc += dyᵀ · x`. `skip_zeros` may be clear only when no factor
/// `dy[r][j0 + i]` is zero.
#[inline(always)]
fn tn_tile<const R: usize, const NR: usize>(
    dy: &Matrix,
    x: &Matrix,
    j0: usize,
    k0: usize,
    cols: usize,
    skip_zeros: bool,
    acc: &mut [f32],
) {
    let mut a = [[0.0f32; NR]; R];
    for (i, a) in a.iter_mut().enumerate() {
        a[..cols].copy_from_slice(&acc[(j0 + i) * x.cols + k0..][..cols]);
    }
    for r in 0..dy.rows {
        // Zero-padded like `nn_tile`'s strip.
        let mut xv = [0.0f32; NR];
        xv[..cols].copy_from_slice(&x.row(r)[k0..k0 + cols]);
        for (a, &d) in a.iter_mut().zip(&dy.row(r)[j0..j0 + R]) {
            if !skip_zeros || d != 0.0 {
                for (a, &xv) in a.iter_mut().zip(&xv) {
                    *a += d * xv;
                }
            }
        }
    }
    for (i, a) in a.iter().enumerate() {
        acc[(j0 + i) * x.cols + k0..][..cols].copy_from_slice(&a[..cols]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The kernels as they were before the register tiles, kept as the
    /// references the tiled instances must match bit for bit.
    mod reference {
        use super::Matrix;

        pub fn matmul_nt(x: &Matrix, w: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(x.rows, w.rows);
            const ROW_BLOCK: usize = 16;
            const J_BLOCK: usize = 8;
            for r0 in (0..x.rows).step_by(ROW_BLOCK) {
                let r1 = (r0 + ROW_BLOCK).min(x.rows);
                let mut j0 = 0;
                while j0 + J_BLOCK <= w.rows {
                    let wr: [&[f32]; J_BLOCK] = std::array::from_fn(|i| w.row(j0 + i));
                    let mut r = r0;
                    while r + 2 <= r1 {
                        let xa = x.row(r);
                        let xb = x.row(r + 1);
                        let mut acc_a = [0.0f32; J_BLOCK];
                        let mut acc_b = [0.0f32; J_BLOCK];
                        for (k, (&xav, &xbv)) in xa.iter().zip(xb).enumerate() {
                            for i in 0..J_BLOCK {
                                let wv = wr[i][k];
                                acc_a[i] += xav * wv;
                                acc_b[i] += xbv * wv;
                            }
                        }
                        out.data[r * w.rows + j0..r * w.rows + j0 + J_BLOCK]
                            .copy_from_slice(&acc_a);
                        out.data[(r + 1) * w.rows + j0..(r + 1) * w.rows + j0 + J_BLOCK]
                            .copy_from_slice(&acc_b);
                        r += 2;
                    }
                    if r < r1 {
                        let xr = x.row(r);
                        let mut acc = [0.0f32; J_BLOCK];
                        for (k, &xv) in xr.iter().enumerate() {
                            for (a, wrj) in acc.iter_mut().zip(&wr) {
                                *a += xv * wrj[k];
                            }
                        }
                        out.data[r * w.rows + j0..r * w.rows + j0 + J_BLOCK].copy_from_slice(&acc);
                    }
                    j0 += J_BLOCK;
                }
                for j in j0..w.rows {
                    let wr = w.row(j);
                    for r in r0..r1 {
                        let xr = x.row(r);
                        let mut acc = 0.0f32;
                        for k in 0..xr.len() {
                            acc += xr[k] * wr[k];
                        }
                        out.data[r * w.rows + j] = acc;
                    }
                }
            }
            out
        }

        pub fn matmul_nn(dy: &Matrix, w: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(dy.rows, w.cols);
            for r in 0..dy.rows {
                let d = dy.row(r);
                let o = out.row_mut(r);
                for (j, &d) in d.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    let wr = w.row(j);
                    for k in 0..o.len() {
                        o[k] += d * wr[k];
                    }
                }
            }
            out
        }

        pub fn accumulate_tn(dy: &Matrix, x: &Matrix, acc: &mut Matrix) {
            for r in 0..dy.rows {
                let d = dy.row(r);
                let xr = x.row(r);
                for (j, &d) in d.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    let a = acc.row_mut(j);
                    for k in 0..xr.len() {
                        a[k] += d * xr[k];
                    }
                }
            }
        }
    }

    /// Xavier values with exact `0.0` and `-0.0` at every seventh and
    /// every eleventh element.
    fn with_zeros(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Matrix {
        let mut m = Matrix::xavier(rows, cols, 1.0, rng);
        for (i, v) in m.data.iter_mut().enumerate() {
            if i % 7 == 3 {
                *v = 0.0;
            } else if i % 11 == 5 {
                *v = -0.0;
            }
        }
        m
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// One compiled instance of the three products.
    struct Instance {
        name: &'static str,
        matmul_nt: unsafe fn(&Matrix, &PackedWeights, &mut [f32]),
        matmul_nn: unsafe fn(&Matrix, &Matrix, &mut [f32]),
        accumulate_tn: unsafe fn(&Matrix, &Matrix, &mut [f32]),
    }

    /// The baseline instance, and the AVX2 one when this CPU has it.
    fn instances() -> Vec<Instance> {
        let mut all = vec![Instance {
            name: "baseline",
            matmul_nt: baseline::matmul_nt,
            matmul_nn: baseline::matmul_nn,
            accumulate_tn: baseline::accumulate_tn,
        }];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") {
            all.push(Instance {
                name: "avx2",
                matmul_nt: avx2::matmul_nt,
                matmul_nn: avx2::matmul_nn,
                accumulate_tn: avx2::accumulate_tn,
            });
        }
        all
    }

    /// Every `(batch, inner, outputs)` shape the bit-identity tests run:
    /// batch 1/3/16/17/256 × inner width 7/64/315/512 × outputs
    /// 1/5/14/64/512. An unoptimised build skips shapes over 2^20
    /// multiply-adds, which would take most of a minute there; each
    /// batch still meets every width and every output count.
    fn shapes() -> Vec<(usize, usize, usize)> {
        let mut all = Vec::new();
        for n in [1, 3, 16, 17, 256] {
            for k in [7, 64, 315, 512] {
                for m in [1, 5, 14, 64, 512] {
                    if !cfg!(debug_assertions) || n * k * m <= 1 << 20 {
                        all.push((n, k, m));
                    }
                }
            }
        }
        all
    }

    #[test]
    fn tiled_matmul_nt_is_bit_identical_to_the_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        for (n, k, m) in shapes() {
            let x = with_zeros(n, k, &mut rng);
            let w = Matrix::xavier(m, k, 1.0, &mut rng);
            let want = bits(&reference::matmul_nt(&x, &w).data);
            let w = PackedWeights::new(w);
            let shape = format!("n {n}, in {k}, out {m}");
            assert_eq!(bits(&x.matmul_nt(&w).data), want, "matmul_nt: {shape}");
            for inst in instances() {
                // Stale contents must be overwritten.
                let mut out = vec![f32::NAN; n * m];
                // SAFETY: `instances` lists the AVX2 instance only when
                // this CPU supports AVX2.
                unsafe { (inst.matmul_nt)(&x, &w, &mut out) };
                assert_eq!(bits(&out), want, "{} matmul_nt: {shape}", inst.name);
            }
        }
    }

    #[test]
    fn tiled_matmul_nn_is_bit_identical_to_the_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        for (n, k, m) in shapes() {
            let dy = with_zeros(n, m, &mut rng);
            let mut w = Matrix::xavier(m, k, 1.0, &mut rng);
            // A zero factor must skip this weight, not turn it into NaN.
            w.data[m / 2 * k + k / 2] = f32::INFINITY;
            let want = bits(&reference::matmul_nn(&dy, &w).data);
            let shape = format!("n {n}, in {k}, out {m}");
            assert_eq!(bits(&dy.matmul_nn(&w).data), want, "matmul_nn: {shape}");
            for inst in instances() {
                let mut out = vec![0.0; n * k];
                // SAFETY: as in the forward test.
                unsafe { (inst.matmul_nn)(&dy, &w, &mut out) };
                assert_eq!(bits(&out), want, "{} matmul_nn: {shape}", inst.name);
            }
        }
    }

    #[test]
    fn tiled_accumulate_tn_is_bit_identical_to_the_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        for (n, k, m) in shapes() {
            let dy = with_zeros(n, m, &mut rng);
            let x = with_zeros(n, k, &mut rng);
            // A non-zero accumulator, `-0.0` entries included, gains the
            // batch twice.
            let acc0 = with_zeros(m, k, &mut rng);
            let mut want = acc0.clone();
            reference::accumulate_tn(&dy, &x, &mut want);
            reference::accumulate_tn(&dy, &x, &mut want);
            let want = bits(&want.data);
            let shape = format!("n {n}, in {k}, out {m}");
            let mut acc = acc0.clone();
            dy.accumulate_tn(&x, &mut acc);
            dy.accumulate_tn(&x, &mut acc);
            assert_eq!(bits(&acc.data), want, "accumulate_tn: {shape}");
            for inst in instances() {
                let mut acc = acc0.data.clone();
                // SAFETY: as in the forward test.
                unsafe {
                    (inst.accumulate_tn)(&dy, &x, &mut acc);
                    (inst.accumulate_tn)(&dy, &x, &mut acc);
                }
                assert_eq!(bits(&acc), want, "{} accumulate_tn: {shape}", inst.name);
            }
        }
    }

    #[test]
    fn matmul_nt_small() {
        // x = [[1,2],[3,4]], w = [[1,0],[0,1],[1,1]] (3 outputs)
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let w = PackedWeights::new(Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]));
        let y = x.matmul_nt(&w);
        assert_eq!(y.data, vec![1.0, 2.0, 3.0, 3.0, 4.0, 7.0]);
    }

    #[test]
    fn matmul_nn_is_transpose_consistent() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let x = Matrix::xavier(4, 3, 1.0, &mut rng);
        let w = PackedWeights::new(Matrix::xavier(5, 3, 1.0, &mut rng));
        // (x · wᵀ) · w == x · (wᵀw); just check shapes and one entry by hand.
        let y = x.matmul_nt(&w);
        let back = y.matmul_nn(&w);
        assert_eq!(back.rows, 4);
        assert_eq!(back.cols, 3);
        let mut expect = 0.0f32;
        for j in 0..5 {
            expect += y.get(0, j) * w.get(j, 0);
        }
        assert!((back.get(0, 0) - expect).abs() < 1e-5);
    }

    #[test]
    fn accumulate_tn_matches_manual_outer_product() {
        let dy = Matrix::from_vec(1, 2, vec![2.0, -1.0]);
        let x = Matrix::from_vec(1, 3, vec![1.0, 0.5, -2.0]);
        let mut acc = Matrix::zeros(2, 3);
        dy.accumulate_tn(&x, &mut acc);
        assert_eq!(acc.data, vec![2.0, 1.0, -4.0, -1.0, -0.5, 2.0]);
        // Accumulation adds.
        dy.accumulate_tn(&x, &mut acc);
        assert_eq!(acc.get(0, 0), 4.0);
    }

    #[test]
    fn tanh_backward_matches_derivative() {
        let x = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        let y = x.tanh();
        let dy = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let dx = Matrix::tanh_backward(&dy, &y);
        for i in 0..3 {
            let t = crate::tanh::tanhf(x.data[i]);
            assert!((dx.data[i] - (1.0 - t * t)).abs() < 1e-6);
        }
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let m = Matrix::xavier(64, 64, 1.0, &mut rng);
        let limit = (6.0f32 / 128.0).sqrt();
        assert!(m.data.iter().all(|v| v.abs() <= limit));
        // Not degenerate.
        assert!(m.data.iter().any(|v| v.abs() > limit / 10.0));
    }

    #[test]
    fn from_rows_stacks() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows, 2);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_nt_into_reuses_buffer_bit_identically() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x = Matrix::xavier(4, 6, 1.0, &mut rng);
        let w = PackedWeights::new(Matrix::xavier(5, 6, 1.0, &mut rng));
        let fresh = x.matmul_nt(&w);
        // A stale, differently-shaped buffer must be fully overwritten.
        let mut buf = Matrix::from_vec(1, 2, vec![9.0, 9.0]);
        x.matmul_nt_into(&w, &mut buf);
        assert_eq!(buf, fresh);
        // And tanh_inplace matches tanh.
        let mut t = fresh.clone();
        t.tanh_inplace();
        assert_eq!(t, fresh.tanh());
    }

    #[test]
    fn packed_weights_serialise_as_their_matrix_and_repack_on_update() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let x = Matrix::xavier(3, 20, 1.0, &mut rng);
        let w = Matrix::xavier(21, 20, 1.0, &mut rng);
        let mut packed = PackedWeights::new(w.clone());
        let json = serde_json::to_string(&packed).unwrap();
        assert_eq!(json, serde_json::to_string(&w).unwrap());
        let loaded: PackedWeights = serde_json::from_str(&json).unwrap();
        assert_eq!(x.matmul_nt(&loaded), x.matmul_nt(&packed));
        // A write through `update` reaches the panels.
        let w2 = Matrix::xavier(21, 20, 1.0, &mut rng);
        packed.update(|w| w.data.copy_from_slice(&w2.data));
        assert_eq!(x.matmul_nt(&packed), x.matmul_nt(&PackedWeights::new(w2)));
        // A `data` of the wrong length is refused, not packed.
        let short = r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0]}"#;
        assert!(serde_json::from_str::<PackedWeights>(short).is_err());
    }

    #[test]
    fn reset_and_push_row_assemble_batches() {
        let mut m = Matrix::default();
        m.reset(3);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m, Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
        // Reset keeps the allocation but clears the contents.
        m.reset(2);
        assert_eq!(m.rows, 0);
        m.push_row(&[7.0, 8.0]);
        assert_eq!(m.row(0), &[7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_row_checks_width() {
        let mut m = Matrix::default();
        m.reset(2);
        m.push_row(&[1.0]);
    }
}
