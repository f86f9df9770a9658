//! A minimal dense neural-network library for the NeuroCuts policy.
//!
//! The paper's model (Appendix B) is a fully-connected network with two
//! tanh hidden layers shared between the policy heads and the value
//! function. That topology is small and fixed, so instead of pulling in
//! a tensor framework we implement exactly what is needed with
//! hand-derived reverse-mode gradients:
//!
//! * [`Matrix`] — a row-major `f32` matrix with the handful of BLAS-like
//!   kernels the model needs, and [`PackedWeights`], a weight matrix
//!   with the forward's panels packed once per change (the activation,
//!   `tanh`, is the crate's own port of fdlibm's `tanhf`);
//! * [`Linear`] — an affine layer with gradient accumulation and Adam
//!   state;
//! * [`categorical`] — masked categorical distributions over logits
//!   (sampling, log-probabilities, entropy, and their gradients);
//! * [`PolicyValueNet`] — the shared-trunk two-head policy + value
//!   network, with `forward` / `backward` / `adam_step`, plus the
//!   allocation-free batched inference path ([`InferBuffer`] /
//!   [`PolicyValueNet::infer`]) that the vectorised rollout collector
//!   drives with one matrix-matrix pass per environment step.
//!
//! Every gradient path is covered by finite-difference checks in the
//! test suite, and the batched inference path is proven bit-identical
//! to the scalar one.

#![warn(missing_docs)]

pub mod adam;
pub mod categorical;
pub mod linear;
pub mod matrix;
pub mod policy_value;
mod tanh;

pub use adam::AdamConfig;
pub use categorical::MaskedCategorical;
pub use linear::Linear;
pub use matrix::{Matrix, PackedWeights};
pub use policy_value::{ForwardCache, InferBuffer, NetConfig, PolicyValueNet};
