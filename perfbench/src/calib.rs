//! Host-speed calibration: a fixed reference kernel timed around every
//! timed stretch of a run, by which the stretch's timings are scaled.
//!
//! A shared host runs its guests at a speed that drifts by a third over
//! minutes, even in CPU time: neighbours on the same cores, caches and
//! memory slow every instruction. On a 2-vCPU Xeon VM five consecutive
//! runs of one workload and one binary moved all their timings together,
//! serving, updates, recovery and training by factors of 1.28 to 1.44
//! from the first run to the last. No run length averages that out. The
//! reference kernel here does fixed work that no code of the repository
//! touches — a float matrix-vector product within L2, a sum streamed
//! from beyond L2 and an integer hash within L1, the kinds of work the
//! workloads do — so its time tracks the host alone. A sample runs the
//! kernel for a few milliseconds and keeps its settled pass time, so
//! that what the phase before it left in the caches does not count.
//! Samples are taken before and after every timed stretch of a run (a
//! serving stretch of at most half a second, a cycle's churn rounds, a
//! recovery, a training run, a set-up), and the stretch's timings are
//! divided by the mean of its two samples over [`NOMINAL_NS`]: the
//! host's slowness around it. That expresses them at the nominal host
//! speed, and it tracks the host's fast and slow spells within a run as
//! well as between runs. The records keep the reference samples.

use crate::cpu;

/// A typical settled pass time on a 2-vCPU Intel Xeon (family 6, model
/// 143) KVM guest (0.7 to 1.1 ms as its host's load varies). Only
/// ratios to it matter.
pub const NOMINAL_NS: f64 = 0.8e6;

/// Side of the square matrix (1 MiB of `f32`, within L2).
const SIDE: usize = 512;
/// Matrix-vector products per pass.
const PRODUCTS: usize = 2;
/// Words of the streamed buffer (8 MiB of `u32`, beyond L2).
const STREAM: usize = 1 << 21;
/// Integer hash rounds per pass (registers and L1 only).
const HASHES: usize = 1 << 17;
/// CPU time one sample runs passes for, in ns.
const SAMPLE_NS: u64 = 12_000_000;
/// Passes a sample runs at least.
const MIN_PASSES: usize = 4;

/// The reference kernel's state, built once.
pub struct Reference {
    matrix: Vec<f32>,
    vector: Vec<f32>,
    stream: Vec<u32>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Reference {
    /// Build the kernel's inputs from a fixed seed.
    pub fn new() -> Reference {
        let mut state = 0x5eed;
        let matrix =
            (0..SIDE * SIDE).map(|_| (splitmix(&mut state) % 2001) as f32 / 1000.0 - 1.0).collect();
        let stream = (0..STREAM).map(|_| splitmix(&mut state) as u32).collect();
        Reference { matrix, vector: vec![1.0 / SIDE as f32; SIDE], stream }
    }

    /// One pass of fixed work; the result only keeps it from being
    /// optimised away.
    pub fn run(&mut self) -> u64 {
        let mut next = vec![0.0f32; SIDE];
        for _ in 0..PRODUCTS {
            for (out, row) in next.iter_mut().zip(self.matrix.chunks_exact(SIDE)) {
                *out = row.iter().zip(&self.vector).map(|(a, b)| a * b).sum();
            }
            let norm = next.iter().map(|x| x.abs()).sum::<f32>().max(1e-6);
            for (v, n) in self.vector.iter_mut().zip(&next) {
                *v = n / norm;
            }
        }
        let sum = self.stream.iter().fold(0u32, |a, &w| a.wrapping_add(w));
        let mut state = u64::from(sum);
        for _ in 0..HASHES {
            splitmix(&mut state);
        }
        state ^ u64::from(self.vector[0].to_bits())
    }
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

/// Reference samples of one run.
#[derive(Default)]
pub struct Calibration {
    reference: Option<Reference>,
    samples: Vec<f64>,
}

impl Calibration {
    /// Run reference passes for [`SAMPLE_NS`] of this thread's CPU time
    /// (at least [`MIN_PASSES`]) and keep the median time of the second
    /// half of them: a sample of the host's speed. The first half brings
    /// the kernel's data back into the caches that the phase before it
    /// filled with its own. Returns the host's slowness: the sample over
    /// [`NOMINAL_NS`] (above 1 on a slower host).
    pub fn sample(&mut self) -> f64 {
        let reference = self.reference.get_or_insert_with(Reference::new);
        let started = cpu::thread_ns();
        let mut passes = Vec::new();
        while passes.len() < MIN_PASSES || cpu::thread_ns() - started < SAMPLE_NS {
            let t0 = cpu::thread_ns();
            std::hint::black_box(reference.run());
            passes.push((cpu::thread_ns() - t0) as f64);
        }
        let ns = crate::stats::median(&passes[passes.len() / 2..]);
        self.samples.push(ns);
        ns / NOMINAL_NS
    }

    /// Every sample, in ns.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert_eq!(a.run(), b.run());
        assert_eq!(a.run(), b.run());
    }

    #[test]
    fn a_sample_is_a_settled_pass_over_nominal() {
        let mut c = Calibration::default();
        let slowness = c.sample();
        assert_eq!(c.samples().len(), 1);
        assert_eq!(slowness, c.samples()[0] / NOMINAL_NS);
        assert!(slowness > 0.0);
    }
}
