//! `tanh` for `f32`: a port of fdlibm's `tanhf` and `expm1f`, the
//! algorithm glibc's `tanhf` runs on x86-64 (`sysdeps/ieee754/flt-32`:
//! plain SSE, no fused multiply-add), so the network's activations have
//! the bits they had when the forward called `f32::tanh` there, on any
//! host and any libm.
//!
//! [`tanhf`] is the scalar reference the tests hold the lane-wise body
//! to: fdlibm's branches, operation for operation. [`tanh_lanes`]
//! computes the same function on a group of lanes without branches:
//! every lane runs every path on its own value and a select keeps the
//! result of the path `tanhf` would take, so the lane loop vectorises.
//! It is compiled into the baseline and AVX2 instances of `nn::matrix`
//! next to the matmul kernels, and `Matrix::tanh_inplace` runs it. The
//! two agree on all 2^32 inputs (an ignored test sweeps them all).
//!
//! `tanhf` calls `expm1f` only with `2|x|` for `1 <= |x| < 22` and with
//! `-2|x|` for `|x| < 1`, so this port keeps just the `expm1f` paths
//! those arguments reach: no NaN, infinity, overflow or `-1` saturation,
//! and never the reduction's `k = 1` or `k = 128` cases.

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// fdlibm's `tiny`: `1 - TINY` rounds to 1 and raises inexact.
const TINY: f32 = 1.0e-30;

/// `|x|` bits at and above which `tanhf` returns `±1` (`|x| >= 22`).
const SATURATED: u32 = 0x41b0_0000;
/// `|x|` bits below which `tanhf` returns `x·(1 + x)` (`|x| < 2^-55`).
const TINY_X: u32 = 0x2400_0000;
/// `|x|` bits of 1: `tanhf`'s split between `expm1f(2|x|)` and
/// `expm1f(-2|x|)`.
const ONE: u32 = 0x3f80_0000;
/// `expm1f`: `|x|` bits above `0.5·ln2` are reduced by `k·ln2`...
const REDUCE: u32 = 0x3eb1_7218;
/// ... with `k = ±1` below `1.5·ln2` ...
const REDUCE_ONE: u32 = 0x3f85_1592;
/// ... and `|x| < 2^-25` returns `x`.
const TINY_EXPM1: u32 = 0x3300_0000;

/// fdlibm's `tanhf`.
#[cfg(test)]
pub(crate) fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let positive = jx >> 31 == 0;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if positive { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
    }
    let z = if ix < SATURATED {
        if ix == 0 {
            return x;
        }
        if ix < TINY_X {
            return x * (1.0 + x);
        }
        if ix >= ONE {
            let t = expm1f(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY
    };
    if positive {
        z
    } else {
        -z
    }
}

/// fdlibm's `expm1f` on the arguments [`tanhf`] passes: `[2, 44)` and
/// `(-2, -2^-54]`.
#[cfg(test)]
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let positive = x.to_bits() >> 31 == 0;
    let (x, c, k) = if hx > REDUCE {
        let (hi, lo, k) = if hx < REDUCE_ONE {
            if positive {
                (x - LN2_HI, LN2_LO, 1)
            } else {
                (x + LN2_HI, -LN2_LO, -1)
            }
        } else {
            let k = (INVLN2 * x + if positive { 0.5 } else { -0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < TINY_EXPM1 {
        return x;
    } else {
        (x, 0.0, 0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k <= -2 || k > 56 {
        return add_exponent(1.0 - (e - x), k) - 1.0;
    }
    if k < 23 {
        // 1 - 2^-k
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
        add_exponent(t - (e - x), k)
    } else {
        // 2^-k
        let t = f32::from_bits(((0x7f - k) << 23) as u32);
        add_exponent(x - (e + t) + 1.0, k)
    }
}

/// `y · 2^k` by adding `k` to the exponent field, as fdlibm does.
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

/// [`tanhf`] of every element of `v`, `L` lanes at a time and without
/// branches; a short tail runs as one zero-padded group. Bit-identical to
/// [`tanhf`] on every input.
// nc-lint: kernel
#[inline(always)]
pub(crate) fn tanh_lanes<const L: usize>(v: &mut [f32]) {
    let mut groups = v.chunks_exact_mut(L);
    for group in &mut groups {
        for x in group {
            *x = tanh_lane(*x);
        }
    }
    let tail = groups.into_remainder();
    if !tail.is_empty() {
        let mut lanes = [0.0f32; L];
        lanes[..tail.len()].copy_from_slice(tail);
        for x in &mut lanes {
            *x = tanh_lane(*x);
        }
        tail.copy_from_slice(&lanes[..tail.len()]);
    }
}

/// One lane of [`tanh_lanes`]: every `if` below picks between two values
/// already computed, so it compiles to a select, not a branch.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let bits = x.to_bits();
    let ix = bits & 0x7fff_ffff;
    // Lanes that `tanhf` settles without `expm1f` run it on 1.0, so
    // their intermediates stay finite and their `k` in range.
    let a = if ix < SATURATED { f32::from_bits(ix) } else { 1.0 };
    let big = ix >= ONE;
    // `2|x|` or `-2|x|`, the sign set by a bit: written as a select
    // between the two, it compiles `expm1_lane` twice, once per sign.
    let sign = u32::from(!big) << 31;
    // SAFETY: `a < 22`, so the argument is finite and below 44 in size.
    let t = unsafe { expm1_lane(f32::from_bits((2.0 * a).to_bits() | sign)) };
    // `1 - 2/(t + 2)` and `-t/(t + 2)` share their divisor.
    let num = if big { 2.0 } else { -t };
    let q = num / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    let z = if ix < SATURATED { z } else { 1.0 - TINY };
    // `z > 0`, so setting the sign bit is `tanhf`'s `-z`.
    let z = f32::from_bits(z.to_bits() | (bits & 0x8000_0000));
    // `x·(1 + x)` is also `tanhf`'s `x` at ±0, and `x + x` its NaN.
    let z = if ix < TINY_X { x * (1.0 + x) } else { z };
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

/// [`expm1f`] of one lane, branch-free, on the same arguments.
///
/// # Safety
/// `x` must be finite with `|x| < 44`, as [`expm1f`]'s arguments are.
#[inline(always)]
unsafe fn expm1_lane(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let positive = x.to_bits() >> 31 == 0;
    // ±0.5 with the sign of `x`.
    let half = f32::from_bits(0x3f00_0000 | (x.to_bits() & 0x8000_0000));
    // SAFETY: `|x| < 44` (the caller's contract), so this is a finite
    // value in `(-64, 64)`, in range for `i32`. The saturating `as i32`
    // costs the lane loop a third of its speed.
    let kr: i32 = unsafe { (INVLN2 * x + half).to_int_unchecked() };
    let k = if hx <= REDUCE {
        0
    } else if hx >= REDUCE_ONE {
        kr
    } else if positive {
        1
    } else {
        -1
    };
    // With `t = ±1` these are `x ∓ ln2_hi` and `±ln2_lo` exactly, and
    // with `t = 0` they leave `r = x` and `c = 0`.
    let t = k as f32;
    let hi = x - t * LN2_HI;
    let lo = t * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let y_zero = r - (r * e - hxs);
    let e = (r * (e - c) - c) - hxs;
    let y_minus_one = 0.5 * (r - e) - 0.5;
    let y_far = add_exponent(1.0 - (e - r), k) - 1.0;
    // 2^-k; `1 - 2^-k` is exact for the `k < 23` it is used at.
    let p = f32::from_bits(((0x7f - k) << 23) as u32);
    let y_low = add_exponent((1.0 - p) - (e - r), k);
    let y_high = add_exponent(r - (e + p) + 1.0, k);
    let y = if k == 0 {
        y_zero
    } else if k == -1 {
        y_minus_one
    } else if k <= -2 || k > 56 {
        y_far
    } else if k < 23 {
        y_low
    } else {
        y_high
    };
    if hx < TINY_EXPM1 {
        x
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Equal bits, or NaN both: NaN payloads are the hardware's, not the
    /// port's.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// A compiled instance's lane-wise `tanh`.
    type LaneTanh = unsafe fn(&mut [f32]);

    /// The lane-wise `tanh` of each compiled instance: the baseline one,
    /// and the AVX2 one when this CPU has it.
    fn instances() -> Vec<(&'static str, LaneTanh)> {
        let mut all: Vec<(&'static str, LaneTanh)> =
            vec![("baseline", crate::matrix::baseline::tanh)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") {
            all.push(("avx2", crate::matrix::avx2::tanh));
        }
        all
    }

    /// Check every instance against [`tanhf`] on `xs`.
    fn check_lanes(xs: &[f32]) {
        for (name, tanh) in instances() {
            let mut got = xs.to_vec();
            // SAFETY: `instances` lists the AVX2 instance only when this
            // CPU supports AVX2.
            unsafe { tanh(&mut got) };
            for (&x, &y) in xs.iter().zip(&got) {
                let want = tanhf(x);
                assert!(
                    same(y, want),
                    "{name}: tanh({:#010x}) = {:#010x}, port {:#010x}",
                    x.to_bits(),
                    y.to_bits(),
                    want.to_bits()
                );
            }
        }
    }

    /// A strided sweep over all bit patterns; every branch threshold of
    /// `tanhf` and of `expm1f` (on `|x|`, half its argument) ±2 ulps;
    /// windows around the reduction's `k` boundaries that select among
    /// `expm1f`'s final paths; ±0, subnormals, ±inf and NaNs. Both signs.
    fn sweep() -> Vec<f32> {
        let mut bits: Vec<u32> = (0..=u32::MAX).step_by(65_537).collect();
        let halve = |t: u32| t - 0x0080_0000;
        let thresholds = [
            0,
            1,
            0x007f_ffff,
            0x0080_0000,
            TINY_X,
            ONE,
            SATURATED,
            0x7f80_0000,
            0x7f80_0001,
            0x7fc0_0000,
            0x7fff_ffff,
            halve(REDUCE),
            halve(REDUCE_ONE),
            halve(TINY_EXPM1),
            halve(0x4195_b844),
        ];
        let mut push = |b: u32, d: i32| {
            let b = b.wrapping_add_signed(d);
            bits.extend([b, b ^ 0x8000_0000]);
        };
        for t in thresholds {
            (-2..=2).for_each(|d| push(t, d));
        }
        // `k` = -3, 23 and 57 begin near `|x| = (k - 0.5)·ln2/2`.
        for k in [3.0f32, 23.0, 57.0] {
            let b = ((k - 0.5) * std::f32::consts::LN_2 / 2.0).to_bits();
            (-64..=64).for_each(|d| push(b, d));
        }
        bits.into_iter().map(f32::from_bits).collect()
    }

    #[test]
    fn lanes_match_the_scalar_port_on_the_sweep() {
        let xs = sweep();
        check_lanes(&xs);
        // Every tail length, each lane position holding a threshold.
        for n in 1..=9 {
            for start in (0..xs.len() - n).step_by(997) {
                check_lanes(&xs[start..start + n]);
            }
        }
    }

    #[test]
    fn scalar_port_is_pinned_on_the_sweep() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in sweep() {
            let y = tanhf(x);
            let bits = if y.is_nan() { 0x7fc0_0000 } else { y.to_bits() };
            for b in bits.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0xb343_bbd8_1294_1a11);
    }

    #[test]
    fn port_keeps_tanh_identities() {
        assert_eq!(tanhf(0.0).to_bits(), 0);
        assert_eq!(tanhf(-0.0).to_bits(), 0x8000_0000);
        assert_eq!(tanhf(f32::INFINITY), 1.0);
        assert_eq!(tanhf(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanhf(22.0), 1.0);
        assert!(tanhf(f32::NAN).is_nan());
        let tiny = f32::from_bits(1);
        assert_eq!(tanhf(tiny), tiny);
        for x in [0.1f32, 0.5, 1.0, 2.5, 9.0] {
            assert_eq!(tanhf(-x), -tanhf(x));
            let want = f64::from(x).tanh();
            assert!((f64::from(tanhf(x)) - want).abs() <= want * 2e-7, "tanh({x})");
        }
    }

    #[test]
    #[ignore = "all 2^32 inputs: about 90 s on two threads optimised, hours unoptimised"]
    fn lanes_match_the_scalar_port_on_every_input() {
        const BLOCK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let end = ((t + 1) * span).min(1 << 32);
                    let mut xs = Vec::with_capacity(BLOCK as usize);
                    for start in (t * span..end).step_by(BLOCK as usize) {
                        xs.clear();
                        xs.extend(
                            (start..end.min(start + BLOCK)).map(|b| f32::from_bits(b as u32)),
                        );
                        check_lanes(&xs);
                    }
                });
            }
        });
    }
}
