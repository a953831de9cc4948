//! Numerically stable kernels shared by the model and the hardware simulator.
//!
//! The EdgeBERT special function unit (SFU) reformulates softmax and entropy
//! to avoid overflow and division (paper §7.4.1–7.4.2). The same
//! formulations are used here so software results match what the modelled
//! hardware computes:
//!
//! * softmax via the combined *max trick* + *log-sum-exp trick*
//!   (Eq. 2): `SM(a_k) = exp(a_k - max - ln Σ exp(a_j - max))`
//! * entropy via Eq. (3):
//!   `H(x) = ln Σ e^{x_k - max} + max - Σ x_k e^{x_k - max} / Σ e^{x_k - max}`
//!
//! Eq. 2 costs two `exp` a score where a software softmax would take one
//! and divide. That is the paper's SFU formulation, kept on purpose: the
//! hardware model prices it, and the entropy exit and every loss stand on
//! its bits. These functions call the host's `exp` and `ln`.
//!
//! GELU does not: [`tanh`] is written here as plain IEEE `f32` arithmetic
//! with its coefficients in the source, so the activation's bits are the
//! same on every host and at every optimisation level, and a loop over it
//! is one the compiler can vectorise. Its contract:
//!
//! * within 2 ulp of the host's `f32::tanh` on `[-10, 10]` (within 1 ulp
//!   of the correctly rounded value on every `f32` there), monotone
//!   non-decreasing, exactly odd, `|tanh(x)| <= 1`;
//! * `±0 → ±0`, a subnormal returns itself, `|x| >= 9.02` and `±∞` give
//!   exactly `±1`, NaN gives NaN;
//! * the slice kernels ([`gelu_in_place`], [`gelu_into`],
//!   [`gelu_grad_mul_in_place`]) are loops over the scalar [`gelu`] and
//!   [`gelu_grad`] and nothing else, so every element equals the scalar
//!   result bit for bit whatever the lane width.

use crate::matrix::Matrix;

/// Numerically stable `ln Σ exp(x_k)`.
///
/// Returns negative infinity for an empty slice (the sum of zero terms).
///
/// # Example
///
/// ```
/// use edgebert_tensor::logsumexp;
/// let lse = logsumexp(&[1000.0, 1000.0]);
/// assert!((lse - (1000.0 + (2.0f32).ln())).abs() < 1e-3);
/// ```
pub fn logsumexp(x: &[f32]) -> f32 {
    let max = match x
        .iter()
        .cloned()
        .fold(None, |m: Option<f32>, v| Some(m.map_or(v, |m| m.max(v))))
    {
        Some(m) => m,
        None => return f32::NEG_INFINITY,
    };
    if max.is_infinite() {
        return max;
    }
    let sum: f32 = x.iter().map(|&v| (v - max).exp()).sum();
    max + sum.ln()
}

/// Stable softmax of a logit slice, writing the result in place.
///
/// Uses the SFU's max + log-sum-exp formulation (paper Eq. 2), which never
/// divides: `p_k = exp(x_k - max - logsumexp)`.
///
/// # Example
///
/// ```
/// use edgebert_tensor::softmax_inplace;
/// let mut x = [1.0f32, 2.0, 3.0];
/// softmax_inplace(&mut x);
/// let s: f32 = x.iter().sum();
/// assert!((s - 1.0).abs() < 1e-5);
/// ```
pub fn softmax_inplace(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let lse = logsumexp(x);
    if lse.is_infinite() {
        // All mass on the (first) max element; mirrors saturation behaviour.
        let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut assigned = false;
        for v in x.iter_mut() {
            #[allow(
                clippy::float_cmp,
                reason = "`max` is an element of `x`: `==` finds it exactly"
            )]
            if !assigned && *v == max {
                *v = 1.0;
                assigned = true;
            } else {
                *v = 0.0;
            }
        }
        return;
    }
    for v in x.iter_mut() {
        *v = (*v - lse).exp();
    }
}

/// Stable log-softmax of a logit slice.
pub fn log_softmax(x: &[f32]) -> Vec<f32> {
    let lse = logsumexp(x);
    x.iter().map(|&v| v - lse).collect()
}

/// Entropy (nats) of the categorical distribution induced by logits `x`,
/// computed with the numerically stable formulation of paper Eq. (3).
///
/// The early-exit condition of Algorithm 1/2 is `entropy(z) < E_T`.
/// Bounded by `ln(n)` for `n` classes.
///
/// # Example
///
/// ```
/// use edgebert_tensor::entropy;
/// // Uniform logits give maximal entropy ln(4).
/// let h = entropy(&[0.0, 0.0, 0.0, 0.0]);
/// assert!((h - (4.0f32).ln()).abs() < 1e-5);
/// // A confident distribution has near-zero entropy.
/// assert!(entropy(&[20.0, 0.0, 0.0, 0.0]) < 1e-3);
/// ```
pub fn entropy(x: &[f32]) -> f32 {
    if x.len() <= 1 {
        return 0.0;
    }
    let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum_exp = 0.0f32;
    let mut sum_xexp = 0.0f32;
    for &v in x {
        let e = (v - max).exp();
        sum_exp += e;
        sum_xexp += v * e;
    }
    // Eq. (3): ln(Σ e^{x-max}) + max - Σ x e^{x-max} / Σ e^{x-max}
    let h = sum_exp.ln() + max - sum_xexp / sum_exp;
    // Clamp tiny negative values produced by rounding.
    h.max(0.0)
}

/// Applies stable softmax to every row of `m` in place.
pub fn softmax_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        softmax_inplace(m.row_mut(r));
    }
}

/// `exp(x)` for `0 <= x <= 20`, the range [`tanh`]'s tail feeds it
/// (Cephes `expf`): `x = n ln 2 + r` with `ln 2` split in two so that
/// `x - n LN2_HI` is exact, a degree-5 polynomial on `|r| <= ln 2 / 2`,
/// and `2^n` assembled from the bits of the rounding constant's sum.
/// Within 1 ulp of the correctly rounded value and monotone there.
#[inline]
fn exp(x: f32) -> f32 {
    // 1.5 * 2^23: adding it rounds to the nearest integer and leaves
    // that integer in the low mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let shifted = x * std::f32::consts::LOG2_E + ROUND;
    let n = shifted - ROUND;
    let r = x - n * LN2_HI - n * LN2_LO;
    let p = 1.987_569_1e-4;
    let p = p * r + 1.398_199_9e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_6e-1;
    let p = p * r + 0.5;
    let two_n = f32::from_bits(shifted.to_bits().wrapping_add(127) << 23);
    (p * (r * r) + r + 1.0) * two_n
}

/// Where [`tanh`] hands over from its polynomial to its exponential form.
const TANH_SEAM: f32 = 0.625;
/// Where [`tanh`] stops reading its argument; the result is exactly 1
/// from 9.011 on.
const TANH_CLAMP: f32 = 10.0;

/// Hyperbolic tangent in IEEE `f32` arithmetic alone (the module doc
/// states the contract).
///
/// Both forms are evaluated on `|x|` and one is selected, so there is no
/// branch: below 0.625 an odd polynomial (Cephes `tanhf`), from there on
/// `1 - 2 / (exp(2|x|) + 1)`, whose argument is clamped at 10, where the
/// result has long been exactly 1.
///
/// # Example
///
/// ```
/// use edgebert_tensor::kernels::tanh;
/// assert!((tanh(0.5) - 0.462_117_16).abs() < 1e-7);
/// assert_eq!(tanh(-20.0), -1.0);
/// ```
#[inline]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let z = a * a;
    let p = -5.704_988_7e-3;
    let p = p * z + 2.063_908_8e-2;
    let p = p * z - 5.373_971_5e-2;
    let p = p * z + 1.333_144_2e-1;
    let p = p * z - 3.333_328e-1;
    let near_zero = p * z * a + a;
    // A comparison, not `min`: NaN must reach the result.
    let clamped = if a > TANH_CLAMP { TANH_CLAMP } else { a };
    let tail = 1.0 - 2.0 / (exp(2.0 * clamped) + 1.0);
    (if a < TANH_SEAM { near_zero } else { tail }).copysign(x)
}

/// `sqrt(2 / pi)`.
const GELU_SCALE: f32 = 0.797_884_6;
/// The cubic coefficient of the `tanh` approximation of GELU.
const GELU_CUBIC: f32 = 0.044_715;

/// The argument of GELU's `tanh`, rounded one way for [`gelu`] and
/// [`gelu_grad`] alike.
#[inline]
fn gelu_inner(x: f32) -> f32 {
    GELU_SCALE * (x + GELU_CUBIC * x * x * x)
}

/// GELU activation (tanh approximation, as used by BERT/ALBERT).
#[inline]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh(gelu_inner(x)))
}

/// Derivative of [`gelu`] with respect to its input.
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    let t = tanh(gelu_inner(x));
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_SCALE * (1.0 + 3.0 * GELU_CUBIC * x * x)
}

/// [`gelu`] of every element, in place.
// analyzer: hot-path
pub fn gelu_in_place(xs: &mut [f32]) {
    for x in xs {
        *x = gelu(*x);
    }
}

/// [`gelu`] of every element of `x`, written to the equally long `out`.
// analyzer: hot-path
pub fn gelu_into(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, &x) in out.iter_mut().zip(x) {
        *o = gelu(x);
    }
}

/// The backward of an element-wise GELU: `dy[i] *= gelu_grad(x[i])` over
/// two equally long slices.
// analyzer: hot-path
pub fn gelu_grad_mul_in_place(x: &[f32], dy: &mut [f32]) {
    debug_assert_eq!(x.len(), dy.len());
    for (d, &x) in dy.iter_mut().zip(x) {
        *d *= gelu_grad(x);
    }
}

/// ReLU activation.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_softmax(x: &[f32]) -> Vec<f32> {
        let sum: f32 = x.iter().map(|v| v.exp()).sum();
        x.iter().map(|v| v.exp() / sum).collect()
    }

    #[test]
    fn logsumexp_matches_naive_for_small_values() {
        let x = [0.1f32, -0.3, 0.7, 1.2];
        let naive = x.iter().map(|v| v.exp()).sum::<f32>().ln();
        assert!((logsumexp(&x) - naive).abs() < 1e-5);
    }

    #[test]
    fn logsumexp_survives_large_values() {
        let lse = logsumexp(&[10_000.0, 10_000.0]);
        assert!(lse.is_finite());
        assert!((lse - (10_000.0 + 2.0f32.ln())).abs() < 1e-2);
    }

    #[test]
    fn logsumexp_empty_is_neg_inf() {
        assert_eq!(logsumexp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn softmax_matches_naive() {
        let mut x = [0.3f32, -1.0, 2.0, 0.0];
        let expect = naive_softmax(&x);
        softmax_inplace(&mut x);
        for (a, b) in x.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_sums_to_one_even_when_saturated() {
        let mut x = [f32::NEG_INFINITY, f32::NEG_INFINITY, 5.0];
        softmax_inplace(&mut x);
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(x[2], 1.0);
    }

    #[test]
    fn entropy_stable_matches_probability_form() {
        let logits = [0.2f32, -0.5, 1.3, 0.0, 2.2];
        let probs = naive_softmax(&logits);
        let h_ref = -probs.iter().map(|&p| p * p.ln()).sum::<f32>();
        assert!((entropy(&logits) - h_ref).abs() < 1e-4);
    }

    #[test]
    fn entropy_bounds() {
        // Uniform distribution attains the ln(n) bound.
        let h = entropy(&[3.0; 7]);
        assert!((h - (7.0f32).ln()).abs() < 1e-4);
        // Point mass attains zero.
        assert!(entropy(&[50.0, 0.0]) < 1e-4);
        // Degenerate one-class case.
        assert_eq!(entropy(&[1.2]), 0.0);
    }

    #[test]
    fn entropy_is_shift_invariant() {
        let a = entropy(&[1.0, 2.0, 3.0]);
        let b = entropy(&[101.0, 102.0, 103.0]);
        assert!((a - b).abs() < 1e-3);
    }

    #[test]
    fn entropy_survives_huge_logits() {
        let h = entropy(&[1.0e4, -1.0e4, 0.0]);
        assert!(h.is_finite());
        assert!(h < 1e-3);
    }

    #[test]
    fn log_softmax_exp_is_softmax() {
        let x = [0.5f32, 1.5, -0.5];
        let ls = log_softmax(&x);
        let mut sm = x;
        softmax_inplace(&mut sm);
        for (l, s) in ls.iter().zip(sm.iter()) {
            assert!((l.exp() - s).abs() < 1e-5);
        }
    }

    fn ulps_apart(a: f32, b: f32) -> u32 {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    /// `x` and the 4 096 floats on either side of it.
    fn around(x: f32) -> impl Iterator<Item = f32> {
        (x.to_bits() - 4096..=x.to_bits() + 4096).map(f32::from_bits)
    }

    /// The non-negative half of the accuracy sweep, ascending: `[0, 10]`
    /// in steps of 1e-4, and every float near the polynomial/tail seam,
    /// each range-reduction boundary of the tail's `exp`, the point where
    /// the result becomes exactly 1, and the clamp.
    fn tanh_sweep() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=100_000).map(|i| i as f32 * 1e-4).collect();
        xs.extend(around(TANH_SEAM));
        for k in 2..=28 {
            xs.extend(around((k as f32 + 0.5) * std::f32::consts::LN_2 / 2.0));
        }
        xs.extend(around(9.010_914));
        xs.extend(around(TANH_CLAMP));
        xs.sort_by(f32::total_cmp);
        xs.dedup();
        xs
    }

    #[test]
    fn tanh_is_within_two_ulp_of_libm_odd_monotone_and_bounded() {
        let xs = tanh_sweep();
        assert!(xs.len() > 300_000 && xs[0] == 0.0 && xs[xs.len() - 1] > 10.0);
        let mut previous = 0.0f32;
        for &x in &xs {
            let y = tanh(x);
            assert!(ulps_apart(y, x.tanh()) <= 2, "tanh({x:e}) = {y:e}");
            assert_eq!(tanh(-x).to_bits(), (-y).to_bits(), "odd at {x:e}");
            assert!(y >= previous, "tanh({x:e}) = {y:e} after {previous:e}");
            assert!(y <= 1.0, "tanh({x:e}) = {y:e}");
            previous = y;
        }
    }

    #[test]
    fn tanh_special_values() {
        for zero in [0.0f32, -0.0] {
            assert_eq!(tanh(zero).to_bits(), zero.to_bits());
        }
        let subnormals = [1u32, 2, 0x0000_ffff, 0x007f_ffff];
        for x in subnormals.map(f32::from_bits) {
            assert_eq!(tanh(x).to_bits(), x.to_bits());
            assert_eq!(tanh(-x).to_bits(), (-x).to_bits());
        }
        assert_eq!(tanh(f32::MIN_POSITIVE), f32::MIN_POSITIVE);
        for x in [9.02f32, 10.0, 11.0, 88.0, 1e30, f32::MAX, f32::INFINITY] {
            assert_eq!(tanh(x), 1.0, "{x:e}");
            assert_eq!(tanh(-x), -1.0, "{x:e}");
        }
        assert!(tanh(9.0) < 1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(-f32::NAN).is_nan());
    }

    #[test]
    fn private_exp_is_within_two_ulp_of_libm_where_tanh_calls_it() {
        // `tanh` passes 2|x| for |x| in [TANH_SEAM, TANH_CLAMP].
        for x in tanh_sweep() {
            if (TANH_SEAM..=TANH_CLAMP).contains(&x) {
                let (ours, libm) = (exp(2.0 * x), (2.0 * x).exp());
                assert!(ulps_apart(ours, libm) <= 2, "exp({:e}) = {ours:e}", 2.0 * x);
            }
        }
    }

    #[test]
    fn slice_kernels_equal_the_scalar_form_bit_for_bit() {
        // Every length up to four 16-lane vectors and a tail, at every
        // alignment of the start within a 16-byte vector.
        let buffer: Vec<f32> = (0..72).map(|i| (i as f32 - 36.0) * 0.173).collect();
        let grads: Vec<f32> = (0..72).map(|i| 1.0 - i as f32 * 0.031).collect();
        for offset in 0..4 {
            for len in 0..=67 {
                let x = &buffer[offset..offset + len];
                let want: Vec<u32> = x.iter().map(|&v| gelu(v).to_bits()).collect();
                let bits = |ys: &[f32]| ys.iter().map(|y| y.to_bits()).collect::<Vec<_>>();

                let mut in_place = buffer.clone();
                gelu_in_place(&mut in_place[offset..offset + len]);
                assert_eq!(
                    bits(&in_place[offset..offset + len]),
                    want,
                    "{offset}+{len}"
                );
                assert_eq!(bits(&in_place[..offset]), bits(&buffer[..offset]));
                assert_eq!(
                    bits(&in_place[offset + len..]),
                    bits(&buffer[offset + len..])
                );

                let mut out = vec![f32::NAN; 72];
                gelu_into(x, &mut out[offset..offset + len]);
                assert_eq!(bits(&out[offset..offset + len]), want, "{offset}+{len}");
                assert!(out[..offset].iter().all(|v| v.is_nan()));
                assert!(out[offset + len..].iter().all(|v| v.is_nan()));

                let mut dy = grads.clone();
                gelu_grad_mul_in_place(x, &mut dy[offset..offset + len]);
                let want: Vec<u32> = x
                    .iter()
                    .zip(&grads[offset..])
                    .map(|(&v, &g)| (g * gelu_grad(v)).to_bits())
                    .collect();
                assert_eq!(bits(&dy[offset..offset + len]), want, "{offset}+{len}");
                assert_eq!(bits(&dy[offset + len..]), bits(&grads[offset + len..]));
            }
        }
    }

    #[test]
    fn gelu_reference_points() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(1.0) - 0.841_192).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.158_808).abs() < 1e-3);
        // GELU approaches identity for large x and zero for very negative x.
        assert!((gelu(6.0) - 6.0).abs() < 1e-3);
        assert!(gelu(-6.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        let eps = 1e-3f32;
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let fd = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-2,
                "x={x}: analytic {} vs fd {fd}",
                gelu_grad(x)
            );
        }
    }

    #[test]
    fn softmax_rows_normalizes_each_row() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.0, 1.0]]);
        softmax_rows(&mut m);
        for r in 0..m.rows() {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }
}
