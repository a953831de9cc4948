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
//! its bits.
//!
//! No function here calls the host's libm. [`exp`], [`ln`] and [`tanh`]
//! are plain IEEE `f32` arithmetic with their coefficients in the source,
//! so softmax, the entropy exit, the losses and GELU have the same bits on
//! every host and at every optimisation level, and a loop over any of
//! them is one the compiler can vectorise. Their contracts:
//!
//! * [`exp`]: within 2 ulp of the host's `f32::exp` on `[-104, 0]`,
//!   subnormal results included (within 1 ulp of the correctly rounded
//!   value there), monotone non-decreasing; `exp(±0) == 1` exactly,
//!   `exp(x) == 0` below `-103.98` and at `-∞`, `+∞` from `88.723` up,
//!   NaN gives NaN; on `[1.25, 20]`, where [`tanh`] calls it, the same
//!   bits as the positive-only form GELU was first re-based on;
//! * [`ln`]: within 2 ulp of the host's `f32::ln` on `(0, 64]`, subnormals
//!   included, monotone; `ln(1) == 0` exactly, `ln(±0) == -∞`,
//!   `ln(+∞) == +∞`, a negative argument or NaN gives NaN;
//! * [`tanh`]: within 2 ulp of the host's `f32::tanh` on `[-10, 10]`
//!   (within 1 ulp of the correctly rounded value on every `f32` there),
//!   monotone non-decreasing, exactly odd, `|tanh(x)| <= 1`; `±0 → ±0`, a
//!   subnormal returns itself, `|x| >= 9.02` and `±∞` give exactly `±1`,
//!   NaN gives NaN;
//! * the slice kernels ([`softmax_inplace`], [`gelu_in_place`],
//!   [`gelu_into`], [`gelu_grad_mul_in_place`]) equal a plain scalar loop
//!   over the same functions bit for bit whatever the lane width: the GELU
//!   kernels are such loops, and softmax takes its row max over 8 lanes
//!   (`max` is exact, so only the sign of a zero maximum can depend on the
//!   order, and no output does) and adds its `exp` terms in index order;
//!   [`softmax_rows`] gives every row the bits [`softmax_inplace`] does.

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
// analyzer: hot-path
pub fn logsumexp(x: &[f32]) -> f32 {
    if x.is_empty() {
        return f32::NEG_INFINITY;
    }
    max_and_logsumexp(x).1
}

/// How many lanes the softmax row kernels work in.
const LANES: usize = 8;

/// The largest element of a non-empty `x` as `f32::max` folds it: NaN is
/// skipped unless every element is NaN. Taken over [`LANES`] lanes folded
/// pairwise; `max` is exact, so the order only decides the sign of a zero
/// maximum.
#[inline]
fn row_max(x: &[f32]) -> f32 {
    let mut lanes = [x[0]; LANES];
    let mut chunks = x.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = m.max(v);
        }
    }
    for width in [LANES / 2, LANES / 4, LANES / 8] {
        for i in 0..width {
            lanes[i] = lanes[i].max(lanes[i + width]);
        }
    }
    chunks.remainder().iter().fold(lanes[0], |m, &v| m.max(v))
}

/// Softmax's first pass over a non-empty row: its `max` and
/// `max + ln Σ exp(x_k - max)`. The terms are computed [`LANES`] at a time
/// and added in index order, so the sum has the bits of a plain loop.
#[inline]
fn max_and_logsumexp(x: &[f32]) -> (f32, f32) {
    let max = row_max(x);
    if max.is_infinite() {
        return (max, max);
    }
    let mut sum = 0.0f32;
    let mut chunks = x.chunks_exact(LANES);
    for chunk in &mut chunks {
        let mut terms = [0.0f32; LANES];
        for (t, &v) in terms.iter_mut().zip(chunk) {
            *t = exp(v - max);
        }
        for t in terms {
            sum += t;
        }
    }
    for &v in chunks.remainder() {
        sum += exp(v - max);
    }
    (max, max + ln(sum))
}

/// Softmax's second pass, given the first's result: `exp(x_k - lse)`, or
/// all mass on the first `max` when `lse` is infinite.
#[inline]
fn softmax_given(x: &mut [f32], (max, lse): (f32, f32)) {
    if lse.is_infinite() {
        // All mass on the (first) max element; mirrors saturation behaviour.
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
        *v = exp(*v - lse);
    }
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
// analyzer: hot-path
pub fn softmax_inplace(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let first = max_and_logsumexp(x);
    softmax_given(x, first);
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
// analyzer: hot-path
pub fn entropy(x: &[f32]) -> f32 {
    if x.len() <= 1 {
        return 0.0;
    }
    let max = row_max(x);
    let mut sum_exp = 0.0f32;
    let mut sum_xexp = 0.0f32;
    for &v in x {
        let e = exp(v - max);
        sum_exp += e;
        sum_xexp += v * e;
    }
    // Eq. (3): ln(Σ e^{x-max}) + max - Σ x e^{x-max} / Σ e^{x-max}
    let h = ln(sum_exp) + max - sum_xexp / sum_exp;
    // Clamp tiny negative values produced by rounding.
    h.max(0.0)
}

/// Applies stable softmax to every row of `m` in place, each row getting
/// the bits [`softmax_inplace`] gives it.
///
/// A row's first pass ends in an `ln` its second pass waits for, so the
/// next row's first pass is issued in between, where that wait overlaps
/// work that does not depend on it. Against a plain loop over
/// [`softmax_inplace`] this read +8.8 % `serve_deep` throughput, ten of
/// ten alternating pairs (PR 25).
// analyzer: hot-path
pub fn softmax_rows(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    let mut rows = m.as_mut_slice().chunks_exact_mut(cols);
    let Some(mut row) = rows.next() else {
        return;
    };
    let mut first = max_and_logsumexp(row);
    for next in rows {
        let next_first = max_and_logsumexp(next);
        softmax_given(row, first);
        (row, first) = (next, next_first);
    }
    softmax_given(row, first);
}

/// `ln 2` split in two: `LN2_HI` has 9 significant bits, so `n * LN2_HI`
/// is exact for every `|n| < 2^15` [`exp`] and [`ln`] multiply it by.
const LN2_HI: f32 = 0.693_359_4;
/// `ln 2 - LN2_HI`.
const LN2_LO: f32 = -2.121_944_4e-4;
/// [`exp`] reads its argument no further down: the result is exactly 0
/// from −103.98 on.
const EXP_FLOOR: f32 = -110.0;
/// [`exp`] reads its argument no further up: the result is `+∞` from
/// 88.723 on.
const EXP_CEILING: f32 = 89.0;

/// `e^x` in IEEE `f32` arithmetic alone (the module doc states the
/// contract), after Cephes `expf`.
///
/// `x = n ln 2 + r` with `n` rounded to the nearest integer, `x - n ln 2`
/// taken in two steps so that the first is exact, and a degree-5
/// polynomial on `|r| <= ln 2 / 2`. `2^n` is assembled from the bits of
/// the rounding sum as two factors, `2^⌊n/2⌋ · 2^(n-⌊n/2⌋)`, each a
/// normal float over the whole clamped range, so the one rounding of a
/// result below the smallest normal (from −87.3 down) is the last
/// product's. There is no branch and no float-to-int cast, so a loop
/// over it vectorises.
///
/// # Example
///
/// ```
/// use edgebert_tensor::kernels::exp;
/// assert_eq!(exp(0.0), 1.0);
/// assert!((exp(-1.0) - 0.367_879_44).abs() < 1e-7);
/// assert_eq!(exp(f32::NEG_INFINITY), 0.0);
/// ```
#[inline]
pub fn exp(x: f32) -> f32 {
    // 1.5 * 2^23: adding it rounds to the nearest integer and leaves
    // that integer in the low mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    // Comparisons, not `max`/`min`: NaN must reach the result.
    let x = if x < EXP_FLOOR { EXP_FLOOR } else { x };
    let x = if x > EXP_CEILING { EXP_CEILING } else { x };
    let shifted = x * std::f32::consts::LOG2_E + ROUND;
    let n = shifted - ROUND;
    let r = x - n * LN2_HI - n * LN2_LO;
    let p = 1.987_569_1e-4;
    let p = p * r + 1.398_199_9e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_6e-1;
    let p = p * r + 0.5;
    // `shifted`'s bits are `0x4b40_0000 + n` and `0x4b40_0000` is even,
    // so halving them halves `n` rounding down; the low 9 bits of either
    // half plus 127 are that power of two's biased exponent.
    let bits = shifted.to_bits();
    let half = bits >> 1;
    let two_low = f32::from_bits(half.wrapping_add(127) << 23);
    let two_high = f32::from_bits((bits - half).wrapping_add(127) << 23);
    (p * (r * r) + r + 1.0) * two_low * two_high
}

/// The bits of `sqrt(1/2)`: [`ln`] splits its argument into `2^k · m`
/// with `m` in `[sqrt(1/2), sqrt(2))`.
const SQRT_HALF_BITS: u32 = 0x3f35_04f3;
/// `2^23`, which lifts a subnormal into the normal range.
const SUBNORMAL_LIFT: f32 = 8_388_608.0;

/// `ln x` in IEEE `f32` arithmetic alone (the module doc states the
/// contract), after Cephes `logf`.
///
/// `x = 2^k · m` with `m` in `[sqrt(1/2), sqrt(2))` read from the bits
/// (a subnormal is first lifted by `2^23`), then `ln m` as
/// `f - f²/2 + f³ P(f)` on `f = m - 1`, a degree-8 `P`, and `k ln 2`
/// added in the same two steps as [`exp`]'s reduction. `ln(1)` is
/// exactly 0: `m = 1` and `k = 0` there.
///
/// # Example
///
/// ```
/// use edgebert_tensor::kernels::ln;
/// assert_eq!(ln(1.0), 0.0);
/// assert!((ln(2.0) - std::f32::consts::LN_2).abs() < 1e-7);
/// assert_eq!(ln(0.0), f32::NEG_INFINITY);
/// ```
#[inline]
pub fn ln(x: f32) -> f32 {
    let subnormal = x < f32::MIN_POSITIVE;
    let lifted = if subnormal { x * SUBNORMAL_LIFT } else { x };
    let bits = lifted.to_bits().wrapping_sub(SQRT_HALF_BITS);
    let k = ((bits as i32 >> 23) - if subnormal { 23 } else { 0 }) as f32;
    let f = f32::from_bits((bits & 0x007f_ffff) + SQRT_HALF_BITS) - 1.0;
    let z = f * f;
    let p = 7.037_683_6e-2;
    let p = p * f - 1.151_461e-1;
    let p = p * f + 1.167_699_9e-1;
    let p = p * f - 1.242_014_1e-1;
    let p = p * f + 1.424_932_3e-1;
    let p = p * f - 1.666_805_8e-1;
    let p = p * f + 2.000_071_5e-1;
    let p = p * f - 2.499_999_4e-1;
    let p = p * f + 3.333_333e-1;
    let y = p * f * z + k * LN2_LO - 0.5 * z;
    let y = f + y + k * LN2_HI;
    if x > 0.0 {
        // `+∞` would read as 2^128.
        if x < f32::INFINITY {
            y
        } else {
            x
        }
    } else if x == 0.0 {
        f32::NEG_INFINITY
    } else {
        f32::NAN
    }
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

    /// The `exp` GELU's `tanh` was first re-based on: the same reduction
    /// and polynomial, `2^n` in one factor, no clamp, right on `[0, 20]`.
    fn positive_only_exp(x: f32) -> f32 {
        const ROUND: f32 = 12_582_912.0;
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

    #[test]
    fn exp_keeps_the_bits_gelu_was_rebased_on_where_tanh_calls_it() {
        // `tanh` passes 2|x| for |x| in [TANH_SEAM, TANH_CLAMP]: every
        // 13th float of [1.25, 20] and the tanh sweep's points there.
        let strided = (2.0 * TANH_SEAM).to_bits()..=(2.0 * TANH_CLAMP).to_bits();
        let swept = tanh_sweep()
            .into_iter()
            .filter(|x| (TANH_SEAM..=TANH_CLAMP).contains(x))
            .map(|x| 2.0 * x);
        for x in strided.step_by(13).map(f32::from_bits).chain(swept) {
            let ours = exp(x);
            assert_eq!(ours.to_bits(), positive_only_exp(x).to_bits(), "exp({x:e})");
            assert!(ulps_apart(ours, x.exp()) <= 2, "exp({x:e}) = {ours:e}");
        }
    }

    /// `[-104, 0]` ascending: steps of 1e-4, and every float near each
    /// range-reduction boundary `(k + 1/2) ln 2`, the smallest normal
    /// result, the smallest subnormal one and the point below which the
    /// result is 0.
    fn exp_sweep() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=1_040_000).map(|i| i as f32 * -1e-4).collect();
        for k in 1..=150 {
            xs.extend(around((0.5 - k as f32) * std::f32::consts::LN_2));
        }
        for onset in [-126.0f32, -149.0, -150.0] {
            xs.extend(around(onset * std::f32::consts::LN_2));
        }
        xs.sort_by(f32::total_cmp);
        xs.dedup();
        xs
    }

    #[test]
    fn exp_is_within_two_ulp_of_libm_and_monotone_on_the_nonpositive_half() {
        let xs = exp_sweep();
        assert!(xs.len() > 2_000_000 && xs[0] <= -104.0 && xs[xs.len() - 1] == 0.0);
        let mut previous = 0.0f32;
        for &x in &xs {
            let y = exp(x);
            assert!(ulps_apart(y, x.exp()) <= 2, "exp({x:e}) = {y:e}");
            assert!(y >= previous, "exp({x:e}) = {y:e} after {previous:e}");
            previous = y;
        }
        assert!(exp(-103.97) > 0.0 && exp(-103.98) == 0.0);
    }

    #[test]
    fn exp_special_values() {
        // Softmax's `sum >= 1` stands on the first of these.
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        for x in [-110.0f32, -1e30, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0, "{x:e}");
        }
        for x in [88.723f32, 89.0, 1e30, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "{x:e}");
        }
        assert!(exp(88.72).is_finite());
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
    }

    #[test]
    fn ln_is_within_two_ulp_of_libm_and_monotone_up_to_64() {
        // Every 997th float of (0, 64], subnormals included, and every
        // float near 1 and near each `sqrt(2) 2^k` seam of the reduction.
        let mut xs: Vec<f32> = (1..=64.0f32.to_bits())
            .step_by(997)
            .map(f32::from_bits)
            .collect();
        xs.extend(around(1.0));
        for k in -126..=5 {
            xs.extend(around(std::f32::consts::SQRT_2 * 2.0f32.powi(k)));
        }
        xs.push(64.0);
        xs.sort_by(f32::total_cmp);
        xs.dedup();
        assert!(xs.len() > 2_000_000 && xs[0] > 0.0 && xs[xs.len() - 1] == 64.0);
        let mut previous = f32::NEG_INFINITY;
        for &x in &xs {
            let y = ln(x);
            assert!(ulps_apart(y, x.ln()) <= 2, "ln({x:e}) = {y:e}");
            assert!(y >= previous, "ln({x:e}) = {y:e} after {previous:e}");
            previous = y;
        }
    }

    #[test]
    fn ln_special_values() {
        assert_eq!(ln(1.0).to_bits(), 0);
        for zero in [0.0f32, -0.0] {
            assert_eq!(ln(zero), f32::NEG_INFINITY);
        }
        assert_eq!(ln(f32::INFINITY), f32::INFINITY);
        assert!(ln(f32::MAX).is_finite());
        for x in [-1.0f32, -f32::MIN_POSITIVE, f32::NEG_INFINITY, f32::NAN] {
            assert!(ln(x).is_nan(), "{x:e}");
        }
    }

    /// Softmax's first pass as a plain scalar loop over the same
    /// `exp`/`ln`: a sequential max and the terms added one by one.
    fn scalar_max_and_logsumexp(x: &[f32]) -> Option<(f32, f32)> {
        let max = x.iter().copied().reduce(f32::max)?;
        let lse = if max.is_infinite() {
            max
        } else {
            max + ln(x.iter().fold(0.0, |sum, &v| sum + exp(v - max)))
        };
        Some((max, lse))
    }

    /// `softmax_inplace` in the scalar form, with the same saturation.
    fn scalar_softmax(x: &mut [f32]) {
        let Some((max, lse)) = scalar_max_and_logsumexp(x) else {
            return;
        };
        if lse.is_infinite() {
            let first = x.iter().position(|&v| v == max);
            for (i, v) in x.iter_mut().enumerate() {
                *v = if Some(i) == first { 1.0 } else { 0.0 };
            }
        } else {
            for v in x.iter_mut() {
                *v = exp(*v - lse);
            }
        }
    }

    #[test]
    fn softmax_equals_the_scalar_form_bit_for_bit() {
        let bits = |ys: &[f32]| ys.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
        // A ramp, a scramble wide enough that terms underflow, and a
        // saturated row with NaN in it.
        let ramp: Vec<f32> = (0..72).map(|i| (i as f32 - 36.0) * 0.173).collect();
        let wide: Vec<f32> = (0..72)
            .map(|i| ((i * 37) % 71) as f32 * 1.7 - 60.0)
            .collect();
        let mut saturated = ramp.clone();
        saturated[5] = f32::INFINITY;
        saturated[9] = f32::NAN;
        saturated[40] = f32::INFINITY;
        for buffer in [&ramp, &wide, &saturated] {
            for offset in 0..4 {
                for len in 0..=67 {
                    let x = &buffer[offset..offset + len];
                    let mut want = x.to_vec();
                    scalar_softmax(&mut want);
                    let mut got = buffer.clone();
                    softmax_inplace(&mut got[offset..offset + len]);
                    assert_eq!(
                        bits(&got[offset..offset + len]),
                        bits(&want),
                        "{offset}+{len}"
                    );
                    assert_eq!(bits(&got[..offset]), bits(&buffer[..offset]));
                    assert_eq!(bits(&got[offset + len..]), bits(&buffer[offset + len..]));
                    if let Some((_, lse)) = scalar_max_and_logsumexp(x) {
                        assert_eq!(logsumexp(x).to_bits(), lse.to_bits(), "{offset}+{len}");
                        if lse.is_finite() {
                            // Eq. 2 rounds `lse` once, which shifts every
                            // probability by up to half an ulp of `|lse|`.
                            let sum: f32 = want.iter().sum();
                            let bound = (len as f32 + lse.abs()) * f32::EPSILON;
                            assert!((sum - 1.0).abs() <= bound, "{offset}+{len}: {sum}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_lane_max_equals_the_sequential_fold() {
        let specials = [
            0.0f32,
            -0.0,
            f32::NEG_INFINITY,
            f32::NAN,
            -3.5,
            2.25,
            -0.0,
            0.0,
            7.0,
        ];
        for len in 1..=67 {
            for start in 0..specials.len() {
                for stride in [1, 2, 5] {
                    let x: Vec<f32> = (0..len)
                        .map(|i| specials[(start + i * stride) % specials.len()])
                        .collect();
                    let want = x.iter().copied().reduce(f32::max).expect("non-empty");
                    let got = row_max(&x);
                    // `max` may return either zero when both compare
                    // equal, so a zero maximum's sign is not pinned.
                    assert!(got == want || (got.is_nan() && want.is_nan()), "{x:?}");
                }
            }
        }
        for only in [0.0f32, -0.0, f32::NEG_INFINITY, f32::NAN] {
            let x = [only; 19];
            assert_eq!(row_max(&x).to_bits(), only.to_bits(), "{only}");
        }
    }

    #[test]
    fn saturated_softmax_puts_all_mass_on_the_first_max() {
        let mut x = [
            1.0f32,
            f32::INFINITY,
            f32::NAN,
            3.0,
            f32::INFINITY,
            -2.0,
            0.0,
            4.0,
            5.0,
        ];
        softmax_inplace(&mut x);
        assert_eq!(x, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let mut x = [f32::NEG_INFINITY; 11];
        softmax_inplace(&mut x);
        assert_eq!(x[0], 1.0);
        assert!(x[1..].iter().all(|&v| v == 0.0));
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

    #[test]
    fn softmax_rows_equals_softmax_inplace_on_every_row() {
        let values: Vec<f32> = (0..90)
            .map(|i| ((i * 37) % 71) as f32 * 0.9 - 30.0)
            .collect();
        for rows in 0..=5 {
            for cols in 0..=17 {
                let mut data = values[..rows * cols].to_vec();
                if let Some(v) = data.get_mut(cols + 1) {
                    *v = f32::INFINITY; // the second row saturates
                }
                let mut m = Matrix::from_vec(rows, cols, data.clone());
                softmax_rows(&mut m);
                for (r, row) in data.chunks_mut(cols.max(1)).enumerate() {
                    softmax_inplace(row);
                    let got = m.row(r).iter().map(|v| v.to_bits());
                    assert!(got.eq(row.iter().map(|v| v.to_bits())), "{rows}x{cols}");
                }
            }
        }
    }
}
