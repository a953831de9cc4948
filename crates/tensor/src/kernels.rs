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

/// GELU activation (tanh approximation, as used by BERT/ALBERT).
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// Derivative of [`gelu`] with respect to its input.
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044_715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
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
