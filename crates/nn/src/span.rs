//! Adaptive attention span (Sukhbaatar et al.), as used by EdgeBERT §3.2.
//!
//! Each attention head owns a learnable scalar `z`. A soft ramp function
//! maps token distance `d` to a multiplicative mask value:
//!
//! ```text
//! m_z(d) = clamp((R + z - d) / R, 0, 1)
//! ```
//!
//! where `R` is the ramp width. The mask is element-wise multiplied with
//! the post-softmax attention weights (paper Fig. 3 / Algorithm 3). During
//! fine-tuning a span penalty is added to the loss so heads shrink their
//! span — and more than half of them collapse to zero and can be skipped
//! entirely by the accelerator (paper Table 1).

use crate::param::Parameter;
use edgebert_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Learnable attention span for a single head.
///
/// # Example
///
/// ```
/// use edgebert_nn::AdaptiveSpan;
///
/// let mut span = AdaptiveSpan::new(8.0, 32.0, 128);
/// assert!(!span.is_off());
/// span.set_z(-span.ramp()); // collapse the span
/// assert!(span.is_off());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveSpan {
    /// The learnable span parameter `z`, stored as a `1x1` [`Parameter`].
    pub z: Parameter,
    ramp: f32,
    max_span: usize,
}

impl AdaptiveSpan {
    /// Creates a span with initial value `z0`, ramp width `ramp`, and an
    /// upper clamp of `max_span` tokens (the maximum sequence length, 128
    /// for the GLUE fine-tuning setup).
    ///
    /// # Panics
    ///
    /// Panics if `ramp <= 0`.
    pub fn new(z0: f32, ramp: f32, max_span: usize) -> Self {
        assert!(ramp > 0.0, "ramp must be positive");
        Self {
            z: Parameter::new(Matrix::filled(1, 1, z0)),
            ramp,
            max_span,
        }
    }

    /// Ramp width `R` of the soft mask.
    pub fn ramp(&self) -> f32 {
        self.ramp
    }

    /// Maximum permitted span.
    pub fn max_span(&self) -> usize {
        self.max_span
    }

    /// Current raw `z` value.
    pub fn z_value(&self) -> f32 {
        self.z.value.get(0, 0)
    }

    /// Overwrites `z` (clamped to the legal range `[-R, max_span]`).
    pub fn set_z(&mut self, z: f32) {
        self.z
            .value
            .set(0, 0, z.clamp(-self.ramp, self.max_span as f32));
    }

    /// Mask value for token distance `d`.
    #[inline]
    pub fn mask_at(&self, d: usize) -> f32 {
        ((self.ramp + self.z_value() - d as f32) / self.ramp).clamp(0.0, 1.0)
    }

    /// The effective span: the largest distance with a non-zero mask,
    /// `max(0, z + R)` clamped to the maximum span. This is the quantity
    /// reported per head in the paper's Table 1; `0` means the head can be
    /// skipped entirely.
    pub fn effective_span(&self) -> f32 {
        (self.z_value() + self.ramp).clamp(0.0, self.max_span as f32)
    }

    /// Whether the mask is identically zero (head fully off).
    pub fn is_off(&self) -> bool {
        self.effective_span() <= 0.0
    }

    /// The 1-D mask profile over distances `0..seq_len` — the "128-wide
    /// vector" the accelerator stores per head in its auxiliary buffer.
    pub fn mask_vector(&self, seq_len: usize) -> Vec<f32> {
        let mut profile = vec![0.0; seq_len];
        self.mask_vector_into(&mut profile);
        profile
    }

    /// [`AdaptiveSpan::mask_vector`] over distances `0..profile.len()`,
    /// written into a caller-owned buffer.
    // analyzer: hot-path
    pub fn mask_vector_into(&self, profile: &mut [f32]) {
        for (d, m) in profile.iter_mut().enumerate() {
            *m = self.mask_at(d);
        }
    }

    /// The full 2-D mask over query/key positions, `m[i][j] = m_z(|i-j|)`.
    pub fn mask_matrix(&self, seq_len: usize) -> Matrix {
        let profile = self.mask_vector(seq_len);
        let mut m = Matrix::zeros(seq_len, seq_len);
        for i in 0..seq_len {
            for j in 0..seq_len {
                m.set(i, j, profile[i.abs_diff(j)]);
            }
        }
        m
    }

    /// Backward through the mask: given `dL/dmask[i][j]` and the mask's
    /// own profile ([`AdaptiveSpan::mask_vector`] over the sequence
    /// length), accumulates `dL/dz`. The ramp is linear, so `dm/dz = 1/R`
    /// wherever the mask is strictly between 0 and 1, else 0.
    // analyzer: hot-path
    pub fn backward_mask(&mut self, grad_mask: &Matrix, profile: &[f32]) {
        let on_ramp = |m: f32| m > 0.0 && m < 1.0;
        let mut gz = 0.0f32;
        // A fully open span has no distance on its ramp: nothing to sum.
        if profile.iter().any(|&m| on_ramp(m)) {
            for i in 0..profile.len() {
                for (j, &g) in grad_mask.row(i).iter().enumerate() {
                    if on_ramp(profile[i.abs_diff(j)]) {
                        gz += g / self.ramp;
                    }
                }
            }
        }
        let grad = self.z.grad_mut();
        grad.set(0, 0, grad.get(0, 0) + gz);
    }

    /// Adds the span-penalty gradient `lambda` (per unit of effective
    /// span) and returns the penalty value `lambda * effective_span`.
    /// This is the "average loss from the reduced span" term added back to
    /// the cross-entropy loss during fine-tuning (paper §3.2).
    pub fn apply_span_penalty(&mut self, lambda: f32) -> f32 {
        if self.effective_span() > 0.0 {
            let grad = self.z.grad_mut();
            grad.set(0, 0, grad.get(0, 0) + lambda);
        }
        lambda * self.effective_span()
    }

    /// Clamps `z` into its legal range; call after each optimizer step.
    pub fn clamp(&mut self) {
        let z = self.z_value();
        self.set_z(z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_profile_shape() {
        let span = AdaptiveSpan::new(4.0, 8.0, 128);
        // d=0 fully attended, beyond z+R fully masked, linear in between.
        assert_eq!(span.mask_at(0), 1.0);
        assert_eq!(span.mask_at(12), 0.0);
        assert_eq!(span.mask_at(200), 0.0);
        let mid = span.mask_at(8);
        assert!(mid > 0.0 && mid < 1.0);
        assert!((span.effective_span() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn off_head_has_zero_mask_everywhere() {
        let mut span = AdaptiveSpan::new(10.0, 8.0, 128);
        span.set_z(-8.0);
        assert!(span.is_off());
        assert!(span.mask_vector(128).iter().all(|&m| m == 0.0));
        let mm = span.mask_matrix(16);
        assert_eq!(mm.nnz(), 0);
    }

    #[test]
    fn mask_matrix_is_symmetric_banded() {
        let span = AdaptiveSpan::new(2.0, 4.0, 64);
        let m = span.mask_matrix(10);
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
        // Diagonal fully on.
        for i in 0..10 {
            assert_eq!(m.get(i, i), 1.0);
        }
    }

    #[test]
    fn z_is_clamped() {
        let mut span = AdaptiveSpan::new(0.0, 8.0, 32);
        span.set_z(1000.0);
        assert_eq!(span.z_value(), 32.0);
        span.set_z(-1000.0);
        assert_eq!(span.z_value(), -8.0);
    }

    #[test]
    fn backward_mask_matches_finite_difference() {
        // z chosen off the integer grid so no token distance sits exactly
        // on a clamp kink, where the subgradient is ambiguous.
        let seq = 12;
        let z0 = 3.3f32;
        let mut span = AdaptiveSpan::new(z0, 6.0, 64);
        // Random upstream gradient.
        let mut g = Matrix::zeros(seq, seq);
        for i in 0..seq {
            for j in 0..seq {
                g.set(i, j, ((i * 7 + j * 3) % 5) as f32 / 5.0 - 0.4);
            }
        }
        span.backward_mask(&g, &span.mask_vector(seq));
        let analytic = span.z.grad.get(0, 0);
        let eps = 1e-3f32;
        let loss = |z: f32| -> f32 {
            let mut s = AdaptiveSpan::new(z, 6.0, 64);
            s.set_z(z);
            s.mask_matrix(seq).hadamard(&g).as_slice().iter().sum()
        };
        let fd = (loss(z0 + eps) - loss(z0 - eps)) / (2.0 * eps);
        assert!(
            (fd - analytic).abs() < 1e-2 * (1.0 + fd.abs()),
            "fd={fd} an={analytic}"
        );
    }

    #[test]
    fn span_penalty_pushes_down_only_active_heads() {
        let mut on = AdaptiveSpan::new(5.0, 4.0, 64);
        let p = on.apply_span_penalty(0.1);
        assert!(p > 0.0);
        assert!(on.z.grad.get(0, 0) > 0.0); // positive grad shrinks z under gradient descent

        let mut off = AdaptiveSpan::new(0.0, 4.0, 64);
        off.set_z(-4.0);
        let p = off.apply_span_penalty(0.1);
        assert_eq!(p, 0.0);
        assert_eq!(off.z.grad_mut().get(0, 0), 0.0);
    }
}
