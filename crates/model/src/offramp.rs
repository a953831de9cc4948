//! Highway off-ramps: per-layer early-exit classifiers.
//!
//! Each logical encoder layer gets a lightweight classifier reading the
//! `[CLS]` token's hidden state. The entropy of its output distribution is
//! the early-exit signal (paper §3.1). Off-ramps are fine-tuned in phase 2
//! with the backbone frozen (Fig. 4).

use edgebert_nn::{Linear, Parameter};
use edgebert_tensor::{entropy, Matrix, Rng};
use serde::{Deserialize, Serialize};

/// One early-exit classifier head.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OffRamp {
    /// The classifier, `H -> num_classes`.
    pub head: Linear,
}

impl OffRamp {
    /// Creates an off-ramp for a `hidden`-wide stream.
    pub fn new(hidden: usize, num_classes: usize, rng: &mut Rng) -> Self {
        Self {
            head: Linear::new(hidden, num_classes, rng),
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.head.out_features()
    }

    /// Classifies the `[CLS]` hidden vector (row 0 of the layer output),
    /// returning the logits.
    pub fn classify(&self, layer_output: &Matrix) -> Vec<f32> {
        let mut logits = Matrix::default();
        self.classify_into(layer_output, &mut Matrix::default(), &mut logits);
        logits.row(0).to_vec()
    }

    /// [`OffRamp::classify`] with the `[CLS]` row copied into `cls` and
    /// the logits written into `logits` (`1 x classes`); both are
    /// reshaped and overwritten.
    // analyzer: hot-path
    pub fn classify_into(&self, layer_output: &Matrix, cls: &mut Matrix, logits: &mut Matrix) {
        cls.resize_to(1, layer_output.cols());
        cls.as_mut_slice().copy_from_slice(layer_output.row(0));
        self.head.infer_into(cls, logits);
    }

    /// Logits plus the entropy of their induced distribution — the
    /// quantity compared against the exit threshold `E_T`.
    pub fn classify_with_entropy(&self, layer_output: &Matrix) -> (Vec<f32>, f32) {
        let logits = self.classify(layer_output);
        let h = entropy(&logits);
        (logits, h)
    }

    /// Training step ingredients: forward on a batch of CLS vectors
    /// (`batch x H`) producing `batch x classes` logits.
    pub fn forward_batch(&self, cls_vectors: &Matrix) -> Matrix {
        self.head.infer(cls_vectors)
    }

    /// Backward for [`OffRamp::forward_batch`]; accumulates grads.
    pub fn backward_batch(&mut self, cls_vectors: &Matrix, grad_logits: &Matrix) {
        let dw = cls_vectors.matmul_tn(grad_logits);
        self.head.weight.accumulate_grad(&dw);
        let db = Matrix::from_vec(1, grad_logits.cols(), grad_logits.sum_rows());
        self.head.bias.accumulate_grad(&db);
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        self.head.zero_grad();
    }

    /// Mutable parameter references.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.head.params_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebert_nn::losses::cross_entropy;
    use edgebert_nn::AdamOptimizer;

    #[test]
    fn classify_reads_cls_row() {
        let mut rng = Rng::seed_from(0);
        let ramp = OffRamp::new(8, 3, &mut rng);
        let mut layer_out = rng.gaussian_matrix(5, 8, 1.0);
        let a = ramp.classify(&layer_out);
        // Changing non-CLS rows must not affect the logits.
        for r in 1..5 {
            for c in 0..8 {
                layer_out.set(r, c, 0.0);
            }
        }
        let b = ramp.classify(&layer_out);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn entropy_bounded_by_ln_classes() {
        let mut rng = Rng::seed_from(1);
        let ramp = OffRamp::new(8, 3, &mut rng);
        let x = rng.gaussian_matrix(4, 8, 1.0);
        let (_, h) = ramp.classify_with_entropy(&x);
        assert!(h >= 0.0 && h <= (3.0f32).ln() + 1e-5);
    }

    #[test]
    fn off_ramp_trains_on_cls_features() {
        // Linearly separable CLS vectors must be learnable.
        let mut rng = Rng::seed_from(2);
        let mut ramp = OffRamp::new(4, 2, &mut rng);
        let mut opt = AdamOptimizer::new(0.05);
        let n = 32;
        let mut xs = Matrix::zeros(n, 4);
        let mut ys = Vec::new();
        for r in 0..n {
            let label = r % 2;
            for c in 0..4 {
                let base = if label == 0 { 1.0 } else { -1.0 };
                xs.set(r, c, base + rng.gaussian() * 0.3);
            }
            ys.push(label);
        }
        for _ in 0..150 {
            ramp.zero_grad();
            let logits = ramp.forward_batch(&xs);
            let (_, grad) = cross_entropy(&logits, &ys);
            ramp.backward_batch(&xs, &grad);
            opt.step(&mut ramp.params_mut());
        }
        let acc = edgebert_nn::losses::accuracy(&ramp.forward_batch(&xs), &ys);
        assert!(acc > 0.95, "accuracy {acc}");
    }
}
