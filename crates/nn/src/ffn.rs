//! Position-wise feed-forward network (Linear → GELU → Linear).

use crate::activation::gelu_backward_in_place;
use crate::encoder::BlockGradScratch;
use crate::linear::Linear;
use crate::param::Parameter;
use edgebert_tensor::kernels::{gelu_in_place, gelu_into};
use edgebert_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// The transformer FFN block: `y = W2 · gelu(W1 · x + b1) + b2`.
///
/// In ALBERT the intermediate width is 4× the hidden width (768 → 3072 in
/// the paper's Fig. 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeedForward {
    /// Expansion layer (hidden → intermediate).
    pub fc1: Linear,
    /// Contraction layer (intermediate → hidden).
    pub fc2: Linear,
}

/// Saved activations for [`FeedForward::backward`]; a default value is
/// empty and [`FeedForward::forward_into`] reshapes and overwrites it.
#[derive(Debug, Default)]
pub struct FeedForwardCache {
    x: Matrix,
    gelu_in: Matrix,
    gelu_out: Matrix,
}

impl FeedForward {
    /// Creates an FFN with the given hidden and intermediate widths.
    pub fn new(hidden: usize, intermediate: usize, rng: &mut Rng) -> Self {
        Self {
            fc1: Linear::new(hidden, intermediate, rng),
            fc2: Linear::new(intermediate, hidden, rng),
        }
    }

    /// Forward pass over a `seq_len x hidden` input.
    pub fn forward(&self, x: &Matrix) -> (Matrix, FeedForwardCache) {
        let (mut y, mut cache) = (Matrix::default(), FeedForwardCache::default());
        self.forward_into(x, &mut y, &mut cache);
        (y, cache)
    }

    /// [`FeedForward::forward`] written into `out` and `cache`, both
    /// reshaped and overwritten.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix, cache: &mut FeedForwardCache) {
        cache.x.copy_from(x);
        self.fc1.infer_into(x, &mut cache.gelu_in);
        let (rows, cols) = cache.gelu_in.shape();
        cache.gelu_out.resize_to(rows, cols);
        gelu_into(cache.gelu_in.as_slice(), cache.gelu_out.as_mut_slice());
        self.fc2.infer_into(&cache.gelu_out, out);
    }

    /// Inference-only forward.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.infer_into(x, &mut out, &mut Matrix::default());
        out
    }

    /// [`FeedForward::infer`] written into `out`, with the intermediate
    /// activation in `mid`; both are reshaped and overwritten.
    // analyzer: hot-path
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix, mid: &mut Matrix) {
        self.fc1.infer_into(x, mid);
        gelu_in_place(mid.as_mut_slice());
        self.fc2.infer_into(mid, out);
    }

    /// Backward pass; accumulates parameter grads and returns `dx`.
    pub fn backward(&mut self, cache: &FeedForwardCache, grad_out: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(cache, grad_out, &mut dx, &mut BlockGradScratch::default());
        dx
    }

    /// [`FeedForward::backward`] with `dx` written into a caller buffer
    /// (reshaped and overwritten) through the buffers of `s`.
    // analyzer: hot-path
    pub fn backward_into(
        &mut self,
        cache: &FeedForwardCache,
        grad_out: &Matrix,
        dx: &mut Matrix,
        s: &mut BlockGradScratch,
    ) {
        cache.gelu_out.transpose_into(&mut s.input_t);
        self.fc2
            .backward_input_into(&s.input_t, grad_out, &mut s.d_mid, &mut s.linear);
        gelu_backward_in_place(&cache.gelu_in, &mut s.d_mid);
        cache.x.transpose_into(&mut s.input_t);
        self.fc1
            .backward_input_into(&s.input_t, &s.d_mid, dx, &mut s.linear);
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        self.fc1.zero_grad();
        self.fc2.zero_grad();
    }

    /// Mutable parameter references for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut ps = self.fc1.params_mut();
        ps.extend(self.fc2.params_mut());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape() {
        let mut rng = Rng::seed_from(0);
        let ffn = FeedForward::new(8, 32, &mut rng);
        let x = rng.gaussian_matrix(4, 8, 1.0);
        let (y, _) = ffn.forward(&x);
        assert_eq!(y.shape(), (4, 8));
        assert_eq!(ffn.infer(&x), y);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Rng::seed_from(13);
        let mut ffn = FeedForward::new(6, 12, &mut rng);
        let x = rng.gaussian_matrix(3, 6, 1.0);
        let coeff = rng.gaussian_matrix(3, 6, 1.0);
        let loss = |f: &FeedForward, x: &Matrix| -> f32 {
            f.infer(x).hadamard(&coeff).as_slice().iter().sum()
        };
        let (_, cache) = ffn.forward(&x);
        let dx = ffn.backward(&cache, &coeff);
        let eps = 1e-2f32;

        let mut x2 = x.clone();
        let orig = x2.get(1, 2);
        x2.set(1, 2, orig + eps);
        let lp = loss(&ffn, &x2);
        x2.set(1, 2, orig - eps);
        let lm = loss(&ffn, &x2);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - dx.get(1, 2)).abs() < 5e-2 * (1.0 + fd.abs()));

        let orig = ffn.fc1.weight.value.get(0, 0);
        ffn.fc1.weight.value.set(0, 0, orig + eps);
        let lp = loss(&ffn, &x);
        ffn.fc1.weight.value.set(0, 0, orig - eps);
        let lm = loss(&ffn, &x);
        ffn.fc1.weight.value.set(0, 0, orig);
        let fd = (lp - lm) / (2.0 * eps);
        let an = ffn.fc1.weight.grad.get(0, 0);
        assert!((fd - an).abs() < 5e-2 * (1.0 + fd.abs()), "fd={fd} an={an}");
    }
}
