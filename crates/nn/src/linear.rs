//! Fully-connected layer with manual forward/backward.

use crate::param::Parameter;
use edgebert_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// A dense affine layer `y = x W + b` with `W: (in, out)`.
///
/// The forward pass returns a [`LinearCache`] holding the input; the
/// backward pass consumes it, accumulates `dW`/`db` into the layer's
/// [`Parameter`]s and returns `dx`.
///
/// # Example
///
/// ```
/// use edgebert_nn::Linear;
/// use edgebert_tensor::{Matrix, Rng};
///
/// let mut rng = Rng::seed_from(0);
/// let layer = Linear::new(4, 2, &mut rng);
/// let x = Matrix::zeros(3, 4);
/// let (y, _cache) = layer.forward(&x);
/// assert_eq!(y.shape(), (3, 2));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix, shape `(in_features, out_features)`.
    pub weight: Parameter,
    /// Bias vector stored as a `1 x out_features` matrix.
    pub bias: Parameter,
}

/// Saved activations needed by [`Linear::backward`].
#[derive(Debug, Clone)]
pub struct LinearCache {
    input: Matrix,
}

/// Working buffers of [`Linear::backward_input_into`]: one call's `dW`
/// and `db`, and the weight transposed. `dW` and `db` are formed from
/// zero here and added to the parameter's gradient once; accumulating the
/// products straight into a gradient that already holds earlier calls'
/// sums would round differently.
#[derive(Debug, Default)]
pub struct LinearGradScratch {
    dw: Matrix,
    db: Matrix,
    weight_t: Matrix,
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Self {
            weight: Parameter::new(rng.xavier(in_features, out_features)),
            bias: Parameter::new(Matrix::zeros(1, out_features)),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.cols()
    }

    /// Forward pass: `y = x W + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_features`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, LinearCache) {
        (self.infer(x), LinearCache { input: x.clone() })
    }

    /// Inference-only forward pass (no cache allocation).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        self.infer_into(x, &mut y);
        y
    }

    /// `y = x W + b` written into `out`, which is reshaped and
    /// overwritten: with a buffer that has held this shape before, the
    /// call does not allocate.
    // analyzer: hot-path
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.weight.value, out);
        out.add_row_broadcast_assign(self.bias.value.row(0));
    }

    /// Backward pass. Accumulates parameter gradients and returns `dx`.
    pub fn backward(&mut self, cache: &LinearCache, grad_out: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_input_into(
            &cache.input.transpose(),
            grad_out,
            &mut dx,
            &mut LinearGradScratch::default(),
        );
        dx
    }

    /// [`Linear::backward`] given the forward input already transposed
    /// (`input_t`, `in x rows`: layers that read one input share one
    /// transpose), with `dx` written into a caller buffer, reshaped and
    /// overwritten.
    // analyzer: hot-path
    pub fn backward_input_into(
        &mut self,
        input_t: &Matrix,
        grad_out: &Matrix,
        dx: &mut Matrix,
        s: &mut LinearGradScratch,
    ) {
        // dW = x^T * dy ; db = sum_rows(dy) ; dx = dy * W^T
        input_t.matmul_into(grad_out, &mut s.dw);
        self.weight.accumulate_grad(&s.dw);
        grad_out.sum_rows_into(&mut s.db);
        self.bias.accumulate_grad(&s.db);
        grad_out.matmul_nt_into(&self.weight.value, dx, &mut s.weight_t);
    }

    /// Clears gradients on both parameters.
    pub fn zero_grad(&mut self) {
        self.weight.zero_grad();
        self.bias.zero_grad();
    }

    /// Mutable references to the layer's parameters, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(rows: usize, in_f: usize, out_f: usize, seed: u64) {
        let mut rng = Rng::seed_from(seed);
        let mut layer = Linear::new(in_f, out_f, &mut rng);
        let x = rng.gaussian_matrix(rows, in_f, 1.0);
        // Loss = sum(y * coeff) with random coefficients to make gradients
        // non-trivial.
        let coeff = rng.gaussian_matrix(rows, out_f, 1.0);
        let loss = |layer: &Linear, x: &Matrix| -> f32 {
            let (y, _) = layer.forward(x);
            y.hadamard(&coeff).as_slice().iter().sum()
        };

        let (y, cache) = layer.forward(&x);
        assert_eq!(y.shape(), (rows, out_f));
        let dx = layer.backward(&cache, &coeff);

        let eps = 1e-2f32;
        // Check dW on a few entries.
        for &(i, j) in &[(0usize, 0usize), (in_f - 1, out_f - 1)] {
            let orig = layer.weight.value.get(i, j);
            layer.weight.value.set(i, j, orig + eps);
            let lp = loss(&layer, &x);
            layer.weight.value.set(i, j, orig - eps);
            let lm = loss(&layer, &x);
            layer.weight.value.set(i, j, orig);
            let fd = (lp - lm) / (2.0 * eps);
            let an = layer.weight.grad.get(i, j);
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "dW[{i},{j}]: fd={fd} an={an}"
            );
        }
        // Check dx.
        let mut x2 = x.clone();
        let orig = x2.get(0, 0);
        x2.set(0, 0, orig + eps);
        let lp = loss(&layer, &x2);
        x2.set(0, 0, orig - eps);
        let lm = loss(&layer, &x2);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - dx.get(0, 0)).abs() < 2e-2 * (1.0 + fd.abs()));
        // Check db.
        let orig_b = layer.bias.value.get(0, 0);
        layer.bias.value.set(0, 0, orig_b + eps);
        let lp = loss(&layer, &x);
        layer.bias.value.set(0, 0, orig_b - eps);
        let lm = loss(&layer, &x);
        layer.bias.value.set(0, 0, orig_b);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - layer.bias.grad.get(0, 0)).abs() < 2e-2 * (1.0 + fd.abs()));
    }

    #[test]
    fn gradients_match_finite_differences() {
        finite_diff_check(3, 5, 4, 42);
        finite_diff_check(1, 2, 7, 7);
    }

    #[test]
    fn forward_shape_and_bias() {
        let layer = Linear {
            weight: Parameter::new(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])),
            bias: Parameter::new(Matrix::from_rows(&[&[10.0, 20.0]])),
        };
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(layer.infer(&x), Matrix::from_rows(&[&[11.0, 22.0]]));
        assert_eq!(layer.in_features(), 2);
        assert_eq!(layer.out_features(), 2);
    }

    #[test]
    fn backward_accumulates_over_calls() {
        let mut rng = Rng::seed_from(1);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let g = Matrix::from_rows(&[&[1.0, 1.0]]);
        let (_, c1) = layer.forward(&x);
        layer.backward(&c1, &g);
        let after_one = layer.weight.grad.clone();
        let (_, c2) = layer.forward(&x);
        layer.backward(&c2, &g);
        assert_eq!(layer.weight.grad, after_one.scale(2.0));
        layer.zero_grad();
        assert_eq!(layer.weight.grad, Matrix::zeros(2, 2));
    }
}
