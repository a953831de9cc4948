//! A small ReLU multi-layer perceptron.
//!
//! EdgeBERT's early-exit predictor is "a ReLU-activated five-layer
//! perceptron neural network with 64 cells in each of the hidden layers"
//! (paper §5.1). [`Mlp`] is that network, plus the generic training loop
//! used to fit it on entropy trajectories.

use crate::activation::{relu_backward, relu_forward};
use crate::linear::{Linear, LinearCache};
use crate::param::Parameter;
use edgebert_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// A fully-connected ReLU network with arbitrary layer sizes.
///
/// # Example
///
/// ```
/// use edgebert_nn::Mlp;
/// use edgebert_tensor::{Matrix, Rng};
///
/// let mut rng = Rng::seed_from(0);
/// // The paper's EE predictor: 1 input, three 64-wide hidden layers, 12 outputs.
/// let mlp = Mlp::new(&[1, 64, 64, 64, 12], &mut rng);
/// let y = mlp.infer(&Matrix::zeros(2, 1));
/// assert_eq!(y.shape(), (2, 12));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Saved activations for [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct MlpCache {
    linear_caches: Vec<LinearCache>,
    relu_caches: Vec<Matrix>,
}

impl Mlp {
    /// Creates an MLP with the given layer widths (`sizes[0]` inputs,
    /// `sizes.last()` outputs). ReLU is applied between layers but not
    /// after the final one.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], rng: &mut Rng) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        let layers = sizes
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self { layers }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.layers[0].in_features()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.layers[self.layers.len() - 1].out_features()
    }

    /// Forward pass returning output and cache.
    pub fn forward(&self, x: &Matrix) -> (Matrix, MlpCache) {
        let mut linear_caches = Vec::with_capacity(self.layers.len());
        let mut relu_caches = Vec::with_capacity(self.layers.len() - 1);
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let (y, c) = layer.forward(&h);
            linear_caches.push(c);
            if i + 1 < self.layers.len() {
                let (a, rc) = relu_forward(&y);
                relu_caches.push(rc);
                h = a;
            } else {
                h = y;
            }
        }
        (
            h,
            MlpCache {
                linear_caches,
                relu_caches,
            },
        )
    }

    /// Inference-only forward.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.infer(&h);
            if i + 1 < self.layers.len() {
                h.map_inplace(|v| v.max(0.0));
            }
        }
        h
    }

    /// Backward pass; accumulates parameter grads and returns `dx`.
    pub fn backward(&mut self, cache: &MlpCache, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for i in (0..self.layers.len()).rev() {
            if i + 1 < self.layers.len() {
                g = relu_backward(&cache.relu_caches[i], &g);
            }
            g = self.layers[i].backward(&cache.linear_caches[i], &g);
        }
        g
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Mutable parameter references for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut ps = Vec::new();
        for l in &mut self.layers {
            ps.extend(l.params_mut());
        }
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::losses::cross_entropy;
    use crate::optim::AdamOptimizer;

    #[test]
    fn shapes_and_depth() {
        let mut rng = Rng::seed_from(1);
        let mlp = Mlp::new(&[3, 8, 8, 2], &mut rng);
        assert_eq!(mlp.in_features(), 3);
        assert_eq!(mlp.out_features(), 2);
        let y = mlp.infer(&Matrix::zeros(5, 3));
        assert_eq!(y.shape(), (5, 2));
    }

    #[test]
    fn forward_and_infer_agree() {
        let mut rng = Rng::seed_from(2);
        let mlp = Mlp::new(&[4, 6, 3], &mut rng);
        let x = rng.gaussian_matrix(3, 4, 1.0);
        let (y, _) = mlp.forward(&x);
        assert_eq!(mlp.infer(&x), y);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Rng::seed_from(3);
        let mut mlp = Mlp::new(&[3, 5, 2], &mut rng);
        let x = rng.gaussian_matrix(4, 3, 1.0);
        let coeff = rng.gaussian_matrix(4, 2, 1.0);
        let loss =
            |m: &Mlp, x: &Matrix| -> f32 { m.infer(x).hadamard(&coeff).as_slice().iter().sum() };
        let (_, cache) = mlp.forward(&x);
        let dx = mlp.backward(&cache, &coeff);
        let eps = 1e-2f32;
        let mut x2 = x.clone();
        let orig = x2.get(0, 1);
        x2.set(0, 1, orig + eps);
        let lp = loss(&mlp, &x2);
        x2.set(0, 1, orig - eps);
        let lm = loss(&mlp, &x2);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - dx.get(0, 1)).abs() < 5e-2 * (1.0 + fd.abs()));
    }

    #[test]
    fn mlp_learns_a_simple_classification() {
        // Separable 2-class problem: sign of the first input.
        let mut rng = Rng::seed_from(4);
        let mut mlp = Mlp::new(&[2, 16, 2], &mut rng);
        let mut opt = AdamOptimizer::new(0.02);
        let n = 64;
        let mut xs = Matrix::zeros(n, 2);
        let mut ys = Vec::with_capacity(n);
        for r in 0..n {
            let a = rng.gaussian();
            let b = rng.gaussian();
            xs.set(r, 0, a);
            xs.set(r, 1, b);
            ys.push(if a > 0.0 { 1 } else { 0 });
        }
        for _ in 0..200 {
            mlp.zero_grad();
            let (logits, cache) = mlp.forward(&xs);
            let (_, grad) = cross_entropy(&logits, &ys);
            mlp.backward(&cache, &grad);
            opt.step(&mut mlp.params_mut());
        }
        let acc = crate::losses::accuracy(&mlp.infer(&xs), &ys);
        assert!(acc > 0.95, "accuracy {acc}");
    }
}
