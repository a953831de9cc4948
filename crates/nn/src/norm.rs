//! Layer normalization with manual forward/backward.
//!
//! LayerNorm is load-bearing in this reproduction for two reasons: it is
//! one of the SFU's specialized datapaths (paper §7.4), and its
//! re-parameterization invariance is the stated reason NLP models need
//! floating-point rather than integer quantization (paper §3.4).

use crate::param::Parameter;
use edgebert_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Per-row layer normalization `y = gamma * (x - mu) / sigma + beta`.
///
/// # Example
///
/// ```
/// use edgebert_nn::LayerNorm;
/// use edgebert_tensor::Matrix;
///
/// let ln = LayerNorm::new(4);
/// let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
/// let (y, _) = ln.forward(&x);
/// let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
/// assert!(mean.abs() < 1e-5);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerNorm {
    /// Scale, `1 x features`.
    pub gamma: Parameter,
    /// Shift, `1 x features`.
    pub beta: Parameter,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

/// Saved statistics for [`LayerNorm::backward`].
#[derive(Debug, Clone, Default)]
pub struct LayerNormCache {
    /// Normalized input `(x - mu) / sigma`.
    x_hat: Matrix,
    /// Per-row `1 / sigma`.
    inv_std: Vec<f32>,
}

/// Working buffers of [`LayerNorm::backward_into`]: one call's
/// `dgamma`/`dbeta` (summed from zero, then added to the gradients once)
/// and a row of `dxhat`.
#[derive(Debug, Default)]
pub struct NormGradScratch {
    dgamma: Matrix,
    dbeta: Matrix,
    dxhat: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer with `gamma = 1`, `beta = 0`.
    pub fn new(features: usize) -> Self {
        Self {
            gamma: Parameter::new(Matrix::filled(1, features, 1.0)),
            beta: Parameter::new(Matrix::zeros(1, features)),
            eps: 1e-5,
        }
    }

    /// Feature dimension this layer normalizes over.
    pub fn features(&self) -> usize {
        self.gamma.value.cols()
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != features`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, LayerNormCache) {
        let (mut out, mut cache) = (Matrix::default(), LayerNormCache::default());
        self.forward_into(x, &mut out, &mut cache);
        (out, cache)
    }

    /// [`LayerNorm::forward`] written into `out` and `cache`, both
    /// reshaped and overwritten.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix, cache: &mut LayerNormCache) {
        cache.x_hat.resize_to(x.rows(), x.cols());
        cache.inv_std.clear();
        cache.inv_std.reserve(x.rows());
        self.normalize(x, out, |is, xh| {
            cache.x_hat.row_mut(cache.inv_std.len()).copy_from_slice(xh);
            cache.inv_std.push(is);
        });
    }

    /// Inference-only forward (no cache).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.infer_into(x, &mut out);
        out
    }

    /// [`LayerNorm::infer`] written into `out`, which is reshaped and
    /// overwritten.
    // analyzer: hot-path
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix) {
        self.normalize(x, out, |_, _| {});
    }

    /// The one normalization loop. Each row of `out` first holds
    /// `x_hat = (x - mu) / sigma`, which `keep` sees together with the
    /// row's `1 / sigma`, and is then scaled and shifted in place.
    fn normalize(&self, x: &Matrix, out: &mut Matrix, mut keep: impl FnMut(f32, &[f32])) {
        assert_eq!(x.cols(), self.features(), "layernorm width mismatch");
        let n = x.cols() as f32;
        out.resize_to(x.rows(), x.cols());
        let gamma = self.gamma.value.row(0);
        let beta = self.beta.value.row(0);
        for r in 0..x.rows() {
            let row = x.row(r);
            let mu: f32 = row.iter().sum::<f32>() / n;
            let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / n;
            let is = 1.0 / (var + self.eps).sqrt();
            let out_row = out.row_mut(r);
            for (o, &v) in out_row.iter_mut().zip(row) {
                *o = (v - mu) * is;
            }
            keep(is, out_row);
            for ((o, &g), &b) in out_row.iter_mut().zip(gamma).zip(beta) {
                *o = g * *o + b;
            }
        }
    }

    /// Backward pass; accumulates `dgamma`/`dbeta` and returns `dx`.
    pub fn backward(&mut self, cache: &LayerNormCache, grad_out: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(cache, grad_out, &mut dx, &mut NormGradScratch::default());
        dx
    }

    /// [`LayerNorm::backward`] with `dx` written into a caller buffer
    /// (reshaped and overwritten).
    // analyzer: hot-path
    pub fn backward_into(
        &mut self,
        cache: &LayerNormCache,
        grad_out: &Matrix,
        dx: &mut Matrix,
        s: &mut NormGradScratch,
    ) {
        let (rows, cols) = grad_out.shape();
        let n = cols as f32;
        let gamma = self.gamma.value.row(0);
        s.dgamma.resize_to(1, cols);
        s.dgamma.as_mut_slice().fill(0.0);
        s.dbeta.resize_to(1, cols);
        s.dbeta.as_mut_slice().fill(0.0);
        s.dxhat.resize(cols, 0.0);
        dx.resize_to(rows, cols);
        for r in 0..rows {
            let go = grad_out.row(r);
            let xh = cache.x_hat.row(r);
            // Accumulate parameter grads.
            let (dgamma, dbeta) = (s.dgamma.as_mut_slice(), s.dbeta.as_mut_slice());
            for (((dg, db), &g), &x) in dgamma.iter_mut().zip(dbeta).zip(go).zip(xh) {
                *dg += g * x;
                *db += g;
            }
            // dx via the standard layernorm backward:
            // dx = (1/sigma) * (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat))
            for ((d, &g), &gm) in s.dxhat.iter_mut().zip(go).zip(gamma) {
                *d = g * gm;
            }
            let mean_dxhat: f32 = s.dxhat.iter().sum::<f32>() / n;
            let mean_dxhat_xhat: f32 = s
                .dxhat
                .iter()
                .zip(xh.iter())
                .map(|(&d, &x)| d * x)
                .sum::<f32>()
                / n;
            let is = cache.inv_std[r];
            for ((o, &d), &x) in dx.row_mut(r).iter_mut().zip(&s.dxhat).zip(xh) {
                *o = is * (d - mean_dxhat - x * mean_dxhat_xhat);
            }
        }
        self.gamma.accumulate_grad(&s.dgamma);
        self.beta.accumulate_grad(&s.dbeta);
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        self.gamma.zero_grad();
        self.beta.zero_grad();
    }

    /// Mutable parameter references for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebert_tensor::Rng;

    #[test]
    fn output_rows_are_normalized() {
        let ln = LayerNorm::new(8);
        let mut rng = Rng::seed_from(4);
        let x = rng.gaussian_matrix(5, 8, 3.0);
        let (y, _) = ln.forward(&x);
        for r in 0..y.rows() {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 8.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn scale_invariance_property() {
        // Layer norm output is invariant to scaling the input row — the
        // property that motivates FP quantization in the paper.
        let ln = LayerNorm::new(4);
        let x = Matrix::from_rows(&[&[1.0, -2.0, 0.5, 3.0]]);
        let (y1, _) = ln.forward(&x);
        let (y2, _) = ln.forward(&x.scale(25.0));
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Rng::seed_from(8);
        let mut ln = LayerNorm::new(6);
        // Non-trivial gamma/beta.
        ln.gamma.value = rng.gaussian_matrix(1, 6, 1.0);
        ln.beta.value = rng.gaussian_matrix(1, 6, 1.0);
        let x = rng.gaussian_matrix(3, 6, 1.5);
        let coeff = rng.gaussian_matrix(3, 6, 1.0);
        let loss = |ln: &LayerNorm, x: &Matrix| -> f32 {
            ln.forward(x).0.hadamard(&coeff).as_slice().iter().sum()
        };
        let (_, cache) = ln.forward(&x);
        let dx = ln.backward(&cache, &coeff);
        let eps = 1e-2f32;
        // dx check on several coordinates.
        for &(r, c) in &[(0usize, 0usize), (1, 3), (2, 5)] {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + eps);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - eps);
            let fd = (loss(&ln, &xp) - loss(&ln, &xm)) / (2.0 * eps);
            assert!(
                (fd - dx.get(r, c)).abs() < 3e-2 * (1.0 + fd.abs()),
                "dx[{r},{c}] fd={fd} an={}",
                dx.get(r, c)
            );
        }
        // dgamma check.
        let orig = ln.gamma.value.get(0, 2);
        ln.gamma.value.set(0, 2, orig + eps);
        let lp = loss(&ln, &x);
        ln.gamma.value.set(0, 2, orig - eps);
        let lm = loss(&ln, &x);
        ln.gamma.value.set(0, 2, orig);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - ln.gamma.grad.get(0, 2)).abs() < 3e-2 * (1.0 + fd.abs()));
        // dbeta check.
        let orig = ln.beta.value.get(0, 4);
        ln.beta.value.set(0, 4, orig + eps);
        let lp = loss(&ln, &x);
        ln.beta.value.set(0, 4, orig - eps);
        let lm = loss(&ln, &x);
        ln.beta.value.set(0, 4, orig);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - ln.beta.grad.get(0, 4)).abs() < 3e-2 * (1.0 + fd.abs()));
    }
}
