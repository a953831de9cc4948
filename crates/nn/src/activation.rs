//! Element-wise activations with cached backward passes.

use edgebert_tensor::kernels::{gelu_grad_mul_in_place, relu};
use edgebert_tensor::Matrix;

/// Backward of an element-wise GELU in place: `dx = dy * gelu'(x)`,
/// where `cache` is the pre-activation input `x` and `grad` holds `dy`
/// on entry and `dx` on return.
// analyzer: hot-path
pub fn gelu_backward_in_place(cache: &Matrix, grad: &mut Matrix) {
    gelu_grad_mul_in_place(cache.as_slice(), grad.as_mut_slice());
}

/// ReLU applied element-wise; returns `(output, cache)`.
pub fn relu_forward(x: &Matrix) -> (Matrix, Matrix) {
    (x.map(relu), x.clone())
}

/// Backward of [`relu_forward`].
pub fn relu_backward(cache: &Matrix, grad_out: &Matrix) -> Matrix {
    let mut dx = grad_out.clone();
    for (d, &x) in dx.as_mut_slice().iter_mut().zip(cache.as_slice()) {
        if x <= 0.0 {
            *d = 0.0;
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebert_tensor::kernels::gelu;
    use edgebert_tensor::Rng;

    #[test]
    fn relu_zeroes_negatives() {
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let (y, cache) = relu_forward(&x);
        assert_eq!(y, Matrix::from_rows(&[&[0.0, 0.0, 2.0]]));
        let g = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]);
        let dx = relu_backward(&cache, &g);
        assert_eq!(dx, Matrix::from_rows(&[&[0.0, 0.0, 1.0]]));
    }

    #[test]
    fn gelu_backward_matches_fd() {
        let mut rng = Rng::seed_from(3);
        let x = rng.gaussian_matrix(2, 4, 1.0);
        let g = rng.gaussian_matrix(2, 4, 1.0);
        let mut dx = g.clone();
        gelu_backward_in_place(&x, &mut dx);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let lp: f32 = xp.map(gelu).hadamard(&g).as_slice().iter().sum();
                let lm: f32 = xm.map(gelu).hadamard(&g).as_slice().iter().sum();
                let fd = (lp - lm) / (2.0 * eps);
                assert!((fd - dx.get(r, c)).abs() < 2e-2 * (1.0 + fd.abs()));
            }
        }
    }
}
