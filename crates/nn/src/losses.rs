//! Loss functions: cross-entropy, knowledge distillation, and MSE.
//!
//! Each returns `(loss_value, grad_wrt_logits)` so callers can feed the
//! gradient straight into a backward pass. Losses are averaged over the
//! batch (matrix rows).

use edgebert_tensor::kernels::{exp, log_softmax, softmax_inplace};
use edgebert_tensor::Matrix;

/// Softmax cross-entropy against integer class targets.
///
/// Returns the mean loss and `dL/dlogits = (softmax(logits) - onehot)/B`.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or any target is out of
/// range.
///
/// # Example
///
/// ```
/// use edgebert_nn::losses::cross_entropy;
/// use edgebert_tensor::Matrix;
///
/// let logits = Matrix::from_rows(&[&[5.0, 0.0]]);
/// let (loss, _grad) = cross_entropy(&logits, &[0]);
/// assert!(loss < 0.1); // confident and correct
/// ```
pub fn cross_entropy(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
    assert_eq!(targets.len(), logits.rows(), "one target per row required");
    let batch = logits.rows() as f32;
    let classes = logits.cols();
    let mut grad = Matrix::zeros(logits.rows(), classes);
    let mut loss = 0.0f32;
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < classes, "target {t} out of range for {classes} classes");
        let ls = log_softmax(logits.row(r));
        loss += -ls[t];
        let g = grad.row_mut(r);
        for c in 0..classes {
            g[c] = (exp(ls[c]) - if c == t { 1.0 } else { 0.0 }) / batch;
        }
    }
    (loss / batch, grad)
}

/// Knowledge-distillation loss: temperature-scaled KL divergence
/// `T^2 · KL(softmax(t/T) || softmax(s/T))`, averaged over the batch.
///
/// Returns the loss and its gradient with respect to the *student* logits,
/// `T · (softmax(s/T) - softmax(t/T)) / B`.
///
/// # Panics
///
/// Panics if the two logit matrices have different shapes or `temperature
/// <= 0`.
pub fn distillation(student: &Matrix, teacher: &Matrix, temperature: f32) -> (f32, Matrix) {
    assert_eq!(student.shape(), teacher.shape(), "logit shape mismatch");
    assert!(temperature > 0.0, "temperature must be positive");
    let batch = student.rows() as f32;
    let t2 = temperature * temperature;
    let mut grad = Matrix::zeros(student.rows(), student.cols());
    let mut loss = 0.0f32;
    for r in 0..student.rows() {
        let s_scaled: Vec<f32> = student.row(r).iter().map(|&v| v / temperature).collect();
        let t_scaled: Vec<f32> = teacher.row(r).iter().map(|&v| v / temperature).collect();
        let ls_s = log_softmax(&s_scaled);
        let mut p_t = t_scaled.clone();
        softmax_inplace(&mut p_t);
        let ls_t = log_softmax(&t_scaled);
        for c in 0..student.cols() {
            if p_t[c] > 0.0 {
                loss += t2 * p_t[c] * (ls_t[c] - ls_s[c]);
            }
            let p_s = exp(ls_s[c]);
            grad.set(r, c, temperature * (p_s - p_t[c]) / batch);
        }
    }
    (loss / batch, grad)
}

/// Mean squared error; returns the loss and `dL/dpred = 2(pred-target)/N`.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn mse(pred: &Matrix, target: &Matrix) -> (f32, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.len().max(1) as f32;
    let diff = pred.sub(target);
    let loss = diff.as_slice().iter().map(|d| d * d).sum::<f32>() / n;
    (loss, diff.scale(2.0 / n))
}

/// Classification accuracy of logits against integer targets, in `[0, 1]`.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()`.
pub fn accuracy(logits: &Matrix, targets: &[usize]) -> f32 {
    assert_eq!(targets.len(), logits.rows());
    if targets.is_empty() {
        return 0.0;
    }
    let correct = (0..logits.rows())
        .filter(|&r| edgebert_tensor::stats::argmax(logits.row(r)) == targets[r])
        .count();
    correct as f32 / targets.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebert_tensor::Rng;

    #[test]
    fn cross_entropy_gradient_matches_fd() {
        let mut rng = Rng::seed_from(2);
        let logits = rng.gaussian_matrix(3, 4, 1.0);
        let targets = [1usize, 0, 3];
        let (_, grad) = cross_entropy(&logits, &targets);
        let eps = 1e-2f32;
        for &(r, c) in &[(0usize, 0usize), (1, 2), (2, 3)] {
            let mut lp = logits.clone();
            lp.set(r, c, logits.get(r, c) + eps);
            let mut lm = logits.clone();
            lm.set(r, c, logits.get(r, c) - eps);
            let fd =
                (cross_entropy(&lp, &targets).0 - cross_entropy(&lm, &targets).0) / (2.0 * eps);
            assert!(
                (fd - grad.get(r, c)).abs() < 1e-2,
                "fd={fd} an={}",
                grad.get(r, c)
            );
        }
    }

    #[test]
    fn cross_entropy_uniform_is_ln_k() {
        let logits = Matrix::zeros(2, 5);
        let (loss, _) = cross_entropy(&logits, &[0, 4]);
        assert!((loss - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn distillation_zero_when_matching() {
        let mut rng = Rng::seed_from(3);
        let logits = rng.gaussian_matrix(2, 3, 1.0);
        let (loss, grad) = distillation(&logits, &logits, 2.0);
        assert!(loss.abs() < 1e-6);
        assert!(grad.frobenius_norm() < 1e-6);
    }

    #[test]
    fn distillation_gradient_matches_fd() {
        let mut rng = Rng::seed_from(4);
        let student = rng.gaussian_matrix(2, 3, 1.0);
        let teacher = rng.gaussian_matrix(2, 3, 1.0);
        let (_, grad) = distillation(&student, &teacher, 2.0);
        let eps = 1e-2f32;
        for &(r, c) in &[(0usize, 1usize), (1, 2)] {
            let mut sp = student.clone();
            sp.set(r, c, student.get(r, c) + eps);
            let mut sm = student.clone();
            sm.set(r, c, student.get(r, c) - eps);
            let fd = (distillation(&sp, &teacher, 2.0).0 - distillation(&sm, &teacher, 2.0).0)
                / (2.0 * eps);
            assert!(
                (fd - grad.get(r, c)).abs() < 2e-2 * (1.0 + fd.abs()),
                "fd={fd} an={}",
                grad.get(r, c)
            );
        }
    }

    #[test]
    fn distillation_is_nonnegative() {
        let mut rng = Rng::seed_from(5);
        for _ in 0..10 {
            let s = rng.gaussian_matrix(2, 4, 2.0);
            let t = rng.gaussian_matrix(2, 4, 2.0);
            assert!(distillation(&s, &t, 1.5).0 >= -1e-5);
        }
    }

    #[test]
    fn mse_known_value() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[0.0, 0.0]]);
        let (loss, grad) = mse(&a, &b);
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad, Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[3.0, 1.0]]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
    }
}
