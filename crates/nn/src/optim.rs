//! Optimizers: Adam and plain SGD.
//!
//! Both respect [`Parameter::frozen`] (used in training phase 2, where the
//! ALBERT backbone is frozen and only the highway off-ramps train) and
//! re-apply pruning masks after each step so pruned weights stay zero.

use crate::param::Parameter;
use edgebert_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Adam optimizer (Kingma & Ba) with optional decoupled weight decay.
///
/// # Example
///
/// ```
/// use edgebert_nn::{AdamOptimizer, Parameter};
/// use edgebert_tensor::Matrix;
///
/// let mut p = Parameter::new(Matrix::filled(1, 1, 1.0));
/// p.grad = Matrix::filled(1, 1, 1.0);
/// let mut opt = AdamOptimizer::new(0.1);
/// opt.step(&mut [&mut p]);
/// assert!(p.value.get(0, 0) < 1.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdamOptimizer {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay coefficient (AdamW-style).
    pub weight_decay: f32,
    t: u64,
}

impl AdamOptimizer {
    /// Creates an Adam optimizer with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update to every non-frozen parameter, then re-applies
    /// pruning masks.
    pub fn step(&mut self, params: &mut [&mut Parameter]) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for p in params.iter_mut() {
            if p.frozen {
                continue;
            }
            let (rows, cols) = p.shape();
            // Stepped before any backward, the gradient is zeros (weight
            // decay still acts).
            p.grad_mut();
            if p.adam_m.is_none() {
                p.adam_m = Some(Matrix::zeros(rows, cols));
                p.adam_v = Some(Matrix::zeros(rows, cols));
            }
            let m = p.adam_m.as_mut().expect("just initialised");
            let v = p.adam_v.as_mut().expect("just initialised");
            let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
            let weights = p.value.as_mut_slice().iter_mut().zip(p.grad.as_slice());
            for ((w, &g), (m, v)) in weights.zip(moments) {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let m_hat = *m / b1t;
                let v_hat = *v / b2t;
                *w -= self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * *w);
            }
            p.apply_mask();
        }
    }
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SgdOptimizer {
    /// Learning rate.
    pub lr: f32,
}

impl SgdOptimizer {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }

    /// Applies `w -= lr * g` to every non-frozen parameter, then
    /// re-applies pruning masks.
    pub fn step(&mut self, params: &mut [&mut Parameter]) {
        for p in params.iter_mut() {
            if p.frozen {
                continue;
            }
            p.grad_mut(); // zeros if nothing was accumulated yet
            for (w, &g) in p.value.as_mut_slice().iter_mut().zip(p.grad.as_slice()) {
                *w -= self.lr * g;
            }
            p.apply_mask();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &mut Parameter) {
        // L = 0.5 * ||w - 3||^2  =>  g = w - 3
        p.zero_grad();
        let g = p.value.map(|w| w - 3.0);
        p.accumulate_grad(&g);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Parameter::new(Matrix::filled(2, 2, 0.0));
        let mut opt = AdamOptimizer::new(0.2);
        for _ in 0..300 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        for &w in p.value.as_slice() {
            assert!((w - 3.0).abs() < 0.05, "w={w}");
        }
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = Parameter::new(Matrix::filled(1, 3, 10.0));
        let mut opt = SgdOptimizer::new(0.1);
        for _ in 0..200 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        for &w in p.value.as_slice() {
            assert!((w - 3.0).abs() < 1e-3);
        }
    }

    #[test]
    fn zipped_steps_keep_the_indexed_loops_bits() {
        // The per-element update as it was written with four indexed
        // slices, kept here as the reference.
        fn indexed_adam(opt: &AdamOptimizer, t: i32, p: &mut Parameter) {
            let (b1t, b2t) = (1.0 - opt.beta1.powi(t), 1.0 - opt.beta2.powi(t));
            let (m, v) = (p.adam_m.as_mut().unwrap(), p.adam_v.as_mut().unwrap());
            for i in 0..p.value.len() {
                let g = p.grad.as_slice()[i];
                let mi = opt.beta1 * m.as_slice()[i] + (1.0 - opt.beta1) * g;
                let vi = opt.beta2 * v.as_slice()[i] + (1.0 - opt.beta2) * g * g;
                m.as_mut_slice()[i] = mi;
                v.as_mut_slice()[i] = vi;
                let (m_hat, v_hat) = (mi / b1t, vi / b2t);
                let w = &mut p.value.as_mut_slice()[i];
                *w -= opt.lr * (m_hat / (v_hat.sqrt() + opt.eps) + opt.weight_decay * *w);
            }
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = edgebert_tensor::Rng::seed_from(19);
        let mut adam = Parameter::new(rng.gaussian_matrix(48, 96, 0.5));
        let mut adam_ref = adam.clone();
        adam_ref.adam_m = Some(Matrix::zeros(48, 96));
        adam_ref.adam_v = Some(Matrix::zeros(48, 96));
        let mut sgd = adam.clone();
        let mut sgd_ref = adam.clone();
        let mut adam_opt = AdamOptimizer::new(1.5e-3);
        adam_opt.weight_decay = 0.01;
        let mut sgd_opt = SgdOptimizer::new(0.05);
        for t in 1..=20 {
            let mut grad = rng.gaussian_matrix(48, 96, 1.0);
            grad.set(t, t, 0.0);
            for p in [&mut adam, &mut adam_ref, &mut sgd, &mut sgd_ref] {
                p.grad = grad.clone();
            }
            adam_opt.step(&mut [&mut adam]);
            indexed_adam(&adam_opt, t as i32, &mut adam_ref);
            sgd_opt.step(&mut [&mut sgd]);
            for i in 0..sgd_ref.value.len() {
                sgd_ref.value.as_mut_slice()[i] -= sgd_opt.lr * sgd_ref.grad.as_slice()[i];
            }
            assert_eq!(bits(&adam.value), bits(&adam_ref.value), "adam step {t}");
            let moments = |p: &Parameter| [p.adam_m.clone().unwrap(), p.adam_v.clone().unwrap()];
            for (got, want) in moments(&adam).iter().zip(&moments(&adam_ref)) {
                assert_eq!(bits(got), bits(want), "adam moments, step {t}");
            }
            assert_eq!(bits(&sgd.value), bits(&sgd_ref.value), "sgd step {t}");
        }
    }

    #[test]
    fn frozen_parameters_do_not_move() {
        let mut p = Parameter::new(Matrix::filled(1, 1, 5.0));
        p.frozen = true;
        quadratic_grad(&mut p);
        let mut adam = AdamOptimizer::new(0.5);
        adam.step(&mut [&mut p]);
        let mut sgd = SgdOptimizer::new(0.5);
        sgd.step(&mut [&mut p]);
        assert_eq!(p.value.get(0, 0), 5.0);
    }

    #[test]
    fn masked_weights_stay_zero_through_updates() {
        let mut p = Parameter::new(Matrix::from_rows(&[&[1.0, 1.0]]));
        p.set_mask(Matrix::from_rows(&[&[1.0, 0.0]]));
        let mut opt = AdamOptimizer::new(0.1);
        for _ in 0..10 {
            p.zero_grad();
            p.accumulate_grad(&Matrix::from_rows(&[&[-1.0, -1.0]]));
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.get(0, 0) > 1.0); // unmasked weight trains
        assert_eq!(p.value.get(0, 1), 0.0); // pruned weight pinned at zero
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = Parameter::new(Matrix::filled(1, 1, 1.0));
        let mut opt = AdamOptimizer::new(0.01);
        opt.weight_decay = 0.5;
        // Zero task gradient: only decay acts.
        p.zero_grad();
        for _ in 0..50 {
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.get(0, 0) < 1.0);
    }
}
