//! Network pruning: magnitude and movement pruning (paper §3.3).
//!
//! * **Magnitude pruning** (Han et al.) removes the smallest-|w| weights.
//!   EdgeBERT always applies it to the embedding layer so the pruned
//!   pattern is shared across NLP tasks (multi-task data reuse in eNVM).
//! * **Movement pruning** (Sanh et al.) removes weights whose accumulated
//!   movement score `S = -Σ w·g` is lowest, i.e. weights moving *toward*
//!   zero during fine-tuning. The paper prefers it for encoder weights in
//!   high-sparsity regimes.
//!
//! Both pruners ramp sparsity with the cubic schedule of Zhu & Gupta.

use crate::param::Parameter;
use edgebert_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Which pruning criterion to use for the encoder weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PruneMethod {
    /// Keep the largest-magnitude weights.
    Magnitude,
    /// Keep the weights with the highest movement scores.
    Movement,
}

/// Cubic sparsity ramp: `s(t) = s_f * (1 - (1 - t/T)^3)`, clamped to
/// `[0, s_f]`.
///
/// # Example
///
/// ```
/// use edgebert_nn::prune::sparsity_schedule;
/// assert_eq!(sparsity_schedule(0, 100, 0.8), 0.0);
/// assert!((sparsity_schedule(100, 100, 0.8) - 0.8).abs() < 1e-6);
/// ```
pub fn sparsity_schedule(step: usize, total_steps: usize, final_sparsity: f32) -> f32 {
    if total_steps == 0 {
        return final_sparsity;
    }
    let t = (step as f32 / total_steps as f32).clamp(0.0, 1.0);
    final_sparsity * (1.0 - (1.0 - t).powi(3))
}

/// Writes into `mask` (reshaped to `scores`' shape, its buffer reused)
/// the keep-mask that retains the `1 - sparsity` fraction of entries
/// with the highest `key(score)`; ties go to the lower index. The only
/// allocation is the `u32` index that is sorted: no copy of the keys,
/// no second mask beside the one being replaced.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]` or `scores` has more than
/// `u32::MAX` entries.
fn fill_topk_mask(mask: &mut Matrix, scores: &Matrix, key: impl Fn(f32) -> f32, sparsity: f32) {
    assert!(
        (0.0..=1.0).contains(&sparsity),
        "sparsity {sparsity} out of range"
    );
    let n = scores.len();
    let prune_count = ((n as f32) * sparsity).round() as usize;
    let keep_count = n - prune_count;
    let (rows, cols) = scores.shape();
    let scores = scores.as_slice();
    let key_at = |i: u32| key(scores[i as usize]);
    let mut idx: Vec<u32> = (0..u32::try_from(n).expect("tensor indexable by u32")).collect();
    // A strict total order (the index breaks every tie), so the unstable
    // sort has one possible result and needs no merge buffer.
    idx.sort_unstable_by(|&a, &b| key_at(b).total_cmp(&key_at(a)).then(a.cmp(&b)));
    mask.resize_to(rows, cols);
    mask.as_mut_slice().fill(0.0);
    for &i in &idx[..keep_count] {
        mask.as_mut_slice()[i as usize] = 1.0;
    }
}

/// Builds a keep-mask that retains the `1 - sparsity` fraction of entries
/// with the highest `score`, ties going to the lower index.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]`.
pub fn topk_mask(scores: &Matrix, sparsity: f32) -> Matrix {
    let mut mask = Matrix::default();
    fill_topk_mask(&mut mask, scores, |s| s, sparsity);
    mask
}

/// Builds a magnitude-pruning mask for a weight tensor.
pub fn magnitude_mask(weights: &Matrix, sparsity: f32) -> Matrix {
    let mut mask = Matrix::default();
    fill_topk_mask(&mut mask, weights, f32::abs, sparsity);
    mask
}

/// A pruner that ramps a parameter to a target sparsity over the course of
/// fine-tuning.
///
/// # Example
///
/// ```
/// use edgebert_nn::prune::{Pruner, PruneMethod};
/// use edgebert_nn::Parameter;
/// use edgebert_tensor::{Matrix, Rng};
///
/// let mut rng = Rng::seed_from(0);
/// let mut p = Parameter::new(rng.gaussian_matrix(8, 8, 1.0));
/// let pruner = Pruner::new(PruneMethod::Magnitude, 0.5, 10);
/// pruner.apply(&mut p, 10);
/// assert!((p.sparsity() - 0.5).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pruner {
    method: PruneMethod,
    final_sparsity: f32,
    total_steps: usize,
}

impl Pruner {
    /// Creates a pruner.
    ///
    /// # Panics
    ///
    /// Panics if `final_sparsity` is outside `[0, 1)`.
    pub fn new(method: PruneMethod, final_sparsity: f32, total_steps: usize) -> Self {
        assert!(
            (0.0..1.0).contains(&final_sparsity),
            "final sparsity {final_sparsity} out of range"
        );
        Self {
            method,
            final_sparsity,
            total_steps,
        }
    }

    /// The pruning criterion.
    pub fn method(&self) -> PruneMethod {
        self.method
    }

    /// Target sparsity at the end of the schedule.
    pub fn final_sparsity(&self) -> f32 {
        self.final_sparsity
    }

    /// Scheduled sparsity at `step`.
    pub fn sparsity_at(&self, step: usize) -> f32 {
        sparsity_schedule(step, self.total_steps, self.final_sparsity)
    }

    /// Recomputes and installs the pruning mask for the current step,
    /// in the buffer of the mask it replaces.
    ///
    /// For [`PruneMethod::Movement`], the parameter must have movement
    /// tracking enabled ([`Parameter::enable_movement_tracking`]); the
    /// accumulated scores decide survival. For magnitude pruning, |w|
    /// decides.
    ///
    /// # Panics
    ///
    /// Panics if movement pruning is requested on a parameter without
    /// movement scores.
    pub fn apply(&self, param: &mut Parameter, step: usize) {
        let s = self.sparsity_at(step);
        let mut mask = param.mask.take().unwrap_or_default();
        match self.method {
            PruneMethod::Magnitude => fill_topk_mask(&mut mask, &param.value, f32::abs, s),
            PruneMethod::Movement => {
                let scores = param
                    .movement_scores
                    .as_ref()
                    .expect("movement pruning requires movement tracking");
                fill_topk_mask(&mut mask, scores, |s| s, s);
            }
        }
        param.set_mask(mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebert_tensor::Rng;

    #[test]
    fn schedule_monotone_and_bounded() {
        let mut last = -1.0f32;
        for step in 0..=50 {
            let s = sparsity_schedule(step, 50, 0.7);
            assert!(s >= last);
            assert!(s <= 0.7 + 1e-6);
            last = s;
        }
        assert_eq!(sparsity_schedule(0, 50, 0.7), 0.0);
        assert!((sparsity_schedule(50, 50, 0.7) - 0.7).abs() < 1e-6);
        // Past-the-end steps stay at final sparsity.
        assert!((sparsity_schedule(99, 50, 0.7) - 0.7).abs() < 1e-6);
    }

    #[test]
    fn magnitude_mask_keeps_largest() {
        let w = Matrix::from_rows(&[&[0.1, -5.0, 0.01, 2.0]]);
        let mask = magnitude_mask(&w, 0.5);
        assert_eq!(mask, Matrix::from_rows(&[&[0.0, 1.0, 0.0, 1.0]]));
    }

    #[test]
    fn masks_equal_the_sort_everything_reference_bitwise() {
        // The builder as it was written (an `abs` copy for magnitudes, a
        // `usize` index, a stable sort, a fresh mask), kept here as the
        // reference.
        fn reference(scores: &Matrix, sparsity: f32) -> Matrix {
            let n = scores.len();
            let keep_count = n - ((n as f32) * sparsity).round() as usize;
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| {
                scores.as_slice()[b]
                    .total_cmp(&scores.as_slice()[a])
                    .then(a.cmp(&b))
            });
            let mut mask = Matrix::zeros(scores.rows(), scores.cols());
            for &i in idx.iter().take(keep_count) {
                mask.as_mut_slice()[i] = 1.0;
            }
            mask
        }
        let mut rng = Rng::seed_from(21);
        let mut random = rng.gaussian_matrix(37, 29, 1.0);
        // Repeated values, signed zeros and a NaN among the random ones.
        for (i, v) in random.as_mut_slice().iter_mut().enumerate() {
            match i % 11 {
                0 => *v = 0.5,
                1 => *v = -0.5,
                2 => *v = 0.0,
                3 => *v = -0.0,
                _ => {}
            }
        }
        random.set(5, 5, f32::NAN);
        let all_equal = Matrix::filled(8, 8, 0.25);
        for scores in [&random, &all_equal] {
            for sparsity in [0.0f32, 0.013, 0.25, 0.5, 0.6, 0.97, 1.0] {
                let (top, mag) = (
                    topk_mask(scores, sparsity),
                    magnitude_mask(scores, sparsity),
                );
                assert_eq!(top, reference(scores, sparsity), "top-k at {sparsity}");
                assert_eq!(
                    mag,
                    reference(&scores.map(f32::abs), sparsity),
                    "|w| at {sparsity}"
                );
                // Refilled over a stale mask, of this shape or another.
                for mut stale in [
                    Matrix::filled(scores.rows(), scores.cols(), 1.0),
                    all_equal.clone(),
                ] {
                    fill_topk_mask(&mut stale, scores, |s| s, sparsity);
                    assert_eq!(stale, top, "refilled at {sparsity}");
                }
            }
        }
        // Ties break toward the lower index: the first half survives.
        let half = topk_mask(&all_equal, 0.5);
        assert!(half.as_slice()[..32].iter().all(|&m| m == 1.0));
        assert!(half.as_slice()[32..].iter().all(|&m| m == 0.0));
        assert_eq!(topk_mask(&all_equal, 0.0), Matrix::filled(8, 8, 1.0));
        assert_eq!(topk_mask(&all_equal, 1.0), Matrix::zeros(8, 8));
    }

    #[test]
    fn topk_mask_exact_sparsity() {
        let mut rng = Rng::seed_from(5);
        let scores = rng.gaussian_matrix(32, 32, 1.0);
        for &s in &[0.0f32, 0.25, 0.5, 0.9] {
            let mask = topk_mask(&scores, s);
            let actual = mask.sparsity();
            assert!(
                (actual - s).abs() < 1.5 / 1024.0,
                "requested {s} got {actual}"
            );
        }
    }

    #[test]
    fn movement_pruner_removes_weights_moving_to_zero() {
        let mut p = Parameter::new(Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0]]));
        p.enable_movement_tracking();
        // Two weights get gradients pushing them toward zero (w>0, g>0 →
        // score -w·g < 0), two get gradients growing them.
        p.grad = Matrix::from_rows(&[&[0.5, 0.5, -0.5, -0.5]]);
        p.update_movement_scores();
        let pruner = Pruner::new(PruneMethod::Movement, 0.5, 1);
        pruner.apply(&mut p, 1);
        assert_eq!(p.value, Matrix::from_rows(&[&[0.0, 0.0, 1.0, 1.0]]));
    }

    #[test]
    fn magnitude_vs_movement_differ_on_shrinking_large_weights() {
        // A large weight that is shrinking should be kept by magnitude
        // pruning but dropped by movement pruning.
        let mut p = Parameter::new(Matrix::from_rows(&[&[10.0, 0.2]]));
        p.enable_movement_tracking();
        p.grad = Matrix::from_rows(&[&[1.0, -1.0]]); // w0 shrinking, w1 growing
        p.update_movement_scores();

        let mag = magnitude_mask(&p.value, 0.5);
        assert_eq!(mag, Matrix::from_rows(&[&[1.0, 0.0]]));

        let mov = topk_mask(p.movement_scores.as_ref().unwrap(), 0.5);
        assert_eq!(mov, Matrix::from_rows(&[&[0.0, 1.0]]));
    }

    #[test]
    #[should_panic(expected = "movement pruning requires movement tracking")]
    fn movement_without_tracking_panics() {
        let mut p = Parameter::new(Matrix::zeros(2, 2));
        Pruner::new(PruneMethod::Movement, 0.5, 1).apply(&mut p, 1);
    }
}
