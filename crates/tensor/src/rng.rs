//! Deterministic random number generation for the whole workspace.
//!
//! Every experiment in the reproduction is seeded so tables and figures are
//! bit-reproducible run to run. Gaussian sampling is implemented with
//! Box–Muller on top of `rand`'s `StdRng` so no extra distribution crate is
//! required.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// Seedable random source with the sampling primitives the workspace needs.
///
/// # Example
///
/// ```
/// use edgebert_tensor::Rng;
///
/// let mut a = Rng::seed_from(7);
/// let mut b = Rng::seed_from(7);
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    inner: StdRng,
    /// Cached second Box–Muller output.
    spare_gaussian: Option<f32>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            spare_gaussian: None,
        }
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        self.inner.gen::<f32>()
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.inner.gen::<f64>()) < p
    }

    /// Standard normal sample via Box–Muller.
    pub fn gaussian(&mut self) -> f32 {
        if let Some(z) = self.spare_gaussian.take() {
            return z;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let mut u1 = self.uniform();
        if u1 <= f32::MIN_POSITIVE {
            u1 = f32::MIN_POSITIVE;
        }
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_gaussian = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Matrix with i.i.d. `N(0, std^2)` entries.
    pub fn gaussian_matrix(&mut self, rows: usize, cols: usize, std: f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = self.gaussian() * std;
        }
        m
    }

    /// Xavier/Glorot-initialised matrix for a layer mapping `fan_in`
    /// features to `fan_out`.
    pub fn xavier(&mut self, fan_in: usize, fan_out: usize) -> Matrix {
        let std = (2.0 / (fan_in + fan_out) as f32).sqrt();
        self.gaussian_matrix(fan_in, fan_out, std)
    }

    /// Gaussian matrix where each entry is zeroed with probability
    /// `sparsity`. Used to fabricate pruned weight tensors in tests.
    pub fn sparse_gaussian(&mut self, rows: usize, cols: usize, sparsity: f32) -> Matrix {
        let mut m = self.gaussian_matrix(rows, cols, 1.0);
        for v in m.as_mut_slice() {
            if self.chance(sparsity as f64) {
                *v = 0.0;
            }
        }
        m
    }

    /// Samples an index from unnormalised non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f32]) -> usize {
        let total: f32 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index needs positive total weight");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// Monte-Carlo trial its own stream.
    pub fn fork(&mut self) -> Rng {
        let seed = self.inner.gen::<u64>();
        Rng::seed_from(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
            assert_eq!(a.gaussian(), b.gaussian());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::seed_from(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn chance_frequency() {
        let mut rng = Rng::seed_from(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn sparse_gaussian_hits_requested_sparsity() {
        let mut rng = Rng::seed_from(3);
        let m = rng.sparse_gaussian(64, 64, 0.6);
        assert!((m.sparsity() - 0.6).abs() < 0.05);
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut rng = Rng::seed_from(5);
        let w = [0.05f32, 0.9, 0.05];
        let hits = (0..2000).filter(|_| rng.weighted_index(&w) == 1).count();
        assert!(hits > 1600);
    }

    #[test]
    fn xavier_scale_shrinks_with_fan() {
        let mut rng = Rng::seed_from(9);
        let small = rng.xavier(8, 8).frobenius_norm() / 8.0;
        let large = rng.xavier(512, 512).frobenius_norm() / 512.0;
        assert!(large < small);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from(17);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::seed_from(21);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.uniform(), c2.uniform());
    }
}
