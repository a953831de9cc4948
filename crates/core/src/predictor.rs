//! The early-exit predictor (paper §5.1).
//!
//! "The EE predictor is a ReLU-activated five-layer perceptron neural
//! network with 64 cells in each of the hidden layers. It takes the
//! entropy of encoder layer 1 as input and forecasts the early exit
//! Transformer layer which has an entropy below the desired threshold.
//! [...] The EE predictor is distilled as a lookup table (LUT)."
//!
//! We fit the MLP to regress the *full entropy trajectory* (one output
//! per layer) from the layer-1 entropy. The exit-layer forecast for any
//! threshold `E_T` is then the first layer whose predicted entropy falls
//! below `E_T` — equivalent to the paper's per-threshold classifier but
//! reusable across the threshold sweep of Table 3. The LUT bins the
//! layer-1 entropy and stores the precomputed forecast per bin, exactly
//! what the accelerator's auxiliary buffer holds.

use edgebert_nn::losses::mse;
use edgebert_nn::{AdamOptimizer, Mlp};
use edgebert_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// The entropy exit rule (paper Algorithms 1 and 2): the first 1-based
/// layer whose entropy is below `et`, or `None` when none is. Every
/// simulation of an exit runs this scan; the engine's steppers apply the
/// same `h < et` test one layer at a time.
pub fn entropy_exit(entropies: &[f32], et: f32) -> Option<usize> {
    entropies.iter().position(|&h| h < et).map(|l| l + 1)
}

/// Per-sentence entropy trajectories collected from a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntropyDataset {
    /// One row per sentence: entropies at each of the `num_layers`
    /// off-ramps.
    pub trajectories: Vec<Vec<f32>>,
}

impl EntropyDataset {
    /// Number of sentences.
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }
}

/// The MLP-based entropy-trajectory predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EntropyPredictor {
    mlp: Mlp,
    num_layers: usize,
}

impl EntropyPredictor {
    /// Trains the five-layer predictor on collected trajectories.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn train(data: &EntropyDataset, epochs: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot train a predictor on no data");
        let num_layers = data.trajectories[0].len();
        let mut rng = Rng::seed_from(seed);
        // Five affine layers: 1 -> 64 -> 64 -> 64 -> 64 -> num_layers.
        let mut mlp = Mlp::new(&[1, 64, 64, 64, 64, num_layers], &mut rng);
        let n = data.len();
        let mut xs = Matrix::zeros(n, 1);
        let mut ys = Matrix::zeros(n, num_layers);
        for (i, traj) in data.trajectories.iter().enumerate() {
            xs.set(i, 0, traj[0]);
            ys.row_mut(i).copy_from_slice(traj);
        }
        let mut opt = AdamOptimizer::new(2e-3);
        for _ in 0..epochs {
            mlp.zero_grad();
            let (pred, cache) = mlp.forward(&xs);
            let (_, grad) = mse(&pred, &ys);
            mlp.backward(&cache, &grad);
            opt.step(&mut mlp.params_mut());
        }
        // What is kept serves forecasts: weights only.
        for p in mlp.params_mut() {
            p.release_training_state();
        }
        Self { mlp, num_layers }
    }

    /// Number of logical layers the predictor forecasts.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Predicted entropy trajectory from a layer-1 entropy.
    pub fn predict_trajectory(&self, entropy1: f32) -> Vec<f32> {
        let x = Matrix::from_vec(1, 1, vec![entropy1]);
        self.mlp.infer(&x).row(0).to_vec()
    }

    /// Distills the predictor into the accelerator's LUT form.
    pub fn to_lut(&self, bins: usize, max_entropy: f32) -> PredictorLut {
        let trajectories = (0..bins)
            .map(|b| {
                let h = (b as f32 + 0.5) / bins as f32 * max_entropy;
                self.predict_trajectory(h)
            })
            .collect();
        PredictorLut {
            bins,
            max_entropy,
            trajectories,
            num_layers: self.num_layers,
        }
    }
}

/// The distilled lookup table stored in the SFU auxiliary buffer.
///
/// # Example
///
/// ```no_run
/// use edgebert::predictor::{EntropyDataset, EntropyPredictor};
/// # let data: EntropyDataset = unimplemented!();
/// let predictor = EntropyPredictor::train(&data, 300, 7);
/// let lut = predictor.to_lut(64, 1.1);
/// // A sentence of a 12-layer model that did not exit at layer 1.
/// let layer = lut.forecast(0.42, 0.3, 12);
/// assert!((2..=12).contains(&layer));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictorLut {
    bins: usize,
    max_entropy: f32,
    trajectories: Vec<Vec<f32>>,
    num_layers: usize,
}

impl PredictorLut {
    /// Number of entropy bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Number of layers forecast per bin.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    fn bin_for(&self, entropy1: f32) -> usize {
        let idx = (entropy1 / self.max_entropy * self.bins as f32).floor() as isize;
        idx.clamp(0, self.bins as isize - 1) as usize
    }

    /// Forecast trajectory from the LUT.
    pub fn predict_trajectory(&self, entropy1: f32) -> &[f32] {
        &self.trajectories[self.bin_for(entropy1)]
    }

    /// Forecast exit layer for threshold `et` (1-based; the final layer
    /// when the forecast trajectory never crosses the threshold).
    pub fn predict_exit_layer(&self, entropy1: f32, et: f32) -> usize {
        entropy_exit(self.predict_trajectory(entropy1), et).unwrap_or(self.num_layers)
    }

    /// Algorithm 2's forecast for a sentence that did not exit at layer 1
    /// of a `num_layers`-layer model: [`predict_exit_layer`](Self::predict_exit_layer)
    /// clamped to at least one more layer, when the model has one, and to
    /// its last layer.
    pub fn forecast(&self, entropy1: f32, et: f32, num_layers: usize) -> usize {
        self.predict_exit_layer(entropy1, et)
            .clamp(num_layers.min(2), num_layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic trajectories: entropy decays geometrically from a
    /// sentence-specific start; harder sentences (higher start) decay
    /// slower — the qualitative structure of real trajectories.
    fn synthetic_dataset(n: usize, layers: usize, seed: u64) -> EntropyDataset {
        let mut rng = Rng::seed_from(seed);
        let trajectories = (0..n)
            .map(|_| {
                let h0 = rng.uniform_in(0.05, 1.05);
                let decay = 0.55 + 0.4 * (h0 / 1.05);
                (0..layers)
                    .map(|l| (h0 * decay.powi(l as i32)).max(0.005))
                    .collect()
            })
            .collect();
        EntropyDataset { trajectories }
    }

    /// The exit forecast the MLP itself would make (the LUT bins it).
    fn mlp_exit(pred: &EntropyPredictor, entropy1: f32, et: f32) -> usize {
        entropy_exit(&pred.predict_trajectory(entropy1), et).unwrap_or(pred.num_layers())
    }

    #[test]
    fn exit_layer_from_trajectory() {
        let traj = [0.9, 0.5, 0.2, 0.05];
        assert_eq!(entropy_exit(&traj, 1.0), Some(1));
        assert_eq!(entropy_exit(&traj, 0.3), Some(3));
        assert_eq!(entropy_exit(&traj, 0.01), None); // never crosses
        assert_eq!(entropy_exit(&[f32::NAN, 0.2], 0.3), Some(2)); // NaN never exits
    }

    #[test]
    fn forecast_clamps_into_the_remaining_layers() {
        let data = synthetic_dataset(64, 4, 19);
        let lut = EntropyPredictor::train(&data, 50, 21).to_lut(16, 1.1);
        for h in [0.0f32, 0.3, 0.7, 1.05] {
            for et in [0.0f32, 0.2, 10.0] {
                let raw = lut.predict_exit_layer(h, et);
                assert_eq!(lut.forecast(h, et, 4), raw.max(2), "h {h} et {et}");
                assert_eq!(lut.forecast(h, et, 3), raw.clamp(2, 3));
                // A 1-layer model has no layer after the first.
                assert_eq!(lut.forecast(h, et, 1), 1);
            }
        }
    }

    #[test]
    fn predictor_learns_monotone_structure() {
        let data = synthetic_dataset(256, 12, 3);
        let pred = EntropyPredictor::train(&data, 400, 5);
        // Confident layer-1 entropy ⇒ early exit; uncertain ⇒ late.
        let early = mlp_exit(&pred, 0.08, 0.25);
        let late = mlp_exit(&pred, 1.0, 0.25);
        assert!(early < late, "early {early} late {late}");
        // MAE (in layers, against the true entropy-based exits) is
        // materially better than always predicting the last layer.
        let mae_against = |forecast: &dyn Fn(usize) -> usize| {
            let errors = data.trajectories.iter().enumerate().map(|(i, traj)| {
                entropy_exit(traj, 0.25)
                    .unwrap_or(traj.len())
                    .abs_diff(forecast(i))
            });
            errors.sum::<usize>() as f32 / data.len() as f32
        };
        let mae = mae_against(&|i| mlp_exit(&pred, data.trajectories[i][0], 0.25));
        let naive = mae_against(&|_| 12);
        assert!(mae < naive * 0.6, "mae {mae} vs naive {naive}");
    }

    #[test]
    fn lut_matches_mlp_closely() {
        let data = synthetic_dataset(256, 12, 7);
        let pred = EntropyPredictor::train(&data, 300, 9);
        let lut = pred.to_lut(64, 1.1);
        let mut diffs = 0usize;
        for i in 0..40 {
            let h = i as f32 * 1.1 / 40.0;
            let a = mlp_exit(&pred, h, 0.3);
            let b = lut.predict_exit_layer(h, 0.3);
            if (a as isize - b as isize).abs() > 1 {
                diffs += 1;
            }
        }
        assert!(
            diffs <= 2,
            "{diffs} LUT forecasts off by more than one layer"
        );
    }

    #[test]
    fn lut_is_small_enough_for_aux_buffer() {
        let data = synthetic_dataset(64, 12, 11);
        let pred = EntropyPredictor::train(&data, 50, 13);
        let lut = pred.to_lut(64, 1.1);
        // 16-bit entries (the SFU datapaths are 16-bit fixed-point)
        // must fit comfortably in the 32 KB auxiliary buffer.
        let bytes = lut.bins() * lut.num_layers() * 2;
        assert!(bytes <= 4096, "{bytes} bytes");
    }

    #[test]
    fn lut_clamps_out_of_range_entropy() {
        let data = synthetic_dataset(64, 4, 15);
        let pred = EntropyPredictor::train(&data, 50, 17);
        let lut = pred.to_lut(16, 1.0);
        // Values beyond the bin range clamp instead of panicking.
        let lo = lut.predict_exit_layer(-0.5, 0.2);
        let hi = lut.predict_exit_layer(99.0, 0.2);
        assert!((1..=4).contains(&lo));
        assert!((1..=4).contains(&hi));
    }
}
