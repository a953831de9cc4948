//! Entropy-threshold calibration (paper §5.1, Table 3 methodology).
//!
//! "We set a fixed accuracy degradation threshold of 1%, 2%, or 5%
//! (relative to the inference accuracy of the full ALBERT model) and
//! increased the entropy threshold until the accuracy dropped to the
//! desired threshold."
//!
//! Two calibrations exist: conventional EE exits on true entropies alone;
//! latency-aware inference (LAI) additionally *stops* at the predictor's
//! forecast layer, so its accuracy at a given threshold differs and it
//! ends up needing a lower threshold for the same accuracy target.
//!
//! The sweep runs the engine steppers' exit rule, not a copy of it: one
//! [`entropy_exit`] scan, cut at [`PredictorLut::forecast`] under LAI
//! ([`SweepCache::simulate`]). `calibration_sweep_is_the_engine_exit_rule`
//! in `tests/end_to_end.rs` pins it: on a threshold grid the simulated
//! accuracy, mean exit and mean forecast equal
//! [`EdgeBertEngine::evaluate`](crate::engine::EdgeBertEngine::evaluate)'s
//! bit for bit, for both algorithms.

use crate::predictor::{entropy_exit, EntropyDataset, PredictorLut};
use edgebert_model::AlbertModel;
use edgebert_tasks::Dataset;
use edgebert_tensor::stats::argmax;
use serde::{Deserialize, Serialize};

/// A calibrated operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// The accuracy-drop target this point was calibrated for (e.g. 0.01).
    pub accuracy_drop_target: f32,
    /// The calibrated entropy threshold.
    pub entropy_threshold: f32,
    /// Accuracy achieved at this threshold.
    pub accuracy: f32,
    /// Mean exit layer (actual layers computed).
    pub avg_exit_layer: f32,
    /// Mean predicted exit layer (LAI only; equals `avg_exit_layer` for
    /// conventional EE).
    pub avg_predicted_layer: f32,
}

/// Precomputed per-sentence layerwise outputs so threshold sweeps don't
/// re-run the model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCache {
    /// Per sentence: entropies at every layer.
    pub entropies: Vec<Vec<f32>>,
    /// Per sentence: predicted class at every layer.
    pub predictions: Vec<Vec<usize>>,
    /// Gold labels.
    pub labels: Vec<usize>,
    /// Number of logical layers.
    pub num_layers: usize,
    /// Number of output classes (bounds the entropy range).
    pub num_classes: usize,
}

impl SweepCache {
    /// Runs the model once over the dataset.
    pub fn build(model: &AlbertModel, data: &Dataset) -> Self {
        let mut entropies = Vec::with_capacity(data.len());
        let mut predictions = Vec::with_capacity(data.len());
        for ex in data {
            let out = model.forward_layers(&ex.tokens);
            predictions.push(out.logits.iter().map(|lg| argmax(lg)).collect());
            entropies.push(out.entropies.clone());
        }
        Self {
            entropies,
            predictions,
            labels: data.labels(),
            num_layers: model.num_layers(),
            num_classes: model.config.num_classes,
        }
    }

    /// The entropy dataset view (for predictor training).
    pub fn entropy_dataset(&self) -> EntropyDataset {
        EntropyDataset {
            trajectories: self.entropies.clone(),
        }
    }

    /// Accuracy of the full-depth model.
    pub fn full_accuracy(&self) -> f32 {
        if self.labels.is_empty() {
            return 0.0;
        }
        let last = self.num_layers - 1;
        let hits = self
            .predictions
            .iter()
            .zip(&self.labels)
            .filter(|(p, &l)| p[last] == l)
            .count();
        hits as f32 / self.labels.len() as f32
    }

    /// Simulates the exit rule at threshold `et` over every sentence:
    /// latency-aware inference (Algorithm 2) with a predictor `lut`,
    /// conventional EE (Algorithm 1) without one. Returns `(accuracy,
    /// avg_exit_layer, avg_predicted_layer)`; a sentence that made no
    /// forecast counts its exit, as in
    /// [`AggregateResult`](crate::engine::AggregateResult).
    pub fn simulate(&self, et: f32, lut: Option<&PredictorLut>) -> (f32, f32, f32) {
        let mut hits = 0usize;
        let mut exit_sum = 0usize;
        let mut predicted_sum = 0usize;
        let sentences = self
            .entropies
            .iter()
            .zip(&self.predictions)
            .zip(&self.labels);
        for ((traj, preds), &label) in sentences {
            let first = entropy_exit(traj, et);
            // Algorithm 2 forecasts once layer 1 has not exited and stops
            // at the forecast; Algorithm 1 stops at the last layer.
            let forecast = lut
                .filter(|_| first != Some(1))
                .map(|lut| lut.forecast(traj[0], et, self.num_layers));
            let stop = forecast.unwrap_or(self.num_layers);
            let exit = first.map_or(stop, |l| l.min(stop));
            exit_sum += exit;
            predicted_sum += forecast.unwrap_or(exit);
            if preds[exit - 1] == label {
                hits += 1;
            }
        }
        let n = self.labels.len().max(1) as f32;
        (
            hits as f32 / n,
            exit_sum as f32 / n,
            predicted_sum as f32 / n,
        )
    }
}

/// Calibrates conventional EE: the largest threshold whose accuracy stays
/// within `drop` of the full model.
pub fn calibrate_conventional(cache: &SweepCache, drop: f32) -> Calibration {
    calibrate(cache, None, drop)
}

/// Calibrates latency-aware inference with a given predictor LUT.
pub fn calibrate_latency_aware(cache: &SweepCache, lut: &PredictorLut, drop: f32) -> Calibration {
    calibrate(cache, Some(lut), drop)
}

/// The threshold search: sweeps a 120-point grid up to just past the
/// maximum entropy and keeps the largest threshold whose simulated
/// accuracy stays within `drop` of the full model.
fn calibrate(cache: &SweepCache, lut: Option<&PredictorLut>, drop: f32) -> Calibration {
    let baseline = cache.full_accuracy();
    let floor = baseline - drop;
    let max_h = (cache.num_classes as f32).ln() * 1.02;
    let mut best = Calibration {
        accuracy_drop_target: drop,
        entropy_threshold: 0.0,
        accuracy: baseline,
        avg_exit_layer: cache.num_layers as f32,
        avg_predicted_layer: cache.num_layers as f32,
    };
    for i in 1..=120 {
        let et = i as f32 * max_h / 120.0;
        let (accuracy, avg_exit_layer, avg_predicted_layer) = cache.simulate(et, lut);
        if accuracy + 1e-6 >= floor {
            best = Calibration {
                accuracy_drop_target: drop,
                entropy_threshold: et,
                accuracy,
                avg_exit_layer,
                avg_predicted_layer,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::EntropyPredictor;
    use edgebert_tensor::Rng;

    /// Hand-built cache: predictions correct from a sentence-specific
    /// "ready layer" onwards, entropies decay past the threshold at that
    /// layer.
    fn synthetic_cache(n: usize, layers: usize, seed: u64) -> SweepCache {
        let mut rng = Rng::seed_from(seed);
        let mut entropies = Vec::new();
        let mut predictions = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let ready = 1 + rng.below(layers);
            let label = rng.below(2);
            let mut traj = Vec::new();
            let mut preds = Vec::new();
            for l in 0..layers {
                if l + 1 >= ready {
                    traj.push(0.05 + 0.01 * (l as f32));
                    preds.push(label);
                } else {
                    traj.push(0.6 + 0.4 * rng.uniform());
                    preds.push(1 - label); // wrong before ready
                }
            }
            entropies.push(traj);
            predictions.push(preds);
            labels.push(label);
        }
        SweepCache {
            entropies,
            predictions,
            labels,
            num_layers: layers,
            num_classes: 2,
        }
    }

    #[test]
    fn conventional_sweep_tradeoff_is_monotone() {
        let cache = synthetic_cache(200, 12, 1);
        let c1 = calibrate_conventional(&cache, 0.01);
        let c5 = calibrate_conventional(&cache, 0.05);
        // Looser accuracy budget ⇒ higher threshold ⇒ earlier exits.
        assert!(c5.entropy_threshold >= c1.entropy_threshold);
        assert!(c5.avg_exit_layer <= c1.avg_exit_layer);
        // Accuracy constraint honoured.
        assert!(c1.accuracy >= cache.full_accuracy() - 0.01 - 1e-5);
        assert!(c5.accuracy >= cache.full_accuracy() - 0.05 - 1e-5);
    }

    #[test]
    fn latency_aware_needs_lower_threshold_for_same_drop() {
        // The paper's observation: "the entropy threshold for entropy
        // prediction was lower than the entropy threshold for conventional
        // EE" at the same accuracy target.
        let cache = synthetic_cache(300, 12, 2);
        let pred = EntropyPredictor::train(&cache.entropy_dataset(), 300, 3);
        let lut = pred.to_lut(64, 1.1);
        let conv = calibrate_conventional(&cache, 0.02);
        let lai = calibrate_latency_aware(&cache, &lut, 0.02);
        assert!(
            lai.entropy_threshold <= conv.entropy_threshold + 1e-6,
            "LAI {} vs conventional {}",
            lai.entropy_threshold,
            conv.entropy_threshold
        );
        // Predicted exit comes later than actual (conservative forecasts).
        assert!(lai.avg_predicted_layer + 1e-3 >= lai.avg_exit_layer);
    }

    #[test]
    fn zero_drop_keeps_baseline_accuracy() {
        let cache = synthetic_cache(150, 8, 4);
        let c = calibrate_conventional(&cache, 0.0);
        assert!(c.accuracy + 1e-6 >= cache.full_accuracy());
    }

    #[test]
    fn full_accuracy_counts_last_layer() {
        let cache = synthetic_cache(50, 6, 5);
        // By construction every sentence is correct at the last layer.
        assert_eq!(cache.full_accuracy(), 1.0);
    }

    #[test]
    fn lai_respects_forced_stop_at_predicted_layer() {
        // A LUT that always forecasts layer 2 forces exit at 2 even when
        // the true entropy stays high.
        let cache = synthetic_cache(50, 6, 6);
        let constant_lut = {
            // Train on trajectories that always exit at 2 so the LUT
            // forecasts 2 everywhere.
            let data = crate::predictor::EntropyDataset {
                trajectories: (0..64)
                    .map(|_| vec![0.9, 0.01, 0.01, 0.01, 0.01, 0.01])
                    .collect(),
            };
            EntropyPredictor::train(&data, 200, 7).to_lut(32, 1.1)
        };
        let (_, avg_actual, avg_pred) = cache.simulate(0.3, Some(&constant_lut));
        assert!(avg_pred <= 2.6, "avg predicted {avg_pred}");
        assert!(avg_actual <= avg_pred + 1e-6);
    }
}
