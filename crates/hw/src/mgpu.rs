//! Analytic Nvidia Jetson TX2 mobile-GPU baseline (paper Fig. 8).
//!
//! The paper measured CUDA implementations on a TX2; we anchor an
//! analytic model to the reported per-sentence latencies (~113–129 ms for
//! full 12-layer inference) and a board-level GPU power representative of
//! small-batch Transformer inference on that part. Adaptive attention
//! span is the only model optimization that transfers to the GPU (the
//! paper applies AAS to the mGPU as well); bitmask sparse execution does
//! not help dense GPU kernels.

use serde::{Deserialize, Serialize};

/// The TX2-class mobile GPU model.
///
/// # Example
///
/// ```
/// use edgebert_hw::MobileGpu;
///
/// let gpu = MobileGpu::tegra_x2();
/// let full = gpu.inference_latency_s(12, 1.0);
/// assert!(full > 0.1 && full < 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobileGpu {
    /// Latency of one full `anchor_layers`-deep inference, seconds.
    pub full_inference_s: f64,
    /// Average board GPU power during inference, watts.
    pub power_w: f64,
    /// Fixed per-sentence overhead (kernel launch, host sync), seconds.
    pub overhead_s: f64,
    /// Encoder depth the `full_inference_s` anchor was measured at. The
    /// per-layer cost is `(full_inference_s − overhead_s) / anchor_layers`,
    /// so pricing an early exit or a non-ALBERT-base depth stays anchored
    /// to the measurement instead of assuming 12 layers.
    pub anchor_layers: usize,
}

impl Default for MobileGpu {
    /// The Jetson TX2 anchor point ([`tegra_x2`](Self::tegra_x2)).
    fn default() -> Self {
        Self::tegra_x2()
    }
}

impl MobileGpu {
    /// The Jetson TX2 anchor point (a 12-layer ALBERT measurement).
    pub fn tegra_x2() -> Self {
        Self {
            full_inference_s: 0.122,
            power_w: 1.8,
            overhead_s: 0.004,
            anchor_layers: 12,
        }
    }

    /// A FLOP scale as the cost functions will apply it: scales arrive
    /// from the wire and from derived workload ratios, so a non-finite
    /// or non-positive value falls back to 1.0 (unscaled) instead of
    /// propagating NaN into report tables.
    pub fn effective_flop_scale(flop_scale: f64) -> f64 {
        if flop_scale.is_finite() && flop_scale > 0.0 {
            flop_scale
        } else {
            1.0
        }
    }

    /// The fixed per-sentence overhead as charged: a NaN or negative
    /// overhead (`-∞` included) sanitizes to zero (`f64::max` discards
    /// NaN); `+∞` is not sanitized and passes through.
    pub fn effective_overhead_s(&self) -> f64 {
        self.overhead_s.max(0.0)
    }

    /// The board power as charged: a NaN or negative power (`-∞`
    /// included) sanitizes to zero rather than propagating NaN (or
    /// negative energy) into report tables; `+∞` is not sanitized and
    /// passes through, pricing infinite energy.
    pub fn effective_power_w(&self) -> f64 {
        self.power_w.max(0.0)
    }

    /// Latency of one encoder layer at a FLOP scale factor, seconds.
    /// Derived from the anchor measurement; a degenerate anchor (zero
    /// depth, non-finite or negative compute time) prices to zero rather
    /// than NaN or negative time.
    pub fn per_layer_latency_s(&self, flop_scale: f64) -> f64 {
        let anchor = self.anchor_layers.max(1) as f64;
        let compute_s = (self.full_inference_s - self.effective_overhead_s()).max(0.0);
        compute_s / anchor * Self::effective_flop_scale(flop_scale)
    }

    /// Latency for `layers` encoder layers with a FLOP scale factor
    /// (`flop_scale = 1/1.22` models MNLI's AAS reduction, for example).
    pub fn inference_latency_s(&self, layers: usize, flop_scale: f64) -> f64 {
        self.effective_overhead_s() + self.per_layer_latency_s(flop_scale) * layers as f64
    }

    /// Energy for `layers` encoder layers, joules.
    pub fn inference_energy_j(&self, layers: usize, flop_scale: f64) -> f64 {
        self.inference_latency_s(layers, flop_scale) * self.effective_power_w()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_near_reported_range() {
        let gpu = MobileGpu::tegra_x2();
        let l = gpu.inference_latency_s(12, 1.0);
        assert!((0.110..0.135).contains(&l), "latency {l}");
        let e = gpu.inference_energy_j(12, 1.0);
        assert!((0.15..0.30).contains(&e), "energy {e}");
    }

    #[test]
    fn aas_scales_compute_only() {
        let gpu = MobileGpu::tegra_x2();
        let base = gpu.inference_latency_s(12, 1.0);
        let aas = gpu.inference_latency_s(12, 1.0 / 1.22);
        assert!(aas < base);
        // Overhead is not scaled.
        assert!(aas > base / 1.22);
    }

    #[test]
    fn fewer_layers_cost_less() {
        let gpu = MobileGpu::tegra_x2();
        assert!(gpu.inference_latency_s(4, 1.0) < gpu.inference_latency_s(12, 1.0));
        assert!(gpu.inference_energy_j(1, 1.0) < gpu.inference_energy_j(2, 1.0));
    }

    #[test]
    fn per_layer_cost_follows_the_anchor_depth() {
        // Regression: the per-layer derivation hardcoded `/ 12.0`, so an
        // anchor measured at a different encoder depth mispriced every
        // layer. The same measured compute time spread over 6 layers
        // must cost twice as much per layer.
        let tx2 = MobileGpu::tegra_x2();
        assert_eq!(tx2.anchor_layers, 12);
        let shallow = MobileGpu {
            anchor_layers: 6,
            ..tx2
        };
        let per12 = tx2.per_layer_latency_s(1.0);
        let per6 = shallow.per_layer_latency_s(1.0);
        assert!((per6 / per12 - 2.0).abs() < 1e-12, "ratio {}", per6 / per12);
        // Full inference at each model's own depth costs the same: both
        // anchors describe the same measurement.
        assert!(
            (tx2.inference_latency_s(12, 1.0) - shallow.inference_latency_s(6, 1.0)).abs() < 1e-15
        );
        // A zero-depth anchor prices like depth 1 instead of dividing by 0.
        let degenerate = MobileGpu {
            anchor_layers: 0,
            ..tx2
        };
        assert!(degenerate.per_layer_latency_s(1.0).is_finite());
    }

    #[test]
    fn wire_garbage_scales_and_anchors_never_produce_nan() {
        // Regression: a NaN/∞/negative flop scale propagated straight
        // into report tables. Degenerate scales now fall back to 1.0.
        let gpu = MobileGpu::tegra_x2();
        let clean_lat = gpu.inference_latency_s(12, 1.0);
        let clean_e = gpu.inference_energy_j(12, 1.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 0.0] {
            assert_eq!(gpu.inference_latency_s(12, bad), clean_lat, "scale {bad}");
            assert_eq!(gpu.inference_energy_j(12, bad), clean_e, "scale {bad}");
        }
        // A wire-deserialized model with garbage anchor fields still
        // prices finite, non-negative costs.
        let garbage = MobileGpu {
            full_inference_s: f64::NAN,
            power_w: 1.8,
            overhead_s: f64::NAN,
            anchor_layers: 12,
        };
        let lat = garbage.inference_latency_s(12, 1.0);
        assert!(lat.is_finite() && lat >= 0.0, "latency {lat}");
        // Garbage power must not leak NaN or negative energy either.
        for bad_power in [f64::NAN, f64::NEG_INFINITY, -1.8] {
            let garbage = MobileGpu {
                power_w: bad_power,
                ..MobileGpu::tegra_x2()
            };
            let e = garbage.inference_energy_j(12, 1.0);
            assert!(e.is_finite() && e >= 0.0, "energy {e} at power {bad_power}");
        }
        let inverted = MobileGpu {
            overhead_s: 1.0, // overhead above the full anchor latency
            ..MobileGpu::tegra_x2()
        };
        let lat = inverted.inference_latency_s(12, 1.0);
        assert!(lat.is_finite() && lat >= 0.0, "latency {lat}");
    }

    #[test]
    fn positive_infinity_is_charged_as_is() {
        // `f64::max(+∞, 0.0)` is +∞: only NaN and negative values
        // sanitize to zero.
        let infinite = MobileGpu {
            power_w: f64::INFINITY,
            overhead_s: f64::INFINITY,
            ..MobileGpu::tegra_x2()
        };
        assert_eq!(infinite.effective_power_w(), f64::INFINITY);
        assert_eq!(infinite.effective_overhead_s(), f64::INFINITY);
    }

    #[test]
    fn default_is_the_tegra_anchor() {
        assert_eq!(MobileGpu::default(), MobileGpu::tegra_x2());
    }
}
