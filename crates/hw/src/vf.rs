//! The voltage/frequency table used by the DVFS controller.
//!
//! The accelerator stores "the ADPLL frequency/voltage sweep coordinates"
//! as a LUT in the SFU auxiliary buffer (paper §5.2). We model the
//! maximum frequency at a given supply with the alpha-power law in its
//! near-linear regime:
//!
//! ```text
//! f_max(V) = f_nom · (V - V_t) / (V_nom - V_t),   V_t = 0.30 V
//! ```
//!
//! which gives 1 GHz at 0.8 V and 0.4 GHz at 0.5 V.

use crate::config::AcceleratorConfig;
use serde::{Deserialize, Serialize};

/// Threshold voltage of the delay model.
pub const V_THRESHOLD: f32 = 0.30;

/// One V/F LUT entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VfPoint {
    /// Supply voltage, volts.
    pub voltage: f32,
    /// Maximum stable clock frequency at this voltage, Hz.
    pub freq_max_hz: f64,
}

/// The discrete V/F lookup table.
///
/// # Example
///
/// ```
/// use edgebert_hw::{AcceleratorConfig, VfTable};
///
/// let vf = VfTable::from_config(&AcceleratorConfig::energy_optimal());
/// // Running at half the peak frequency permits a much lower voltage.
/// let v = vf.min_voltage_for_freq(0.5e9).unwrap();
/// assert!(v < 0.7);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VfTable {
    points: Vec<VfPoint>,
}

impl VfTable {
    /// Builds the LUT over a configuration's voltage grid.
    pub fn from_config(cfg: &AcceleratorConfig) -> Self {
        let points = cfg
            .voltage_grid()
            .into_iter()
            .map(|v| VfPoint {
                voltage: v,
                freq_max_hz: Self::fmax_model(v, cfg),
            })
            .collect();
        Self { points }
    }

    /// The delay model: linear in `(V - V_t)`, anchored at
    /// `(vdd_nominal, freq_max_hz)`.
    fn fmax_model(v: f32, cfg: &AcceleratorConfig) -> f64 {
        let head = (v - V_THRESHOLD).max(0.0) as f64;
        let nom_head = (cfg.vdd_nominal - V_THRESHOLD) as f64;
        cfg.freq_max_hz * head / nom_head
    }

    /// LUT entries, ascending by voltage.
    pub fn points(&self) -> &[VfPoint] {
        &self.points
    }

    /// Maximum frequency available at grid voltage `v` (the nearest grid
    /// point at or below `v`).
    pub fn freq_at_voltage(&self, v: f32) -> f64 {
        let mut best = 0.0f64;
        for p in &self.points {
            if p.voltage <= v + 1e-6 {
                best = p.freq_max_hz;
            }
        }
        best
    }

    /// The lowest grid voltage whose maximum frequency is at least
    /// `freq_hz` (within a 1 ppm tolerance absorbing `f32` grid rounding),
    /// or `None` if even the top voltage cannot reach it.
    pub fn min_voltage_for_freq(&self, freq_hz: f64) -> Option<f32> {
        self.points
            .iter()
            .find(|p| p.freq_max_hz >= freq_hz * (1.0 - 1e-6))
            .map(|p| p.voltage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> VfTable {
        VfTable::from_config(&AcceleratorConfig::energy_optimal())
    }

    #[test]
    fn anchored_at_nominal() {
        let vf = table();
        let peak = vf.points().last().expect("a grid").freq_max_hz;
        assert!((peak - 1.0e9).abs() < 1.0);
        // 0.5 V → (0.5-0.3)/(0.8-0.3) = 0.4 GHz.
        assert!((vf.freq_at_voltage(0.5) - 0.4e9).abs() < 1e6);
    }

    #[test]
    fn monotone_in_voltage() {
        let vf = table();
        for w in vf.points().windows(2) {
            assert!(w[1].freq_max_hz > w[0].freq_max_hz);
        }
    }

    #[test]
    fn min_voltage_lookup() {
        let vf = table();
        // Peak frequency needs nominal voltage.
        assert_eq!(vf.min_voltage_for_freq(1.0e9), Some(0.80));
        // 0.4 GHz is satisfied by the floor voltage.
        assert_eq!(vf.min_voltage_for_freq(0.4e9), Some(0.50));
        // Anything at/below the floor's fmax maps to the floor.
        assert_eq!(vf.min_voltage_for_freq(0.1e9), Some(0.50));
        // Beyond peak is infeasible.
        assert_eq!(vf.min_voltage_for_freq(1.2e9), None);
    }

    #[test]
    fn lookup_is_tight() {
        // The returned voltage is the *lowest* feasible one: one step
        // lower must be insufficient.
        let vf = table();
        for target in [0.45e9, 0.6e9, 0.75e9, 0.9e9] {
            let v = vf.min_voltage_for_freq(target).unwrap();
            let lower = v - 0.025;
            if lower >= 0.5 - 1e-6 {
                assert!(vf.freq_at_voltage(lower) < target, "v={v} target={target}");
            }
        }
    }
}
