//! Accelerator configuration.

use serde::{Deserialize, Serialize};

/// Static configuration of the EdgeBERT accelerator instance.
///
/// The design-space knob of Fig. 8 is [`AcceleratorConfig::mac_vector_size`]
/// (`n`): the PU holds `n²` MAC units organised as `n` vector-MACs of
/// width `n`, computing an `n x n x n` matmul tile in `n` cycles.
///
/// # Example
///
/// ```
/// use edgebert_hw::AcceleratorConfig;
///
/// let cfg = AcceleratorConfig::energy_optimal();
/// assert_eq!(cfg.mac_vector_size, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// PU MAC vector size `n` (2–32 in the paper's sweep).
    pub mac_vector_size: usize,
    /// Maximum clock frequency at nominal voltage, Hz.
    pub freq_max_hz: f64,
    /// Nominal supply voltage, volts.
    pub vdd_nominal: f32,
    /// Minimum DVFS voltage, volts.
    pub vdd_min: f32,
    /// LDO voltage step, volts (25 mV in the paper).
    pub vdd_step: f32,
    /// Standby voltage during idle, volts.
    pub vdd_standby: f32,
    /// SFU vector width (16-bit fixed-point lanes).
    pub sfu_width: usize,
    /// Input/weight buffer capacity per decoder block, bytes.
    pub io_buffer_bytes: usize,
    /// Mask buffer capacity per decoder block, bytes.
    pub mask_buffer_bytes: usize,
    /// SFU auxiliary buffer capacity, bytes.
    pub aux_buffer_bytes: usize,
    /// ReRAM embedding buffer capacity, bytes.
    pub rram_buffer_bytes: usize,
}

impl AcceleratorConfig {
    /// The paper's energy-optimal design point (`n = 16`, 1 GHz, 0.8 V,
    /// buffer sizes of Fig. 6).
    pub fn energy_optimal() -> Self {
        Self::with_mac_vector_size(16)
    }

    /// A design point with a custom MAC vector size (the Fig. 8 sweep).
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two in `2..=64`.
    pub fn with_mac_vector_size(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && (2..=64).contains(&n),
            "mac vector size {n} out of range"
        );
        Self {
            mac_vector_size: n,
            freq_max_hz: 1.0e9,
            vdd_nominal: 0.80,
            vdd_min: 0.50,
            vdd_step: 0.025,
            vdd_standby: 0.50,
            sfu_width: 8,
            io_buffer_bytes: 128 * 1024,
            mask_buffer_bytes: 16 * 1024,
            aux_buffer_bytes: 32 * 1024,
            rram_buffer_bytes: 2 * 1024 * 1024,
        }
    }

    /// Number of DVFS voltage steps between `vdd_min` and `vdd_nominal`.
    pub fn voltage_levels(&self) -> usize {
        (((self.vdd_nominal - self.vdd_min) / self.vdd_step).round() as usize) + 1
    }

    /// The discrete DVFS voltage grid, ascending.
    pub fn voltage_grid(&self) -> Vec<f32> {
        (0..self.voltage_levels())
            .map(|i| self.vdd_min + i as f32 * self.vdd_step)
            .collect()
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::energy_optimal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_optimal_matches_paper() {
        let cfg = AcceleratorConfig::energy_optimal();
        assert_eq!(cfg.mac_vector_size, 16); // 256 MACs
        assert_eq!(cfg.freq_max_hz, 1.0e9);
        assert_eq!(cfg.vdd_nominal, 0.80);
        assert_eq!(cfg.vdd_min, 0.50);
    }

    #[test]
    fn voltage_grid_has_25mv_steps() {
        let cfg = AcceleratorConfig::energy_optimal();
        let grid = cfg.voltage_grid();
        assert_eq!(grid.len(), 13); // 0.500..=0.800 in 25 mV steps
        assert!((grid[0] - 0.5).abs() < 1e-6);
        assert!((grid[grid.len() - 1] - 0.8).abs() < 1e-6);
        for w in grid.windows(2) {
            assert!((w[1] - w[0] - 0.025).abs() < 1e-6);
        }
    }

    #[test]
    fn sweep_sizes_construct() {
        for n in [2usize, 4, 8, 16, 32] {
            let cfg = AcceleratorConfig::with_mac_vector_size(n);
            assert_eq!(cfg.mac_vector_size, n);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn non_power_of_two_rejected() {
        AcceleratorConfig::with_mac_vector_size(12);
    }
}
