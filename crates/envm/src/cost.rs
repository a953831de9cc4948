//! Area, latency, and energy cost model for on-chip ReRAM arrays.

use crate::cells::CellTech;
use serde::{Deserialize, Serialize};

/// An on-chip ReRAM buffer of a given capacity and cell technology.
///
/// The EdgeBERT accelerator integrates a 2 MB ReRAM buffer (paper §7.2):
/// bitmask region in SLC, payload region in MLC2.
///
/// # Example
///
/// ```
/// use edgebert_envm::{CellTech, ReramArray};
///
/// let arr = ReramArray::new(CellTech::Mlc2, 2.0);
/// assert!((arr.area_mm2() - 0.16).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReramArray {
    tech: CellTech,
    capacity_mb: f64,
    /// Word width of one array access, bits.
    access_width_bits: u32,
}

impl ReramArray {
    /// Creates an array with a 128-bit access port (16 bytes per access).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mb <= 0`.
    pub fn new(tech: CellTech, capacity_mb: f64) -> Self {
        assert!(capacity_mb > 0.0, "capacity must be positive");
        Self {
            tech,
            capacity_mb,
            access_width_bits: 128,
        }
    }

    /// Cell technology of the array.
    pub fn tech(&self) -> CellTech {
        self.tech
    }

    /// Capacity in megabytes.
    pub fn capacity_mb(&self) -> f64 {
        self.capacity_mb
    }

    /// Access-port width in bits.
    pub fn access_width_bits(&self) -> u32 {
        self.access_width_bits
    }

    /// Silicon area in mm² (Table 2 density).
    pub fn area_mm2(&self) -> f64 {
        self.tech.area_mm2_per_mb() * self.capacity_mb
    }

    /// Latency to read `bits` bits, in nanoseconds: one array access per
    /// `access_width_bits`, each at the Table 2 read latency. Reads
    /// pipeline at one access per latency (conservative: no banking).
    pub fn read_latency_ns(&self, bits: usize) -> f64 {
        let accesses = bits.div_ceil(self.access_width_bits as usize) as f64;
        accesses * self.tech.read_latency_ns()
    }

    /// Energy to read `bits` bits, in picojoules.
    pub fn read_energy_pj(&self, bits: usize) -> f64 {
        bits as f64 * self.tech.read_energy_pj_per_bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_follows_table2_density() {
        assert!((ReramArray::new(CellTech::Slc, 1.0).area_mm2() - 0.28).abs() < 1e-12);
        assert!((ReramArray::new(CellTech::Mlc2, 2.0).area_mm2() - 0.16).abs() < 1e-12);
        assert!((ReramArray::new(CellTech::Mlc3, 2.0).area_mm2() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn paper_buffer_close_to_reported_area() {
        // Fig. 10 reports 0.15 mm² for the ReRAM buffers; 2MB of MLC2 at
        // Table 2 density is 0.16 mm² — same design point.
        let arr = ReramArray::new(CellTech::Mlc2, 2.0);
        assert!((arr.area_mm2() - 0.15).abs() < 0.02);
    }

    #[test]
    fn read_latency_scales_with_size() {
        let arr = ReramArray::new(CellTech::Mlc2, 2.0);
        let one = arr.read_latency_ns(128);
        assert!((one - 1.54).abs() < 1e-9);
        let big = arr.read_latency_ns(128 * 100);
        assert!((big - 154.0).abs() < 1e-9);
        // Partial word rounds up.
        assert_eq!(arr.read_latency_ns(1), one);
    }

    #[test]
    fn energy_scales_linearly() {
        let arr = ReramArray::new(CellTech::Mlc2, 2.0);
        assert!((arr.read_energy_pj(1000) - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        ReramArray::new(CellTech::Slc, 0.0);
    }
}
