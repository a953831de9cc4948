//! ReRAM cell technologies and their fault characteristics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A ReRAM cell configuration: how many bits each cell stores.
///
/// Characteristics follow the paper's Table 2 (28 nm ReRAM, scaled to the
/// 12 nm system): denser cells are smaller and slower, and their tighter
/// level margins make them dramatically less reliable.
///
/// # Example
///
/// ```
/// use edgebert_envm::CellTech;
///
/// assert!(CellTech::Mlc3.area_mm2_per_mb() < CellTech::Slc.area_mm2_per_mb());
/// assert!(CellTech::Mlc3.level_error_rate() > CellTech::Mlc2.level_error_rate());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellTech {
    /// Single-level cell: 1 bit per cell.
    Slc,
    /// Multi-level cell, 2 bits per cell.
    Mlc2,
    /// Multi-level cell, 3 bits per cell.
    Mlc3,
}

impl CellTech {
    /// All configurations in Table 2 order.
    pub fn all() -> [CellTech; 3] {
        [CellTech::Slc, CellTech::Mlc2, CellTech::Mlc3]
    }

    /// Bits stored per cell.
    pub fn bits_per_cell(self) -> u32 {
        match self {
            CellTech::Slc => 1,
            CellTech::Mlc2 => 2,
            CellTech::Mlc3 => 3,
        }
    }

    /// Area density from Table 2, mm² per MB.
    pub fn area_mm2_per_mb(self) -> f64 {
        match self {
            CellTech::Slc => 0.28,
            CellTech::Mlc2 => 0.08,
            CellTech::Mlc3 => 0.04,
        }
    }

    /// Read latency from Table 2, nanoseconds per array access.
    pub fn read_latency_ns(self) -> f64 {
        match self {
            CellTech::Slc => 1.21,
            CellTech::Mlc2 => 1.54,
            CellTech::Mlc3 => 2.96,
        }
    }

    /// Read energy per bit, picojoules. More levels need finer sensing;
    /// values are representative of dense 28 nm ReRAM arrays scaled to
    /// 12 nm (not from the paper's Table 2, which omits energy).
    pub fn read_energy_pj_per_bit(self) -> f64 {
        match self {
            CellTech::Slc => 0.30,
            CellTech::Mlc2 => 0.20,
            CellTech::Mlc3 => 0.35,
        }
    }

    /// Probability that a stored cell reads back at an adjacent level
    /// (the dominant MLC ReRAM fault mode). Defaults are chosen so that
    /// over 100 trials of a ~1.7 MB embedding image, SLC and MLC2 produce
    /// no perceptible accuracy change while MLC3 visibly degrades — the
    /// qualitative outcome of the paper's Table 2.
    pub fn level_error_rate(self) -> f64 {
        match self {
            CellTech::Slc => 1.0e-9,
            CellTech::Mlc2 => 5.0e-8,
            CellTech::Mlc3 => 1.5e-3,
        }
    }
}

impl fmt::Display for CellTech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellTech::Slc => write!(f, "SLC"),
            CellTech::Mlc2 => write!(f, "MLC2"),
            CellTech::Mlc3 => write!(f, "MLC3"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_density_and_latency() {
        assert_eq!(CellTech::Slc.area_mm2_per_mb(), 0.28);
        assert_eq!(CellTech::Mlc2.area_mm2_per_mb(), 0.08);
        assert_eq!(CellTech::Mlc3.area_mm2_per_mb(), 0.04);
        assert_eq!(CellTech::Slc.read_latency_ns(), 1.21);
        assert_eq!(CellTech::Mlc2.read_latency_ns(), 1.54);
        assert_eq!(CellTech::Mlc3.read_latency_ns(), 2.96);
    }

    #[test]
    fn density_reliability_tradeoff() {
        // Denser ⇒ less reliable, the central tension of §4.
        let mut last_area = f64::INFINITY;
        let mut last_err = 0.0;
        for tech in CellTech::all() {
            assert!(tech.area_mm2_per_mb() < last_area);
            assert!(tech.level_error_rate() > last_err);
            last_area = tech.area_mm2_per_mb();
            last_err = tech.level_error_rate();
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(CellTech::Slc.to_string(), "SLC");
        assert_eq!(CellTech::Mlc2.to_string(), "MLC2");
        assert_eq!(CellTech::Mlc3.to_string(), "MLC3");
    }
}
