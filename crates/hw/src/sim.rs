//! The accelerator simulator: integrates op costs, V/F scaling, and the
//! DVFS support blocks into per-inference latency/energy numbers.

use crate::adpll::Adpll;
use crate::config::AcceleratorConfig;
use crate::ldo::Ldo;
use crate::ops::{scale_energy_to_voltage, OpKind};
use crate::workload::{EncoderWorkload, WorkloadParams};
use serde::{Deserialize, Serialize};

/// Latency/energy of an inference (or inference segment).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceCost {
    /// Total clock cycles.
    pub cycles: u64,
    /// Wall-clock time, seconds.
    pub seconds: f64,
    /// Total energy, joules (datapath + SRAM + ADPLL + LDO overhead).
    pub energy_j: f64,
    /// Per-datapath (cycles, energy-joules) breakdown.
    pub breakdown: Vec<(OpKind, u64, f64)>,
}

impl InferenceCost {
    /// A zero-cost segment.
    pub fn zero() -> Self {
        Self {
            cycles: 0,
            seconds: 0.0,
            energy_j: 0.0,
            breakdown: OpKind::all().iter().map(|&k| (k, 0, 0.0)).collect(),
        }
    }

    /// Accumulates another segment into this one.
    pub fn add(&mut self, other: &InferenceCost) {
        self.cycles += other.cycles;
        self.seconds += other.seconds;
        self.energy_j += other.energy_j;
        for (kind, c, e) in &other.breakdown {
            if let Some(entry) = self.breakdown.iter_mut().find(|(k, _, _)| k == kind) {
                entry.1 += c;
                entry.2 += e;
            } else {
                self.breakdown.push((*kind, *c, *e));
            }
        }
    }

    /// Fraction of cycles spent in a datapath.
    pub fn latency_fraction(&self, kind: OpKind) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.breakdown
            .iter()
            .filter(|(k, _, _)| *k == kind)
            .map(|(_, c, _)| *c)
            .sum::<u64>() as f64
            / self.cycles as f64
    }

    /// Fraction of datapath energy spent in a datapath (excludes
    /// ADPLL/LDO overheads).
    pub fn energy_fraction(&self, kind: OpKind) -> f64 {
        let total: f64 = self.breakdown.iter().map(|(_, _, e)| *e).sum();
        if total == 0.0 {
            return 0.0;
        }
        self.breakdown
            .iter()
            .filter(|(k, _, _)| *k == kind)
            .map(|(_, _, e)| *e)
            .sum::<f64>()
            / total
    }
}

/// The accelerator simulator.
///
/// # Example
///
/// ```
/// use edgebert_hw::{AcceleratorConfig, AcceleratorSim, WorkloadParams};
///
/// let sim = AcceleratorSim::new(AcceleratorConfig::energy_optimal());
/// let wl = sim.layer_workload(&WorkloadParams::albert_base());
/// let cost = sim.run_layers(&wl, 12, 0.8, 1.0e9);
/// assert!(cost.seconds > 0.0 && cost.energy_j > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorSim {
    cfg: AcceleratorConfig,
}

impl AcceleratorSim {
    /// Creates a simulator for a configuration.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Builds the per-layer op list for the given workload parameters.
    pub fn layer_workload(&self, params: &WorkloadParams) -> EncoderWorkload {
        EncoderWorkload::build(&self.cfg, params)
    }

    /// Runs `layers` encoder layers at a fixed `(voltage, freq_hz)`
    /// operating point.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz <= 0`.
    pub fn run_layers(
        &self,
        workload: &EncoderWorkload,
        layers: usize,
        voltage: f32,
        freq_hz: f64,
    ) -> InferenceCost {
        assert!(freq_hz > 0.0, "frequency must be positive");
        let mut cost = InferenceCost::zero();
        let ldo = Ldo::new(voltage);
        for _ in 0..layers {
            for op in workload.ops() {
                let e_pj = scale_energy_to_voltage(op.energy_pj, voltage);
                let e_j = e_pj * 1e-12;
                cost.cycles += op.cycles;
                cost.energy_j += e_j;
                if let Some(entry) = cost.breakdown.iter_mut().find(|(k, _, _)| *k == op.kind) {
                    entry.1 += op.cycles;
                    entry.2 += e_j;
                }
            }
        }
        cost.seconds = cost.cycles as f64 / freq_hz;
        // Clock generation and regulator overheads over the segment.
        let mut pll = Adpll::new(freq_hz);
        let datapath = cost.energy_j;
        cost.energy_j += pll.energy_j(cost.seconds);
        let _ = pll.retune(freq_hz);
        cost.energy_j += ldo.overhead_j(datapath, voltage);
        cost
    }

    /// Runs at the nominal operating point (0.8 V, 1 GHz).
    pub fn run_layers_nominal(&self, workload: &EncoderWorkload, layers: usize) -> InferenceCost {
        self.run_layers(workload, layers, self.cfg.vdd_nominal, self.cfg.freq_max_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim16() -> AcceleratorSim {
        AcceleratorSim::new(AcceleratorConfig::energy_optimal())
    }

    #[test]
    fn full_inference_matches_design_point() {
        // 12 layers at n=16, 1 GHz: ≈ 3.9 M cycles/layer ⇒ ~47 ms, and
        // average power near the reported 86 mW.
        let sim = sim16();
        let wl = sim.layer_workload(&WorkloadParams::albert_base());
        let cost = sim.run_layers_nominal(&wl, 12);
        assert!(
            (0.035..0.060).contains(&cost.seconds),
            "latency {}",
            cost.seconds
        );
        let p = cost.energy_j / cost.seconds;
        assert!((0.060..0.110).contains(&p), "power {p}");
    }

    #[test]
    fn voltage_scaling_reduces_energy_quadratically() {
        let sim = sim16();
        let wl = sim.layer_workload(&WorkloadParams::albert_base());
        let nominal = sim.run_layers(&wl, 12, 0.8, 1.0e9);
        let scaled = sim.run_layers(&wl, 12, 0.5, 0.4e9);
        // Same cycles, longer time, much less energy.
        assert_eq!(nominal.cycles, scaled.cycles);
        assert!(scaled.seconds > nominal.seconds * 2.0);
        let ratio = nominal.energy_j / scaled.energy_j;
        // Ideal quadratic ratio is (0.8/0.5)² = 2.56; LDO efficiency at
        // low voltage claws a little back.
        assert!((2.0..2.6).contains(&ratio), "energy ratio {ratio}");
    }

    #[test]
    fn cost_accumulation() {
        let sim = sim16();
        let wl = sim.layer_workload(&WorkloadParams::albert_base());
        let one = sim.run_layers_nominal(&wl, 1);
        let mut acc = InferenceCost::zero();
        for _ in 0..3 {
            acc.add(&one);
        }
        let three = sim.run_layers_nominal(&wl, 3);
        assert_eq!(acc.cycles, three.cycles);
        assert!((acc.energy_j - three.energy_j).abs() / three.energy_j < 1e-9);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let sim = sim16();
        let wl = sim.layer_workload(&WorkloadParams::albert_base());
        let cost = sim.run_layers_nominal(&wl, 12);
        let lat_sum: f64 = OpKind::all()
            .iter()
            .map(|&k| cost.latency_fraction(k))
            .sum();
        assert!((lat_sum - 1.0).abs() < 1e-9);
        let e_sum: f64 = OpKind::all().iter().map(|&k| cost.energy_fraction(k)).sum();
        assert!((e_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mac_scaling_latency_drop_per_doubling() {
        // Fig. 8: latency drops ≈3.5x per doubling of n.
        let p = WorkloadParams::albert_base();
        let mut last: Option<f64> = None;
        for n in [2usize, 4, 8, 16, 32] {
            let sim = AcceleratorSim::new(AcceleratorConfig::with_mac_vector_size(n));
            let wl = sim.layer_workload(&p);
            let cost = sim.run_layers_nominal(&wl, 12);
            if let Some(prev) = last {
                let drop = prev / cost.seconds;
                assert!((2.2..4.2).contains(&drop), "n={n}: drop {drop}");
            }
            last = Some(cost.seconds);
        }
    }
}
