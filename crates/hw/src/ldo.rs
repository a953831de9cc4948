//! Synthesizable low-dropout regulator (LDO) transient model.
//!
//! Table 4 of the paper: 3.8 ns per 50 mV response time, 99.2 % peak
//! current efficiency, 200 mA maximum load. The LDO scales the
//! accelerator supply between 0.5 V and 0.8 V in 25 mV steps; Fig. 7's
//! SPICE traces show transitions settling within 100 ns.

use serde::{Deserialize, Serialize};

/// LDO performance specification (paper Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LdoSpec {
    /// Slew response, nanoseconds per 50 mV of voltage change.
    pub response_ns_per_50mv: f64,
    /// Peak current efficiency at maximum load (fraction).
    pub peak_current_efficiency: f64,
    /// Maximum load current, milliamps.
    pub max_load_ma: f64,
    /// Dropout between the (tracking) input rail and the output, volts.
    /// The distributed power-header LDO sits under a rail that follows
    /// the requested output with a fixed headroom, so the regulator loss
    /// is the dropout rather than a full linear-regulator `V_in - V_out`
    /// drop — this is what preserves the paper's quadratic DVFS savings.
    pub dropout_v: f32,
}

impl Default for LdoSpec {
    fn default() -> Self {
        Self {
            response_ns_per_50mv: 3.8,
            peak_current_efficiency: 0.992,
            max_load_ma: 200.0,
            dropout_v: 0.05,
        }
    }
}

/// One point of a voltage transition waveform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Time since the transition request, nanoseconds.
    pub t_ns: f64,
    /// Output voltage, volts.
    pub voltage: f32,
}

/// The LDO with its current output state.
///
/// # Example
///
/// ```
/// use edgebert_hw::Ldo;
///
/// let mut ldo = Ldo::new(0.80);
/// let trace = ldo.transition(0.70);
/// // Fig. 7: transitions settle within 100 ns.
/// assert!(trace.last().unwrap().t_ns <= 100.0);
/// assert!((ldo.voltage() - 0.70).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ldo {
    spec: LdoSpec,
    voltage: f32,
}

impl Ldo {
    /// Creates an LDO with the default (Table 4) spec at an initial
    /// output voltage.
    pub fn new(initial_v: f32) -> Self {
        Self {
            spec: LdoSpec::default(),
            voltage: initial_v,
        }
    }

    /// The spec in use.
    pub fn spec(&self) -> &LdoSpec {
        &self.spec
    }

    /// Current output voltage.
    pub fn voltage(&self) -> f32 {
        self.voltage
    }

    /// Time to slew between two voltages, nanoseconds.
    pub fn transition_time_ns(&self, from: f32, to: f32) -> f64 {
        ((to - from).abs() as f64 / 0.050) * self.spec.response_ns_per_50mv
    }

    /// Performs a transition to `target`, returning the waveform sampled
    /// every nanosecond (linear slew, matching the near-linear Fig. 7
    /// traces). Updates the output state.
    pub fn transition(&mut self, target: f32) -> Vec<TracePoint> {
        let from = self.voltage;
        let duration = self.transition_time_ns(from, target);
        let steps = (duration.ceil() as usize).max(1);
        let mut trace = Vec::with_capacity(steps + 1);
        for i in 0..=steps {
            let t = duration * i as f64 / steps as f64;
            let v = from + (target - from) * (t / duration.max(1e-12)) as f32;
            trace.push(TracePoint {
                t_ns: t,
                voltage: v,
            });
        }
        self.voltage = target;
        trace
    }

    /// Power efficiency at output voltage `v`: current efficiency
    /// (99.2 % peak) times the voltage ratio across the dropout,
    /// `V_out / (V_out + V_dropout)` — the paper's "nearly linear scaled
    /// power efficiency".
    pub fn efficiency(&self, v_out: f32) -> f64 {
        let ratio = (v_out / (v_out + self.spec.dropout_v)) as f64;
        self.spec.peak_current_efficiency * ratio
    }

    /// Energy overhead (joules) the LDO dissipates while delivering
    /// `load_energy_j` to the accelerator at output voltage `v`.
    pub fn overhead_j(&self, load_energy_j: f64, v: f32) -> f64 {
        let eff = self.efficiency(v).max(1e-3);
        load_energy_j * (1.0 / eff - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_spec_defaults() {
        let spec = LdoSpec::default();
        assert_eq!(spec.response_ns_per_50mv, 3.8);
        assert_eq!(spec.peak_current_efficiency, 0.992);
        assert_eq!(spec.max_load_ma, 200.0);
    }

    #[test]
    fn full_range_transition_within_100ns() {
        // Largest DVFS swing: 0.5 ↔ 0.8 V = 300 mV = 6 x 50 mV => 22.8 ns
        // of slew; Fig. 7's "within 100 ns" bound holds with margin.
        let mut ldo = Ldo::new(0.50);
        let t = ldo.transition_time_ns(0.50, 0.80);
        assert!((t - 22.8).abs() < 1e-3);
        let trace = ldo.transition(0.80);
        assert!(trace.last().unwrap().t_ns <= 100.0);
        assert!((trace.last().unwrap().voltage - 0.80).abs() < 1e-6);
    }

    #[test]
    fn waveform_is_monotone_and_endpoints_exact() {
        let mut ldo = Ldo::new(0.80);
        let trace = ldo.transition(0.65);
        assert!((trace[0].voltage - 0.80).abs() < 1e-6);
        assert!((trace.last().unwrap().voltage - 0.65).abs() < 1e-6);
        for w in trace.windows(2) {
            assert!(w[1].voltage <= w[0].voltage + 1e-6);
            assert!(w[1].t_ns >= w[0].t_ns);
        }
    }

    #[test]
    fn zero_transition_is_instant() {
        let mut ldo = Ldo::new(0.7);
        assert_eq!(ldo.transition_time_ns(0.7, 0.7), 0.0);
        let trace = ldo.transition(0.7);
        assert!(!trace.is_empty());
    }

    #[test]
    fn efficiency_peaks_at_nominal_and_scales_down() {
        let ldo = Ldo::new(0.8);
        // 0.992 x 0.8/0.85 ~= 0.934 at nominal; never above the current
        // efficiency ceiling.
        let at_nom = ldo.efficiency(0.80);
        assert!(
            (at_nom - 0.9336).abs() < 1e-3,
            "nominal efficiency {at_nom}"
        );
        let at_low = ldo.efficiency(0.50);
        assert!(at_low < at_nom);
        assert!(at_low > 0.85);
        // Overhead grows as efficiency falls.
        assert!(ldo.overhead_j(1.0, 0.5) > ldo.overhead_j(1.0, 0.8));
    }
}
