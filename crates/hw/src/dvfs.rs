//! The sentence-level DVFS controller (paper §5.2 / §7.4.3).
//!
//! After the early-exit predictor forecasts the exit layer, the
//! controller knows the remaining work `N_cycles` and the remaining time
//! budget. It sets:
//!
//! ```text
//! Freq_opt = N_cycles / (T - T_elapsed)
//! VDD_opt  = lowest grid voltage with f_max(VDD) ≥ Freq_opt
//! ```
//!
//! If even the peak frequency cannot meet the target the controller runs
//! at nominal V/F and flags the violation.

use crate::adpll::Adpll;
use crate::config::AcceleratorConfig;
use crate::ldo::Ldo;
use crate::vf::VfTable;
use serde::{Deserialize, Serialize};

/// Outcome of a DVFS decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DvfsDecision {
    /// Selected supply voltage, volts.
    pub voltage: f32,
    /// Selected clock frequency, Hz.
    pub freq_hz: f64,
    /// Whether the latency target is achievable.
    pub feasible: bool,
}

/// The DVFS finite-state controller.
///
/// # Example
///
/// ```
/// use edgebert_hw::{AcceleratorConfig, DvfsController};
///
/// let ctl = DvfsController::new(AcceleratorConfig::energy_optimal());
/// // 10M cycles in 50 ms needs only 0.2 GHz: deep voltage scaling.
/// let d = ctl.decide(10_000_000, 50e-3);
/// assert!(d.feasible);
/// assert!(d.voltage <= 0.525);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsController {
    cfg: AcceleratorConfig,
    vf: VfTable,
}

impl DvfsController {
    /// Creates a controller with the configuration's V/F table.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        let vf = VfTable::from_config(&cfg);
        Self { cfg, vf }
    }

    /// The V/F table (stored as a LUT in the SFU auxiliary buffer).
    pub fn vf_table(&self) -> &VfTable {
        &self.vf
    }

    /// Time to move the rail and clock from nominal V/F to the floor
    /// (`vdd_min`): LDO slew plus ADPLL relock, in seconds. This is the
    /// worst-case transition an engine must reserve out of its budget
    /// before asking for a decision, and the window
    /// [`decide`](Self::decide) holds nominal inside when no work
    /// remains.
    pub fn floor_transition_s(&self) -> f64 {
        let ldo = Ldo::new(self.cfg.vdd_nominal);
        let pll = Adpll::new(self.cfg.freq_max_hz);
        ldo.transition_time_ns(self.cfg.vdd_nominal, self.cfg.vdd_min) * 1e-9
            + pll.relock_ns() * 1e-9
    }

    /// Decides the V/F point for `remaining_cycles` of work within
    /// `remaining_seconds`. A non-positive budget forces nominal V/F with
    /// `feasible = false`.
    pub fn decide(&self, remaining_cycles: u64, remaining_seconds: f64) -> DvfsDecision {
        let nominal = DvfsDecision {
            voltage: self.cfg.vdd_nominal,
            freq_hz: self.cfg.freq_max_hz,
            feasible: false,
        };
        if remaining_seconds <= 0.0 {
            return nominal;
        }
        if remaining_cycles == 0 {
            // No work remains, so the deadline is met wherever the rail
            // sits — but resting at the floor is only reachable if the
            // remaining budget covers the nominal → vdd_min transition
            // (LDO slew + ADPLL relock). Inside that window the
            // controller holds nominal V/F rather than starting a
            // transition it cannot finish.
            return if remaining_seconds > self.floor_transition_s() {
                DvfsDecision {
                    voltage: self.cfg.vdd_min,
                    freq_hz: self.vf.freq_at_voltage(self.cfg.vdd_min),
                    feasible: true,
                }
            } else {
                DvfsDecision {
                    feasible: true,
                    ..nominal
                }
            };
        }
        let freq_req = remaining_cycles as f64 / remaining_seconds;
        // Degenerate demands off the wire must not reach the clock:
        // an unbounded budget asks for 0 Hz (rest at the floor point
        // instead — the clock cannot stop), and a NaN budget has no
        // meaningful answer (hold nominal, flagged infeasible).
        if freq_req <= 0.0 || freq_req.is_nan() {
            return if freq_req == 0.0 {
                DvfsDecision {
                    voltage: self.cfg.vdd_min,
                    freq_hz: self.vf.freq_at_voltage(self.cfg.vdd_min),
                    feasible: true,
                }
            } else {
                nominal
            };
        }
        match self.vf.min_voltage_for_freq(freq_req) {
            // Clamp to the grid voltage's fmax: the lookup tolerates ppm-
            // level f32 grid rounding, and the clock must never outrun the
            // supply.
            Some(v) => DvfsDecision {
                voltage: v,
                freq_hz: freq_req.min(self.vf.freq_at_voltage(v)),
                feasible: true,
            },
            None => nominal,
        }
    }

    /// [`decide`](Self::decide) with queueing delay deducted from the
    /// budget: the V/F point for `remaining_cycles` of work when
    /// `elapsed_queue_s` of the `remaining_seconds` budget was already
    /// burned waiting in a queue.
    ///
    /// This is the serving-stack entry point (paper §5.2 computes
    /// `Freq_opt = N_cycles / (T − T_elapsed)`): a sentence that sat
    /// queued has *less* true slack than its target implies, so handing
    /// the controller the undeducted budget makes it scale V/F as if the
    /// wait never happened — the sentence then finishes compute "on
    /// time" while its sojourn blows the deadline. With
    /// `elapsed_queue_s = 0` this is exactly [`decide`](Self::decide).
    pub fn decide_with_elapsed(
        &self,
        remaining_cycles: u64,
        remaining_seconds: f64,
        elapsed_queue_s: f64,
    ) -> DvfsDecision {
        debug_assert!(
            elapsed_queue_s >= 0.0 && elapsed_queue_s.is_finite(),
            "queueing delay must be finite and non-negative, got {elapsed_queue_s}"
        );
        self.decide(remaining_cycles, remaining_seconds - elapsed_queue_s)
    }

    /// Convenience: the decision for running `remaining_cycles` at
    /// maximum performance (nominal V/F).
    pub fn nominal(&self) -> DvfsDecision {
        DvfsDecision {
            voltage: self.cfg.vdd_nominal,
            freq_hz: self.cfg.freq_max_hz,
            feasible: true,
        }
    }

    /// Power draw of grid point `(voltage, freq_hz)` relative to the
    /// nominal point: `(V/V_nom)² · (f/f_nom)` — the dynamic-power
    /// scaling a fleet power budget divides operating points by. The
    /// nominal point is 1.0; the floor point is well under 0.2 on the
    /// energy-optimal grid.
    pub fn relative_power(&self, voltage: f32, freq_hz: f64) -> f64 {
        let vr = voltage as f64 / self.cfg.vdd_nominal as f64;
        vr * vr * (freq_hz / self.cfg.freq_max_hz)
    }

    /// The fastest V/F grid point whose relative power (see
    /// [`relative_power`](Self::relative_power)) stays within
    /// `rel_cap`. Degenerate caps never stall the clock: a NaN, zero,
    /// or negative cap — and any cap below even the floor point's draw
    /// — returns the floor point (`vdd_min` at its grid frequency),
    /// the least power the accelerator can run at.
    pub fn power_capped_point(&self, rel_cap: f64) -> (f32, f64) {
        let floor = (self.cfg.vdd_min, self.vf.freq_at_voltage(self.cfg.vdd_min));
        // NaN, zero, and negative caps all fall back to the floor.
        if rel_cap.is_nan() || rel_cap <= 0.0 {
            return floor;
        }
        let mut best = floor;
        for p in self.vf.points() {
            if self.relative_power(p.voltage, p.freq_max_hz) <= rel_cap && p.freq_max_hz > best.1 {
                best = (p.voltage, p.freq_max_hz);
            }
        }
        best
    }

    /// [`decide`](Self::decide) under a relative power cap: the chosen
    /// operating point may not draw more than `rel_cap` of nominal
    /// power. When the unconstrained decision fits under the cap (or
    /// no work remains — zero cycles draw no sustained power), it is
    /// returned unchanged, bit for bit; otherwise the decision clamps
    /// to the fastest grid point within the cap and feasibility is
    /// recomputed *honestly* against the clamped frequency — a cap
    /// that forbids the deadline-meeting point yields an infeasible
    /// decision, never a silently re-priced one. A cap at or above
    /// 1.0 is unconstrained; degenerate caps fall back to the floor
    /// point (see [`power_capped_point`](Self::power_capped_point)),
    /// never a stalled clock.
    pub fn decide_power_capped(
        &self,
        remaining_cycles: u64,
        remaining_seconds: f64,
        rel_cap: f64,
    ) -> DvfsDecision {
        if rel_cap >= 1.0 {
            return self.decide(remaining_cycles, remaining_seconds);
        }
        let uncapped = self.decide(remaining_cycles, remaining_seconds);
        let (v_cap, f_cap) = self.power_capped_point(rel_cap);
        if remaining_cycles == 0 || uncapped.freq_hz <= f_cap * (1.0 + 1e-9) {
            return uncapped;
        }
        let need_s = remaining_cycles as f64 / f_cap;
        DvfsDecision {
            voltage: v_cap,
            freq_hz: f_cap,
            feasible: remaining_seconds > 0.0 && need_s <= remaining_seconds * (1.0 + 1e-9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> DvfsController {
        DvfsController::new(AcceleratorConfig::energy_optimal())
    }

    #[test]
    fn loose_target_bottoms_out_at_vmin() {
        let ctl = controller();
        // 1M cycles in 100 ms = 10 MHz: far below fmax(0.5 V).
        let d = ctl.decide(1_000_000, 100e-3);
        assert!(d.feasible);
        assert_eq!(d.voltage, 0.50);
        assert!((d.freq_hz - 1e7).abs() < 1.0);
    }

    #[test]
    fn tight_target_needs_nominal() {
        let ctl = controller();
        // 0.99 GHz requirement: only nominal voltage suffices.
        let d = ctl.decide(990_000_000, 1.0);
        assert!(d.feasible);
        assert_eq!(d.voltage, 0.80);
    }

    #[test]
    fn infeasible_target_flags_violation() {
        let ctl = controller();
        let d = ctl.decide(2_000_000_000, 1.0); // needs 2 GHz
        assert!(!d.feasible);
        assert_eq!(d.voltage, 0.80);
        assert_eq!(d.freq_hz, 1.0e9);
    }

    #[test]
    fn deadline_is_always_met_when_feasible() {
        let ctl = controller();
        for &(cycles, secs) in &[
            (5_000_000u64, 12e-3f64),
            (40_000_000, 50e-3),
            (430_000_000, 500e-3),
        ] {
            let d = ctl.decide(cycles, secs);
            assert!(d.feasible);
            let finish = cycles as f64 / d.freq_hz;
            assert!(finish <= secs * 1.0001, "{finish} > {secs}");
            // Voltage supports the chosen frequency.
            assert!(ctl.vf_table().freq_at_voltage(d.voltage) + 1.0 >= d.freq_hz);
        }
    }

    #[test]
    fn lower_demand_never_increases_voltage() {
        let ctl = controller();
        let mut last_v = f32::INFINITY;
        for layers in (1..=12).rev() {
            let cycles = 3_600_000u64 * layers;
            let d = ctl.decide(cycles, 50e-3);
            assert!(d.voltage <= last_v + 1e-6);
            last_v = d.voltage;
        }
    }

    #[test]
    fn zero_work_rests_at_floor() {
        let ctl = controller();
        let d = ctl.decide(0, 10e-3);
        assert!(d.feasible);
        assert_eq!(d.voltage, 0.50);
    }

    #[test]
    fn zero_work_inside_transition_window_holds_nominal() {
        // Regression: zero remaining cycles used to return the floor
        // voltage as feasible even when the remaining budget could not
        // cover the nominal → vdd_min LDO slew + ADPLL relock. The
        // deadline is still met (there is no work), but the rail must
        // not start a transition it cannot finish.
        let ctl = controller();
        let cfg = AcceleratorConfig::energy_optimal();
        let transition_s = ctl.floor_transition_s();
        assert!(transition_s > 0.0);

        // Budget inside the transition window: hold nominal, feasible.
        let d = ctl.decide(0, transition_s * 0.5);
        assert!(d.feasible);
        assert_eq!(d.voltage, cfg.vdd_nominal);
        assert_eq!(d.freq_hz, cfg.freq_max_hz);

        // Budget past the window: rest at the floor as before.
        let d = ctl.decide(0, transition_s * 2.0);
        assert!(d.feasible);
        assert_eq!(d.voltage, cfg.vdd_min);
    }

    #[test]
    fn degenerate_budgets_never_ask_for_a_stopped_clock() {
        // Regression: an infinite budget (a "no deadline" request off
        // the wire) computed Freq_opt = cycles/∞ = 0 Hz, which the
        // accelerator simulator rejects with a panic. The controller
        // now rests at the floor point instead; a NaN budget holds
        // nominal, flagged infeasible.
        let ctl = controller();
        let cfg = AcceleratorConfig::energy_optimal();
        let d = ctl.decide(1_000_000, f64::INFINITY);
        assert!(d.feasible);
        assert_eq!(d.voltage, cfg.vdd_min);
        assert!(d.freq_hz > 0.0);
        let d = ctl.decide(1_000_000, f64::NAN);
        assert!(!d.feasible);
        assert_eq!(d.voltage, cfg.vdd_nominal);
        assert!(d.freq_hz > 0.0);
    }

    #[test]
    fn zero_elapsed_queue_is_bit_identical_to_decide() {
        let ctl = controller();
        for &(cycles, secs) in &[
            (0u64, 10e-3f64),
            (1_000_000, 100e-3),
            (40_000_000, 50e-3),
            (2_000_000_000, 1.0),
        ] {
            assert_eq!(
                ctl.decide_with_elapsed(cycles, secs, 0.0),
                ctl.decide(cycles, secs),
                "{cycles} cycles in {secs}s"
            );
        }
    }

    #[test]
    fn elapsed_queue_shrinks_slack_monotonically() {
        // More time burned in queue can only push the operating point
        // up (or leave it unchanged) — never let it relax further.
        let ctl = controller();
        let cycles = 40_000_000u64;
        let target = 100e-3;
        let mut last_v = 0.0f32;
        for elapsed in [0.0, 20e-3, 40e-3, 60e-3, 80e-3] {
            let d = ctl.decide_with_elapsed(cycles, target, elapsed);
            assert!(
                d.voltage >= last_v - 1e-6,
                "elapsed {elapsed}: voltage {} under previous {last_v}",
                d.voltage
            );
            last_v = d.voltage;
        }
        // Queueing past the whole budget is an infeasible decision.
        let d = ctl.decide_with_elapsed(cycles, target, target);
        assert!(!d.feasible);
    }

    #[test]
    fn mid_sentence_redecide_tracks_remaining_work() {
        // The resumable-session contract at the controller level: a
        // sentence preempted mid-stretch re-decides with the layers
        // already run and the time already spent (compute + parked)
        // deducted. The re-decision must stay feasible whenever the
        // original plan plus the parked stall still fits the budget,
        // and must come back at least as fast as the original rate
        // when the stall consumed proportionally more budget than the
        // completed work returned.
        let ctl = controller();
        let layer = 3_600_000u64;
        let total = layer * 12;
        let target = 100e-3;
        let first = ctl.decide(total, target);
        assert!(first.feasible);
        for done in [2u64, 6, 11] {
            let spent = done as f64 * layer as f64 / first.freq_hz;
            for parked in [0.0, 10e-3, 30e-3] {
                let remaining = total - layer * done;
                let re = ctl.decide(remaining, target - spent - parked);
                if target - spent - parked > remaining as f64 / ctl.cfg.freq_max_hz {
                    assert!(re.feasible, "done {done} parked {parked}");
                }
                if parked > 0.0 {
                    assert!(
                        re.freq_hz >= first.freq_hz - 1.0,
                        "a stall can only push the clock up: {} vs {}",
                        re.freq_hz,
                        first.freq_hz
                    );
                }
            }
        }
    }

    #[test]
    fn expired_budget_is_infeasible() {
        let ctl = controller();
        let d = ctl.decide(1000, 0.0);
        assert!(!d.feasible);
        let d = ctl.decide(1000, -1.0);
        assert!(!d.feasible);
    }

    #[test]
    fn relative_power_is_anchored_at_nominal() {
        let ctl = controller();
        let cfg = AcceleratorConfig::energy_optimal();
        let nominal = ctl.relative_power(cfg.vdd_nominal, cfg.freq_max_hz);
        assert!((nominal - 1.0).abs() < 1e-12);
        let floor = ctl.relative_power(cfg.vdd_min, ctl.vf_table().freq_at_voltage(cfg.vdd_min));
        assert!(floor > 0.0 && floor < 0.2, "floor draw {floor}");
        // Monotone along the grid: every step up in voltage draws more.
        let mut last = 0.0;
        for p in ctl.vf_table().points() {
            let rp = ctl.relative_power(p.voltage, p.freq_max_hz);
            assert!(rp > last, "{rp} at {} V", p.voltage);
            last = rp;
        }
    }

    #[test]
    fn power_cap_clamps_the_point_and_judges_feasibility_honestly() {
        let ctl = controller();
        let cfg = AcceleratorConfig::energy_optimal();
        // A 0.99 GHz demand needs nominal; a 50% power cap forbids it.
        let uncapped = ctl.decide(990_000_000, 1.0);
        assert!(uncapped.feasible);
        assert_eq!(uncapped.voltage, cfg.vdd_nominal);
        let capped = ctl.decide_power_capped(990_000_000, 1.0, 0.5);
        assert!(capped.voltage < uncapped.voltage);
        assert!(capped.freq_hz < uncapped.freq_hz);
        assert!(
            ctl.relative_power(capped.voltage, capped.freq_hz) <= 0.5 + 1e-12,
            "capped point must respect the cap"
        );
        // The clamped clock cannot finish 0.99 G cycles in 1 s iff it
        // runs under 0.99 GHz — feasibility is recomputed, not copied.
        assert_eq!(
            capped.feasible,
            990_000_000.0 / capped.freq_hz <= 1.0 + 1e-9
        );
        assert!(!capped.feasible, "the cap forbids the deadline here");

        // A demand the capped point *can* still meet stays feasible.
        let (_, f_cap) = ctl.power_capped_point(0.5);
        let cycles = (f_cap * 0.5) as u64;
        let ok = ctl.decide_power_capped(cycles, 1.0, 0.5);
        assert!(ok.feasible);
        assert!(cycles as f64 / ok.freq_hz <= 1.0 + 1e-9);
    }

    #[test]
    fn generous_power_cap_is_bit_identical_to_uncapped() {
        let ctl = controller();
        for &(cycles, secs) in &[
            (0u64, 10e-3f64),
            (1_000_000, 100e-3),
            (40_000_000, 50e-3),
            (990_000_000, 1.0),
            (2_000_000_000, 1.0),
            (1000, 0.0),
        ] {
            for cap in [1.0, 2.5, f64::INFINITY] {
                assert_eq!(
                    ctl.decide_power_capped(cycles, secs, cap),
                    ctl.decide(cycles, secs),
                    "{cycles} cycles in {secs}s under cap {cap}"
                );
            }
        }
    }

    #[test]
    fn slow_decisions_under_the_cap_are_untouched() {
        let ctl = controller();
        // A loose budget already rests far below the cap point: the
        // cap must not perturb it.
        let uncapped = ctl.decide(1_000_000, 100e-3);
        assert_eq!(uncapped.voltage, 0.50);
        assert_eq!(ctl.decide_power_capped(1_000_000, 100e-3, 0.5), uncapped);
    }

    #[test]
    fn degenerate_power_caps_fall_back_to_the_floor_not_a_stalled_clock() {
        // The envelope arrives from the server's fleet budget split
        // and, on custom backends, from arbitrary arithmetic: zero, negative, NaN, and
        // below-floor caps must land on the floor point — a running
        // clock — never 0 Hz (the accelerator simulator panics on a
        // stopped clock) and never a voltage below the grid.
        let ctl = controller();
        let cfg = AcceleratorConfig::energy_optimal();
        let f_floor = ctl.vf_table().freq_at_voltage(cfg.vdd_min);
        let floor_draw = ctl.relative_power(cfg.vdd_min, f_floor);
        for cap in [0.0, -1.0, f64::NAN, floor_draw * 0.5, f64::MIN_POSITIVE] {
            let (v, f) = ctl.power_capped_point(cap);
            assert_eq!(v, cfg.vdd_min, "cap {cap}");
            assert_eq!(f, f_floor, "cap {cap}");
            assert!(f > 0.0);
            let d = ctl.decide_power_capped(40_000_000, 50e-3, cap);
            assert_eq!(d.voltage, cfg.vdd_min, "cap {cap}");
            assert_eq!(d.freq_hz, f_floor, "cap {cap}");
            // Honest verdict: feasible iff the floor clock fits.
            assert_eq!(d.feasible, 40_000_000.0 / f_floor <= 50e-3 * (1.0 + 1e-9));
        }
    }
}
