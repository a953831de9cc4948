//! Overload control plane: a per-lane admission ladder that trades
//! accuracy for survival under flash crowds.
//!
//! EdgeBERT's calibrated entropy/accuracy knob (§5.1: thresholds
//! calibrated at 1/2/5 % accuracy drop) is request-scoped — but a
//! frozen knob gives an overloaded serving lane only two bad options:
//! queue work that will miss its deadline anyway, or reject it outright
//! at admission. This module adds the missing third option: under
//! pressure, *degrade* — serve at a cheaper accuracy tier and a higher
//! entropy-exit threshold so sentences exit earlier and the backlog
//! drains — and only when degradation cannot restore feasibility,
//! *shed* work at admission with a typed retry hint instead of letting
//! it queue and die.
//!
//! The control plane is a three-rung ladder driven by an observed
//! pressure signal (see [`pressure`]):
//!
//! ```text
//!              p ≥ degrade_enter           p ≥ shed_enter
//!   Nominal ───────────────────▶ Degrade ───────────────▶ Shed
//!      ▲                            │  ▲                    │
//!      └────────────────────────────┘  └────────────────────┘
//!              p < degrade_exit           p < shed_exit
//! ```
//!
//! * **[`LadderStep::Degrade`]** — requests popped for service are
//!   degraded by one notch: the accuracy tier drops one step
//!   ([`DropTarget::degraded`](crate::engine::DropTarget::degraded))
//!   and the entropy-exit threshold doubles (a fixed factor per
//!   notch, so degradation can only *raise* the exit threshold —
//!   earlier exits — never lower it). A degradation is its notch
//!   count, the rung's [`severity`](LadderStep::severity); the session
//!   opener ([`EdgeBertEngine::begin_degraded`](crate::engine::EdgeBertEngine::begin_degraded))
//!   bounds it by the request's own
//!   [`max_degradation`](crate::engine::InferenceRequest::max_degradation)
//!   floor (default 0: no degradation, ever — existing behavior is
//!   bit-identical).
//! * **[`LadderStep::Shed`]** — degradation is already at two notches
//!   and pressure still exceeds the shed threshold: admission starts
//!   rejecting requests whose deadline-feasibility estimate says they
//!   would queue and die, with a typed
//!   [`SubmitError::Shed`](crate::server::SubmitError::Shed) carrying a
//!   retry hint.
//! * **Recovery** — the ladder steps *down* through hysteresis bands
//!   (see below), so a draining burst does not flap the lane between
//!   rungs.
//!
//! # Hysteresis invariants
//!
//! [`OverloadConfig::validate`] enforces (and the server asserts at
//! construction):
//!
//! * `degrade_exit ≤ degrade_enter` and `shed_exit ≤ shed_enter` —
//!   each rung's *exit* threshold sits at or below its *enter*
//!   threshold, so a pressure value that just triggered a rung cannot
//!   immediately untrigger it (no chatter at the boundary);
//! * `degrade_enter ≤ shed_enter` and `degrade_exit ≤ shed_exit` — the
//!   ladder is monotone: shedding never engages at a pressure where
//!   degradation would not, and recovery passes back through the
//!   degrade rung before reaching nominal;
//! * all thresholds are finite and non-negative.
//!
//! Together these guarantee the step sequence of a pressure excursion
//! is a clean pulse — `Nominal → Degrade → Shed → Degrade → Nominal` —
//! with one upward and one downward transition per band crossed, which
//! is what makes [`OverloadController::step_changes`] a meaningful
//! stability metric.
//!
//! The ladder runs on the wall-clock [`Server`](crate::server::Server)
//! lanes only. The virtual-timeline scheduler carries no copy of it;
//! what-if sweeps over these thresholds arrive when the server's own
//! lanes run on a virtual clock.

use serde::{Deserialize, Serialize};

/// The admission ladder's current rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LadderStep {
    /// No overload action: admit and serve exactly as requested.
    Nominal,
    /// Serve admitted work one notch cheaper (tier drop + scaled
    /// entropy threshold), bounded per request.
    Degrade,
    /// Degrade admitted work by two notches *and* reject infeasible
    /// work at admission.
    Shed,
}

impl LadderStep {
    /// Degradation notches this rung applies to admitted work (before
    /// the per-request `max_degradation` bound).
    pub fn severity(self) -> u8 {
        match self {
            LadderStep::Nominal => 0,
            LadderStep::Degrade => 1,
            LadderStep::Shed => 2,
        }
    }
}

/// Factor the entropy-exit threshold is multiplied by per degradation
/// notch (≥ 1: degradation only makes exits easier).
const ENTROPY_SCALE_PER_NOTCH: f32 = 2.0;

/// The factor a degradation of `notches` scales the entropy-exit
/// threshold by: exactly 1.0 at zero notches, so an undegraded session
/// keeps its calibrated threshold bit for bit.
pub(crate) fn entropy_scale(notches: u8) -> f32 {
    ENTROPY_SCALE_PER_NOTCH.powi(i32::from(notches))
}

/// Configuration of the overload ladder. A server runs one only when
/// [`ServerConfig::overload`](crate::server::ServerConfig::overload)
/// is `Some`; without it every serving path is bit-identical to the
/// pre-overload behavior.
///
/// Thresholds are in units of [`pressure`]: estimated backlog drain
/// time relative to the lane's deadline horizon. `1.0` means the
/// backlog alone takes one full default latency target to drain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Pressure at or above which the ladder steps up to
    /// [`LadderStep::Degrade`].
    pub degrade_enter: f64,
    /// Pressure below which the ladder steps down from
    /// [`LadderStep::Degrade`] to [`LadderStep::Nominal`]. Must not
    /// exceed `degrade_enter` (hysteresis).
    pub degrade_exit: f64,
    /// Pressure at or above which the ladder steps up to
    /// [`LadderStep::Shed`]. Must be at least `degrade_enter`.
    pub shed_enter: f64,
    /// Pressure below which the ladder steps down from
    /// [`LadderStep::Shed`] to [`LadderStep::Degrade`]. Must not
    /// exceed `shed_enter` (hysteresis).
    pub shed_exit: f64,
}

impl Default for OverloadConfig {
    /// Degrade at pressure 0.5 (backlog worth half the deadline
    /// horizon), recover below 0.25; shed at 1.0 (backlog alone fills
    /// the horizon), step down below 0.5.
    fn default() -> Self {
        Self {
            degrade_enter: 0.5,
            degrade_exit: 0.25,
            shed_enter: 1.0,
            shed_exit: 0.5,
        }
    }
}

impl OverloadConfig {
    /// Checks the hysteresis invariants (module docs). The server
    /// calls this at construction when it runs a ladder.
    ///
    /// # Panics
    ///
    /// Panics when a threshold is non-finite or negative, an exit
    /// threshold exceeds its enter threshold, or the ladder is not
    /// monotone.
    pub fn validate(&self) {
        for (name, v) in [
            ("degrade_enter", self.degrade_enter),
            ("degrade_exit", self.degrade_exit),
            ("shed_enter", self.shed_enter),
            ("shed_exit", self.shed_exit),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "overload threshold {name} must be finite and non-negative, got {v}"
            );
        }
        assert!(
            self.degrade_exit <= self.degrade_enter,
            "degrade_exit ({}) must not exceed degrade_enter ({}): hysteresis",
            self.degrade_exit,
            self.degrade_enter
        );
        assert!(
            self.shed_exit <= self.shed_enter,
            "shed_exit ({}) must not exceed shed_enter ({}): hysteresis",
            self.shed_exit,
            self.shed_enter
        );
        assert!(
            self.degrade_enter <= self.shed_enter,
            "degrade_enter ({}) must not exceed shed_enter ({}): monotone ladder",
            self.degrade_enter,
            self.shed_enter
        );
        assert!(
            self.degrade_exit <= self.shed_exit,
            "degrade_exit ({}) must not exceed shed_exit ({}): monotone recovery",
            self.degrade_exit,
            self.shed_exit
        );
    }
}

/// The lane pressure signal the ladder observes: estimated time to
/// drain the current backlog at nominal speed, relative to the lane's
/// deadline horizon (its engine's default latency target).
///
/// `backlog · nominal_service_s / (shards · horizon_s)` — at `1.0`,
/// the queued work alone needs the whole default deadline budget, so a
/// fresh default-target arrival is already infeasible. Degenerate
/// horizons (zero, negative, non-finite) fall back to the nominal
/// service estimate; if that is also unusable, the raw backlog count is
/// the pressure.
pub fn pressure(backlog: usize, shards: usize, nominal_service_s: f64, horizon_s: f64) -> f64 {
    let horizon = if horizon_s.is_finite() && horizon_s > 0.0 {
        horizon_s
    } else {
        nominal_service_s
    };
    if !(horizon.is_finite() && horizon > 0.0) {
        return backlog as f64;
    }
    backlog as f64 * nominal_service_s / (shards.max(1) as f64 * horizon)
}

/// The hysteresis state machine over [`LadderStep`]s (module docs show
/// the transition diagram). One controller per lane, advanced under the
/// lane lock at admission and pop time.
#[derive(Debug, Clone)]
pub struct OverloadController {
    cfg: OverloadConfig,
    step: LadderStep,
    step_changes: u64,
}

impl OverloadController {
    /// A controller at [`LadderStep::Nominal`].
    pub fn new(cfg: OverloadConfig) -> Self {
        Self {
            cfg,
            step: LadderStep::Nominal,
            step_changes: 0,
        }
    }

    /// The current rung.
    pub fn step(&self) -> LadderStep {
        self.step
    }

    /// Rung transitions since construction (both directions). A clean
    /// burst costs exactly two per band crossed — more indicates
    /// thresholds too close together for the traffic.
    pub fn step_changes(&self) -> u64 {
        self.step_changes
    }

    /// Feeds one pressure observation through the state machine and
    /// returns the (possibly new) rung. A NaN observation keeps the
    /// current rung (every comparison is false).
    pub fn observe(&mut self, pressure: f64) -> LadderStep {
        let next = match self.step {
            LadderStep::Nominal => {
                if pressure >= self.cfg.shed_enter {
                    LadderStep::Shed
                } else if pressure >= self.cfg.degrade_enter {
                    LadderStep::Degrade
                } else {
                    LadderStep::Nominal
                }
            }
            LadderStep::Degrade => {
                if pressure >= self.cfg.shed_enter {
                    LadderStep::Shed
                } else if pressure < self.cfg.degrade_exit {
                    LadderStep::Nominal
                } else {
                    LadderStep::Degrade
                }
            }
            LadderStep::Shed => {
                if pressure < self.cfg.degrade_exit {
                    LadderStep::Nominal
                } else if pressure < self.cfg.shed_exit {
                    LadderStep::Degrade
                } else {
                    LadderStep::Shed
                }
            }
        };
        if next != self.step {
            self.step_changes += 1;
            self.step = next;
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled_and_valid() {
        // The default thresholds satisfy the hysteresis invariants, and
        // a default server runs no ladder at all.
        OverloadConfig::default().validate();
        assert_eq!(crate::server::ServerConfig::default().overload, None);
    }

    #[test]
    fn ladder_walks_a_clean_pulse_with_hysteresis() {
        let mut ctl = OverloadController::new(OverloadConfig::default());
        // Rising pressure: Nominal → Degrade → Shed.
        assert_eq!(ctl.observe(0.4), LadderStep::Nominal);
        assert_eq!(ctl.observe(0.5), LadderStep::Degrade);
        assert_eq!(ctl.observe(0.9), LadderStep::Degrade);
        assert_eq!(ctl.observe(1.0), LadderStep::Shed);
        // Inside the hysteresis band (shed_exit ≤ p < shed_enter): hold.
        assert_eq!(ctl.observe(0.7), LadderStep::Shed);
        // Below shed_exit: step down one rung, not two.
        assert_eq!(ctl.observe(0.45), LadderStep::Degrade);
        // Inside the degrade band: hold.
        assert_eq!(ctl.observe(0.3), LadderStep::Degrade);
        // Below degrade_exit: recovered.
        assert_eq!(ctl.observe(0.2), LadderStep::Nominal);
        // One up and one down transition per band crossed.
        assert_eq!(ctl.step_changes(), 4);
    }

    #[test]
    fn pressure_collapse_steps_straight_down_and_spikes_straight_up() {
        let mut ctl = OverloadController::new(OverloadConfig::default());
        assert_eq!(ctl.observe(5.0), LadderStep::Shed);
        assert_eq!(ctl.observe(0.0), LadderStep::Nominal);
        assert_eq!(ctl.step_changes(), 2);
        // NaN keeps the current rung.
        ctl.observe(2.0);
        assert_eq!(ctl.observe(f64::NAN), LadderStep::Shed);
    }

    #[test]
    fn entropy_scale_doubles_per_notch_from_exactly_one() {
        assert_eq!(entropy_scale(0).to_bits(), 1.0f32.to_bits());
        assert_eq!(entropy_scale(1), 2.0);
        assert_eq!(entropy_scale(2), 4.0);
    }

    #[test]
    fn pressure_is_backlog_drain_time_over_the_horizon() {
        assert_eq!(pressure(0, 1, 10e-3, 50e-3), 0.0);
        assert_eq!(pressure(5, 1, 10e-3, 50e-3), 1.0);
        // More shards drain faster.
        assert_eq!(pressure(5, 2, 10e-3, 50e-3), 0.5);
        // Degenerate horizon falls back to the service estimate.
        assert_eq!(pressure(3, 1, 10e-3, 0.0), 3.0);
        assert_eq!(pressure(3, 1, 10e-3, f64::NAN), 3.0);
        // Nothing usable: the raw backlog count.
        assert_eq!(pressure(3, 1, 0.0, 0.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn validate_rejects_exit_above_enter() {
        OverloadConfig {
            degrade_exit: 0.6,
            ..OverloadConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "monotone ladder")]
    fn validate_rejects_shed_below_degrade() {
        OverloadConfig {
            degrade_enter: 1.5,
            degrade_exit: 0.2,
            shed_enter: 1.0,
            ..OverloadConfig::default()
        }
        .validate();
    }
}
