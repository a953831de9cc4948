//! Fleet-level energy budgeting: per-lane power envelopes under a cap.
//!
//! Every DVFS decision in the serving stack is per-sentence and locally
//! greedy — nothing stops every lane from simultaneously racing its
//! deadline at high voltage and blowing a fleet power budget. This
//! module is the control plane between the server's lanes and each
//! engine's DVFS policy:
//!
//! * [`EnergyConfig`] — the fleet power cap, the guaranteed per-lane
//!   floor, and the coordinator's EWMA/update cadence;
//! * [`allocate`] — the pure allocation rule: every lane gets the
//!   floor, and the headroom above `n · floor_w` is waterfilled toward
//!   pressured lanes in proportion to their queue pressure (the same
//!   [`pressure`](crate::overload::pressure) signal the overload ladder
//!   observes, which already blends backlog depth against the lane's
//!   deadline horizon). Inputs are taken in *canonical* (task-name)
//!   order, so the allocation is invariant under lane declaration
//!   order;
//! * [`PowerEwma`] — exponentially-weighted measured lane power from
//!   the per-step [`SegmentCost`](crate::backend::SegmentCost) energy
//!   accounting, with a time-constant-correct `1 − exp(−Δt/τ)` gain so
//!   irregular sampling periods do not bias the estimate;
//! * [`FleetCoordinator`] — the deterministic tick: feed it each
//!   lane's cumulative served energy and current pressure plus the
//!   elapsed interval, get back per-lane [`LaneAllocation`]s (envelope
//!   watts to enforce, measured watts to report).
//!
//! The coordinator itself is timer-free — the server drives it from a
//! wall-clock thread — so the same tick can be driven from a virtual
//! clock once the server's lanes run on one (the virtual-timeline
//! scheduler carries no copy of it). How an envelope
//! *binds* lives elsewhere: the session clamps its operating point via
//! the `cap_w` of [`InferenceBackend::decide`](crate::backend::InferenceBackend::decide)
//! (feasibility judged honestly — an envelope that forbids the
//! deadline-meeting point surfaces as deadline risk, never a silent
//! re-price), the autoscaler declines attaches the envelope cannot
//! power, and the shed rung prices the envelope's slowdown into its
//! feasibility estimate. Everything ships default-off
//! (`ServerConfig::energy: Option<EnergyConfig>`); the disabled path is
//! bit-identical to the pre-energy stack.

use edgebert_tasks::Task;
use serde::{Deserialize, Serialize};

/// Fleet energy budgeting knobs. Disabled unless installed in
/// [`ServerConfig::energy`](crate::server::ServerConfig).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyConfig {
    /// Total sustained compute power the fleet may draw, watts. Lane
    /// envelopes always sum to at most this.
    pub fleet_cap_w: f64,
    /// Guaranteed per-lane envelope, watts — no lane starves below it
    /// regardless of where the pressure is. The server asserts
    /// `floor_w · lanes ≤ fleet_cap_w` at construction.
    pub floor_w: f64,
}

/// Time constant of the measured-power EWMA, seconds.
const EWMA_TAU_S: f64 = 0.25;

/// How often the wall-clock coordinator re-allocates envelopes.
pub(crate) const UPDATE_PERIOD: std::time::Duration = std::time::Duration::from_millis(25);

impl Default for EnergyConfig {
    /// A cap around twice one accelerator shard's nominal draw with a
    /// floor near its DVFS floor draw — a starting point for the
    /// four-lane GLUE deployment, not a tuned budget.
    fn default() -> Self {
        Self {
            fleet_cap_w: 0.2,
            floor_w: 0.01,
        }
    }
}

impl EnergyConfig {
    /// Checks the budget invariants. The serving layers call this at
    /// construction when energy budgeting is enabled.
    ///
    /// # Panics
    ///
    /// Panics when the cap is non-finite or non-positive, the floor is
    /// negative or non-finite, or the floor alone exceeds the cap.
    pub fn validate(&self) {
        assert!(
            self.fleet_cap_w.is_finite() && self.fleet_cap_w > 0.0,
            "fleet_cap_w must be finite and positive, got {}",
            self.fleet_cap_w
        );
        assert!(
            self.floor_w.is_finite() && self.floor_w >= 0.0,
            "floor_w must be finite and non-negative, got {}",
            self.floor_w
        );
        assert!(
            self.floor_w <= self.fleet_cap_w,
            "floor_w ({}) must not exceed fleet_cap_w ({})",
            self.floor_w,
            self.fleet_cap_w
        );
    }
}

/// One lane's claim on the headroom above the floors: its task identity
/// and current queue pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneDemand {
    /// The lane's task (the allocation key).
    pub task: Task,
    /// The lane's pressure signal
    /// ([`pressure`](crate::overload::pressure)); non-finite or
    /// negative values are treated as zero demand.
    pub pressure: f64,
}

/// One lane's power envelope, watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyEnvelope {
    /// The lane this envelope binds.
    pub task: Task,
    /// Sustained compute power the lane may draw, watts.
    pub watts: f64,
}

/// Waterfills `fleet_cap_w` across lanes: every lane gets `floor_w`,
/// and the remaining headroom is split in proportion to each lane's
/// (sanitized) pressure. With no pressure anywhere the headroom splits
/// evenly — an idle fleet keeps symmetric envelopes rather than
/// remembering its last skew.
///
/// The result is sorted by canonical task name and is invariant under
/// the order lanes appear in `demands`. Degenerate inputs sanitize
/// instead of panicking: non-finite/negative pressures count as zero,
/// and a floor too large for the cap (the serving layers assert this
/// away at construction) falls back to an even split of the cap so the
/// sum invariant still holds.
pub fn allocate(fleet_cap_w: f64, floor_w: f64, demands: &[LaneDemand]) -> Vec<EnergyEnvelope> {
    let n = demands.len();
    if n == 0 {
        return Vec::new();
    }
    let mut lanes: Vec<LaneDemand> = demands.to_vec();
    lanes.sort_by_key(|d| d.task.name());
    debug_assert!(
        lanes.windows(2).all(|w| w[0].task != w[1].task),
        "duplicate lane task in energy demands"
    );
    let floor = if floor_w.is_finite() && floor_w > 0.0 {
        floor_w
    } else {
        0.0
    };
    let headroom = fleet_cap_w - floor * n as f64;
    if headroom.is_nan() || headroom < 0.0 {
        // Floors alone overflow the cap: even split keeps Σ = cap.
        let even = fleet_cap_w / n as f64;
        return lanes
            .iter()
            .map(|d| EnergyEnvelope {
                task: d.task,
                watts: even,
            })
            .collect();
    }
    let sane = |p: f64| if p.is_finite() && p > 0.0 { p } else { 0.0 };
    let total: f64 = lanes.iter().map(|d| sane(d.pressure)).sum();
    lanes
        .iter()
        .map(|d| {
            let share = if total > 0.0 {
                sane(d.pressure) / total
            } else {
                1.0 / n as f64
            };
            EnergyEnvelope {
                task: d.task,
                watts: floor + headroom * share,
            }
        })
        .collect()
}

/// Exponentially-weighted average power from irregular energy samples.
///
/// Each observation is an energy delta over an elapsed interval; the
/// gain `1 − exp(−Δt/τ)` makes the estimate independent of how the
/// interval happens to be sliced, so a coordinator tick that ran late
/// does not over-weight its sample.
#[derive(Debug, Clone, Copy)]
pub struct PowerEwma {
    tau_s: f64,
    watts: f64,
    primed: bool,
}

impl PowerEwma {
    /// A zeroed average with time constant `tau_s` (sanitized to a
    /// minimum of 1 ms so a degenerate τ cannot divide by zero).
    pub fn new(tau_s: f64) -> Self {
        let tau_s = if tau_s.is_finite() && tau_s > 1e-3 {
            tau_s
        } else {
            1e-3
        };
        Self {
            tau_s,
            watts: 0.0,
            primed: false,
        }
    }

    /// Folds in `energy_j` joules served over the last `dt_s` seconds
    /// and returns the updated average. Non-positive or non-finite
    /// intervals and negative/non-finite energy deltas are ignored
    /// (the average holds).
    pub fn observe(&mut self, energy_j: f64, dt_s: f64) -> f64 {
        if !(dt_s.is_finite() && dt_s > 0.0 && energy_j.is_finite() && energy_j >= 0.0) {
            return self.watts;
        }
        let instant = energy_j / dt_s;
        if !self.primed {
            self.watts = instant;
            self.primed = true;
        } else {
            let alpha = 1.0 - (-dt_s / self.tau_s).exp();
            self.watts += alpha * (instant - self.watts);
        }
        self.watts
    }

    /// The current average, watts (zero until the first observation).
    pub fn watts(&self) -> f64 {
        self.watts
    }
}

/// What the coordinator reads from one lane at each tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneObservation {
    /// The lane's task.
    pub task: Task,
    /// The lane's cumulative served energy, joules (monotone; the
    /// coordinator differences consecutive ticks).
    pub energy_j_total: f64,
    /// The lane's current queue pressure.
    pub pressure: f64,
}

/// What the coordinator writes back to one lane after a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneAllocation {
    /// The lane this allocation is for.
    pub task: Task,
    /// The lane's new power envelope, watts.
    pub envelope_w: f64,
    /// The lane's EWMA measured power, watts.
    pub measured_w: f64,
}

/// The deterministic core of the fleet power coordinator: tracks each
/// lane's measured power (EWMA of served-energy deltas) and
/// re-allocates envelopes from the current pressure mix. Timer-free —
/// the caller supplies elapsed time, so the same logic runs under the
/// server's wall-clock thread and in tests on a synthetic timeline.
#[derive(Debug, Clone)]
pub struct FleetCoordinator {
    cfg: EnergyConfig,
    lanes: Vec<LaneTrack>,
}

#[derive(Debug, Clone)]
struct LaneTrack {
    task: Task,
    last_energy_j: f64,
    ewma: PowerEwma,
}

impl FleetCoordinator {
    /// A coordinator over `tasks` (stored in canonical order; the
    /// declaration order does not matter). `cfg` must already be
    /// validated.
    pub fn new(cfg: EnergyConfig, tasks: &[Task]) -> Self {
        let mut lanes: Vec<LaneTrack> = tasks
            .iter()
            .map(|&task| LaneTrack {
                task,
                last_energy_j: 0.0,
                ewma: PowerEwma::new(EWMA_TAU_S),
            })
            .collect();
        lanes.sort_by_key(|l| l.task.name());
        Self { cfg, lanes }
    }

    /// The budget this coordinator allocates under.
    pub fn config(&self) -> &EnergyConfig {
        &self.cfg
    }

    /// One coordinator tick: fold `dt_s` seconds of served energy into
    /// each lane's measured-power EWMA, then re-allocate envelopes from
    /// the observed pressures. Lanes missing from `observed` keep their
    /// last energy reading (zero pressure); unknown tasks in `observed`
    /// are ignored. Cumulative-energy regressions (a restarted lane)
    /// clamp to a zero delta rather than going negative.
    pub fn tick(&mut self, dt_s: f64, observed: &[LaneObservation]) -> Vec<LaneAllocation> {
        let mut demands = Vec::with_capacity(self.lanes.len());
        for lane in &mut self.lanes {
            let obs = observed.iter().find(|o| o.task == lane.task);
            let pressure = obs.map_or(0.0, |o| o.pressure);
            if let Some(o) = obs {
                if o.energy_j_total.is_finite() {
                    let delta = (o.energy_j_total - lane.last_energy_j).max(0.0);
                    lane.ewma.observe(delta, dt_s);
                    lane.last_energy_j = o.energy_j_total;
                }
            }
            demands.push(LaneDemand {
                task: lane.task,
                pressure,
            });
        }
        let envelopes = allocate(self.cfg.fleet_cap_w, self.cfg.floor_w, &demands);
        envelopes
            .iter()
            .map(|e| LaneAllocation {
                task: e.task,
                envelope_w: e.watts,
                measured_w: self
                    .lanes
                    .iter()
                    .find(|l| l.task == e.task)
                    .map_or(0.0, |l| l.ewma.watts()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demand(task: Task, pressure: f64) -> LaneDemand {
        LaneDemand { task, pressure }
    }

    #[test]
    fn default_config_validates() {
        EnergyConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "floor_w")]
    fn floor_above_cap_is_rejected() {
        EnergyConfig {
            fleet_cap_w: 0.1,
            floor_w: 0.2,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "fleet_cap_w")]
    fn nan_cap_is_rejected() {
        EnergyConfig {
            fleet_cap_w: f64::NAN,
            ..EnergyConfig::default()
        }
        .validate();
    }

    #[test]
    fn allocation_waterfills_toward_pressure() {
        let out = allocate(
            1.0,
            0.1,
            &[
                demand(Task::Sst2, 3.0),
                demand(Task::Mnli, 1.0),
                demand(Task::Qqp, 0.0),
            ],
        );
        // Canonical order: mnli, qqp, sst-2.
        assert_eq!(
            out.iter().map(|e| e.task).collect::<Vec<_>>(),
            [Task::Mnli, Task::Qqp, Task::Sst2]
        );
        // Headroom 0.7 splits 1:0:3 over the 0.1 floors.
        let w: Vec<f64> = out.iter().map(|e| e.watts).collect();
        assert!((w[0] - (0.1 + 0.7 * 0.25)).abs() < 1e-12);
        assert!((w[1] - 0.1).abs() < 1e-12, "idle lane holds the floor");
        assert!((w[2] - (0.1 + 0.7 * 0.75)).abs() < 1e-12);
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "envelopes spend the whole cap");
    }

    #[test]
    fn idle_fleet_splits_evenly_and_garbage_pressure_is_zero() {
        let even = allocate(
            0.4,
            0.05,
            &[demand(Task::Mnli, 0.0), demand(Task::Qnli, 0.0)],
        );
        assert!(even.iter().all(|e| (e.watts - 0.2).abs() < 1e-12));
        // NaN / negative pressures read as idle, not as poison.
        let sane = allocate(
            0.4,
            0.05,
            &[demand(Task::Mnli, f64::NAN), demand(Task::Qnli, 2.0)],
        );
        assert!((sane[0].watts - 0.05).abs() < 1e-12);
        assert!((sane[1].watts - 0.35).abs() < 1e-12);
        // Oversized floor: even split of the cap, never negative headroom.
        let squeezed = allocate(
            0.1,
            0.2,
            &[demand(Task::Mnli, 1.0), demand(Task::Qnli, 0.0)],
        );
        assert!(squeezed.iter().all(|e| (e.watts - 0.05).abs() < 1e-12));
        assert!(allocate(1.0, 0.1, &[]).is_empty());
    }

    #[test]
    fn ewma_tracks_power_and_shrugs_off_garbage() {
        let mut e = PowerEwma::new(0.1);
        assert_eq!(e.watts(), 0.0);
        // First sample primes directly: 0.05 J / 0.5 s = 0.1 W.
        assert!((e.observe(0.05, 0.5) - 0.1).abs() < 1e-12);
        // A long steady stretch converges to the new rate.
        for _ in 0..50 {
            e.observe(0.2 * 0.05, 0.05);
        }
        assert!((e.watts() - 0.2).abs() < 1e-3, "got {}", e.watts());
        // Garbage observations hold the average.
        let before = e.watts();
        e.observe(f64::NAN, 0.05);
        e.observe(0.01, 0.0);
        e.observe(-1.0, 0.05);
        e.observe(0.01, f64::NEG_INFINITY);
        assert_eq!(e.watts(), before);
        // Degenerate τ sanitizes instead of dividing by zero.
        let mut tiny = PowerEwma::new(f64::NAN);
        assert!(tiny.observe(0.01, 0.01).is_finite());
    }

    #[test]
    fn coordinator_differences_cumulative_energy() {
        let cfg = EnergyConfig {
            fleet_cap_w: 0.2,
            floor_w: 0.02,
        };
        let mut c = FleetCoordinator::new(cfg, &[Task::Sst2, Task::Mnli]);
        let obs = |e_sst: f64, p_sst: f64| {
            vec![
                LaneObservation {
                    task: Task::Sst2,
                    energy_j_total: e_sst,
                    pressure: p_sst,
                },
                LaneObservation {
                    task: Task::Mnli,
                    energy_j_total: 0.0,
                    pressure: 0.0,
                },
            ]
        };
        // 5 mJ per 50 ms tick = 0.1 W sustained on the sst-2 lane.
        let mut total = 0.0;
        let mut last = Vec::new();
        for _ in 0..40 {
            total += 5e-3;
            last = c.tick(0.05, &obs(total, 4.0));
        }
        let sst = last.iter().find(|a| a.task == Task::Sst2).unwrap();
        let mnli = last.iter().find(|a| a.task == Task::Mnli).unwrap();
        assert!(
            (sst.measured_w - 0.1).abs() < 5e-3,
            "got {}",
            sst.measured_w
        );
        assert_eq!(mnli.measured_w, 0.0);
        // All the headroom flows to the one pressured lane.
        assert!((sst.envelope_w - 0.18).abs() < 1e-12);
        assert!((mnli.envelope_w - 0.02).abs() < 1e-12);
        // An energy regression (restarted lane) clamps to zero delta.
        let fleet_w = |allocs: &[LaneAllocation]| allocs.iter().map(|a| a.measured_w).sum::<f64>();
        let before = fleet_w(&last);
        assert!(fleet_w(&c.tick(0.05, &obs(0.0, 0.0))) <= before);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn allocation_invariants(
            cap in 1e-3f64..10.0,
            floor_frac in 0.0f64..0.24,
            p in proptest::collection::vec(-1.0f64..100.0, 1..5),
        ) {
            let tasks = Task::all();
            let floor = cap * floor_frac;
            let demands: Vec<LaneDemand> = p
                .iter()
                .enumerate()
                .map(|(i, &pr)| demand(tasks[i], pr))
                .collect();
            let out = allocate(cap, floor, &demands);
            prop_assert_eq!(out.len(), demands.len());
            let sum: f64 = out.iter().map(|e| e.watts).sum();
            prop_assert!(sum <= cap * (1.0 + 1e-9), "sum {} cap {}", sum, cap);
            for e in &out {
                prop_assert!(e.watts >= 0.0);
                prop_assert!(
                    e.watts >= floor * (1.0 - 1e-9),
                    "lane {} got {} under floor {}",
                    e.task.name(),
                    e.watts,
                    floor
                );
            }
            // Declaration order must not matter: reversed demands give
            // the identical allocation.
            let mut rev = demands.clone();
            rev.reverse();
            let out_rev = allocate(cap, floor, &rev);
            prop_assert_eq!(out, out_rev);
        }
    }
}
