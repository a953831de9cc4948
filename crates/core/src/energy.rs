//! Fleet-level energy budgeting: per-lane power envelopes under a cap.
//!
//! Every DVFS decision in the serving stack is per-sentence and locally
//! greedy — nothing stops every lane from simultaneously racing its
//! deadline at high voltage and blowing a fleet power budget. This
//! module is the control plane between the server's lanes and each
//! engine's DVFS policy:
//!
//! * [`EnergyConfig`] — the fleet power cap and per-lane floor;
//! * `FleetBudget` — the allocation rule, applied where an envelope is
//!   read: every lane gets the floor, and the headroom above
//!   `n · floor_w` is waterfilled toward pressured lanes in proportion
//!   to the queue pressure each lane last published at admission, pop
//!   and detach (the same [`pressure`](crate::overload::pressure)
//!   signal the overload ladder observes, which already blends backlog
//!   depth against the lane's deadline horizon). Lanes hold slots in
//!   *canonical* (task-name) order, so the allocation is invariant
//!   under lane declaration order. No thread, no timer.
//!
//! How an envelope *binds* lives elsewhere: the session clamps its
//! operating point via the `cap_w` of
//! [`InferenceBackend::decide`](crate::backend::InferenceBackend::decide)
//! (feasibility judged honestly — an envelope that forbids the
//! deadline-meeting point surfaces as deadline risk, never a silent
//! re-price), the autoscaler declines attaches the envelope cannot
//! power, and the shed rung prices the envelope's slowdown into its
//! feasibility estimate. The virtual-timeline scheduler carries no
//! envelope mode. Everything ships default-off
//! (`ServerConfig::energy: Option<EnergyConfig>`); the disabled path is
//! bit-identical to the pre-energy stack.

use edgebert_tasks::Task;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Lane `slot`'s envelope from every lane's pressure in canonical
/// order: the floor plus the lane's pressure share of the headroom
/// above the floors. With no pressure anywhere the headroom splits
/// evenly, so an idle fleet keeps symmetric envelopes rather than
/// remembering its last skew. Degenerate inputs sanitize instead of
/// panicking: non-finite or negative pressures count as zero, and a
/// floor too large for the cap (the serving layers assert this away at
/// construction) falls back to an even split of the cap, so the
/// envelopes still sum to it.
// analyzer: hot-path
fn split(
    fleet_cap_w: f64,
    floor_w: f64,
    pressures: impl ExactSizeIterator<Item = f64>,
    slot: usize,
) -> f64 {
    let n = pressures.len() as f64;
    let floor = if floor_w.is_finite() && floor_w > 0.0 {
        floor_w
    } else {
        0.0
    };
    let headroom = fleet_cap_w - floor * n;
    if headroom.is_nan() || headroom < 0.0 {
        // Floors alone overflow the cap: even split keeps Σ = cap.
        return fleet_cap_w / n;
    }
    let sane = |p: f64| if p.is_finite() && p > 0.0 { p } else { 0.0 };
    let (mut total, mut own) = (0.0, 0.0);
    for (i, p) in pressures.enumerate() {
        let p = sane(p);
        total += p;
        if i == slot {
            own = p;
        }
    }
    let share = if total > 0.0 { own / total } else { 1.0 / n };
    floor + headroom * share
}

/// The server's fleet budget: one slot per lane, in canonical order,
/// holding the pressure that lane last published (at admission, pop
/// and detach). Envelopes are derived from the slots when read; before
/// any lane publishes, the cap splits evenly.
#[derive(Debug)]
pub(crate) struct FleetBudget {
    cfg: EnergyConfig,
    /// Each lane's last published pressure, as `f64` bits.
    pressures: Box<[AtomicU64]>,
}

impl FleetBudget {
    /// An idle board of `lanes` slots under `cfg` (already validated).
    pub(crate) fn new(cfg: EnergyConfig, lanes: usize) -> Self {
        Self {
            cfg,
            pressures: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The canonical slot of `task` among the served `tasks`: its rank
    /// by task name, whatever order the lanes were declared in.
    pub(crate) fn slot_of(tasks: &[Task], task: Task) -> usize {
        tasks.iter().filter(|t| t.name() < task.name()).count()
    }

    /// Records lane `slot`'s current pressure (`Relaxed`: a pressure
    /// publishes no other data).
    pub(crate) fn publish(&self, slot: usize, pressure: f64) {
        self.pressures[slot].store(pressure.to_bits(), Ordering::Relaxed);
    }

    /// Lane `slot`'s envelope from the pressures published now, watts.
    // analyzer: hot-path
    pub(crate) fn envelope_w(&self, slot: usize) -> f64 {
        let pressures = self.pressures.iter().map(Self::load);
        split(self.cfg.fleet_cap_w, self.cfg.floor_w, pressures, slot)
    }

    /// Every lane's envelope by slot, from one read of the pressures.
    pub(crate) fn envelopes_w(&self) -> Vec<f64> {
        let pressures: Vec<f64> = self.pressures.iter().map(Self::load).collect();
        (0..pressures.len())
            .map(|slot| {
                let read = pressures.iter().copied();
                split(self.cfg.fleet_cap_w, self.cfg.floor_w, read, slot)
            })
            .collect()
    }

    fn load(slot: &AtomicU64) -> f64 {
        f64::from_bits(slot.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebert_tensor::Rng;
    use proptest::prelude::*;

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

    /// A budget board with each lane's pressure published in its task's
    /// canonical slot, and the lanes' tasks in declaration order.
    fn board(cfg: EnergyConfig, lanes: &[(Task, f64)]) -> (FleetBudget, Vec<Task>) {
        let tasks: Vec<Task> = lanes.iter().map(|&(task, _)| task).collect();
        let budget = FleetBudget::new(cfg, tasks.len());
        for &(task, pressure) in lanes {
            budget.publish(FleetBudget::slot_of(&tasks, task), pressure);
        }
        (budget, tasks)
    }

    /// Every lane's envelope from one read of a board under
    /// `fleet_cap_w` and `floor_w`, in canonical task order. Each lane's
    /// own read must return the same bits as the one read.
    fn envelopes(fleet_cap_w: f64, floor_w: f64, lanes: &[(Task, f64)]) -> Vec<(Task, f64)> {
        let cfg = EnergyConfig {
            fleet_cap_w,
            floor_w,
        };
        let (budget, tasks) = board(cfg, lanes);
        let one_read = budget.envelopes_w();
        let mut out: Vec<(Task, f64)> = tasks
            .iter()
            .map(|&task| {
                let slot = FleetBudget::slot_of(&tasks, task);
                assert_eq!(budget.envelope_w(slot).to_bits(), one_read[slot].to_bits());
                (task, one_read[slot])
            })
            .collect();
        out.sort_by_key(|&(task, _)| task.name());
        out
    }

    #[test]
    fn allocation_waterfills_toward_pressure() {
        let out = envelopes(
            1.0,
            0.1,
            &[(Task::Sst2, 3.0), (Task::Mnli, 1.0), (Task::Qqp, 0.0)],
        );
        // Canonical order: mnli, qqp, sst-2.
        assert_eq!(
            out.iter().map(|&(task, _)| task).collect::<Vec<_>>(),
            [Task::Mnli, Task::Qqp, Task::Sst2]
        );
        // Headroom 0.7 splits 1:0:3 over the 0.1 floors.
        let w: Vec<f64> = out.iter().map(|&(_, watts)| watts).collect();
        assert!((w[0] - (0.1 + 0.7 * 0.25)).abs() < 1e-12);
        assert!((w[1] - 0.1).abs() < 1e-12, "idle lane holds the floor");
        assert!((w[2] - (0.1 + 0.7 * 0.75)).abs() < 1e-12);
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "envelopes spend the whole cap");
    }

    #[test]
    fn idle_fleet_splits_evenly_and_garbage_pressure_is_zero() {
        let even = envelopes(0.4, 0.05, &[(Task::Mnli, 0.0), (Task::Qnli, 0.0)]);
        assert!(even.iter().all(|&(_, w)| (w - 0.2).abs() < 1e-12));
        // NaN / negative pressures read as idle, not as poison.
        let sane = envelopes(0.4, 0.05, &[(Task::Mnli, f64::NAN), (Task::Qnli, 2.0)]);
        assert!((sane[0].1 - 0.05).abs() < 1e-12);
        assert!((sane[1].1 - 0.35).abs() < 1e-12);
        // Oversized floor: even split of the cap, never negative headroom.
        let squeezed = envelopes(0.1, 0.2, &[(Task::Mnli, 1.0), (Task::Qnli, 0.0)]);
        assert!(squeezed.iter().all(|&(_, w)| (w - 0.05).abs() < 1e-12));
        assert!(envelopes(1.0, 0.1, &[]).is_empty());
    }

    /// A pressure from a pool that includes every garbage class the
    /// split must sanitize: zero, NaN, ±∞ and negative values.
    fn pressure_or_garbage(rng: &mut Rng) -> f64 {
        let magnitude = 10.0 * f64::from(rng.uniform());
        match rng.below(8) {
            0 => 0.0,
            1 => f64::NAN,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => -magnitude,
            _ => magnitude,
        }
    }

    /// A random fleet: 1–4 distinct tasks in a random declaration
    /// order, a cap, a floor (sometimes too large for the cap to fund),
    /// and one pressure per lane.
    fn fleet(seed: u64) -> (EnergyConfig, Vec<(Task, f64)>) {
        let mut rng = Rng::seed_from(seed);
        let mut tasks = Task::all();
        rng.shuffle(&mut tasks);
        let n = 1 + rng.below(tasks.len());
        let fleet_cap_w = 0.01 + f64::from(rng.uniform());
        let floor_w = fleet_cap_w * f64::from(rng.uniform()) / 3.0;
        let lanes = tasks[..n]
            .iter()
            .map(|&task| (task, pressure_or_garbage(&mut rng)))
            .collect();
        let cfg = EnergyConfig {
            fleet_cap_w,
            floor_w,
        };
        (cfg, lanes)
    }

    #[test]
    fn declaration_order_leaves_every_envelope_unchanged() {
        for seed in 0..256 {
            let (cfg, lanes) = fleet(seed);
            let (budget, tasks) = board(cfg, &lanes);
            let mut shuffled = lanes.clone();
            Rng::seed_from(!seed).shuffle(&mut shuffled);
            let (budget_shuffled, tasks_shuffled) = board(cfg, &shuffled);
            for &(task, _) in &lanes {
                let here = budget.envelope_w(FleetBudget::slot_of(&tasks, task));
                let slot = FleetBudget::slot_of(&tasks_shuffled, task);
                let there = budget_shuffled.envelope_w(slot);
                assert_eq!(here.to_bits(), there.to_bits(), "seed {seed} {task}");
            }
        }
    }

    #[test]
    fn one_read_spends_the_cap_and_honours_the_floor() {
        for seed in 0..512 {
            let (cfg, lanes) = fleet(seed);
            let (budget, _) = board(cfg, &lanes);
            let envelopes = budget.envelopes_w();
            for (slot, &watts) in envelopes.iter().enumerate() {
                let own = budget.envelope_w(slot);
                assert_eq!(own.to_bits(), watts.to_bits(), "seed {seed}");
            }
            let sum: f64 = envelopes.iter().sum();
            let cap = cfg.fleet_cap_w;
            assert!(
                (sum - cap).abs() <= 1e-12 * cap,
                "seed {seed}: {sum} vs {cap}"
            );
            if cfg.floor_w * envelopes.len() as f64 <= cap {
                assert!(envelopes.iter().all(|&w| w >= cfg.floor_w), "seed {seed}");
            }
        }
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
            let lanes: Vec<(Task, f64)> = p
                .iter()
                .enumerate()
                .map(|(i, &pressure)| (tasks[i], pressure))
                .collect();
            let out = envelopes(cap, floor, &lanes);
            prop_assert_eq!(out.len(), lanes.len());
            let sum: f64 = out.iter().map(|&(_, w)| w).sum();
            prop_assert!(sum <= cap * (1.0 + 1e-9), "sum {} cap {}", sum, cap);
            for &(task, w) in &out {
                prop_assert!(w >= 0.0);
                prop_assert!(
                    w >= floor * (1.0 - 1e-9),
                    "lane {} got {} under floor {}",
                    task.name(),
                    w,
                    floor
                );
            }
            // Declaration order must not matter: reversed lanes give
            // the identical allocation.
            let mut rev = lanes.clone();
            rev.reverse();
            let out_rev = envelopes(cap, floor, &rev);
            prop_assert_eq!(out, out_rev);
        }
    }
}
