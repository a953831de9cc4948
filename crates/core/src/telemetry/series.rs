//! Lane time-series sampling: periodic snapshots of each lane's
//! control state so overload and elasticity dynamics become plottable
//! curves instead of terminal counters.
//!
//! The sampler itself is a thread the server owns (spawned only when
//! telemetry is enabled); this module defines the sample shape. Samples
//! land in the hub's second bounded ring, with the trace ring's
//! drop-counting semantics: a full ring overwrites oldest, contention
//! drops.

use edgebert_tasks::Task;
use serde::{Deserialize, Serialize};

use crate::overload::LadderStep;

/// One periodic observation of a lane's control state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneSample {
    /// Seconds on the server's clock.
    pub t_s: f64,
    /// Lane task.
    pub task: Task,
    /// Overload pressure signal (backlog service demand / horizon).
    pub pressure: f64,
    /// Admission-ladder rung at sample time.
    pub rung: LadderStep,
    /// Fresh jobs queued.
    pub queued: usize,
    /// Parked (preempted) sessions.
    pub parked: usize,
    /// Autoscaled shards attached beyond the nominal pool.
    pub extra_shards: usize,
    /// Lane-total energy envelope allocated by the fleet coordinator,
    /// watts (`None` without energy budgeting).
    pub envelope_w: Option<f64>,
    /// Lane power draw measured by the coordinator's EWMA, watts
    /// (`None` without energy budgeting).
    pub power_w: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::span::Ring;

    #[test]
    fn sample_round_trips_through_serde() {
        let s = LaneSample {
            t_s: 1.5,
            task: Task::Qqp,
            pressure: 0.75,
            rung: LadderStep::Nominal,
            queued: 4,
            parked: 1,
            extra_shards: 2,
            envelope_w: Some(0.125),
            power_w: Some(0.08),
        };
        let json = serde::json::to_string(&s);
        let back: LaneSample = serde::json::from_str(&json).expect("round trip");
        assert_eq!(s, back);
    }

    #[test]
    fn series_ring_bounds_and_counts() {
        let ring = Ring::new(2);
        for i in 0..4 {
            ring.push(LaneSample {
                t_s: i as f64,
                task: Task::Sst2,
                pressure: 0.0,
                rung: LadderStep::Nominal,
                queued: i,
                parked: 0,
                extra_shards: 0,
                envelope_w: None,
                power_w: None,
            });
        }
        let (samples, dropped) = ring.snapshot();
        assert_eq!(
            samples.iter().map(|s| s.queued).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(dropped, 2);
    }
}
