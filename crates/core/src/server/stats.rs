//! Serving statistics: per-lane and whole-server snapshots.

use edgebert_tasks::Task;
use serde::{Deserialize, Serialize};

/// A snapshot of one task lane's counters. The lane's distributions
/// (queue delay, sojourn, step time, energy per request) are not
/// counters: with telemetry on they leave through
/// [`Server::telemetry_snapshot`](super::Server::telemetry_snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneStats {
    /// The task the lane serves.
    pub task: Task,
    /// Engine shards (worker threads) draining the lane.
    pub shards: usize,
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests refused at admission because the queue was full.
    pub rejected: u64,
    /// Requests shed at admission by the overload ladder (0 with the
    /// ladder disabled).
    pub shed: u64,
    /// Requests served with an overload-ladder degradation applied
    /// (tier drop and/or scaled entropy-exit threshold).
    pub degraded: u64,
    /// Overload-ladder rung transitions since start, both directions —
    /// a clean pressure burst costs two per band crossed; more
    /// indicates thresholds too close together for the traffic.
    pub ladder_step_changes: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Served requests whose sojourn (measured wait + modeled compute)
    /// missed the deadline.
    pub violations: u64,
    /// Times a running session was parked at a layer boundary for a
    /// tighter-deadline arrival.
    pub preempted: u64,
    /// Times a parked session was resumed.
    pub resumed: u64,
    /// Parked sessions this lane's shards stole *from other lanes*
    /// (elastic work stealing; 0 with elasticity disabled).
    pub stolen: u64,
    /// Parked sessions of *this* lane resumed by a foreign shard
    /// (elastic work stealing; server-wide, migrated == stolen; 0 with
    /// elasticity disabled).
    pub migrated: u64,
    /// Times this lane's effective shard pool was resized by elastic
    /// autoscaling — one per foreign-shard attach and one per detach
    /// (0 with elasticity disabled).
    pub pool_resizes: u64,
    /// Elastic attach opportunities declined because the lane's energy
    /// envelope could not fund one more shard at the backend's
    /// floor-power draw (0 without energy budgeting, or when the
    /// backend doesn't model power). Counted per declined scan, so a
    /// persistently under-funded pressured lane accumulates quickly —
    /// the signal that the fleet cap, not the pool, is the binding
    /// constraint.
    pub attach_declined: u64,
    /// Cumulative modeled energy served requests drew on this lane,
    /// joules — the lane's one energy ledger (telemetry's per-request
    /// energy histogram is its distribution). Grows whether or not
    /// energy budgeting is enabled.
    pub energy_j: f64,
    /// Requests admitted but not yet served.
    pub queued: usize,
    /// Sessions currently parked at a layer boundary.
    pub parked: usize,
    /// Deepest the queue has been since start.
    pub queue_high_water: usize,
    /// Deepest the parked-session pool has been since start.
    pub max_parked_depth: usize,
}

impl LaneStats {
    /// A lane of `shards` shards for `task` that has counted nothing.
    pub(super) fn empty(task: Task, shards: usize) -> Self {
        Self {
            task,
            shards,
            submitted: 0,
            rejected: 0,
            shed: 0,
            degraded: 0,
            ladder_step_changes: 0,
            served: 0,
            violations: 0,
            preempted: 0,
            resumed: 0,
            stolen: 0,
            migrated: 0,
            pool_resizes: 0,
            attach_declined: 0,
            energy_j: 0.0,
            queued: 0,
            parked: 0,
            queue_high_water: 0,
            max_parked_depth: 0,
        }
    }
}

/// A snapshot of the whole server's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Per-lane snapshots, in the server's task order.
    pub lanes: Vec<LaneStats>,
}

impl ServerStats {
    /// Builds a snapshot from per-lane stats, asserting the server's
    /// cross-lane invariant: every stolen parked session was migrated
    /// from exactly one origin lane, so server-wide `stolen ==
    /// migrated`. A steal is recorded once, on its origin lane, and
    /// [`Server::stats`](super::Server::stats) derives both counters
    /// from that one record, so this holds in *every* snapshot.
    ///
    /// # Panics
    ///
    /// Panics when the summed counters disagree — that means a counting
    /// path updated one side without the other, a bug worth failing
    /// loudly over rather than reporting silently skewed stats.
    pub fn from_lanes(lanes: Vec<LaneStats>) -> Self {
        let stats = Self { lanes };
        assert_eq!(
            stats.stolen(),
            stats.migrated(),
            "server-wide invariant violated: stolen ({}) != migrated ({})",
            stats.stolen(),
            stats.migrated()
        );
        stats
    }

    /// Requests admitted across all lanes.
    pub fn submitted(&self) -> u64 {
        self.lanes.iter().map(|l| l.submitted).sum()
    }

    /// Requests refused at admission across all lanes.
    pub fn rejected(&self) -> u64 {
        self.lanes.iter().map(|l| l.rejected).sum()
    }

    /// Requests shed at admission by the overload ladder, across all
    /// lanes.
    pub fn shed(&self) -> u64 {
        self.lanes.iter().map(|l| l.shed).sum()
    }

    /// Requests served degraded by the overload ladder, across all
    /// lanes.
    pub fn degraded(&self) -> u64 {
        self.lanes.iter().map(|l| l.degraded).sum()
    }

    /// Overload-ladder rung transitions across all lanes.
    pub fn ladder_step_changes(&self) -> u64 {
        self.lanes.iter().map(|l| l.ladder_step_changes).sum()
    }

    /// Requests served across all lanes.
    pub fn served(&self) -> u64 {
        self.lanes.iter().map(|l| l.served).sum()
    }

    /// Sojourn deadline violations across all lanes.
    pub fn violations(&self) -> u64 {
        self.lanes.iter().map(|l| l.violations).sum()
    }

    /// Preemptions (sessions parked mid-sentence) across all lanes.
    pub fn preempted(&self) -> u64 {
        self.lanes.iter().map(|l| l.preempted).sum()
    }

    /// Parked-session resumes across all lanes.
    pub fn resumed(&self) -> u64 {
        self.lanes.iter().map(|l| l.resumed).sum()
    }

    /// Parked sessions stolen across lanes (counted on the thieves'
    /// home lanes); always equals [`migrated`](Self::migrated)
    /// server-wide — enforced by [`from_lanes`](Self::from_lanes) on
    /// every snapshot.
    pub fn stolen(&self) -> u64 {
        self.lanes.iter().map(|l| l.stolen).sum()
    }

    /// Parked sessions resumed by a foreign shard (counted on the
    /// origin lanes); always equals [`stolen`](Self::stolen)
    /// server-wide — enforced by [`from_lanes`](Self::from_lanes) on
    /// every snapshot.
    pub fn migrated(&self) -> u64 {
        self.lanes.iter().map(|l| l.migrated).sum()
    }

    /// Elastic pool resizes (attaches + detaches) across all lanes.
    pub fn pool_resizes(&self) -> u64 {
        self.lanes.iter().map(|l| l.pool_resizes).sum()
    }

    /// Elastic attaches declined by energy envelopes across all lanes.
    pub fn attach_declined(&self) -> u64 {
        self.lanes.iter().map(|l| l.attach_declined).sum()
    }

    /// Cumulative modeled energy served across all lanes, joules.
    pub fn energy_j(&self) -> f64 {
        self.lanes.iter().map(|l| l.energy_j).sum()
    }

    /// The deepest any lane's parked-session pool has been.
    pub fn max_parked_depth(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.max_parked_depth)
            .max()
            .unwrap_or(0)
    }

    /// Requests admitted but not yet served, across all lanes.
    pub fn queued(&self) -> usize {
        self.lanes.iter().map(|l| l.queued).sum()
    }

    /// The lane snapshot for one task, if served.
    pub fn lane(&self, task: Task) -> Option<&LaneStats> {
        self.lanes.iter().find(|l| l.task == task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(task: Task, stolen: u64, migrated: u64) -> LaneStats {
        LaneStats {
            stolen,
            migrated,
            ..LaneStats::empty(task, 1)
        }
    }

    /// The documented invariant holds per-server, not per-lane: a
    /// steal is counted `stolen` on the thief's home lane and
    /// `migrated` on the origin lane, so individual lanes may differ
    /// as long as the sums agree.
    #[test]
    fn cross_lane_steals_balance() {
        let stats = ServerStats::from_lanes(vec![lane(Task::Sst2, 3, 1), lane(Task::Qnli, 1, 3)]);
        assert_eq!(stats.stolen(), 4);
        assert_eq!(stats.migrated(), 4);
    }

    /// Regression for the doc-vs-behavior drift this constructor
    /// fixes: `migrated == stolen` was documented as a server-wide
    /// invariant but never asserted anywhere, so a counting bug would
    /// have shipped silently skewed stats.
    #[test]
    #[should_panic(expected = "stolen (2) != migrated (1)")]
    fn unbalanced_steal_counters_panic() {
        ServerStats::from_lanes(vec![lane(Task::Sst2, 2, 0), lane(Task::Qnli, 0, 1)]);
    }
}
