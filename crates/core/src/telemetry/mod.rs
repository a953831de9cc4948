//! Observability for the serving stack: per-request trace spans,
//! log-bucketed latency/energy histograms, lane gauges read at snapshot
//! time, and exporters (JSONL traces, Prometheus text format).
//!
//! Telemetry ships **default-off** (`ServerConfig::telemetry: None`)
//! and is bit-identity-neutral when on: it only observes — request
//! numbering, admission decisions, DVFS choices, and inference
//! arithmetic are unchanged (shed trace ids count down from
//! `u64::MAX` precisely so admission sequence numbers stay untouched).
//! The hot-path contract is *never block, never allocate*: rings are
//! preallocated and pushed with `try_lock` (contention counts a drop),
//! events are `Copy`, and histograms are fixed arrays. A dedicated
//! overhead test pins the disabled path to zero allocations per
//! request.
//!
//! - [`span`] — typed [`TraceEvent`]s, the per-request
//!   [`SpanRecorder`] handle threaded through submit → pop → step →
//!   park/resume → response, and the bounded overwrite-oldest ring
//!   the hub's events land in.
//! - [`hist`] — [`LogHistogram`]: fixed geometric bucket grid, exact
//!   merge and serde, exact p50/p95/p99 extraction.
//! - [`export`] — JSONL trace dump, Prometheus text render, and the
//!   span-chain well-formedness validator.
//!
//! The wall-clock server is the one producer: the virtual-timeline
//! [`DeadlineScheduler`](crate::scheduler::DeadlineScheduler) reports
//! its timeline in its responses and records nothing here. Spans are
//! stamped on the server's own [`Clock`]. A lane's gauges (pressure,
//! rung, depths, extra shards, energy envelope and power) have no
//! stream of their own: [`Server::telemetry_snapshot`](crate::server::Server::telemetry_snapshot)
//! reads them under the same lane lock that copies the lane's
//! histograms, so every gauge is exact at snapshot time.

pub mod export;
pub mod hist;
pub mod span;

use std::sync::Arc;

use edgebert_tasks::Task;
use serde::{Deserialize, Serialize};

pub use export::{render_prometheus, render_trace_jsonl, span_chains, validate_span_chain};
pub use hist::{LaneHistograms, LogHistogram};
pub use span::{SpanRecorder, TraceEvent, TraceEventKind};

use crate::clock::Clock;
use crate::overload::LadderStep;
use span::Ring;

/// The telemetry subsystem's one knob. `Copy` so it can live inside
/// the `Copy` server config.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Trace-ring capacity in events (overwrite-oldest beyond this).
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            trace_capacity: 65_536,
        }
    }
}

impl TelemetryConfig {
    /// Panics on a nonsensical configuration (zero trace capacity).
    pub fn validate(&self) {
        assert!(
            self.trace_capacity >= 1,
            "telemetry trace_capacity must be at least 1"
        );
    }
}

/// The shared telemetry hub: one trace ring stamped on one clock (the
/// server's own, so event timestamps compare directly with lane
/// deadlines).
pub struct Telemetry {
    clock: Clock,
    trace: Ring<TraceEvent>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("dropped_events", &self.trace.dropped())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A hub with a trace ring sized by `cfg`, stamping seconds on
    /// `clock`.
    pub fn new(cfg: TelemetryConfig, clock: Clock) -> Self {
        cfg.validate();
        Self {
            clock,
            trace: Ring::new(cfg.trace_capacity),
        }
    }

    /// A per-request recorder emitting into this hub's trace ring.
    pub fn recorder(self: &Arc<Self>, task: Task, request: u64) -> SpanRecorder {
        SpanRecorder {
            hub: Arc::clone(self),
            task,
            request,
        }
    }

    /// Record one event at an explicit timestamp (hot paths that
    /// already read the clock).
    // analyzer: hot-path
    pub fn record_at(&self, t_s: f64, task: Task, request: u64, kind: TraceEventKind) {
        // analyzer: allow(hot-path-alloc) reason="Ring::push is the non-allocating try_lock ring push, not Vec::push"
        self.trace.push(TraceEvent {
            t_s,
            task,
            request,
            kind,
        });
    }

    /// Copies out the trace ring beside the given lanes — the one
    /// [`TelemetrySnapshot`] builder behind
    /// [`Server::telemetry_snapshot`](crate::server::Server::telemetry_snapshot).
    pub(crate) fn snapshot(
        &self,
        lanes: impl Iterator<Item = LaneTelemetrySnapshot>,
    ) -> TelemetrySnapshot {
        let (events, dropped_events) = self.trace.snapshot();
        TelemetrySnapshot {
            events,
            dropped_events,
            lanes: lanes.collect(),
        }
    }
}

/// One lane inside a [`TelemetrySnapshot`]: its distributions and its
/// gauges, all read under one hold of the lane lock. The two energy
/// gauges are `None` without energy budgeting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneTelemetrySnapshot {
    /// Lane task.
    pub task: Task,
    /// The lane's recorded distributions.
    pub histograms: LaneHistograms,
    /// Overload pressure signal (backlog service demand / horizon).
    pub pressure: f64,
    /// Admission-ladder rung (`Nominal` on a lane without a ladder).
    pub rung: LadderStep,
    /// Fresh jobs queued.
    pub queued: usize,
    /// Parked (preempted) sessions.
    pub parked: usize,
    /// Autoscaled shards attached beyond the nominal pool.
    pub extra_shards: usize,
    /// Lane-total energy envelope from the fleet coordinator, watts.
    pub envelope_w: Option<f64>,
    /// Lane power draw measured by the coordinator's EWMA, watts.
    pub power_w: Option<f64>,
}

/// Everything the telemetry subsystem knows, copied out at once:
/// trace events, each lane's histograms and gauges, and the drop
/// counter that bounds what the trace ring forgot.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetrySnapshot {
    /// Trace events oldest→newest.
    pub events: Vec<TraceEvent>,
    /// Trace events lost to ring contention or overwriting.
    pub dropped_events: u64,
    /// Per-lane histograms and gauges.
    pub lanes: Vec<LaneTelemetrySnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_serde() {
        let cfg = TelemetryConfig {
            trace_capacity: 1024,
        };
        let json = serde::json::to_string(&cfg);
        let back: TelemetryConfig = serde::json::from_str(&json).expect("round trip");
        assert_eq!(cfg, back);
    }

    #[test]
    #[should_panic(expected = "trace_capacity")]
    fn zero_trace_capacity_is_rejected() {
        Telemetry::new(TelemetryConfig { trace_capacity: 0 }, Clock::start());
    }

    #[test]
    fn hub_recorder_attributes_events() {
        let hub = Arc::new(Telemetry::new(TelemetryConfig::default(), Clock::start()));
        hub.recorder(Task::Sst2, 11).emit(TraceEventKind::Admitted);
        hub.record_at(
            2.0,
            Task::Qnli,
            12,
            TraceEventKind::Completed {
                verdict: false,
                energy_j: 0.0,
            },
        );
        let snapshot = hub.snapshot(std::iter::empty());
        let events = snapshot.events;
        assert_eq!(events.len(), 2);
        assert_eq!(snapshot.dropped_events, 0);
        assert_eq!(events[1].t_s, 2.0);
        assert_eq!(events[1].request, 12);
    }
}
