//! Observability for the serving stack: per-request trace spans,
//! log-bucketed latency/energy histograms, lane time-series sampling,
//! and exporters (JSONL traces, Prometheus text format).
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
//!   both of the hub's streams land in.
//! - [`hist`] — [`LogHistogram`]: fixed geometric bucket grid, exact
//!   merge and serde, exact p50/p95/p99 extraction.
//! - [`series`] — periodic [`LaneSample`]s of `(pressure, rung,
//!   queued, parked, extra_shards)` per lane.
//! - [`export`] — JSONL trace dump, Prometheus text render, and the
//!   span-chain well-formedness validator.
//!
//! The wall-clock server is the one producer: the virtual-timeline
//! [`DeadlineScheduler`](crate::scheduler::DeadlineScheduler) reports
//! its timeline in its responses and records nothing here.
//! [`Telemetry::now_s`] is the subsystem's one clock read.

pub mod export;
pub mod hist;
pub mod series;
pub mod span;

use std::sync::Arc;
use std::time::Instant;

use edgebert_tasks::Task;
use serde::{Deserialize, Serialize};

pub use export::{render_prometheus, render_trace_jsonl, span_chains, validate_span_chain};
pub use hist::{LaneHistograms, LogHistogram};
pub use series::LaneSample;
pub use span::{SpanRecorder, TraceEvent, TraceEventKind};

use span::Ring;

/// Capacities and cadence for the telemetry subsystem. `Copy` so it
/// can live inside the `Copy` server config.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Trace-ring capacity in events (overwrite-oldest beyond this).
    pub trace_capacity: usize,
    /// Time-series ring capacity in samples.
    pub series_capacity: usize,
    /// Lane sampling period, seconds.
    pub sample_period_s: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            trace_capacity: 65_536,
            series_capacity: 8_192,
            sample_period_s: 1e-3,
        }
    }
}

impl TelemetryConfig {
    /// Panics on a nonsensical configuration (zero trace capacity or a
    /// non-positive sampling period).
    pub fn validate(&self) {
        assert!(
            self.trace_capacity >= 1,
            "telemetry trace_capacity must be at least 1"
        );
        assert!(
            self.sample_period_s.is_finite() && self.sample_period_s > 0.0,
            "telemetry sample_period_s must be finite and positive, got {}",
            self.sample_period_s
        );
    }
}

/// The shared telemetry hub: one trace ring and one time-series ring,
/// stamped against a single epoch (the server's own, so event
/// timestamps compare directly with lane deadlines).
pub struct Telemetry {
    cfg: TelemetryConfig,
    epoch: Instant,
    trace: Ring<TraceEvent>,
    series: Ring<LaneSample>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("cfg", &self.cfg)
            .field("dropped_events", &self.trace.dropped())
            .field("dropped_samples", &self.series.dropped())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A hub with rings sized by `cfg`, stamping seconds since `epoch`.
    pub fn new(cfg: TelemetryConfig, epoch: Instant) -> Self {
        cfg.validate();
        Self {
            cfg,
            epoch,
            trace: Ring::new(cfg.trace_capacity),
            series: Ring::new(cfg.series_capacity),
        }
    }

    /// The configuration this hub was built with.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Seconds elapsed since the hub epoch.
    #[allow(
        clippy::disallowed_methods,
        reason = "the hub owns the server epoch; its timestamps only stamp observability records and never feed admission, scheduling, or inference decisions"
    )]
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
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
    /// already hold an `Instant`).
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

    /// Push one lane time-series sample.
    // analyzer: hot-path
    pub fn sample(&self, sample: LaneSample) {
        // analyzer: allow(hot-path-alloc) reason="Ring::push is the non-allocating try_lock ring push, not Vec::push"
        self.series.push(sample);
    }

    /// Copies out both rings plus the given lanes' histograms — the
    /// one [`TelemetrySnapshot`] builder behind
    /// [`Server::telemetry_snapshot`](crate::server::Server::telemetry_snapshot).
    pub(crate) fn snapshot(
        &self,
        lanes: impl Iterator<Item = (Task, LaneHistograms)>,
    ) -> TelemetrySnapshot {
        let (events, dropped_events) = self.trace.snapshot();
        let (samples, dropped_samples) = self.series.snapshot();
        TelemetrySnapshot {
            events,
            dropped_events,
            lanes: lanes
                .map(|(task, histograms)| LaneTelemetrySnapshot { task, histograms })
                .collect(),
            samples,
            dropped_samples,
        }
    }
}

/// One lane's distributions inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneTelemetrySnapshot {
    /// Lane task.
    pub task: Task,
    /// The lane's recorded distributions.
    pub histograms: LaneHistograms,
}

/// Everything the telemetry subsystem knows, copied out at once:
/// trace events, per-lane histograms, lane time-series, and the drop
/// counters that bound what the rings forgot.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetrySnapshot {
    /// Trace events oldest→newest.
    pub events: Vec<TraceEvent>,
    /// Trace events lost to ring contention or overwriting.
    pub dropped_events: u64,
    /// Per-lane histogram sets.
    pub lanes: Vec<LaneTelemetrySnapshot>,
    /// Lane time-series samples oldest→newest.
    pub samples: Vec<LaneSample>,
    /// Samples lost to ring contention or overwriting.
    pub dropped_samples: u64,
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "test hubs stamp against a fresh epoch; nothing asserted reads it"
)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_serde() {
        let cfg = TelemetryConfig {
            trace_capacity: 1024,
            series_capacity: 64,
            sample_period_s: 0.5,
        };
        let json = serde::json::to_string(&cfg);
        let back: TelemetryConfig = serde::json::from_str(&json).expect("round trip");
        assert_eq!(cfg, back);
    }

    #[test]
    #[should_panic(expected = "trace_capacity")]
    fn zero_trace_capacity_is_rejected() {
        Telemetry::new(
            TelemetryConfig {
                trace_capacity: 0,
                ..TelemetryConfig::default()
            },
            Instant::now(),
        );
    }

    #[test]
    fn hub_recorder_attributes_events() {
        let hub = Arc::new(Telemetry::new(TelemetryConfig::default(), Instant::now()));
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
