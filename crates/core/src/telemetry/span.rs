//! Per-request trace spans: typed events, the per-request recorder,
//! and the bounded overwrite-oldest ring they land in.
//!
//! The hot-path contract is **never block, never allocate**: the ring
//! is preallocated at construction, `push` uses `try_lock` (a
//! contended push is counted as a drop instead of waiting), and every
//! event is `Copy`. A full ring overwrites its oldest event and counts
//! the overwrite, so the drop counter is the single honesty signal for
//! both contention and capacity loss.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use edgebert_tasks::Task;
use serde::{Serialize, Value};

use super::Telemetry;

/// One step in a request's span chain.
///
/// `SegmentStart` carries the chosen operating point as plain
/// voltage/frequency fields (not [`crate::backend::OperatingPoint`]) so
/// the event stays `Copy` and serializes flat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// Request accepted into a lane queue.
    Admitted,
    /// Worker popped the request off the EDF queue.
    Popped {
        /// Seconds spent queued before the pop.
        queue_delay_s: f64,
    },
    /// A DVFS segment opened: layers from `layer` run at this point.
    SegmentStart {
        /// First layer of the segment (1-based).
        layer: u32,
        /// Supply voltage of the chosen operating point, volts.
        voltage: f64,
        /// Clock frequency of the chosen operating point, Hz.
        freq_hz: f64,
    },
    /// The entropy predictor exited early after `layer`.
    EntropyExit {
        /// Layer after which the exit fired (1-based).
        layer: u32,
    },
    /// Session parked (preempted) with layers still to run.
    Parked,
    /// Parked session resumed; `thief_lane` names the foreign lane's
    /// task when a work-stealing shard resumed it, `None` on-home.
    Resumed {
        /// Home task of the stealing shard, if stolen.
        thief_lane: Option<Task>,
    },
    /// Admission shed the request (overload ladder).
    Shed {
        /// Lane pressure at the shed decision.
        pressure: f64,
    },
    /// Service started with this many accuracy-tier notches dropped.
    Degraded {
        /// Tier notches deducted by the overload ladder.
        notches: u8,
    },
    /// Response sent.
    Completed {
        /// Whether the deadline was met.
        verdict: bool,
        /// Modeled energy the sentence's compute drew, joules (after
        /// any envelope clamping — the span shows what was actually
        /// spent, matching the lane's cumulative energy ledger).
        energy_j: f64,
    },
}

impl TraceEventKind {
    /// Stable discriminant name used by the serializer and exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Admitted => "admitted",
            TraceEventKind::Popped { .. } => "popped",
            TraceEventKind::SegmentStart { .. } => "segment_start",
            TraceEventKind::EntropyExit { .. } => "entropy_exit",
            TraceEventKind::Parked => "parked",
            TraceEventKind::Resumed { .. } => "resumed",
            TraceEventKind::Shed { .. } => "shed",
            TraceEventKind::Degraded { .. } => "degraded",
            TraceEventKind::Completed { .. } => "completed",
        }
    }
}

// Hand-written: the serde_derive shim only handles unit enum variants,
// and a tagged map (`"kind"` discriminant + payload fields) is the
// JSONL shape consumers want anyway.
impl Serialize for TraceEventKind {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> =
            vec![("kind".into(), Value::Str(self.name().into()))];
        match *self {
            TraceEventKind::Admitted | TraceEventKind::Parked => {}
            TraceEventKind::Popped { queue_delay_s } => {
                fields.push(("queue_delay_s".into(), queue_delay_s.to_value()));
            }
            TraceEventKind::SegmentStart {
                layer,
                voltage,
                freq_hz,
            } => {
                fields.push(("layer".into(), Value::U64(layer as u64)));
                fields.push(("voltage".into(), voltage.to_value()));
                fields.push(("freq_hz".into(), freq_hz.to_value()));
            }
            TraceEventKind::EntropyExit { layer } => {
                fields.push(("layer".into(), Value::U64(layer as u64)));
            }
            TraceEventKind::Resumed { thief_lane } => {
                fields.push(("thief_lane".into(), thief_lane.to_value()));
            }
            TraceEventKind::Shed { pressure } => {
                fields.push(("pressure".into(), pressure.to_value()));
            }
            TraceEventKind::Degraded { notches } => {
                fields.push(("notches".into(), Value::U64(notches as u64)));
            }
            TraceEventKind::Completed { verdict, energy_j } => {
                fields.push(("verdict".into(), Value::Bool(verdict)));
                fields.push(("energy_j".into(), energy_j.to_value()));
            }
        }
        Value::Map(fields)
    }
}

/// A timestamped, request-attributed trace event. Timestamps are
/// seconds on the owning hub's clock (the server's own, so they
/// compare directly with lane deadlines) and are monotone within
/// a request's chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Seconds on the server's clock.
    pub t_s: f64,
    /// Lane/task the request belongs to.
    pub task: Task,
    /// Request id: the lane submission sequence number (matches
    /// `ServerResponse::submission`). Shed requests — which never
    /// consume a sequence number, keeping admission numbering
    /// identical with telemetry off — get synthetic ids counting down
    /// from `u64::MAX`.
    pub request: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("t_s".into(), self.t_s.to_value()),
            ("task".into(), self.task.to_value()),
            ("request".into(), Value::U64(self.request)),
        ];
        match self.kind.to_value() {
            Value::Map(kind_fields) => fields.extend(kind_fields),
            other => fields.push(("kind".into(), other)),
        }
        Value::Map(fields)
    }
}

/// Bounded overwrite-oldest ring holding the hub's trace events, with
/// drop counting.
pub(crate) struct Ring<T> {
    capacity: usize,
    inner: Mutex<RingInner<T>>,
    /// Pushes abandoned because the ring mutex was contended.
    contended: AtomicU64,
}

struct RingInner<T> {
    /// Preallocated storage; grows by push only until `capacity`.
    slots: Vec<T>,
    /// Index of the oldest slot once the ring is full.
    head: usize,
    /// Events overwritten after the ring filled.
    overwritten: u64,
}

impl<T: Copy> Ring<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(RingInner {
                slots: Vec::with_capacity(capacity),
                head: 0,
                overwritten: 0,
            }),
            contended: AtomicU64::new(0),
        }
    }

    /// Push without blocking: a contended mutex or zero capacity
    /// counts the value as dropped. Never allocates (the slot vector
    /// was preallocated).
    // analyzer: hot-path
    pub(crate) fn push(&self, value: T) {
        let Ok(mut inner) = self.inner.try_lock() else {
            self.contended.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if self.capacity == 0 {
            inner.overwritten += 1;
        } else if inner.slots.len() < self.capacity {
            // analyzer: allow(hot-path-alloc) reason="slots was Vec::with_capacity(capacity) at construction and len < capacity is checked above, so this push never reallocates"
            inner.slots.push(value);
        } else {
            let head = inner.head;
            inner.slots[head] = value;
            inner.head = (head + 1) % self.capacity;
            inner.overwritten += 1;
        }
    }

    /// Total values lost to contention or overwriting.
    pub(crate) fn dropped(&self) -> u64 {
        let overwritten = self
            .inner
            .lock()
            .expect("telemetry ring poisoned")
            .overwritten;
        self.contended.load(Ordering::Relaxed) + overwritten
    }

    /// Copy out the retained values oldest→newest plus the drop count.
    /// Takes the full lock — snapshots are off the hot path.
    pub(crate) fn snapshot(&self) -> (Vec<T>, u64) {
        let inner = self.inner.lock().expect("telemetry ring poisoned");
        let mut out = Vec::with_capacity(inner.slots.len());
        out.extend_from_slice(&inner.slots[inner.head..]);
        out.extend_from_slice(&inner.slots[..inner.head]);
        let dropped = self.contended.load(Ordering::Relaxed) + inner.overwritten;
        (out, dropped)
    }
}

/// A cheap, cloneable handle stamping events for one request, minted
/// by [`Telemetry::recorder`]. Cloned into the session so
/// park/steal/resume keep emitting into the same hub with the same
/// attribution; excluded from checkpoints (a restored session starts
/// untraced).
#[derive(Clone)]
pub struct SpanRecorder {
    pub(super) hub: Arc<Telemetry>,
    pub(super) task: Task,
    pub(super) request: u64,
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("task", &self.task)
            .field("request", &self.request)
            .finish_non_exhaustive()
    }
}

impl SpanRecorder {
    /// Emit `kind` stamped with the hub's current time. Never blocks or
    /// allocates.
    // analyzer: hot-path
    pub fn emit(&self, kind: TraceEventKind) {
        let hub = &self.hub;
        hub.record_at(hub.clock.now_s(), self.task, self.request, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(request: u64, t_s: f64) -> TraceEvent {
        TraceEvent {
            t_s,
            task: Task::Sst2,
            request,
            kind: TraceEventKind::Admitted,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = Ring::new(3);
        for i in 0..5 {
            ring.push(event(i, i as f64));
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(
            events.iter().map(|e| e.request).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(dropped, 2);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let ring = Ring::new(0);
        ring.push(event(0, 0.0));
        let (events, dropped) = ring.snapshot();
        assert!(events.is_empty());
        assert_eq!(dropped, 1);
    }

    #[test]
    fn recorder_timestamps_are_monotone() {
        let hub = Arc::new(Telemetry::new(
            crate::telemetry::TelemetryConfig::default(),
            crate::clock::Clock::start(),
        ));
        let rec = hub.recorder(Task::Qnli, 7);
        rec.emit(TraceEventKind::Admitted);
        rec.emit(TraceEventKind::Completed {
            verdict: true,
            energy_j: 1e-3,
        });
        let events = hub.snapshot(std::iter::empty()).events;
        assert_eq!(events.len(), 2);
        assert!(events[0].t_s <= events[1].t_s);
        assert!(events
            .iter()
            .all(|e| e.request == 7 && e.task == Task::Qnli));
    }

    #[test]
    fn event_serializes_with_kind_discriminant() {
        let e = TraceEvent {
            t_s: 0.5,
            task: Task::Mnli,
            request: 3,
            kind: TraceEventKind::Popped {
                queue_delay_s: 0.25,
            },
        };
        let json = serde::json::to_string(&e);
        assert!(json.contains("\"kind\":\"popped\""), "{json}");
        assert!(json.contains("\"queue_delay_s\":0.25"), "{json}");
        assert!(json.contains("\"request\":3"), "{json}");
    }
}
