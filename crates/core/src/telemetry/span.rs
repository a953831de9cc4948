//! Per-request trace spans: typed events, the per-request recorder,
//! and the bounded overwrite-oldest ring they land in.
//!
//! The hot-path contract is **never block, never allocate**: the ring
//! is preallocated at construction, `push` uses `try_lock` (a push
//! that finds the lock held retries a bounded number of times, then is
//! counted as a drop instead of waiting), and every event is `Copy`. A full ring overwrites its oldest event and counts
//! the overwrite, so the drop counter is the single honesty signal for
//! both contention and capacity loss. A slot holds a 32-byte
//! `PackedEvent`, not the 40-byte public [`TraceEvent`]: `push` packs,
//! `snapshot` unpacks, and the two are exact inverses.

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
        /// First layer of the segment (1-based; saturates at
        /// `u16::MAX`).
        layer: u16,
        /// Supply voltage of the chosen operating point, volts: the
        /// operating point's own `f32`.
        voltage: f32,
        /// Clock frequency of the chosen operating point, Hz.
        freq_hz: f64,
    },
    /// The entropy predictor exited early after `layer`.
    EntropyExit {
        /// Layer after which the exit fired (1-based; saturates at
        /// `u16::MAX`).
        layer: u16,
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
                fields.push(("layer".into(), Value::U64(layer.into())));
                fields.push(("voltage".into(), f64::from(voltage).to_value()));
                fields.push(("freq_hz".into(), freq_hz.to_value()));
            }
            TraceEventKind::EntropyExit { layer } => {
                fields.push(("layer".into(), Value::U64(layer.into())));
            }
            TraceEventKind::Resumed { thief_lane } => {
                fields.push(("thief_lane".into(), thief_lane.to_value()));
            }
            TraceEventKind::Shed { pressure } => {
                fields.push(("pressure".into(), pressure.to_value()));
            }
            TraceEventKind::Degraded { notches } => {
                fields.push(("notches".into(), Value::U64(notches.into())));
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

/// Which [`TraceEventKind`] a [`PackedEvent`] holds.
#[derive(Clone, Copy)]
#[repr(u8)]
enum Tag {
    Admitted,
    Popped,
    SegmentStart,
    EntropyExit,
    Parked,
    Resumed,
    Shed,
    Degraded,
    Completed,
}

/// A [`TraceEvent`] as a ring slot stores it: 32 bytes against the
/// public event's 40, because the task and the kind's tag share the
/// payload's padding instead of each rounding its own field up.
/// [`PackedEvent::unpack`] inverts [`PackedEvent::pack`] bit for bit.
#[derive(Clone, Copy)]
struct PackedEvent {
    t_s: f64,
    request: u64,
    /// `queue_delay_s`, `freq_hz`, `pressure` or `energy_j`.
    wide: f64,
    /// The `SegmentStart` voltage's bits, or the `EntropyExit` layer.
    word: u32,
    /// The `SegmentStart` layer, `notches`, `verdict`, or the thief
    /// lane (0 for `None`, 1 + the task's index for `Some`).
    half: u16,
    /// The task's discriminant, which is its index in `Task::all()`
    /// (the round-trip test holds the two orders together).
    task: u8,
    tag: Tag,
}

impl PackedEvent {
    /// Packs `event` into one slot. Never allocates or panics.
    // analyzer: hot-path
    fn pack(event: TraceEvent) -> Self {
        let (tag, wide, word, half) = match event.kind {
            TraceEventKind::Admitted => (Tag::Admitted, 0.0, 0, 0),
            TraceEventKind::Popped { queue_delay_s } => (Tag::Popped, queue_delay_s, 0, 0),
            TraceEventKind::SegmentStart {
                layer,
                voltage,
                freq_hz,
            } => (Tag::SegmentStart, freq_hz, voltage.to_bits(), layer),
            TraceEventKind::EntropyExit { layer } => (Tag::EntropyExit, 0.0, layer.into(), 0),
            TraceEventKind::Parked => (Tag::Parked, 0.0, 0, 0),
            TraceEventKind::Resumed { thief_lane } => (
                Tag::Resumed,
                0.0,
                0,
                thief_lane.map_or(0, |task| 1 + u16::from(task as u8)),
            ),
            TraceEventKind::Shed { pressure } => (Tag::Shed, pressure, 0, 0),
            TraceEventKind::Degraded { notches } => (Tag::Degraded, 0.0, 0, notches.into()),
            TraceEventKind::Completed { verdict, energy_j } => {
                (Tag::Completed, energy_j, 0, verdict.into())
            }
        };
        Self {
            t_s: event.t_s,
            request: event.request,
            wide,
            word,
            half,
            task: event.task as u8,
            tag,
        }
    }

    /// The event [`PackedEvent::pack`] was given.
    fn unpack(self) -> TraceEvent {
        // Every index below was written by `pack` from a `Task`, so it
        // is in bounds.
        let task = |index: usize| Task::all()[index];
        let kind = match self.tag {
            Tag::Admitted => TraceEventKind::Admitted,
            Tag::Popped => TraceEventKind::Popped {
                queue_delay_s: self.wide,
            },
            Tag::SegmentStart => TraceEventKind::SegmentStart {
                layer: self.half,
                voltage: f32::from_bits(self.word),
                freq_hz: self.wide,
            },
            Tag::EntropyExit => TraceEventKind::EntropyExit {
                // `pack` widened a `u16` into `word`.
                layer: self.word as u16,
            },
            Tag::Parked => TraceEventKind::Parked,
            Tag::Resumed => TraceEventKind::Resumed {
                thief_lane: usize::from(self.half).checked_sub(1).map(task),
            },
            Tag::Shed => TraceEventKind::Shed {
                pressure: self.wide,
            },
            Tag::Degraded => TraceEventKind::Degraded {
                // `pack` widened a `u8` into `half`.
                notches: self.half as u8,
            },
            Tag::Completed => TraceEventKind::Completed {
                verdict: self.half != 0,
                energy_j: self.wide,
            },
        };
        TraceEvent {
            t_s: self.t_s,
            task: task(self.task.into()),
            request: self.request,
            kind,
        }
    }
}

/// How many times a push tries the ring lock before it counts its event
/// as dropped. It spins between the first half of the tries (a running
/// holder releases a one-slot copy within a few spins) and yields the
/// CPU between the rest, so a holder the scheduler preempted can run.
const PUSH_ATTEMPTS: u32 = 64;

/// Bounded overwrite-oldest ring holding the hub's trace events,
/// packed, with drop counting.
pub(crate) struct Ring {
    capacity: usize,
    inner: Mutex<RingInner>,
    /// Pushes abandoned because the ring mutex stayed contended for
    /// [`PUSH_ATTEMPTS`] tries.
    contended: AtomicU64,
}

struct RingInner {
    /// Preallocated storage; grows by push only until `capacity`.
    slots: Vec<PackedEvent>,
    /// Index of the oldest slot once the ring is full.
    head: usize,
    /// Events overwritten after the ring filled.
    overwritten: u64,
}

impl Ring {
    /// A ring reserving `capacity` slots up front. Panics on zero
    /// capacity, which [`TelemetryConfig::validate`] already rejects.
    ///
    /// [`TelemetryConfig::validate`]: super::TelemetryConfig::validate
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "telemetry trace_capacity must be at least 1");
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

    /// Push without blocking: a mutex still contended after
    /// [`PUSH_ATTEMPTS`] tries counts the event as dropped. Never
    /// allocates (the slot vector was preallocated).
    // analyzer: hot-path
    pub(crate) fn push(&self, event: TraceEvent) {
        let packed = PackedEvent::pack(event);
        let back_off = |attempt| {
            if attempt < PUSH_ATTEMPTS / 2 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        };
        let locked = (0..PUSH_ATTEMPTS)
            .find_map(|attempt| self.inner.try_lock().map_err(|_| back_off(attempt)).ok());
        let Some(mut inner) = locked else {
            self.contended.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if inner.slots.len() < self.capacity {
            // analyzer: allow(hot-path-alloc) reason="slots was Vec::with_capacity(capacity) at construction and len < capacity is checked above, so this push never reallocates"
            inner.slots.push(packed);
        } else {
            let head = inner.head;
            inner.slots[head] = packed;
            inner.head = (head + 1) % self.capacity;
            inner.overwritten += 1;
        }
    }

    /// Total events lost to contention or overwriting.
    pub(crate) fn dropped(&self) -> u64 {
        let overwritten = self
            .inner
            .lock()
            .expect("telemetry ring poisoned")
            .overwritten;
        self.contended.load(Ordering::Relaxed) + overwritten
    }

    /// Unpacks the retained events oldest→newest, plus the drop count.
    /// Takes the full lock — snapshots are off the hot path.
    pub(crate) fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let inner = self.inner.lock().expect("telemetry ring poisoned");
        let (newer, older) = inner.slots.split_at(inner.head);
        let events = older.iter().chain(newer).map(|p| p.unpack()).collect();
        let dropped = self.contended.load(Ordering::Relaxed) + inner.overwritten;
        (events, dropped)
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
    fn a_packed_event_is_32_bytes() {
        // Every ring slot is one packed event: growing it grows every
        // ring by that much per slot (2 MiB at the default capacity).
        assert_eq!(std::mem::size_of::<PackedEvent>(), 32);
        assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
    }

    /// Bitwise equality: `f64`/`f32` payloads compare by `to_bits`, so
    /// `-0.0 != 0.0` and a NaN equals only the same NaN.
    fn same_bits(a: &TraceEvent, b: &TraceEvent) -> bool {
        use TraceEventKind as K;
        let kinds = match (a.kind, b.kind) {
            (K::Popped { queue_delay_s: x }, K::Popped { queue_delay_s: y })
            | (K::Shed { pressure: x }, K::Shed { pressure: y }) => x.to_bits() == y.to_bits(),
            (
                K::SegmentStart {
                    layer: la,
                    voltage: va,
                    freq_hz: fa,
                },
                K::SegmentStart {
                    layer: lb,
                    voltage: vb,
                    freq_hz: fb,
                },
            ) => la == lb && va.to_bits() == vb.to_bits() && fa.to_bits() == fb.to_bits(),
            (
                K::Completed {
                    verdict: va,
                    energy_j: ea,
                },
                K::Completed {
                    verdict: vb,
                    energy_j: eb,
                },
            ) => va == vb && ea.to_bits() == eb.to_bits(),
            (ka, kb) => ka == kb,
        };
        kinds && a.t_s.to_bits() == b.t_s.to_bits() && a.task == b.task && a.request == b.request
    }

    #[test]
    fn pack_round_trips_every_variant_and_edge_value() {
        let nan_payload = f64::from_bits(0x7FF0_0000_0000_0001);
        let neg_nan = f64::from_bits(0xFFF8_DEAD_BEEF_0001);
        let wides = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            nan_payload,
            neg_nan,
            1.25e-3,
        ];
        let voltages = [
            0.0f32,
            -0.0,
            f32::from_bits(1),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0xFF80_0001),
            0.8,
        ];
        let layers = [0, 1, u16::MAX];
        let mut kinds = vec![TraceEventKind::Admitted, TraceEventKind::Parked];
        for &w in &wides {
            kinds.push(TraceEventKind::Popped { queue_delay_s: w });
            kinds.push(TraceEventKind::Shed { pressure: w });
            for verdict in [false, true] {
                kinds.push(TraceEventKind::Completed {
                    verdict,
                    energy_j: w,
                });
            }
            for &voltage in &voltages {
                for &layer in &layers {
                    kinds.push(TraceEventKind::SegmentStart {
                        layer,
                        voltage,
                        freq_hz: w,
                    });
                }
            }
        }
        for &layer in &layers {
            kinds.push(TraceEventKind::EntropyExit { layer });
        }
        for notches in [0, 1, u8::MAX] {
            kinds.push(TraceEventKind::Degraded { notches });
        }
        kinds.push(TraceEventKind::Resumed { thief_lane: None });
        for thief in Task::all() {
            kinds.push(TraceEventKind::Resumed {
                thief_lane: Some(thief),
            });
        }
        for task in Task::all() {
            for (i, &kind) in kinds.iter().enumerate() {
                for request in [0, 7, u64::MAX] {
                    let event = TraceEvent {
                        t_s: wides[i % wides.len()],
                        task,
                        request,
                        kind,
                    };
                    let back = PackedEvent::pack(event).unpack();
                    assert!(same_bits(&event, &back), "{event:?} came back {back:?}");
                }
            }
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
    #[should_panic(expected = "trace_capacity")]
    fn zero_capacity_ring_is_rejected() {
        Ring::new(0);
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
