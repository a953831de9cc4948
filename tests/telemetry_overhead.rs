//! Pins the telemetry hot-path contract: the disabled path allocates
//! nothing per request, and the enabled steady-state primitives (hub
//! record, span-recorder emit, histogram record) allocate nothing
//! either — rings are preallocated, events are `Copy`, histograms are
//! fixed arrays. Also pins the hub's footprint: a default hub requests
//! at most 32 B per trace-ring slot, plus a page.

// One `#[test]` function in this binary on purpose: see `common`.
mod common;

use common::{allocated_during, allocations_during};
use edgebert::clock::Clock;
use edgebert::telemetry::{SpanRecorder, Telemetry, TelemetryConfig, TraceEventKind};
use edgebert_tasks::Task;
use std::sync::Arc;

#[test]
fn telemetry_hot_paths_do_not_allocate() {
    // --- Disabled path: the per-request cost of `telemetry: None` is
    // a skipped `if let` — provably allocation-free.
    let disabled: Option<Arc<Telemetry>> = None;
    let n = allocations_during(|| {
        for i in 0..10_000u64 {
            if let Some(hub) = &disabled {
                hub.record_at(0.0, Task::Sst2, i, TraceEventKind::Admitted);
            }
        }
    });
    assert_eq!(n, 0, "disabled telemetry path must not allocate");

    // --- Footprint: the ring reserves its whole capacity at start-up
    // and every slot becomes resident once it wraps, so the bytes a
    // default hub requests are what `burst_backlog` keeps resident.
    let capacity = TelemetryConfig::default().trace_capacity;
    let (_, bytes) = allocated_during(|| {
        drop(Telemetry::new(TelemetryConfig::default(), Clock::start()));
    });
    let budget = capacity as u64 * 32 + 4096;
    assert!(
        bytes <= budget,
        "a default hub requested {bytes} B, over {budget} B ({capacity} slots x 32 B + 4 KiB)"
    );

    // --- Enabled steady state: every per-event primitive works on
    // preallocated storage. Warm the ring past capacity first so the
    // overwrite path (the steady state under load) is what's measured.
    let hub = Arc::new(Telemetry::new(
        TelemetryConfig { trace_capacity: 64 },
        Clock::start(),
    ));
    let recorder: SpanRecorder = hub.recorder(Task::Sst2, 1);
    recorder.emit(TraceEventKind::Admitted);

    let n = allocations_during(|| {
        for i in 0..10_000u64 {
            hub.record_at(
                i as f64,
                Task::Sst2,
                i,
                TraceEventKind::Popped { queue_delay_s: 0.0 },
            );
            recorder.emit(TraceEventKind::SegmentStart {
                layer: 1,
                voltage: 0.55,
                freq_hz: 20e6,
            });
            recorder.emit(TraceEventKind::Completed {
                verdict: true,
                energy_j: 3e-4,
            });
        }
    });
    assert_eq!(n, 0, "enabled ring record/emit must not allocate");

    // Histogram record: fixed arrays, pure arithmetic.
    let mut hist = edgebert::telemetry::LogHistogram::new();
    let n = allocations_during(|| {
        for i in 0..10_000 {
            hist.record(1e-6 * (1 + i % 997) as f64);
        }
    });
    assert_eq!(n, 0, "histogram record must not allocate");
    assert_eq!(hist.count(), 10_000);
}
