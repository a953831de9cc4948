//! Integration tests for the `edgebert::telemetry` subsystem: span
//! chains recorded under real server load, bit-identity neutrality of
//! the enabled path, lane counters and histograms balancing against
//! the responses of a concurrent preemptive burst, lane gauges read at
//! snapshot time, exporter content, and log-histogram edge cases (zero
//! samples, single sample, disjoint merges, serde exactness, and
//! proptest quantile monotonicity).

use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::server::{PreemptionPolicy, Server, ServerConfig, ServerResponse};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert::telemetry::{
    render_prometheus, render_trace_jsonl, span_chains, validate_span_chain, LaneHistograms,
    LaneTelemetrySnapshot, LogHistogram, TelemetryConfig, TraceEventKind,
};
use edgebert::{EnergyConfig, InferenceRequest, LadderStep};
use edgebert_tasks::{Task, TaskGenerator};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

fn runtime() -> &'static MultiTaskRuntime {
    static CELL: OnceLock<MultiTaskRuntime> = OnceLock::new();
    CELL.get_or_init(|| {
        MultiTaskRuntime::from_runtimes([
            TaskRuntime::from_artifacts(&TaskArtifacts::build(Task::Sst2, Scale::Test, 0x7E1E)),
            TaskRuntime::from_artifacts(&TaskArtifacts::build(Task::Qnli, Scale::Test, 0x7E1F)),
        ])
    })
}

fn tokens_for(task: Task, n: usize, seed: u64) -> Vec<Vec<u32>> {
    let rt = runtime().runtime(task).expect("served");
    let gen = TaskGenerator::standard(task, rt.model().config.max_seq_len);
    gen.generate(n, seed)
        .examples()
        .iter()
        .map(|ex| ex.tokens.clone())
        .collect()
}

fn telemetry_config() -> ServerConfig {
    ServerConfig {
        queue_aware_slack: false,
        telemetry: Some(TelemetryConfig::default()),
        ..ServerConfig::default()
    }
}

/// The acceptance contract: with telemetry on, every served request
/// leaves a well-formed span chain (Admitted → Popped → … → Completed,
/// monotone timestamps), the JSONL dump has one line per event, and
/// the Prometheus render carries non-empty queue-delay and energy
/// histograms.
#[test]
fn server_load_produces_wellformed_span_chains_and_exports() {
    let rt = runtime();
    let server = Server::start(rt, telemetry_config());
    // Sequential submit/wait: no two threads ever race a ring push, so
    // the ring is provably lossless and every chain must be complete.
    let mut ids = Vec::new();
    for (i, tokens) in tokens_for(Task::Sst2, 4, 61)
        .into_iter()
        .chain(tokens_for(Task::Qnli, 4, 62))
        .enumerate()
    {
        let task = if i < 4 { Task::Sst2 } else { Task::Qnli };
        let req = InferenceRequest::new(tokens).with_latency_target(50e-3);
        let handle = server.submit(task, req).expect("admitted");
        ids.push((task, handle.submission()));
        handle.wait().expect("served");
    }
    let (_, snapshot) = server.shutdown_with_telemetry();
    let snapshot = snapshot.expect("telemetry was enabled");

    assert_eq!(
        snapshot.dropped_events, 0,
        "sequential load cannot contend the ring"
    );
    let chains = span_chains(&snapshot.events);
    for &(task, id) in &ids {
        let (_, chain) = chains
            .iter()
            .find(|((t, r), _)| *t == task && *r == id)
            .unwrap_or_else(|| panic!("no span chain for {task} #{id}"));
        validate_span_chain(chain)
            .unwrap_or_else(|e| panic!("malformed chain for {task} #{id}: {e}"));
        assert!(
            chain
                .iter()
                .any(|ev| matches!(ev.kind, TraceEventKind::SegmentStart { .. })),
            "served request should record at least one compute segment"
        );
    }

    // JSONL: one line per event, each a JSON object.
    let jsonl = render_trace_jsonl(&snapshot.events);
    assert_eq!(jsonl.lines().count(), snapshot.events.len());
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));

    // Prometheus: queue-delay and energy histogram families present
    // and non-empty, lane gauges present.
    let prom = render_prometheus(&snapshot);
    assert!(prom.contains("edgebert_queue_delay_seconds_bucket"));
    assert!(prom.contains("edgebert_energy_joules_bucket"));
    for lane in &snapshot.lanes {
        assert!(lane.histograms.queue_delay_s.count() > 0);
        assert!(lane.histograms.energy_per_request_j.count() > 0);
        assert!(lane.histograms.sojourn_s.count() > 0);
    }
    assert!(prom.contains("edgebert_lane_pressure{task=\"sst-2\"}"));
}

/// Lowercased Prometheus task label, as the exporter writes it.
fn label(task: Task) -> String {
    task.to_string().to_lowercase()
}

/// The lane gauges are read under the lane lock when the snapshot is
/// taken, so the very first snapshot of an idle server already has one
/// entry per lane, each at its resting state, and renders every lane's
/// queue-depth gauge.
#[test]
fn first_snapshot_reads_every_lane_at_rest() {
    let server = Server::start(runtime(), telemetry_config());
    let snapshot = server.telemetry_snapshot().expect("telemetry was enabled");
    let tasks: Vec<Task> = snapshot.lanes.iter().map(|lane| lane.task).collect();
    assert_eq!(tasks, server.tasks());
    for lane in &snapshot.lanes {
        let task = lane.task;
        assert_eq!(lane.queued, 0, "{task}");
        assert_eq!(lane.parked, 0, "{task}");
        assert_eq!(lane.extra_shards, 0, "{task}");
        assert_eq!(lane.rung, LadderStep::Nominal, "{task}");
        assert_eq!(lane.envelope_w, None, "{task}");
        assert_eq!(lane.power_w, None, "{task}");
    }
    let prom = render_prometheus(&snapshot);
    for task in tasks {
        let row = format!("edgebert_lane_queued{{task=\"{}\"}} 0\n", label(task));
        assert!(prom.contains(&row), "missing {row:?} in:\n{prom}");
    }
}

/// The energy gauges are present exactly when a fleet coordinator
/// runs. The coordinator ticks once before its thread can exit, so
/// after `shutdown_with_telemetry` every budgeted lane carries an
/// envelope and a measured power, with no waiting.
#[test]
fn energy_gauges_render_only_with_a_coordinator() {
    for energy in [None, Some(EnergyConfig::default())] {
        let server = Server::start(
            runtime(),
            ServerConfig {
                energy,
                ..telemetry_config()
            },
        );
        let (_, snapshot) = server.shutdown_with_telemetry();
        let snapshot = snapshot.expect("telemetry was enabled");
        let prom = render_prometheus(&snapshot);
        for lane in &snapshot.lanes {
            let task = label(lane.task);
            let envelope = format!("edgebert_lane_envelope_watts{{task=\"{task}\"}} ");
            let power = format!("edgebert_lane_power_watts{{task=\"{task}\"}} ");
            let budgeted = energy.is_some();
            assert_eq!(lane.envelope_w.is_some(), budgeted, "{task}");
            assert_eq!(lane.power_w.is_some(), budgeted, "{task}");
            assert_eq!(prom.contains(&envelope), budgeted, "{task}:\n{prom}");
            assert_eq!(prom.contains(&power), budgeted, "{task}:\n{prom}");
        }
    }
}

#[test]
fn lane_snapshot_round_trips_through_serde() {
    let mut histograms = LaneHistograms::default();
    histograms.queue_delay_s.record(2.5e-3);
    histograms.energy_per_request_j.record(40e-6);
    let lane = LaneTelemetrySnapshot {
        task: Task::Qqp,
        histograms,
        pressure: 0.75,
        rung: LadderStep::Nominal,
        queued: 4,
        parked: 1,
        extra_shards: 2,
        envelope_w: Some(0.125),
        power_w: Some(0.08),
    };
    let json = serde::json::to_string(&lane);
    let back: LaneTelemetrySnapshot = serde::json::from_str(&json).expect("round trip");
    assert_eq!(lane, back);
}

/// Every observation has one home, and the homes agree: after a
/// concurrent burst of mixed-deadline traffic through preemptive
/// one-shard lanes (service time emulated, so a tight arrival can find
/// a loose sentence mid-run), each lane's counters equal what its
/// responses report, and each histogram in the telemetry snapshot holds
/// one entry per served request (per executed layer for step times).
/// Equalities only, so they hold whether or not a park happens.
#[test]
fn lane_counters_and_histograms_balance_against_a_concurrent_burst() {
    let rt = runtime();
    let server = Server::start(
        rt,
        ServerConfig {
            shards_per_task: 1,
            emulate_service_time: true,
            preemption: PreemptionPolicy::DeadlineGap(0.0),
            ..telemetry_config()
        },
    );
    let tasks = [Task::Sst2, Task::Qnli];
    let responses: Vec<Vec<ServerResponse>> = std::thread::scope(|scope| {
        let clients: Vec<_> = tasks
            .iter()
            .enumerate()
            .map(|(i, &task)| {
                let server = &server;
                scope.spawn(move || {
                    let handles: Vec<_> = tokens_for(task, 12, 101 + i as u64)
                        .into_iter()
                        .enumerate()
                        .map(|(j, tokens)| {
                            let target_s = [120e-3, 10e-3, 40e-3][j % 3];
                            let req = InferenceRequest::new(tokens).with_latency_target(target_s);
                            let handle = server.submit(task, req).expect("admitted");
                            std::thread::sleep(Duration::from_millis(2));
                            handle
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.wait().expect("served"))
                        .collect()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect()
    });
    let (stats, snapshot) = server.shutdown_with_telemetry();
    let snapshot = snapshot.expect("telemetry was enabled");

    for (task, responses) in tasks.iter().zip(&responses) {
        let lane = stats.lane(*task).expect("lane served");
        let n = responses.len() as u64;
        assert_eq!(lane.submitted, n, "{task}");
        assert_eq!(lane.served, n, "{task}");
        let missed = responses.iter().filter(|r| !r.deadline_met).count();
        assert_eq!(lane.violations, missed as u64, "{task}");
        let parks: u64 = responses.iter().map(|r| u64::from(r.preemptions)).sum();
        assert_eq!(lane.preempted, parks, "{task}");
        assert_eq!(lane.resumed, parks, "{task}");
        let energy_j: f64 = responses.iter().map(|r| r.energy_j).sum();
        assert!(
            (lane.energy_j - energy_j).abs() <= 1e-9 * energy_j,
            "{task}: ledger {} vs responses {energy_j}",
            lane.energy_j
        );

        let h = &snapshot
            .lanes
            .iter()
            .find(|l| l.task == *task)
            .expect("lane recorded")
            .histograms;
        assert_eq!(h.queue_delay_s.count(), lane.served, "{task}");
        assert_eq!(h.sojourn_s.count(), lane.served, "{task}");
        assert_eq!(h.energy_per_request_j.count(), lane.served, "{task}");
        let layers: usize = responses.iter().map(|r| r.response.result.exit_layer).sum();
        assert_eq!(h.step_time_s.count(), layers as u64, "{task}");
    }
}

/// Telemetry is observation-only: the exact same submissions through a
/// telemetry-on server produce bit-identical engine responses to a
/// telemetry-off server.
#[test]
fn telemetry_is_bit_identity_neutral() {
    let rt = runtime();
    let off = ServerConfig {
        queue_aware_slack: false,
        ..ServerConfig::default()
    };
    let on = ServerConfig {
        telemetry: Some(TelemetryConfig::default()),
        ..off
    };
    let submissions: Vec<(Task, InferenceRequest)> = tokens_for(Task::Sst2, 3, 71)
        .into_iter()
        .map(|t| {
            (
                Task::Sst2,
                InferenceRequest::new(t).with_latency_target(40e-3),
            )
        })
        .chain(tokens_for(Task::Qnli, 3, 72).into_iter().map(|t| {
            (
                Task::Qnli,
                InferenceRequest::new(t).with_latency_target(80e-3),
            )
        }))
        .collect();
    let serve_all = |cfg: ServerConfig| {
        let server = Server::start(rt, cfg);
        let responses: Vec<_> = submissions
            .iter()
            .map(|(task, req)| {
                server
                    .submit(*task, req.clone())
                    .expect("admitted")
                    .wait()
                    .expect("served")
                    .response
            })
            .collect();
        server.shutdown();
        responses
    };
    assert_eq!(serve_all(off), serve_all(on));
}

#[test]
fn empty_histogram_reports_zeros() {
    let h = LogHistogram::new();
    assert!(h.is_empty());
    assert_eq!(h.count(), 0);
    assert_eq!(h.p50(), 0.0);
    assert_eq!(h.p99(), 0.0);
    assert_eq!(h.max_edge(), 0.0);
    assert_eq!(h.mean(), 0.0);
    assert_eq!(h.cumulative_nonzero().count(), 0);
}

#[test]
fn single_sample_histogram_brackets_it() {
    let mut h = LogHistogram::new();
    h.record(3.2e-3);
    assert_eq!(h.count(), 1);
    // Every quantile is the same bucket's upper edge, which bounds the
    // sample from above within one bucket width (10^(1/16) ≈ 1.155).
    let edge = h.p50();
    assert_eq!(edge, h.p95());
    assert_eq!(edge, h.p99());
    assert_eq!(edge, h.max_edge());
    assert!((3.2e-3..=3.2e-3 * 1.156).contains(&edge));
}

#[test]
fn disjoint_ranges_merge_exactly() {
    let mut low = LogHistogram::new();
    let mut high = LogHistogram::new();
    for i in 0..50 {
        low.record(1e-6 * (1.0 + i as f64 / 50.0)); // [1µs, 2µs)
        high.record(1.0 + i as f64 / 50.0); // [1s, 2s)
    }
    let mut merged = low;
    merged.merge(&high);
    assert_eq!(merged.count(), 100);
    // Median sits in the low range, p99 in the high range.
    assert!(
        merged.p50() < 1e-5,
        "p50 {} should be in the µs range",
        merged.p50()
    );
    assert!(
        merged.p99() > 0.5,
        "p99 {} should be in the seconds range",
        merged.p99()
    );
    assert_eq!(merged.sum(), low.sum() + high.sum());
}

#[test]
fn histogram_serde_round_trip_is_exact() {
    let mut h = LogHistogram::new();
    for &v in &[0.0, 1e-9, 4.2e-5, 0.37, 999.0, 1e7, -3.0] {
        h.record(v);
    }
    let json = serde::json::to_string(&h);
    let back: LogHistogram = serde::json::from_str(&json).expect("round trip");
    // Bit-exact: counts are integers and the sum travels as the same
    // f64 (the shim renders f64 with full round-trip precision).
    assert_eq!(h, back);
    assert_eq!(h.p99(), back.p99());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantiles are monotone in `q` and bound every recorded sample.
    #[test]
    fn quantiles_are_monotone_and_bound_samples(
        values in prop::collection::vec(1e-8f64..5e2, 1..200),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let mut h = LogHistogram::new();
        let mut max_v = 0.0f64;
        for &v in &values {
            h.record(v);
            max_v = max_v.max(v);
        }
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(h.quantile(lo) <= h.quantile(hi),
            "quantile({lo}) > quantile({hi})");
        prop_assert!(h.max_edge() >= max_v * 0.999,
            "max edge {} below largest sample {max_v}", h.max_edge());
        prop_assert_eq!(h.count(), values.len() as u64);
    }

    /// Merging preserves counts and keeps quantiles within the merged
    /// supports' bounds.
    #[test]
    fn merge_preserves_counts(
        a in prop::collection::vec(1e-8f64..5e2, 0..100),
        b in prop::collection::vec(1e-8f64..5e2, 0..100),
    ) {
        let mut ha = LogHistogram::new();
        let mut hb = LogHistogram::new();
        for &v in &a { ha.record(v); }
        for &v in &b { hb.record(v); }
        let mut merged = ha;
        merged.merge(&hb);
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
        prop_assert!(merged.max_edge() >= ha.max_edge().max(hb.max_edge()) * 0.999);
    }
}
