//! The telemetry subsystem under real wall-clock load: the
//! `server_serving` traffic shape (two frame-paced lanes at ~83 % of
//! each lane's floor service rate) served by a queue-aware server with
//! [`ServerConfig::telemetry`] enabled.
//!
//! The run demonstrates — and the CI `telemetry-smoke` job gates on —
//! the observability acceptance contract:
//!
//! * every served request leaves a **well-formed span chain** in the
//!   trace ring (`Admitted → Popped → SegmentStart … → Completed`,
//!   monotone timestamps), dumped as JSONL;
//! * the per-lane **log-bucketed histograms** (queue delay, sojourn,
//!   step time, energy) are non-empty and render to Prometheus text;
//! * telemetry is **observation-only**: the serving quality gate from
//!   `server_serving` still holds with the subsystem on
//!   (`EDGEBERT_TELEMETRY_MAX_TIGHT_VIOLATION_PCT`, default 20 %).
//!
//! ```text
//! cargo run --release --example telemetry_serving
//! ```

use edgebert::engine::EntropyThresholds;
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::server::{Server, ServerConfig};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert::telemetry::{
    render_prometheus, render_trace_jsonl, span_chains, validate_span_chain, TelemetryConfig,
};
use edgebert_bench::load::{
    class_reports, estimate_service_s, generate_paced_streams, offered_utilization,
    render_server_stats, TailReport, TrafficClass,
};
use edgebert_tasks::Task;
use std::time::{Duration, Instant};

fn main() {
    println!("== EdgeBERT telemetry: trace spans + histograms under wall-clock load ==\n");
    println!(
        "loading two task runtimes (test scale; artifact cache: {})...",
        TaskArtifacts::artifact_dir().display()
    );
    let runtime = MultiTaskRuntime::from_runtimes([Task::Sst2, Task::Qnli].map(|task| {
        let art = TaskArtifacts::cached(task, Scale::Test, 0x5CED + task as u64);
        TaskRuntime::from_builder(
            task,
            art.engine_builder()
                .uniform_thresholds(EntropyThresholds::uniform(0.0))
                .workload(art.hardware_workload(true)),
        )
    }));

    let service_s = estimate_service_s(&runtime, 0x5EF0);
    let lane_interarrival_s = service_s * 1.2;
    let classes = vec![
        TrafficClass {
            name: "tight",
            latency_target_s: service_s * 3.0,
            weight: 0.5,
            task: Some(Task::Sst2),
        },
        TrafficClass {
            name: "relaxed",
            latency_target_s: service_s * 6.0,
            weight: 0.5,
            task: Some(Task::Qnli),
        },
    ];
    let requests_per_class = 60;
    let load = generate_paced_streams(
        &runtime,
        &classes,
        lane_interarrival_s,
        requests_per_class,
        0x5EF0,
    );
    let utilization = offered_utilization(service_s, lane_interarrival_s, 1, 1);
    println!(
        "generated {} requests over {:?}; floor service {:.2} ms, \
         per-lane inter-arrival {:.2} ms, per-lane offered utilization {:.0}%\n",
        load.len(),
        runtime.tasks(),
        service_s * 1e3,
        lane_interarrival_s * 1e3,
        utilization * 100.0,
    );

    let cfg = ServerConfig {
        shards_per_task: 1,
        queue_capacity: load.len(),
        queue_aware_slack: true,
        slack_floor_s: 1e-3,
        emulate_service_time: true,
        telemetry: Some(TelemetryConfig::default()),
        ..ServerConfig::default()
    };
    println!("draining queue-aware with telemetry on...\n");
    let server = Server::start(&runtime, cfg);
    let epoch = Instant::now();
    let mut handles = Vec::with_capacity(load.len());
    for r in &load {
        let due = epoch + Duration::from_secs_f64(r.arrival_s);
        if let Some(gap) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(gap);
        }
        handles.push(
            server
                .submit(r.task, r.request.clone())
                .expect("lane capacity covers the generated load"),
        );
    }
    let mut served_ids = Vec::with_capacity(handles.len());
    let mut responses = Vec::with_capacity(handles.len());
    for h in handles {
        served_ids.push((h.task(), h.submission()));
        responses.push(h.wait().expect("shard workers outlive the drain"));
    }
    let (stats, snapshot) = server.shutdown_with_telemetry();
    let snapshot = snapshot.expect("telemetry was enabled");

    // --- Span chains: one well-formed chain per served request.
    let chains = span_chains(&snapshot.events);
    let mut validated = 0usize;
    for &(task, id) in &served_ids {
        let (_, chain) = chains
            .iter()
            .find(|((t, r), _)| *t == task && *r == id)
            .unwrap_or_else(|| panic!("no span chain for {task} #{id}"));
        validate_span_chain(chain)
            .unwrap_or_else(|e| panic!("malformed span chain for {task} #{id}: {e}"));
        validated += 1;
    }
    println!(
        "trace: {} events ({} dropped), {} span chains, {} validated end-to-end",
        snapshot.events.len(),
        snapshot.dropped_events,
        chains.len(),
        validated,
    );
    let jsonl = render_trace_jsonl(&snapshot.events);
    assert_eq!(jsonl.lines().count(), snapshot.events.len());
    println!(
        "\nJSONL trace excerpt (first 4 of {} lines):",
        snapshot.events.len()
    );
    for line in jsonl.lines().take(4) {
        println!("  {line}");
    }

    // --- Histograms: non-empty distributions on every lane.
    for lane in &snapshot.lanes {
        assert!(
            lane.histograms.queue_delay_s.count() > 0,
            "{}: queue-delay histogram must be non-empty",
            lane.task
        );
        assert!(
            lane.histograms.energy_per_request_j.count() > 0,
            "{}: energy histogram must be non-empty",
            lane.task
        );
    }
    let prom = render_prometheus(&snapshot);
    assert!(prom.contains("edgebert_queue_delay_seconds_bucket"));
    assert!(prom.contains("edgebert_energy_joules_bucket"));
    println!("\nPrometheus excerpt:");
    for line in prom
        .lines()
        .filter(|l| l.contains("edgebert_queue_delay_seconds"))
        .take(6)
    {
        println!("  {line}");
    }
    println!(
        "\nlane time-series: {} samples ({} dropped)",
        snapshot.samples.len(),
        snapshot.dropped_samples
    );

    // --- Stats snapshot with the histogram quantile section.
    println!("\n{}", render_server_stats(&stats));

    // --- Serving quality gate: telemetry must not cost the tight
    // class its deadline performance (same shape as `server-smoke`,
    // judged from the exact histogram quantiles).
    let rows = class_reports(&load, &responses, &classes);
    let tight = &rows[0].1;
    let tight_lane = stats.lane(Task::Sst2).expect("SST-2 lane served");
    let hist_report = TailReport::from_sojourn_histogram(
        &tight_lane.histograms.expect("telemetry on").sojourn_s,
        tight_lane.violations,
    );
    println!(
        "tight-class p99 sojourn: {:.2} ms (sampled) / {:.2} ms (histogram edge); \
         violations {:.1}%",
        tight.p99_ms,
        hist_report.p99_ms,
        tight.violation_rate * 100.0,
    );
    // The histogram quantile is an upper bound within one bucket width
    // (~15.5%) of the sampled percentile over the same lane.
    assert!(
        hist_report.p99_ms >= tight.p99_ms * 0.80,
        "histogram p99 {:.2} ms implausibly below sampled p99 {:.2} ms",
        hist_report.p99_ms,
        tight.p99_ms,
    );
    let max_tight_violation_pct: f64 = std::env::var("EDGEBERT_TELEMETRY_MAX_TIGHT_VIOLATION_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20.0);
    assert!(
        tight.violation_rate * 100.0 <= max_tight_violation_pct,
        "tight-class violation rate {:.1}% exceeds the pinned smoke threshold {:.1}%",
        tight.violation_rate * 100.0,
        max_tight_violation_pct,
    );
    println!(
        "\n(smoke gate: tight violations {:.1}% <= {:.1}% threshold, telemetry on)",
        tight.violation_rate * 100.0,
        max_tight_violation_pct
    );
}
