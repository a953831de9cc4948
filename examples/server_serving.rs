//! Wall-clock serving with queue-aware DVFS slack: the `edgebert::server`
//! subsystem under real concurrent load.
//!
//! Everything before this example ran on a virtual timeline. Here two
//! task runtimes are served by a real
//! [`Server`](edgebert::server::Server) — per-task engine shards on
//! worker threads, bounded EDF lanes, service-time emulation
//! holding each lane for the modeled hardware latency — and two
//! frame-paced request streams (a tight voice-assistant cadence on
//! SST-2, a relaxed translation cadence on QNLI) arrive in real time
//! at ~83 % of each lane's floor service rate. The load is the DVFS
//! worst case: strict thresholds, so no sentence exits at layer 1 and
//! every sentence asks the controller for an operating point.
//!
//! The comparison is the module's reason to exist. A **slack-blind**
//! server hands every sentence its full latency target as compute
//! budget, so DVFS stretches compute into a deadline that queueing
//! already half-spent: lanes stay busy longer, the backlog compounds,
//! and any queued sentence misses by construction. The **queue-aware**
//! server measures each job's real wait at pop time and hands the
//! engine the remaining slack — queued sentences speed up, lanes free
//! sooner, and the tight class's p99 sojourn and violation rate
//! collapse.
//!
//! The queue-aware pass runs with [`ServerConfig::telemetry`] on.
//! Telemetry is observation-only by contract, so the pass is held to
//! the same tight-class bound, and what it recorded is checked too:
//! every served request leaves a **well-formed span chain** in the
//! trace ring (`Admitted → Popped → SegmentStart … → Completed`,
//! monotone timestamps, dumped as JSONL), and the snapshot's per-lane
//! **log-bucketed histograms** (queue delay, sojourn, step time,
//! energy) are non-empty, print as a quantile table and render to
//! Prometheus text.
//!
//! ```text
//! cargo run --release --example server_serving
//! ```
//!
//! The CI `smoke` matrix runs this binary: it exits non-zero if the
//! queue-aware server fails to beat the slack-blind baseline on the
//! tight class, if the tight-class violation rate exceeds
//! `MAX_TIGHT_VIOLATION_PCT` (30 %), or if any span chain is malformed.

use edgebert::engine::EntropyThresholds;
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::server::ServerConfig;
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert::telemetry::{
    render_prometheus, render_trace_jsonl, span_chains, validate_span_chain, LogHistogram,
    TelemetryConfig,
};
use edgebert_bench::load::{
    all_served, class_reports, drain_load_wall_clock, estimate_service_s, generate_paced_streams,
    offered_utilization, render_comparison_labeled, render_server_stats, TailReport, TrafficClass,
};
use edgebert_tasks::Task;

/// Ceiling on the queue-aware (telemetry-on) tight-class violation
/// rate, percent; the margin absorbs shared-runner sleep jitter.
const MAX_TIGHT_VIOLATION_PCT: f64 = 30.0;

fn main() {
    println!("== EdgeBERT wall-clock serving: queue-aware vs slack-blind DVFS ==\n");
    println!(
        "loading two task runtimes (test scale; artifact cache: {})...",
        TaskArtifacts::artifact_dir().display()
    );
    // Strict thresholds: every sentence runs to its forecast depth and
    // engages DVFS — the regime where the compute budget matters most.
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
    // Each class is bound to its application's task — the paper's
    // deployment: the voice assistant *is* SST-2 traffic, the
    // translator QNLI — so each lane rides its own deadline tier, on
    // its own fixed cadence (the frame-paced edge-pipeline shape).
    // Per-lane offered utilization of the floor service rate: ~83 %.
    //
    // The arithmetic of the comparison: a slack-blind sentence
    // *always* computes for its full target (3 × or 6 × the floor) —
    // several times the lane's 1.2 × floor arrival gap — so the
    // backlog compounds without bound and every queued sentence misses
    // by construction. A queue-aware sentence computes for
    // `target − wait`: the lane settles where service equals the
    // arrival gap, and every feasible sentence lands exactly on its
    // deadline.
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
    assert!(
        utilization >= 0.8,
        "the comparison is only meaningful under load"
    );

    let cfg = |queue_aware_slack: bool| ServerConfig {
        shards_per_task: 1,
        queue_capacity: load.len(),
        queue_aware_slack,
        slack_floor_s: 1e-3,
        emulate_service_time: true,
        telemetry: queue_aware_slack.then(TelemetryConfig::default),
        ..ServerConfig::default()
    };
    println!("draining slack-blind (DVFS budgets ignore queueing delay)...");
    let (blind, _, _) = drain_load_wall_clock(&runtime, &load, cfg(false));
    println!("draining queue-aware (DVFS budgets see remaining slack), telemetry on...\n");
    let (aware, stats, snapshot) = drain_load_wall_clock(&runtime, &load, cfg(true));
    let (blind, aware) = (all_served(blind), all_served(aware));
    let snapshot = snapshot.expect("telemetry was enabled");

    let blind_rows = class_reports(&load, &blind, &classes);
    let aware_rows = class_reports(&load, &aware, &classes);
    println!(
        "{}",
        render_comparison_labeled("blind", &blind_rows, "aware", &aware_rows)
    );

    let (tight_blind, tight_aware) = (&blind_rows[0].1, &aware_rows[0].1);
    println!(
        "tight-class p99 sojourn: {:.2} ms (blind) -> {:.2} ms (aware); \
         violations {:.1}% -> {:.1}%",
        tight_blind.p99_ms,
        tight_aware.p99_ms,
        tight_blind.violation_rate * 100.0,
        tight_aware.violation_rate * 100.0,
    );

    // Smoke gates (the CI `smoke` matrix rides on these asserts).
    assert!(
        tight_aware.p99_ms < tight_blind.p99_ms,
        "queue-aware slack must strictly improve the tight class's p99 sojourn"
    );
    assert!(
        tight_aware.violation_rate < tight_blind.violation_rate,
        "queue-aware slack must strictly improve the tight class's violation rate"
    );
    assert!(
        tight_aware.violation_rate * 100.0 <= MAX_TIGHT_VIOLATION_PCT,
        "tight-class violation rate {:.1}% exceeds the pinned smoke threshold {:.1}%",
        tight_aware.violation_rate * 100.0,
        MAX_TIGHT_VIOLATION_PCT,
    );
    println!(
        "\n(smoke gate: tight violations {:.1}% <= {:.1}% threshold, telemetry on)\n",
        tight_aware.violation_rate * 100.0,
        MAX_TIGHT_VIOLATION_PCT
    );

    // --- Span chains: one well-formed chain per served request.
    let chains = span_chains(&snapshot.events);
    for r in &aware {
        let (task, id) = (r.task, r.submission);
        let (_, chain) = chains
            .iter()
            .find(|(key, _)| *key == (task, id))
            .unwrap_or_else(|| panic!("no span chain for {task} #{id}"));
        validate_span_chain(chain)
            .unwrap_or_else(|e| panic!("malformed span chain for {task} #{id}: {e}"));
    }
    println!(
        "trace: {} events ({} dropped), {} span chains, {} validated end-to-end",
        snapshot.events.len(),
        snapshot.dropped_events,
        chains.len(),
        aware.len(),
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
    println!("\nlane gauges after the drain:");
    for line in prom.lines().filter(|l| l.starts_with("edgebert_lane_")) {
        println!("  {line}");
    }

    // --- Lane counters, then the snapshot's histogram quantiles.
    println!("\n{}", render_server_stats(&stats));
    println!(
        "{:<8} {:<12} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "lane", "metric", "n", "p50", "p95", "p99", "max"
    );
    for lane in &snapshot.lanes {
        let h = &lane.histograms;
        let rows: [(&str, &LogHistogram, f64); 4] = [
            ("queue_ms", &h.queue_delay_s, 1e3),
            ("sojourn_ms", &h.sojourn_s, 1e3),
            ("step_ms", &h.step_time_s, 1e3),
            ("energy_uJ", &h.energy_per_request_j, 1e6),
        ];
        for (metric, hist, scale) in rows {
            println!(
                "{:<8} {:<12} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                lane.task.to_string(),
                metric,
                hist.count(),
                hist.p50() * scale,
                hist.p95() * scale,
                hist.p99() * scale,
                hist.max_edge() * scale,
            );
        }
    }

    // The histogram quantile is an upper bound within one bucket width
    // (~15.5%) of the sampled percentile over the same lane.
    let tight_lane = stats.lane(Task::Sst2).expect("SST-2 lane served");
    let tight_hist = snapshot
        .lanes
        .iter()
        .find(|lane| lane.task == Task::Sst2)
        .expect("SST-2 lane recorded");
    let hist_report =
        TailReport::from_sojourn_histogram(&tight_hist.histograms.sojourn_s, tight_lane.violations);
    println!(
        "tight-class p99 sojourn: {:.2} ms (sampled) / {:.2} ms (histogram edge)",
        tight_aware.p99_ms, hist_report.p99_ms,
    );
    assert!(
        hist_report.p99_ms >= tight_aware.p99_ms * 0.80,
        "histogram p99 {:.2} ms implausibly below sampled p99 {:.2} ms",
        hist_report.p99_ms,
        tight_aware.p99_ms,
    );
}
