//! Wall-clock serving with queue-aware DVFS slack: the `edgebert::server`
//! subsystem under real concurrent load.
//!
//! Everything before this example ran on a virtual timeline. Here two
//! task runtimes are served by a real [`Server`] — per-task engine
//! shards on worker threads, bounded EDF lanes, service-time emulation
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
//! ```text
//! cargo run --release --example server_serving
//! ```
//!
//! The CI `server-smoke` job runs this binary: it exits non-zero if
//! the queue-aware server fails to beat the slack-blind baseline on
//! the tight class, or if the tight-class violation rate exceeds the
//! pinned threshold (`EDGEBERT_SMOKE_MAX_TIGHT_VIOLATION_PCT`,
//! default 20 %).

use edgebert::engine::EntropyThresholds;
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::server::ServerConfig;
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert_bench::load::{
    class_reports, drain_load_wall_clock, estimate_service_s, generate_paced_streams,
    offered_utilization, render_comparison_labeled, TrafficClass,
};
use edgebert_tasks::Task;

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

    let cfg = |queue_aware_slack| ServerConfig {
        shards_per_task: 1,
        queue_capacity: load.len(),
        queue_aware_slack,
        slack_floor_s: 1e-3,
        emulate_service_time: true,
        ..ServerConfig::default()
    };
    println!("draining slack-blind (DVFS budgets ignore queueing delay)...");
    let blind = drain_load_wall_clock(&runtime, &load, cfg(false));
    println!("draining queue-aware (DVFS budgets see remaining slack)...\n");
    let aware = drain_load_wall_clock(&runtime, &load, cfg(true));

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

    // Smoke gates (the CI `server-smoke` job rides on these asserts).
    assert!(
        tight_aware.p99_ms < tight_blind.p99_ms,
        "queue-aware slack must strictly improve the tight class's p99 sojourn"
    );
    assert!(
        tight_aware.violation_rate < tight_blind.violation_rate,
        "queue-aware slack must strictly improve the tight class's violation rate"
    );
    let max_tight_violation_pct: f64 = std::env::var("EDGEBERT_SMOKE_MAX_TIGHT_VIOLATION_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20.0);
    assert!(
        tight_aware.violation_rate * 100.0 <= max_tight_violation_pct,
        "tight-class violation rate {:.1}% exceeds the pinned smoke threshold {:.1}%",
        tight_aware.violation_rate * 100.0,
        max_tight_violation_pct,
    );
    println!(
        "\n(smoke gate: tight violations {:.1}% <= {:.1}% threshold)",
        tight_aware.violation_rate * 100.0,
        max_tight_violation_pct
    );
}
