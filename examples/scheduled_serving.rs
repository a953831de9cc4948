//! Slack-aware scheduling: tight deadlines stop queueing behind
//! relaxed ones.
//!
//! Builds two task runtimes, generates a mixed-deadline arrival
//! process (a tight voice-assistant class interleaved with relaxed
//! translation traffic, arriving near one accelerator lane's
//! capacity), and drains it twice through the
//! [`DeadlineScheduler`](edgebert::scheduler::DeadlineScheduler): once
//! FIFO (the old `serve_batch` order) and once earliest-deadline-first.
//! The per-class tail report shows the point of the scheduler — under
//! FIFO the tight class eats head-of-line blocking delay behind
//! relaxed sentences that could afford to wait; under EDF it overtakes
//! them, and its p99 sojourn and violation rate drop while the relaxed
//! class stays comfortably inside its budget.
//!
//! ```text
//! cargo run --release --example scheduled_serving
//! ```

use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::scheduler::{SchedulePolicy, SchedulerConfig};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert_bench::load::{
    class_reports, drain_load, estimate_service_s, generate, render_comparison, LoadSpec,
    TrafficClass,
};
use edgebert_tasks::Task;

fn main() {
    println!("== EdgeBERT scheduled serving: EDF vs FIFO ==\n");
    println!("training two tasks (test scale)...");
    let runtime = MultiTaskRuntime::from_runtimes([
        TaskRuntime::from_artifacts(&TaskArtifacts::build(Task::Sst2, Scale::Test, 0x5CED)),
        TaskRuntime::from_artifacts(&TaskArtifacts::build(Task::Qnli, Scale::Test, 0x5CEE)),
    ]);

    let service_s = estimate_service_s(&runtime, 0x5CED);
    let spec = LoadSpec {
        requests: 160,
        // Near-capacity lane (~87 % utilization): bursts form queues,
        // and the policy decides who absorbs the delay.
        mean_interarrival_s: service_s * 1.15,
        classes: vec![
            TrafficClass {
                name: "tight",
                latency_target_s: service_s * 3.0,
                weight: 0.35,
                task: None,
            },
            TrafficClass {
                name: "relaxed",
                latency_target_s: service_s * 25.0,
                weight: 0.65,
                task: None,
            },
        ],
        seed: 0x5CED,
    };
    let load = generate(&runtime, &spec);
    println!(
        "generated {} requests over {:?}; mean service {:.2} ms, mean inter-arrival {:.2} ms\n",
        load.len(),
        runtime.tasks(),
        service_s * 1e3,
        spec.mean_interarrival_s * 1e3,
    );

    let cfg = |policy| SchedulerConfig {
        workers: 1,
        max_batch: 8,
        policy,
        task_switch_s: 0.0,
        queue_aware_slack: false,
    };
    let fifo = drain_load(&runtime, &load, cfg(SchedulePolicy::Fifo));
    let edf = drain_load(&runtime, &load, cfg(SchedulePolicy::EarliestDeadline));

    // Same requests, same engines: what each sentence computed is
    // bit-identical across policies; only when it ran differs.
    for (a, b) in fifo.iter().zip(&edf) {
        assert_eq!(a.response, b.response);
    }

    let fifo_rows = class_reports(&load, &fifo, &spec.classes);
    let edf_rows = class_reports(&load, &edf, &spec.classes);
    println!("{}", render_comparison(&fifo_rows, &edf_rows));

    let (tight_fifo, tight_edf) = (&fifo_rows[0].1, &edf_rows[0].1);
    println!(
        "tight-class p99: {:.2} ms (FIFO) -> {:.2} ms (EDF); violations {:.1}% -> {:.1}%",
        tight_fifo.p99_ms,
        tight_edf.p99_ms,
        tight_fifo.violation_rate * 100.0,
        tight_edf.violation_rate * 100.0,
    );
    assert!(
        tight_edf.p99_ms <= tight_fifo.p99_ms
            && tight_edf.violation_rate <= tight_fifo.violation_rate,
        "EDF must not worsen the tight class"
    );
    println!("\n(per-request results are bit-identical across policies; only the timeline moves)");
}
