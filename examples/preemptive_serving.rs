//! Wall-clock preemptive serving: resumable sessions vs
//! run-to-completion lanes at equal offered load.
//!
//! One strict-threshold SST-2 lane (one shard, EDF, queue-aware slack,
//! service-time emulation) carries two interleaved streams: *long*
//! sentences whose loose deadlines stretch DVFS across the whole
//! budget, and *tight* sentences that always arrive just after a long
//! sentence dispatched — the head-of-line worst case the ROADMAP's
//! "Preemption / checkpointing" item describes. Non-preemptive, every
//! tight sentence waits out the entire stretched service and misses.
//! With `PreemptionPolicy::DeadlineGap(0.0)`, the long session parks at
//! the next layer boundary, the tight sentence overtakes and lands
//! inside its deadline, and the resumed long sentence re-decides V/F
//! against its remaining slack — tight-class p99 and violation rate
//! must strictly improve, and the preempted/resumed/parked-depth
//! counters show the machinery working.
//!
//! ```text
//! cargo run --release --example preemptive_serving
//! ```
//!
//! The CI `smoke` matrix runs this binary, which additionally pins the
//! preemptive tight-class violation rate under
//! `MAX_TIGHT_VIOLATION_PCT` (30 %).

use edgebert::engine::{EntropyThresholds, InferenceRequest};
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::server::{PreemptionPolicy, ServerConfig};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert_bench::load::{
    all_served, class_reports, drain_load_wall_clock, render_comparison_labeled,
    render_server_stats, LoadRequest, TrafficClass,
};
use edgebert_tasks::{Task, TaskGenerator};

/// Ceiling on the preemptive tight-class violation rate, percent; the
/// margin absorbs shared-runner sleep jitter.
const MAX_TIGHT_VIOLATION_PCT: f64 = 30.0;

/// Interleaved long/tight pairs on one lane: pair `k`'s long sentence
/// arrives at `k·period`, its tight sentence `tight_offset_s` later —
/// early enough in the long sentence's stretched service that
/// head-of-line blocking is maximal without preemption.
fn paired_load(
    runtime: &MultiTaskRuntime,
    classes: &[TrafficClass],
    pairs: usize,
    period_s: f64,
    tight_offset_s: f64,
    seed: u64,
) -> Vec<LoadRequest> {
    let rt = runtime.runtime(Task::Sst2).expect("served");
    let gen = TaskGenerator::standard(Task::Sst2, rt.model().config.max_seq_len);
    let toks: Vec<Vec<u32>> = gen
        .generate(pairs.max(1), seed)
        .examples()
        .iter()
        .map(|ex| ex.tokens.clone())
        .collect();
    let mut load = Vec::with_capacity(pairs * 2);
    for (k, tokens) in toks.iter().take(pairs).enumerate() {
        for (class, offset_s) in [(0usize, 0.0), (1usize, tight_offset_s)] {
            load.push(LoadRequest {
                task: Task::Sst2,
                request: InferenceRequest::new(tokens.clone())
                    .with_latency_target(classes[class].latency_target_s),
                arrival_s: k as f64 * period_s + offset_s,
                class,
            });
        }
    }
    load
}

fn main() {
    // Strict thresholds: no early exits, the forecast is always full
    // depth, so every long sentence has the maximum number of layer
    // boundaries (preemption points). Artifacts come from the disk
    // cache, so repeat runs skip training.
    let art = TaskArtifacts::cached(Task::Sst2, Scale::Test, 0x9EE0);
    let runtime = MultiTaskRuntime::from_runtimes([TaskRuntime::from_builder(
        Task::Sst2,
        art.engine_builder()
            .uniform_thresholds(EntropyThresholds::uniform(0.0))
            .workload(art.hardware_workload(true)),
    )]);
    let floor_s = runtime
        .runtime(Task::Sst2)
        .expect("served")
        .engine()
        .nominal_service_estimate_s();
    // Long sentences stretch to 12× the nominal service estimate;
    // tight deadlines sit at 7× — far above one stretched layer step
    // plus their own compute (preemption always saves them), far below
    // the full stretched service (blocking always kills them).
    let classes = vec![
        TrafficClass {
            name: "long",
            latency_target_s: 12.0 * floor_s,
            weight: 0.5,
            task: Some(Task::Sst2),
        },
        TrafficClass {
            name: "tight",
            latency_target_s: 7.0 * floor_s,
            weight: 0.5,
            task: Some(Task::Sst2),
        },
    ];
    let period_s = 16.0 * floor_s;
    let pairs = 16;
    let load = paired_load(&runtime, &classes, pairs, period_s, 1.5 * floor_s, 0x9EE1);
    println!(
        "nominal service estimate {:.2} ms; {} long/tight pairs every {:.2} ms \
         (~{:.0}% offered utilization)\n",
        floor_s * 1e3,
        pairs,
        period_s * 1e3,
        (12.0 + 1.0) / 16.0 * 100.0,
    );

    let cfg = |preemption| ServerConfig {
        queue_capacity: load.len(),
        emulate_service_time: true,
        preemption,
        ..ServerConfig::default()
    };
    let (off, off_stats, _) = drain_load_wall_clock(&runtime, &load, cfg(PreemptionPolicy::Off));
    let (on, on_stats, _) =
        drain_load_wall_clock(&runtime, &load, cfg(PreemptionPolicy::DeadlineGap(0.0)));
    let off_rows = class_reports(&load, &all_served(off), &classes);
    let on_rows = class_reports(&load, &all_served(on), &classes);
    println!(
        "{}",
        render_comparison_labeled("off", &off_rows, "preempt", &on_rows)
    );
    println!("non-preemptive lanes:\n{}", render_server_stats(&off_stats));
    println!("preemptive lanes:\n{}", render_server_stats(&on_stats));

    // Acceptance: preemption strictly improves the tight class at
    // equal offered load, and the counters prove sessions really
    // parked and resumed.
    let (tight_off, tight_on) = (&off_rows[1].1, &on_rows[1].1);
    assert!(
        tight_on.p99_ms < tight_off.p99_ms,
        "tight p99 {:.2} ms (preempt) vs {:.2} ms (off)",
        tight_on.p99_ms,
        tight_off.p99_ms,
    );
    assert!(
        tight_on.violation_rate < tight_off.violation_rate,
        "tight violations {:.1}% (preempt) vs {:.1}% (off)",
        tight_on.violation_rate * 100.0,
        tight_off.violation_rate * 100.0,
    );
    assert_eq!(off_stats.preempted(), 0);
    assert!(on_stats.preempted() > 0, "sessions must actually park");
    assert_eq!(on_stats.resumed(), on_stats.preempted());
    assert!(on_stats.max_parked_depth() >= 1);
    assert!(
        tight_on.violation_rate * 100.0 <= MAX_TIGHT_VIOLATION_PCT,
        "preemptive tight-class violation rate {:.1}% exceeds the pinned threshold {:.1}%",
        tight_on.violation_rate * 100.0,
        MAX_TIGHT_VIOLATION_PCT,
    );
}
