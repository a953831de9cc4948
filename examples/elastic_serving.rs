//! Skewed flash-crowd elasticity: work-stealing session
//! migration and autoscaling shard pools against a static-pool
//! baseline, at **equal total shards**.
//!
//! Three served tasks, one shard each (three shards total, both
//! configs). The flash crowd lands entirely on the SST-2 lane — its
//! spike plateau offers ~3× that single shard's nominal capacity while
//! the QNLI and MNLI lanes sit idle. Static pools leave two of three
//! shards parked next to a melting lane and the tight class drowns;
//! elastic pools let the idle shards steal the hot lane's parked
//! sessions and attach to it as extra drains, so the same silicon cuts
//! tight-class violations strictly.
//!
//! Both configs run preemptive EDF lanes with service-time emulation;
//! the only difference is [`ServerConfig::elastic`], `Some` vs `None`. The static
//! baseline must report zero stolen/migrated/pool-resize counters —
//! elasticity off is bit-identical to the pre-elastic server. The CI
//! `smoke` matrix runs this binary; the elastic tight-class violation
//! ceiling is `MAX_TIGHT_VIOLATION_PCT` (60 %).
//!
//! ```text
//! cargo run --release --example elastic_serving
//! ```

use edgebert::engine::{DropTarget, EntropyThresholds};
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::server::{ElasticConfig, PreemptionPolicy, ServerConfig};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert_bench::load::{
    class_reports_outcomes, drain_load_wall_clock, generate_trace, render_comparison_labeled,
    render_server_stats, LoadRequest, TraceSpec, TrafficClass,
};
use edgebert_tasks::Task;

/// Ceiling on the elastic tight-class violation rate, percent; the win
/// margin over the static baseline absorbs shared-runner sleep jitter.
const MAX_TIGHT_VIOLATION_PCT: f64 = 60.0;

/// Three lanes, one shard each: SST-2 takes the crowd, QNLI and MNLI
/// idle next to it. The hot lane's default tier runs full depth on the
/// true hardware workload (as in `overload_control`), so its emulated
/// service time really is ~the nominal floor and a 3× spike genuinely
/// melts one shard.
fn runtime() -> MultiTaskRuntime {
    let hot = TaskArtifacts::cached(Task::Sst2, Scale::Test, 0x0E1A);
    let mut runtimes = vec![TaskRuntime::from_builder(
        Task::Sst2,
        hot.engine_builder()
            .thresholds_for(DropTarget::OnePercent, EntropyThresholds::uniform(0.0))
            .workload(hot.hardware_workload(true)),
    )];
    for task in [Task::Qnli, Task::Mnli] {
        runtimes.push(TaskRuntime::from_artifacts(&TaskArtifacts::cached(
            task,
            Scale::Test,
            0x0E1A,
        )));
    }
    MultiTaskRuntime::from_runtimes(runtimes)
}

/// A flash-crowd trace aimed entirely at the SST-2 lane, scaled to its
/// floor service time.
fn skewed_flash_crowd(
    runtime: &MultiTaskRuntime,
    classes: &[TrafficClass],
    floor_s: f64,
) -> Vec<LoadRequest> {
    let spec = TraceSpec::flash_crowd(
        classes.to_vec(),
        0x0E1B,
        0.5 / floor_s,  // base: half the hot shard's capacity
        3.0 / floor_s,  // spike: 3× the hot shard's capacity
        24.0 * floor_s, // calm head
        40.0 * floor_s, // the crowd
        40.0 * floor_s, // recovery tail
    );
    generate_trace(runtime, &spec)
}

fn main() {
    let runtime = runtime();
    let floor_s = runtime
        .runtime(Task::Sst2)
        .expect("served")
        .engine()
        .nominal_service_estimate_s();
    let classes = vec![
        TrafficClass {
            name: "tight",
            latency_target_s: 2.5 * floor_s,
            weight: 0.5,
            task: Some(Task::Sst2),
        },
        TrafficClass {
            name: "relaxed",
            latency_target_s: 12.0 * floor_s,
            weight: 0.5,
            task: Some(Task::Sst2),
        },
    ];
    let load = skewed_flash_crowd(&runtime, &classes, floor_s);
    println!(
        "nominal service estimate {:.2} ms; skewed flash crowd of {} requests, \
         all on SST-2 (spike offers 3x one shard's capacity); \
         3 lanes x 1 shard = 3 total shards in both configs\n",
        floor_s * 1e3,
        load.len(),
    );

    // Identical preemptive lanes; elasticity is the only difference.
    let cfg = |elastic: Option<ElasticConfig>| ServerConfig {
        queue_capacity: load.len(),
        emulate_service_time: true,
        preemption: PreemptionPolicy::DeadlineGap(0.0),
        elastic,
        ..ServerConfig::default()
    };
    let elastic = Some(ElasticConfig::default());
    let (static_out, static_stats, _) = drain_load_wall_clock(&runtime, &load, cfg(None));
    let (elastic_out, elastic_stats, _) = drain_load_wall_clock(&runtime, &load, cfg(elastic));
    let static_rows = class_reports_outcomes(&load, &static_out, &classes);
    let elastic_rows = class_reports_outcomes(&load, &elastic_out, &classes);
    println!(
        "{}",
        render_comparison_labeled("static", &static_rows, "elastic", &elastic_rows)
    );
    println!("static lanes:\n{}", render_server_stats(&static_stats));
    println!("elastic lanes:\n{}", render_server_stats(&elastic_stats));

    // Elasticity off is the pre-elastic server, counter for counter.
    assert_eq!(static_stats.stolen(), 0, "static pools never steal");
    assert_eq!(static_stats.migrated(), 0, "static pools never migrate");
    assert_eq!(static_stats.pool_resizes(), 0, "static pools never resize");

    // The scenario premise: with static pools, two idle shards watch
    // the hot lane drown its tight class.
    let (tight_static, tight_elastic) = (&static_rows[0].1, &elastic_rows[0].1);
    assert!(
        tight_static.violation_rate > 0.5,
        "the skewed crowd must overload the static hot lane (got {:.1}%)",
        tight_static.violation_rate * 100.0,
    );

    // Acceptance: equal silicon, strictly fewer tight violations — and
    // the win must come from actual migration/autoscaling, not noise.
    assert!(
        tight_elastic.violation_rate < tight_static.violation_rate,
        "elastic pools must strictly cut tight violations: {:.1}% vs {:.1}%",
        tight_elastic.violation_rate * 100.0,
        tight_static.violation_rate * 100.0,
    );
    assert!(
        elastic_stats.stolen() >= 1,
        "idle shards must steal parked sessions from the hot lane"
    );
    assert_eq!(
        elastic_stats.stolen(),
        elastic_stats.migrated(),
        "every migration has exactly one thief"
    );
    assert!(
        elastic_stats.pool_resizes() >= 2,
        "the hot lane must grow and shrink its effective pool"
    );

    // Pinned ceiling on the elastic tight-class violation rate.
    assert!(
        tight_elastic.violation_rate * 100.0 <= MAX_TIGHT_VIOLATION_PCT,
        "elastic tight-class violation rate {:.1}% exceeds the pinned threshold {:.1}%",
        tight_elastic.violation_rate * 100.0,
        MAX_TIGHT_VIOLATION_PCT,
    );
}
