//! Flash-crowd overload: the admission ladder's
//! accuracy-for-survival trade against a ladder-off baseline.
//!
//! One SST-2 lane (one shard, EDF, service-time emulation) rides a
//! [`TraceSpec::flash_crowd`] arrival trace whose spike plateau offers
//! ~3× the lane's nominal capacity. The engine's accuracy tiers are
//! deliberately spread — the default tier runs full depth while the
//! most aggressive tier exits at the first layer — so a two-notch
//! degradation really buys throughput, the way EdgeBERT's
//! entropy-threshold ladder trades accuracy for latency headroom.
//!
//! Ladder off, the spike backlog snowballs and the tight class drowns:
//! its violation rate exceeds 50%. Ladder on (requests opt in with
//! `max_degradation = 2`), the lane degrades under pressure, sheds only
//! what is already infeasible, and recovers after the spike — the
//! tight-class violation rate must drop at least 2×, with the shed
//! fraction capped. The CI `smoke` matrix runs this binary; both
//! ceilings are `MAX_TIGHT_VIOLATION_PCT` and `MAX_SHED_PCT` (50 %
//! each).
//!
//! ```text
//! cargo run --release --example overload_control
//! ```

use edgebert::engine::{DropTarget, EntropyThresholds};
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::server::ServerConfig;
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert::OverloadConfig;
use edgebert_bench::load::{
    class_reports_outcomes, drain_load_wall_clock, generate_trace, render_comparison_labeled,
    render_server_stats, LoadRequest, TraceSpec, TrafficClass,
};
use edgebert_tasks::Task;

/// Ceiling on the ladder-on tight-class violation rate, percent: below
/// the 2×-cut bound, with room for shared-runner sleep jitter.
const MAX_TIGHT_VIOLATION_PCT: f64 = 50.0;
/// Ceiling on the share of the trace the ladder may shed, percent:
/// survival must not come from quietly refusing the whole crowd.
const MAX_SHED_PCT: f64 = 50.0;

/// The lane under test: full-depth default tier, first-layer-exit
/// aggressive tier, so ladder degradation has real throughput to buy.
fn runtime() -> MultiTaskRuntime {
    let art = TaskArtifacts::cached(Task::Sst2, Scale::Test, 0x0AD0);
    MultiTaskRuntime::from_runtimes([TaskRuntime::from_builder(
        Task::Sst2,
        art.engine_builder()
            .thresholds_for(DropTarget::OnePercent, EntropyThresholds::uniform(0.0))
            .thresholds_for(DropTarget::TwoPercent, EntropyThresholds::uniform(0.15))
            .thresholds_for(DropTarget::FivePercent, EntropyThresholds::uniform(100.0))
            .workload(art.hardware_workload(true)),
    )])
}

/// A flash-crowd trace scaled to the lane's floor service time, every
/// request opting into up to two degradation notches.
fn flash_crowd_load(
    runtime: &MultiTaskRuntime,
    classes: &[TrafficClass],
    floor_s: f64,
) -> Vec<LoadRequest> {
    let spec = TraceSpec::flash_crowd(
        classes.to_vec(),
        0x0AD1,
        0.5 / floor_s,  // base: half the nominal capacity
        3.0 / floor_s,  // spike: 3× the nominal capacity
        24.0 * floor_s, // calm head
        40.0 * floor_s, // the crowd
        40.0 * floor_s, // recovery tail
    );
    let mut load = generate_trace(runtime, &spec);
    for r in &mut load {
        r.request = r.request.clone().with_max_degradation(2);
    }
    load
}

fn main() {
    let runtime = runtime();
    let floor_s = runtime
        .runtime(Task::Sst2)
        .expect("served")
        .engine()
        .nominal_service_estimate_s();
    // Tight deadlines sit just above one nominal service; relaxed ones
    // carry room for queueing. Declared ascending by target (canonical
    // order), tight first so row indexing below is stable.
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
    let load = flash_crowd_load(&runtime, &classes, floor_s);
    println!(
        "nominal service estimate {:.2} ms; flash crowd of {} requests \
         (spike offers 3x nominal capacity)\n",
        floor_s * 1e3,
        load.len(),
    );

    let cfg = |overload: Option<OverloadConfig>| ServerConfig {
        queue_capacity: load.len(),
        emulate_service_time: true,
        overload,
        ..ServerConfig::default()
    };
    let ladder = Some(OverloadConfig::default());
    let (base_out, base_stats, _) = drain_load_wall_clock(&runtime, &load, cfg(None));
    let (ladder_out, ladder_stats, _) = drain_load_wall_clock(&runtime, &load, cfg(ladder));
    let base_rows = class_reports_outcomes(&load, &base_out, &classes);
    let ladder_rows = class_reports_outcomes(&load, &ladder_out, &classes);
    println!(
        "{}",
        render_comparison_labeled("off", &base_rows, "ladder", &ladder_rows)
    );
    println!("ladder-off lanes:\n{}", render_server_stats(&base_stats));
    println!("ladder-on lanes:\n{}", render_server_stats(&ladder_stats));

    // The ladder-off baseline must never shed or degrade — bit-identity
    // with the pre-overload server is the whole point of the default.
    assert_eq!(base_stats.shed(), 0);
    assert_eq!(base_stats.degraded(), 0);
    assert_eq!(base_stats.ladder_step_changes(), 0);

    // The scenario premise: ladder off, the flash crowd drowns the
    // tight class.
    let (tight_base, tight_ladder) = (&base_rows[0].1, &ladder_rows[0].1);
    assert!(
        tight_base.violation_rate > 0.5,
        "the baseline flash crowd must overload the tight class (got {:.1}%)",
        tight_base.violation_rate * 100.0,
    );

    // Acceptance: the ladder cuts tight-class violations at least 2×
    // and actually exercises its rungs both ways (the recovery tail is
    // long enough to step back down).
    assert!(
        tight_ladder.violation_rate * 2.0 <= tight_base.violation_rate,
        "ladder must cut tight violations >=2x: {:.1}% vs {:.1}%",
        tight_ladder.violation_rate * 100.0,
        tight_base.violation_rate * 100.0,
    );
    assert!(
        ladder_stats.degraded() > 0,
        "the crowd must push the lane into degraded service"
    );
    assert!(ladder_stats.ladder_step_changes() >= 2);

    // Pinned ceilings: tight-class violations with the ladder on, and
    // the total shed fraction.
    assert!(
        tight_ladder.violation_rate * 100.0 <= MAX_TIGHT_VIOLATION_PCT,
        "ladder tight-class violation rate {:.1}% exceeds the pinned threshold {:.1}%",
        tight_ladder.violation_rate * 100.0,
        MAX_TIGHT_VIOLATION_PCT,
    );
    let shed_pct = ladder_stats.shed() as f64 / load.len() as f64 * 100.0;
    assert!(
        shed_pct <= MAX_SHED_PCT,
        "ladder shed {:.1}% of the trace, exceeding the pinned threshold {:.1}%",
        shed_pct,
        MAX_SHED_PCT,
    );
}
