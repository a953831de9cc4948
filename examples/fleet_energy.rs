//! Fleet energy budgeting: sweep the fleet power cap and trace
//! the energy-per-request vs tail-latency trade-off curve, against an
//! unbudgeted baseline on the same trace.
//!
//! Three served tasks, one shard each; a flash crowd lands on the
//! SST-2 lane. The unbudgeted pass measures the fleet's natural draw
//! (served energy over the measured drain wall time); the sweep then
//! re-runs the trace under caps at fractions of that draw. A capped
//! server waterfills per-lane envelopes toward the pressured hot lane
//! (each envelope read from the lanes' current queue pressures when a
//! shard pops work), and every sentence's DVFS is clamped under its lane's
//! per-shard share — sentences whose deadlines need forbidden
//! operating points run at the fastest allowed one and their misses
//! surface honestly in the violation columns, never silently
//! re-priced.
//!
//! Acceptance (the CI `smoke` matrix runs this binary): at a cap of
//! 70% of the unconstrained draw, fleet energy per request must drop
//! by at least `MIN_SAVINGS_PCT` (20%) while the tight class's
//! violation rate stays under `MAX_TIGHT_VIOLATION_PCT` (75%); and
//! with elastic autoscaling on under a floor-tight cap, the hot lane
//! must decline at least one attach its envelope cannot fund
//! ([`LaneStats::attach_declined`]). Budgeting off must serve with
//! zero attach declines and no envelopes — the pre-energy server.
//!
//! ```text
//! cargo run --release --example fleet_energy
//! ```
//!
//! [`LaneStats::attach_declined`]: edgebert::server::LaneStats

use edgebert::clock::Clock;
use edgebert::energy::EnergyConfig;
use edgebert::engine::{DropTarget, EntropyThresholds};
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::server::{ElasticConfig, ServerConfig, ServerStats};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert_bench::load::{
    class_reports_outcomes, drain_load_wall_clock, generate_trace, render_comparison_labeled,
    render_server_stats, LoadOutcome, LoadRequest, TraceSpec, TrafficClass,
};
use edgebert_tasks::Task;

/// Floor on the energy-per-request saving a 70% cap must buy, percent.
const MIN_SAVINGS_PCT: f64 = 20.0;
/// Ceiling on the tight-class violation rate under the 70% cap,
/// percent; the margin absorbs shared-runner sleep jitter.
const MAX_TIGHT_VIOLATION_PCT: f64 = 75.0;

/// Three lanes, one shard each: SST-2 takes the crowd (full depth on
/// the true hardware workload, so its emulated service time is ~the
/// nominal floor), QNLI and MNLI idle next to it.
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

/// A flash-crowd trace aimed at the SST-2 lane, scaled to its floor
/// service time.
fn flash_crowd(
    runtime: &MultiTaskRuntime,
    classes: &[TrafficClass],
    floor_s: f64,
    spike_units: f64,
    seed: u64,
) -> Vec<LoadRequest> {
    let spec = TraceSpec::flash_crowd(
        classes.to_vec(),
        seed,
        // Base rate below the shard's capacity at the DVFS *floor*
        // point (0.4x nominal), so calm-period sentences can run at
        // the energy floor and still meet the tight deadline — the
        // unbudgeted baseline must not drown for the capped
        // violation ceiling to mean anything.
        0.3 / floor_s,         // base: under floor-point capacity
        2.0 / floor_s,         // spike: 2x the hot shard's nominal capacity
        20.0 * floor_s,        // calm head
        spike_units * floor_s, // the crowd
        60.0 * floor_s,        // recovery long enough to drain the backlog
    );
    generate_trace(runtime, &spec)
}

/// Drains the load and measures the wall time the drain took — the
/// denominator of the fleet's observed power draw.
fn drain_timed(
    runtime: &MultiTaskRuntime,
    load: &[LoadRequest],
    cfg: ServerConfig,
) -> (Vec<LoadOutcome>, ServerStats, f64) {
    let clock = Clock::start();
    let (outcomes, stats, _) = drain_load_wall_clock(runtime, load, cfg);
    (outcomes, stats, clock.now_s())
}

fn energy_per_request_j(stats: &ServerStats) -> f64 {
    stats.energy_j() / stats.served().max(1) as f64
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
            // 5x the nominal floor: comfortably above the DVFS floor
            // point's 2.5x stretch, so a calm-period sentence is
            // feasible even under a deep envelope clamp and the
            // violation ceiling measures queueing damage, not
            // built-in infeasibility.
            name: "tight",
            latency_target_s: 5.0 * floor_s,
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
    let load = flash_crowd(&runtime, &classes, floor_s, 3.0, 0x0E2B);
    println!(
        "nominal service estimate {:.2} ms; flash crowd of {} requests on SST-2 \
         (spike offers 2x one shard's capacity); 3 lanes x 1 shard\n",
        floor_s * 1e3,
        load.len(),
    );

    // Identical emulated EDF lanes; the energy budget is the only knob.
    let cfg = |energy: Option<EnergyConfig>| ServerConfig {
        queue_capacity: load.len(),
        emulate_service_time: true,
        energy,
        ..ServerConfig::default()
    };

    // Unbudgeted baseline: the fleet's natural draw anchors the sweep.
    let (base_out, base_stats, base_wall_s) = drain_timed(&runtime, &load, cfg(None));
    let base_rows = class_reports_outcomes(&load, &base_out, &classes);
    let draw_w = base_stats.energy_j() / base_wall_s;
    let base_epr = energy_per_request_j(&base_stats);
    assert_eq!(
        base_stats.attach_declined(),
        0,
        "budgeting off never declines an attach"
    );
    assert!(
        draw_w > 0.0 && draw_w.is_finite(),
        "the unbudgeted drain must measure a positive fleet draw"
    );
    println!(
        "unbudgeted fleet draw {:.4} W over {:.2} s; {:.2} uJ/request\n",
        draw_w,
        base_wall_s,
        base_epr * 1e6
    );

    // Sweep the cap: the energy-per-request vs tail-latency curve.
    let budget = |cap_w: f64| EnergyConfig {
        fleet_cap_w: cap_w,
        // Guarantee each lane a quarter of an even split, so idle
        // lanes stay serviceable while the waterfill chases pressure.
        floor_w: cap_w / (3.0 * 4.0),
    };
    let mut capped_rows_70 = None;
    let mut epr_70 = f64::NAN;
    println!("cap sweep (fraction of unconstrained draw):");
    println!(
        "{:<10} {:>10} {:>14} {:>16} {:>16}",
        "cap", "watts", "uJ/request", "tight p99 ms", "tight viol %"
    );
    for frac in [0.9, 0.7, 0.5] {
        let cap_w = frac * draw_w;
        let (out, stats, _) = drain_timed(&runtime, &load, cfg(Some(budget(cap_w))));
        let rows = class_reports_outcomes(&load, &out, &classes);
        let epr = energy_per_request_j(&stats);
        let tight = &rows[0].1;
        println!(
            "{:<10} {:>10.4} {:>14.2} {:>16.2} {:>16.1}",
            format!("{:.0}%", frac * 100.0),
            cap_w,
            epr * 1e6,
            tight.p99_ms,
            tight.violation_rate * 100.0
        );
        if frac == 0.7 {
            epr_70 = epr;
            capped_rows_70 = Some((rows, stats));
        }
    }
    println!();
    let (rows_70, stats_70) = capped_rows_70.expect("the sweep visits the 70% cap");
    println!(
        "{}",
        render_comparison_labeled("unbudget", &base_rows, "cap70", &rows_70)
    );
    println!("unbudgeted lanes:\n{}", render_server_stats(&base_stats));
    println!("70% cap lanes:\n{}", render_server_stats(&stats_70));

    // Acceptance: a 30% draw cut must buy real energy per request.
    let savings_pct = (1.0 - epr_70 / base_epr) * 100.0;
    println!(
        "energy per request: {:.2} -> {:.2} uJ ({:.1}% saved)\n",
        base_epr * 1e6,
        epr_70 * 1e6,
        savings_pct
    );
    assert!(
        savings_pct >= MIN_SAVINGS_PCT,
        "a 70% cap must cut fleet energy per request by at least {MIN_SAVINGS_PCT:.0}% \
         (got {savings_pct:.1}%)"
    );

    // ... while the deadline damage stays bounded and honest.
    let tight_70 = &rows_70[0].1;
    assert!(
        tight_70.violation_rate * 100.0 <= MAX_TIGHT_VIOLATION_PCT,
        "70%-cap tight-class violation rate {:.1}% exceeds the pinned threshold {:.1}%",
        tight_70.violation_rate * 100.0,
        MAX_TIGHT_VIOLATION_PCT,
    );

    // Elastic integration: under a floor-tight cap the pressured hot
    // lane's envelope cannot fund a second shard at the backend's
    // floor draw, so idle foreign shards must *decline* to attach —
    // the fleet cap, not the pool, is the binding constraint.
    let hot_floor_w = runtime
        .runtime(Task::Sst2)
        .expect("served")
        .engine()
        .backend()
        .floor_power_w();
    assert!(
        hot_floor_w.is_finite() && hot_floor_w > 0.0,
        "the accelerator backend models a positive floor draw"
    );
    let tight_cap = EnergyConfig {
        fleet_cap_w: 3.2 * hot_floor_w,
        floor_w: hot_floor_w,
    };
    let elastic_cfg = ServerConfig {
        elastic: Some(ElasticConfig {
            work_stealing: false, // isolate autoscaling
            ..ElasticConfig::default()
        }),
        ..cfg(Some(tight_cap))
    };
    let short = flash_crowd(&runtime, &classes, floor_s, 10.0, 0x0E2C);
    let (_, declined_stats, _) = drain_timed(&runtime, &short, elastic_cfg);
    println!(
        "floor-tight cap lanes:\n{}",
        render_server_stats(&declined_stats)
    );
    assert!(
        declined_stats.attach_declined() >= 1,
        "a floor-tight envelope must decline at least one autoscale attach \
         (got {})",
        declined_stats.attach_declined()
    );
    assert_eq!(
        declined_stats.pool_resizes(),
        0,
        "no attach the envelope cannot fund may go through"
    );
}
