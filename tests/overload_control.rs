//! Integration tests for the overload control plane: a real server
//! under a real burst, with service-time emulation, exercising all
//! three rungs of the admission ladder — degrade, shed, recover — and
//! the per-request `max_degradation` floor that keeps opted-out
//! traffic bit-identical to pre-overload behavior.

use edgebert::engine::InferenceRequest;
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::server::{Server, ServerConfig, ServerResponse, SubmitError};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert::{LadderStep, OverloadConfig, OverloadController, ServerStats};
use edgebert_tasks::{Task, TaskGenerator};
use std::sync::OnceLock;

fn runtime() -> &'static MultiTaskRuntime {
    static CELL: OnceLock<MultiTaskRuntime> = OnceLock::new();
    CELL.get_or_init(|| {
        MultiTaskRuntime::from_runtimes([TaskRuntime::from_artifacts(&TaskArtifacts::build(
            Task::Sst2,
            Scale::Test,
            0x0AD5,
        ))])
    })
}

fn tokens_for(n: usize, seed: u64) -> Vec<Vec<u32>> {
    let rt = runtime().runtime(Task::Sst2).expect("served");
    let gen = TaskGenerator::standard(Task::Sst2, rt.model().config.max_seq_len);
    gen.generate(n, seed)
        .examples()
        .iter()
        .map(|ex| ex.tokens.clone())
        .collect()
}

/// A twitchy ladder for test bursts: rungs trip at a fraction of the
/// default pressure bands so a few queued sentences are enough.
fn twitchy() -> OverloadConfig {
    OverloadConfig {
        degrade_enter: 0.2,
        degrade_exit: 0.1,
        shed_enter: 0.5,
        shed_exit: 0.25,
    }
}

/// Fires `n` tight-deadline sentences at one emulated-service shard as
/// fast as submission allows, waits everything out, and returns the
/// served responses plus the final stats. Shed refusals are collected
/// separately; any other submit error panics.
fn burst(
    cfg: ServerConfig,
    n: usize,
    target_s: f64,
    max_degradation: u8,
) -> (Vec<ServerResponse>, Vec<SubmitError>, ServerStats) {
    let server = Server::start(runtime(), cfg);
    let mut handles = Vec::new();
    let mut sheds = Vec::new();
    for tokens in tokens_for(n, 0x0B57) {
        let req = InferenceRequest::new(tokens)
            .with_latency_target(target_s)
            .with_max_degradation(max_degradation);
        match server.submit(Task::Sst2, req) {
            Ok(h) => handles.push(h),
            Err(e @ SubmitError::Shed { .. }) => sheds.push(e),
            Err(other) => panic!("burst admission failed: {other}"),
        }
    }
    let responses = handles
        .into_iter()
        .map(|h| h.wait().expect("workers outlive the burst"))
        .collect();
    (responses, sheds, server.shutdown())
}

fn burst_cfg(overload: Option<OverloadConfig>, n: usize) -> ServerConfig {
    ServerConfig {
        queue_capacity: n,
        emulate_service_time: true,
        overload,
        ..ServerConfig::default()
    }
}

/// The full ladder under one burst: later submissions are shed with a
/// usable retry hint, popped work degrades within its opt-in, and the
/// drained lane recovers to Nominal (transitions pair up).
#[test]
fn a_burst_walks_the_ladder_and_recovers() {
    let n = 24;
    let floor_s = runtime()
        .runtime(Task::Sst2)
        .expect("served")
        .engine()
        .nominal_service_estimate_s();
    let (responses, sheds, stats) = burst(burst_cfg(Some(twitchy()), n), n, 2.0 * floor_s, 2);

    assert_eq!(responses.len() + sheds.len(), n);
    assert!(stats.shed() >= 1, "the burst must trip the shed rung");
    assert_eq!(stats.shed(), sheds.len() as u64);
    assert!(
        stats.degraded() >= 1,
        "pressure must degrade at least one served sentence"
    );
    assert!(
        responses.iter().any(|r| r.degraded_notches > 0),
        "degradation must be visible on the responses too"
    );
    assert!(responses.iter().all(|r| r.degraded_notches <= 2));
    // The rung moved at least twice: up into Degrade/Shed and back
    // down at least one rung as the drain emptied the queue (recovery
    // steps one rung per observation, so the lane may legitimately
    // finish mid-descent).
    assert!(stats.ladder_step_changes() >= 2);
    for e in &sheds {
        match e {
            SubmitError::Shed {
                task,
                pressure,
                retry_after_hint_s,
            } => {
                assert_eq!(*task, Task::Sst2);
                assert!(*pressure > 0.0 && pressure.is_finite());
                assert!(*retry_after_hint_s > 0.0 && retry_after_hint_s.is_finite());
            }
            other => panic!("collected a non-shed error: {other:?}"),
        }
    }
}

/// `max_degradation = 0` (the default) is an absolute floor: even with
/// the ladder tripping around them, opted-out requests are never served
/// degraded.
#[test]
fn zero_max_degradation_is_never_degraded() {
    let n = 24;
    let floor_s = runtime()
        .runtime(Task::Sst2)
        .expect("served")
        .engine()
        .nominal_service_estimate_s();
    let (responses, _sheds, stats) = burst(burst_cfg(Some(twitchy()), n), n, 2.0 * floor_s, 0);
    assert_eq!(stats.degraded(), 0);
    assert!(responses.iter().all(|r| r.degraded_notches == 0));
}

/// The ladder ships disabled: a default-config server under the same
/// burst never sheds, never degrades, never moves a rung — the
/// pre-overload behavior, bit for bit (the equivalence oracles in
/// `server_serving.rs` pin the bits; this pins the counters).
#[test]
fn default_config_keeps_the_ladder_off() {
    assert_eq!(ServerConfig::default().overload, None);
    let n = 12;
    let floor_s = runtime()
        .runtime(Task::Sst2)
        .expect("served")
        .engine()
        .nominal_service_estimate_s();
    let (responses, sheds, stats) = burst(burst_cfg(None, n), n, 2.0 * floor_s, 2);
    assert!(sheds.is_empty());
    assert_eq!(responses.len(), n);
    assert_eq!(stats.shed(), 0);
    assert_eq!(stats.degraded(), 0);
    assert_eq!(stats.ladder_step_changes(), 0);
    assert!(responses.iter().all(|r| r.degraded_notches == 0));
}

/// The controller's hysteresis from the outside: holding pressure in
/// the dead band between exit and enter thresholds never moves the
/// rung, in either direction.
#[test]
fn hysteresis_dead_band_holds_the_rung() {
    let cfg = twitchy();
    let mut ctl = OverloadController::new(cfg);
    assert_eq!(ctl.step(), LadderStep::Nominal);
    // Dead band from below: between degrade_exit and degrade_enter.
    ctl.observe(0.15);
    assert_eq!(ctl.step(), LadderStep::Nominal);
    // Trip one rung, then hold the band: no exit, no further entry.
    ctl.observe(0.3);
    assert_eq!(ctl.step(), LadderStep::Degrade);
    ctl.observe(0.15);
    ctl.observe(0.3);
    assert_eq!(ctl.step(), LadderStep::Degrade);
    assert_eq!(ctl.step_changes(), 1);
}
