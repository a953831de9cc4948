//! Integration tests for the resumable-session execution API and the
//! preemptive server lanes built on it: park/resume accounting, the
//! fresh DVFS re-decision against remaining slack, and the end-to-end
//! contract that a tight arrival preempts a stretched long job with
//! both deadlines judged correctly.
//!
//! (The bit-identity of *uninterrupted* sessions against the
//! pre-redesign monolithic paths is pinned by
//! `tests/backend_equivalence.rs`, including a 4-task × 3-mode
//! proptest.)

use edgebert::calibrate::SweepCache;
use edgebert::engine::{
    deadline_met, EngineBuilder, EntropyThresholds, InferenceMode, InferenceRequest,
};
use edgebert::predictor::EntropyPredictor;
use edgebert::server::{PreemptionPolicy, Server, ServerConfig};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert::session::{SessionState, StepOutcome};
use edgebert::EdgeBertEngine;
use edgebert_model::{AlbertConfig, AlbertModel};
use edgebert_tasks::{Task, TaskGenerator, VocabLayout};
use edgebert_tensor::Rng;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

struct Fixture {
    builder: EngineBuilder,
    engine: EdgeBertEngine,
    tokens: Vec<u32>,
}

/// A strict-threshold (`et = 0`) engine: no sentence exits early, the
/// LAI forecast is always full depth (no LUT trajectory entry is below
/// zero), so every session has `num_layers − 1` stretched steps — the
/// maximum number of preemption boundaries.
fn fixture() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| {
        let layout = VocabLayout::standard();
        let cfg = AlbertConfig::tiny(layout.vocab_size(), 2);
        let mut rng = Rng::seed_from(41);
        let model = AlbertModel::pretrained(cfg, &layout, &mut rng);
        let gen = TaskGenerator::standard(Task::Sst2, cfg.max_seq_len);
        let data = gen.generate(12, 9);
        let cache = SweepCache::build(&model, &data);
        let pred = EntropyPredictor::train(&cache.entropy_dataset(), 40, 3);
        let lut = pred.to_lut(32, 1.1);
        let tokens = data.examples()[0].tokens.clone();
        let builder = EngineBuilder::new(Arc::new(model), Arc::new(lut))
            .uniform_thresholds(EntropyThresholds::uniform(0.0))
            .latency_target(200e-3);
        let engine = builder.clone().build();
        Fixture {
            builder,
            engine,
            tokens,
        }
    })
}

#[test]
fn park_before_the_first_decision_is_a_free_checkpoint() {
    // Parking between layer 1 and the first stretched layer commits
    // nothing (no segment is open yet); resuming with zero parked time
    // reproduces the uninterrupted run bit for bit — the decision was
    // always going to be taken at the segment start.
    let f = fixture();
    let request = InferenceRequest::new(f.tokens.clone()).with_latency_target(200e-3);
    let direct = f.engine.serve(&request);

    let mut session = f.engine.begin(&request);
    assert_eq!(session.state(), SessionState::Running);
    assert_eq!(session.step(), StepOutcome::Continue);
    assert_eq!(session.layers_done(), 1);
    assert!(session.predicted_layer().unwrap() > 1);
    assert!(session.park());
    assert_eq!(session.state(), SessionState::Parked);
    assert!(!session.park(), "parking a parked session is a no-op");
    session.resume(0.0);
    while !session.is_complete() {
        session.step();
    }
    assert_eq!(session.preemptions(), 1);
    assert_eq!(session.parked_s(), 0.0);
    assert_eq!(session.response().expect("complete"), direct);
}

#[test]
fn park_mid_segment_charges_a_fresh_transition() {
    // Parking inside a stretched segment closes it; the resume segment
    // re-decides and charges a fresh nominal→decision transition, so
    // the interrupted run is strictly slower than the uninterrupted
    // one — preemption is modeled, not free. The algorithmic outputs
    // (exit layer, forecast, prediction) are unchanged.
    let f = fixture();
    let request = InferenceRequest::new(f.tokens.clone()).with_latency_target(200e-3);
    let direct = f.engine.serve(&request).result;
    assert!(direct.exit_layer > 2, "fixture must have a mid-segment");

    let mut session = f.engine.begin(&request);
    session.step(); // layer 1 (nominal)
    session.step(); // layer 2: opens the stretched segment
    assert!(session.park());
    session.resume(0.0);
    while !session.is_complete() {
        session.step();
    }
    let parked = session.result().expect("complete").clone();
    assert_eq!(parked.exit_layer, direct.exit_layer);
    assert_eq!(parked.predicted_layer, direct.predicted_layer);
    assert_eq!(parked.prediction, direct.prediction);
    // The resume decision re-reserves the worst-case transition and
    // re-charges the actual one out of a smaller remaining budget, so
    // the remaining layers must run strictly faster than the
    // uninterrupted segment did — and the sentence still lands inside
    // its target.
    assert!(
        parked.freq_hz > direct.freq_hz,
        "the resumed segment re-decides faster: {} Hz vs {} Hz",
        parked.freq_hz,
        direct.freq_hz
    );
    assert!(parked.deadline_met);
    assert!(parked.latency_s <= 200e-3 * (1.0 + 1e-4));
    assert!(session.modeled_latency_s() == parked.latency_s);
}

#[test]
fn resume_after_burned_slack_raises_the_operating_point() {
    // A session parked for most of its budget must come back faster:
    // the resume decision sees the parked wall time as burned slack
    // (paper §5.2's T_elapsed), and the verdict judges the sojourn.
    let f = fixture();
    let request = InferenceRequest::new(f.tokens.clone()).with_latency_target(200e-3);
    let fresh = f.engine.serve(&request).result;
    assert!(fresh.voltage < 0.8, "loose target must stretch");

    let mut session = f.engine.begin(&request);
    session.step(); // layer 1; no segment open yet
    session.park();
    session.resume(185e-3); // most of the 200 ms budget gone
    while !session.is_complete() {
        session.step();
    }
    let result = session.result().expect("complete").clone();
    assert!(
        result.voltage > fresh.voltage,
        "parked {} V vs fresh {} V",
        result.voltage,
        fresh.voltage
    );
    assert!(result.latency_s < fresh.latency_s);
    assert_eq!(session.parked_s(), 185e-3);
    assert_eq!(
        result.deadline_met,
        deadline_met(185e-3 + result.latency_s, 200e-3),
        "the verdict charges the parked time"
    );
}

#[test]
fn base_and_ee_sessions_step_to_the_monolithic_results() {
    let f = fixture();
    for mode in [InferenceMode::Base, InferenceMode::ConventionalEe] {
        let request = InferenceRequest::new(f.tokens.clone())
            .with_mode(mode)
            .with_latency_target(1.0);
        let direct = f.engine.serve(&request);
        let mut session = f.engine.begin(&request);
        let mut last = session.step();
        // Park/resume at every boundary: nominal-V/F modes have no
        // segment state, so checkpointing is free and the final
        // accounting is unchanged.
        while !session.is_complete() {
            assert_eq!(last, StepOutcome::Continue);
            session.park();
            session.resume(0.0);
            last = session.step();
        }
        assert_eq!(last, StepOutcome::Done, "et = 0 never exits early");
        assert_eq!(session.response().expect("complete"), direct, "{mode:?}");
    }
}

#[test]
#[should_panic(expected = "resume a parked session")]
fn stepping_a_parked_session_panics() {
    let f = fixture();
    let mut session = f.engine.begin(&InferenceRequest::new(f.tokens.clone()));
    session.step();
    session.park();
    session.step();
}

#[test]
fn modeled_latency_is_monotone_and_lands_on_the_result() {
    let f = fixture();
    let mut session = f
        .engine
        .begin(&InferenceRequest::new(f.tokens.clone()).with_latency_target(150e-3));
    let mut last = session.modeled_latency_s();
    assert_eq!(last, 0.0);
    while !session.is_complete() {
        session.step();
        let now = session.modeled_latency_s();
        assert!(now >= last, "accounting never runs backwards");
        last = now;
    }
    assert_eq!(last, session.result().expect("complete").latency_s);
    assert!(!session.park(), "a complete session cannot be parked");
}

/// The tentpole's serving contract, end to end through real worker
/// threads with service-time emulation: a tight arrival lands just
/// after a long stretched sentence dispatches on the only shard.
/// Non-preemptive, the tight job waits out the entire stretched
/// service and misses; preemptive, the long session parks at the next
/// layer boundary, the tight job runs and meets its deadline, and the
/// resumed long job still meets its own loose deadline after a fresh
/// DVFS decision against its remaining slack.
#[test]
fn tight_arrival_preempts_a_stretched_long_job() {
    let f = fixture();
    let rt =
        MultiTaskRuntime::from_runtimes([TaskRuntime::from_builder(Task::Sst2, f.builder.clone())]);
    let floor_s = f.engine.nominal_service_estimate_s();
    // The long job stretches toward 30× the nominal service estimate
    // (well inside the V/F table's stretch range); the tight job's
    // target sits at 2/3 of the long job's *modeled* stretched
    // latency: far above one stretched layer step plus its own
    // compute (so preemption always saves it, whichever boundary it
    // lands on), far below the full stretched service (so
    // head-of-line blocking always kills it).
    let long_target_s = 30.0 * floor_s;
    let long_req = InferenceRequest::new(f.tokens.clone()).with_latency_target(long_target_s);
    let long_latency_s = f.engine.serve(&long_req).result.latency_s;
    assert!(
        long_latency_s > 10.0 * floor_s,
        "the long job must actually stretch ({long_latency_s} s vs floor {floor_s} s)"
    );
    let tight_target_s = long_latency_s * 2.0 / 3.0;
    let tight_req = InferenceRequest::new(f.tokens.clone()).with_latency_target(tight_target_s);

    let run = |preemption: PreemptionPolicy| {
        let server = Server::start(
            &rt,
            ServerConfig {
                emulate_service_time: true,
                preemption,
                ..ServerConfig::default()
            },
        );
        let long_handle = server
            .submit(Task::Sst2, long_req.clone())
            .expect("admitted");
        // Wait for the long job to dispatch (the lane empties), then
        // land the tight arrival just after — the head-of-line shape.
        while server.queued() > 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        let tight_handle = server
            .submit(Task::Sst2, tight_req.clone())
            .expect("admitted");
        let tight = tight_handle.wait().expect("worker alive");
        let long = long_handle.wait().expect("worker alive");
        let stats = server.shutdown();
        (long, tight, stats)
    };

    // Non-preemptive baseline: the tight job waits out the whole
    // stretched service and misses by construction.
    let (long_np, tight_np, stats_np) = run(PreemptionPolicy::Off);
    assert!(long_np.deadline_met, "the long job owns the lane");
    assert_eq!(long_np.preemptions, 0);
    assert!(
        !tight_np.deadline_met,
        "head-of-line blocking must kill the tight job (sojourn {} s vs target {} s)",
        tight_np.sojourn_s, tight_target_s
    );
    assert_eq!(stats_np.preempted(), 0);

    // Preemptive: the long session parks at a layer boundary, the
    // tight job overtakes and meets, and the resumed long job still
    // meets its own loose deadline after re-deciding V/F against its
    // remaining slack. Both verdicts are judged under the one rule,
    // parked time charged.
    let (long_p, tight_p, stats_p) = run(PreemptionPolicy::DeadlineGap(0.0));
    assert!(
        long_p.preemptions >= 1,
        "the long session must have parked at a layer boundary"
    );
    assert!(long_p.parked_s > 0.0);
    assert!(
        tight_p.deadline_met,
        "preemption must save the tight job (sojourn {} s vs target {} s)",
        tight_p.sojourn_s, tight_target_s
    );
    assert!(
        long_p.deadline_met,
        "the resumed long job re-budgets into its remaining slack \
         (parked {} s, latency {} s, target {} s)",
        long_p.parked_s, long_p.response.result.latency_s, long_target_s
    );
    assert!(tight_p.sojourn_s < tight_np.sojourn_s);
    assert_eq!(
        long_p.deadline_met,
        deadline_met(
            long_p.slack_deducted_s + long_p.parked_s + long_p.response.result.latency_s,
            long_target_s
        ),
        "the long verdict charges queue slack and parked time"
    );
    assert!(stats_p.preempted() >= 1);
    assert_eq!(stats_p.resumed(), stats_p.preempted());
    assert!(stats_p.max_parked_depth() >= 1);
    assert_eq!(stats_p.served(), 2);
}
