//! Integration tests for the serializable session checkpoint envelope:
//! a parked [`InferenceSession`] round-trips through the versioned
//! [`SessionCheckpoint`] wire form (serde → JSON → serde) and resumes
//! on a restoring engine **bit-identically** to the session that never
//! left the process. This is the contract elastic serving's
//! cross-process migration rests on.

use edgebert::calibrate::SweepCache;
use edgebert::engine::{EngineBuilder, EntropyThresholds, InferenceRequest};
use edgebert::predictor::EntropyPredictor;
use edgebert::session::{InferenceSession, SessionState};
use edgebert::{EdgeBertEngine, SESSION_CHECKPOINT_VERSION};
use edgebert_model::{AlbertConfig, AlbertModel};
use edgebert_tasks::{Task, TaskGenerator, VocabLayout};
use edgebert_tensor::Rng;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

struct Fixture {
    engine: EdgeBertEngine,
    tokens: Vec<u32>,
}

/// Strict thresholds (`et = 0`): no early exit, so every session runs
/// full depth and any layer boundary is a valid park point.
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
        let engine = EngineBuilder::new(Arc::new(model), Arc::new(lut))
            .uniform_thresholds(EntropyThresholds::uniform(0.0))
            .latency_target(200e-3)
            .build();
        Fixture { engine, tokens }
    })
}

/// Opens a session, steps `steps` layers, and parks it.
fn parked_session(
    engine: &EdgeBertEngine,
    request: &InferenceRequest,
    steps: usize,
) -> InferenceSession {
    let mut session = engine.begin(request);
    for _ in 0..steps {
        assert!(
            !session.is_complete(),
            "fixture must not exit before the park point"
        );
        session.step();
    }
    assert!(
        session.park(),
        "a running session parks at a layer boundary"
    );
    session
}

/// Resumes a session with `parked_s` charged and drives it to its
/// response.
fn resume_to_response(mut session: InferenceSession, parked_s: f64) -> edgebert::InferenceResponse {
    session.resume(parked_s);
    while !session.is_complete() {
        session.step();
    }
    session
        .response()
        .expect("a completed session carries its response")
}

#[test]
fn only_a_parked_session_checkpoints() {
    let f = fixture();
    let request = InferenceRequest::new(f.tokens.clone());
    let mut session = f.engine.begin(&request);
    assert!(
        session.checkpoint().is_none(),
        "running sessions do not checkpoint"
    );
    session.step();
    assert!(session.checkpoint().is_none());
    assert!(session.park());
    let cp = session.checkpoint().expect("parked sessions checkpoint");
    assert_eq!(cp.version(), SESSION_CHECKPOINT_VERSION);
    assert_eq!(cp.layers_done(), session.layers_done());
    assert_eq!(cp.parked_s(), 0.0);
}

#[test]
fn wire_round_trip_resumes_bit_identically() {
    // parked → serialize → JSON → deserialize → restore → resume must
    // equal parked → resume, bit for bit, including the parked-time
    // charge feeding the resume DVFS decision.
    let f = fixture();
    let request = InferenceRequest::new(f.tokens.clone()).with_latency_target(200e-3);
    for steps in 1..=3 {
        for parked_ms in [0.0, 5e-3, 20e-3] {
            let stayed = parked_session(&f.engine, &request, steps);
            let crossed = parked_session(&f.engine, &request, steps);
            let wire = serde::json::to_string(&crossed.checkpoint().expect("parked"));
            let cp: edgebert::SessionCheckpoint =
                serde::json::from_str(&wire).expect("the wire form deserializes");
            let restored = f.engine.restore_session(cp);
            assert_eq!(restored.state(), SessionState::Parked);
            assert_eq!(
                resume_to_response(restored, parked_ms),
                resume_to_response(stayed, parked_ms),
                "steps={steps} parked={parked_ms}s"
            );
        }
    }
}

#[test]
fn restored_sessions_serve_under_preemption_accounting() {
    // The restored session keeps its preemption count and parked-time
    // ledger: a second park/resume cycle accumulates on top of the
    // checkpointed state exactly as it would in-process.
    let f = fixture();
    let request = InferenceRequest::new(f.tokens.clone()).with_latency_target(200e-3);
    let session = parked_session(&f.engine, &request, 1);
    let wire = serde::json::to_string(&session.checkpoint().expect("parked"));
    let cp: edgebert::SessionCheckpoint = serde::json::from_str(&wire).expect("deserializes");
    let mut restored = f.engine.restore_session(cp);
    assert_eq!(restored.preemptions(), 1);
    restored.resume(3e-3);
    restored.step();
    assert!(restored.park(), "restored sessions park again");
    let twice = restored.checkpoint().expect("parked again");
    assert_eq!(twice.layers_done(), 2);
    assert_eq!(twice.parked_s(), 3e-3);
}

#[test]
fn unsupported_versions_are_refused_not_misread() {
    let f = fixture();
    let request = InferenceRequest::new(f.tokens.clone());
    let session = parked_session(&f.engine, &request, 1);
    let wire = serde::json::to_string(&session.checkpoint().expect("parked"));
    let current = format!("\"version\":{SESSION_CHECKPOINT_VERSION}");
    assert!(
        wire.contains(&current),
        "version leads the envelope: {wire}"
    );
    // A future version, and the previous two (v2 and v3 envelopes each
    // carried a field this build retired).
    for other in [99, 2, 3] {
        let tampered = wire.replacen(&current, &format!("\"version\":{other}"), 1);
        let err = serde::json::from_str::<edgebert::SessionCheckpoint>(&tampered)
            .expect_err("another version must not be silently misread");
        assert!(
            err.to_string().contains("version"),
            "the error names the version mismatch: {err}"
        );
    }
}

#[test]
fn corrupted_layer_bookkeeping_is_refused() {
    let f = fixture();
    let request = InferenceRequest::new(f.tokens.clone());
    let session = parked_session(&f.engine, &request, 1);
    let wire = serde::json::to_string(&session.checkpoint().expect("parked"));
    // Claim more layers done than the hidden state carries.
    let tampered = wire.replacen("\"layers_done\":1", "\"layers_done\":3", 1);
    assert!(
        serde::json::from_str::<edgebert::SessionCheckpoint>(&tampered).is_err(),
        "layer bookkeeping must agree with the hidden state"
    );
}

#[test]
fn corrupted_forecast_is_refused() {
    // The forecast sizes the resume segment's cycle count and is the
    // session's forced stop, so an envelope whose forecast disagrees
    // with its layer bookkeeping must fail at the wire — restoring it
    // would panic a worker at the next step.
    let f = fixture();
    let request = InferenceRequest::new(f.tokens.clone());
    let session = parked_session(&f.engine, &request, 2);
    let forecast = session
        .predicted_layer()
        .expect("forecast set after layer 1");
    let wire = serde::json::to_string(&session.checkpoint().expect("parked"));
    let honest = format!("\"predicted\":{forecast}");
    assert!(wire.contains(&honest), "{wire}");
    for (forged, why) in [
        (
            "null",
            "a latency-aware session past layer 1 has a forecast",
        ),
        ("1", "a forecast behind the layers already done"),
        ("99", "a forecast past the model's depth"),
    ] {
        let tampered = wire.replacen(&honest, &format!("\"predicted\":{forged}"), 1);
        assert!(
            serde::json::from_str::<edgebert::SessionCheckpoint>(&tampered).is_err(),
            "{why} must be refused"
        );
    }
}

#[test]
fn non_finite_accounting_is_refused() {
    let f = fixture();
    let request = InferenceRequest::new(f.tokens.clone()).with_latency_target(200e-3);
    let session = parked_session(&f.engine, &request, 1);
    let wire = serde::json::to_string(&session.checkpoint().expect("parked"));
    assert!(wire.contains("\"latency_target_s\":0.2"), "{wire}");
    let tampered = wire.replacen(
        "\"latency_target_s\":0.2",
        "\"latency_target_s\":{\"$f64\":\"NaN\"}",
        1,
    );
    assert!(serde::json::from_str::<edgebert::SessionCheckpoint>(&tampered).is_err());
}

#[test]
#[should_panic(expected = "depth")]
fn restoring_onto_a_wrong_depth_engine_panics() {
    let f = fixture();
    let request = InferenceRequest::new(f.tokens.clone());
    let session = parked_session(&f.engine, &request, 1);
    let cp = session.checkpoint().expect("parked");

    let layout = VocabLayout::standard();
    let mut cfg = AlbertConfig::tiny(layout.vocab_size(), 2);
    cfg.num_layers = 6; // a deeper model than the checkpoint's
    let mut rng = Rng::seed_from(41);
    let model = AlbertModel::pretrained(cfg, &layout, &mut rng);
    let gen = TaskGenerator::standard(Task::Sst2, cfg.max_seq_len);
    let data = gen.generate(12, 9);
    let cache = SweepCache::build(&model, &data);
    let pred = EntropyPredictor::train(&cache.entropy_dataset(), 40, 3);
    let lut = pred.to_lut(32, 1.1);
    let other = EngineBuilder::new(Arc::new(model), Arc::new(lut)).build();
    let _ = other.restore_session(cp);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The bit-identity contract across the whole (park layer × target
    /// × parked time) space the elastic server migrates over.
    #[test]
    fn round_trip_is_bit_identical_across_the_space(
        steps in 1usize..3,
        target_ms in 60.0f64..400.0,
        parked_ms in 0.0f64..30.0,
    ) {
        let f = fixture();
        let request = InferenceRequest::new(f.tokens.clone())
            .with_latency_target(target_ms * 1e-3);
        let stayed = parked_session(&f.engine, &request, steps);
        let crossed = parked_session(&f.engine, &request, steps);
        let wire = serde::json::to_string(&crossed.checkpoint().expect("parked"));
        let cp: edgebert::SessionCheckpoint =
            serde::json::from_str(&wire).expect("the wire form deserializes");
        let restored = f.engine.restore_session(cp);
        prop_assert_eq!(
            resume_to_response(restored, parked_ms * 1e-3),
            resume_to_response(stayed, parked_ms * 1e-3)
        );
    }
}
