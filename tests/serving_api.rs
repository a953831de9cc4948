//! Integration tests for the owned request/response serving API:
//! wire-format round-trips, builder/legacy equivalence, engine
//! thread-safety, per-request service levels end to end, and
//! parallel-evaluation determinism.

use edgebert::engine::{
    DropTarget, EngineBuilder, EntropyThresholds, InferenceMode, InferenceRequest,
    InferenceResponse,
};
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::serving::TaskRuntime;
use edgebert_tasks::Task;
use std::sync::OnceLock;

fn artifacts() -> &'static TaskArtifacts {
    static CELL: OnceLock<TaskArtifacts> = OnceLock::new();
    CELL.get_or_init(|| TaskArtifacts::build(Task::Sst2, Scale::Test, 0x5EAF))
}

#[test]
fn request_round_trips_through_json() {
    let requests = [
        InferenceRequest::new(vec![3, 1, 4, 1, 5, 9, 2, 6]),
        InferenceRequest::new(vec![2, 7, 1828])
            .with_mode(InferenceMode::ConventionalEe)
            .with_latency_target(75e-3)
            .with_drop_target(DropTarget::TwoPercent),
        InferenceRequest::new(Vec::new()).with_mode(InferenceMode::Base),
    ];
    for req in &requests {
        let text = serde::json::to_string(req);
        let back: InferenceRequest = serde::json::from_str(&text).expect("request parses back");
        assert_eq!(&back, req, "wire text: {text}");
    }
    // Unset service levels serialize as null, set ones as numbers: the
    // distinction survives the wire.
    let wire = serde::json::to_string(&requests[0]);
    assert!(wire.contains("\"latency_target_s\":null"), "{wire}");
    let wire = serde::json::to_string(&requests[1]);
    assert!(wire.contains("\"latency_target_s\":0.075"), "{wire}");
}

#[test]
fn pre_queue_slack_request_json_still_parses() {
    // Wire compatibility: requests serialized before `elapsed_queue_s`
    // existed (or sent by clients that don't know about queues) must
    // parse with a zero stamp, not fail on the missing field.
    let old_wire = r#"{"tokens":[3,1,4],"mode":"LatencyAware","latency_target_s":0.05,"drop_target":"TwoPercent"}"#;
    let req: InferenceRequest = serde::json::from_str(old_wire).expect("old wire shape parses");
    assert_eq!(req.elapsed_queue_s, 0.0);
    assert_eq!(req.tokens, vec![3, 1, 4]);
    assert_eq!(req.latency_target_s, Some(0.05));
    assert_eq!(req.drop_target, Some(DropTarget::TwoPercent));
    // And a stamped request round-trips the stamp.
    let stamped = req.with_elapsed_queue_s(12e-3);
    let back: InferenceRequest =
        serde::json::from_str(&serde::json::to_string(&stamped)).expect("stamped parses");
    assert_eq!(back, stamped);
}

#[test]
fn retired_wire_keys_are_ignored_not_refused() {
    // Wire compatibility in the other direction: a client that still
    // sends a key this build retired (the queue-pressure cap) parses,
    // and serves bit-identically to the same request without the key.
    let plain = r#"{"tokens":[3,1,4],"mode":"LatencyAware","latency_target_s":0.05,"drop_target":"TwoPercent","elapsed_queue_s":0.004}"#;
    let legacy = plain.replacen('}', r#","stretch_cap_s":0.01}"#, 1);
    let want: InferenceRequest = serde::json::from_str(plain).expect("plain parses");
    let got: InferenceRequest = serde::json::from_str(&legacy).expect("legacy key parses");
    assert_eq!(got, want);
    let engine = artifacts().engine(50e-3);
    assert_eq!(engine.serve(&got), engine.serve(&want));
}

#[test]
fn response_round_trips_through_json() {
    let art = artifacts();
    let engine = art.engine(50e-3);
    let ex = &art.dev.examples()[0];
    for mode in InferenceMode::all() {
        let resp = engine.serve(&InferenceRequest::new(ex.tokens.clone()).with_mode(mode));
        let text = serde::json::to_string(&resp);
        let back: InferenceResponse = serde::json::from_str(&text).expect("response parses back");
        assert_eq!(back, resp, "wire text: {text}");
    }
}

#[test]
fn builder_defaults_match_explicit_settings() {
    // The builder's documented defaults must be identical to spelling
    // every knob out — the equivalence the old positional constructor
    // relied on callers getting right.
    let art = artifacts();
    let implicit = EngineBuilder::new(art.model.clone(), art.lut.clone()).build();
    let explicit = EngineBuilder::new(art.model.clone(), art.lut.clone())
        .accelerator(edgebert_hw::AcceleratorConfig::energy_optimal())
        .workload(edgebert_hw::WorkloadParams::albert_base())
        .envm_cell(edgebert_envm::CellTech::Mlc2, 2.0)
        .uniform_thresholds(EntropyThresholds::uniform(0.2))
        .latency_target(50e-3)
        .drop_target(DropTarget::OnePercent)
        .build();
    assert_eq!(implicit.default_latency_target_s(), 50e-3);
    assert_eq!(implicit.default_drop_target(), DropTarget::OnePercent);
    for ex in art.dev.iter().take(6) {
        for mode in InferenceMode::all() {
            assert_eq!(
                implicit.run(&ex.tokens, mode),
                explicit.run(&ex.tokens, mode),
                "mode {mode:?}"
            );
        }
    }
}

#[test]
fn pipeline_engine_matches_hand_built_builder() {
    // `TaskArtifacts::engine_at` is sugar over the builder; the two
    // construction paths must produce identical engines.
    let art = artifacts();
    let sugar = art.engine_at(80e-3, DropTarget::TwoPercent, true);
    let by_hand = art
        .engine_builder()
        .workload(art.hardware_workload(true))
        .latency_target(80e-3)
        .drop_target(DropTarget::TwoPercent)
        .build();
    for ex in art.dev.iter().take(6) {
        assert_eq!(
            sugar.run(&ex.tokens, InferenceMode::LatencyAware),
            by_hand.run(&ex.tokens, InferenceMode::LatencyAware),
        );
    }
}

#[test]
fn engine_is_send_and_static() {
    fn assert_send<T: Send + 'static>() {}
    assert_send::<edgebert::EdgeBertEngine>();
    assert_send::<edgebert::TaskRuntime>();
    assert_send::<edgebert::MultiTaskRuntime>();
}

#[test]
fn one_engine_serves_two_deadlines_with_different_vf_points() {
    // Acceptance scenario: a single TaskRuntime engine, two requests
    // that differ only in latency_target_s, landing on different DVFS
    // operating points.
    let art = artifacts();
    let rt = TaskRuntime::from_artifacts(art);
    // Mint a strict-threshold engine from the runtime so no sentence
    // exits at layer 1 and the DVFS decision always engages.
    let engine = rt
        .builder()
        .uniform_thresholds(EntropyThresholds::uniform(0.0))
        .build();
    let tokens = art.dev.examples()[0].tokens.clone();
    let tight = engine.serve(&InferenceRequest::new(tokens.clone()).with_latency_target(4e-3));
    let loose = engine.serve(&InferenceRequest::new(tokens).with_latency_target(400e-3));
    assert_eq!(tight.latency_target_s, 4e-3);
    assert_eq!(loose.latency_target_s, 400e-3);
    assert!(
        loose.result.voltage < tight.result.voltage,
        "loose {} V vs tight {} V",
        loose.result.voltage,
        tight.result.voltage
    );
    assert!(loose.result.freq_hz < tight.result.freq_hz);
    assert!(loose.result.energy_j < tight.result.energy_j);
    assert!(loose.result.deadline_met);
}

#[test]
fn responses_judge_every_mode_against_the_request_deadline() {
    // The bare engine Base/EE paths are unbounded baselines, but a
    // response echoes the request's target and must judge against it.
    let art = artifacts();
    let rt = TaskRuntime::from_artifacts(art);
    let tokens = art.dev.examples()[0].tokens.clone();
    for mode in [InferenceMode::Base, InferenceMode::ConventionalEe] {
        let hopeless = rt.serve(
            &InferenceRequest::new(tokens.clone())
                .with_mode(mode)
                .with_latency_target(1e-9),
        );
        assert!(!hopeless.result.deadline_met, "mode {mode:?}");
        let generous = rt.serve(
            &InferenceRequest::new(tokens.clone())
                .with_mode(mode)
                .with_latency_target(10.0),
        );
        assert!(generous.result.deadline_met, "mode {mode:?}");
    }
}

#[test]
fn empty_wire_requests_are_served_not_panicked() {
    // Requests arrive from the wire; a degenerate empty token list must
    // come back as a response, not take the engine down.
    let art = artifacts();
    let rt = TaskRuntime::from_artifacts(art);
    for mode in InferenceMode::all() {
        let resp = rt.serve(&InferenceRequest::new(Vec::new()).with_mode(mode));
        assert!(resp.result.exit_layer >= 1, "mode {mode:?}");
        assert!(resp.result.energy_j > 0.0, "mode {mode:?}");
    }
}

#[test]
fn parallel_evaluate_equals_sequential() {
    let art = artifacts();
    let engine = art.engine_at(100e-3, DropTarget::OnePercent, true);
    for mode in InferenceMode::all() {
        let seq = engine.evaluate_with_threads(&art.dev, mode, 1);
        let par = engine.evaluate(&art.dev, mode);
        assert_eq!(seq, par, "mode {mode:?}");
        for threads in [2, 5, 16] {
            assert_eq!(
                seq,
                engine.evaluate_with_threads(&art.dev, mode, threads),
                "mode {mode:?}, {threads} threads"
            );
        }
    }
}

#[test]
fn batch_serving_matches_singles_across_mixed_service_levels() {
    let art = artifacts();
    let rt = TaskRuntime::from_artifacts(art);
    let requests: Vec<InferenceRequest> = art
        .dev
        .iter()
        .enumerate()
        .map(|(i, ex)| {
            let req = InferenceRequest::new(ex.tokens.clone());
            match i % 3 {
                0 => req.with_latency_target(30e-3),
                1 => req
                    .with_latency_target(150e-3)
                    .with_drop_target(DropTarget::FivePercent),
                _ => req.with_mode(InferenceMode::Base),
            }
        })
        .collect();
    let batched = rt.serve_batch(&requests);
    let singles: Vec<InferenceResponse> = requests.iter().map(|r| rt.serve(r)).collect();
    assert_eq!(batched, singles);
}
