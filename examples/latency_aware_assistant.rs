//! A voice-assistant-style stream of sentences under hard latency
//! budgets (the paper's motivating scenario, §1).
//!
//! One owned engine serves a stream of utterances whose deadlines
//! alternate per request — a 50 ms voice-assistant budget and a 200 ms
//! translation budget — and the DVFS controller picks a different
//! voltage/frequency point for every sentence from its predicted exit
//! layer *and* its own deadline. The unbounded schemes burn
//! nominal-voltage energy for comparison.
//!
//! ```text
//! cargo run --release --example latency_aware_assistant
//! ```

use edgebert::engine::{DropTarget, InferenceMode, InferenceRequest};
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert_tasks::Task;

fn main() {
    println!("== latency-aware assistant: QNLI stream at mixed 50/200 ms deadlines ==\n");
    let artifacts = TaskArtifacts::build(Task::Qnli, Scale::Test, 0xED6E + 3);
    let engine = artifacts
        .engine_builder()
        .workload(artifacts.hardware_workload(true))
        .latency_target(50e-3)
        .drop_target(DropTarget::OnePercent)
        .build();

    // Build the mixed-deadline request stream: even sentences are
    // "assistant" traffic (50 ms), odd ones "translation" (200 ms).
    let requests: Vec<InferenceRequest> = artifacts
        .dev
        .iter()
        .take(10)
        .enumerate()
        .map(|(i, ex)| {
            let target = if i % 2 == 0 { 50e-3 } else { 200e-3 };
            InferenceRequest::new(ex.tokens.clone()).with_latency_target(target)
        })
        .collect();

    // Serve the whole stream across worker threads, in request order.
    let responses = engine.serve_batch(&requests);

    println!(
        "{:<4} {:>8} {:>5} {:>5} {:>8} {:>9} {:>10}  deadline",
        "#", "target", "pred", "exit", "V", "F (MHz)", "energy"
    );
    let mut lai_total = 0.0f64;
    let mut ee_total = 0.0f64;
    let mut base_total = 0.0f64;
    for (i, (req, resp)) in requests.iter().zip(&responses).enumerate() {
        let r = &resp.result;
        lai_total += r.energy_j;
        ee_total += engine
            .run(&req.tokens, InferenceMode::ConventionalEe)
            .energy_j;
        base_total += engine.run(&req.tokens, InferenceMode::Base).energy_j;
        println!(
            "{:<4} {:>5.0} ms {:>5} {:>5} {:>7.3}V {:>9.0} {:>9.1}µJ  {}",
            i + 1,
            resp.latency_target_s * 1e3,
            r.predicted_layer.unwrap_or(0),
            r.exit_layer,
            r.voltage,
            r.freq_hz / 1e6,
            r.energy_j * 1e6,
            if r.deadline_met { "met" } else { "MISSED" },
        );
    }
    println!(
        "\nstream energy: LAI {:.1} µJ | EE {:.1} µJ | Base {:.1} µJ",
        lai_total * 1e6,
        ee_total * 1e6,
        base_total * 1e6
    );
    println!(
        "LAI saves {:.1}x vs Base, {:.1}x vs EE",
        base_total / lai_total,
        ee_total / lai_total
    );

    // Aggregate accuracy check across the modes (multi-threaded
    // evaluate; identical to a sequential pass).
    for (mode, agg) in engine.evaluate_modes(&artifacts.dev) {
        println!(
            "{:?}: accuracy {:.2}, avg exit {:.2}, avg energy {:.1} µJ",
            mode,
            agg.accuracy,
            agg.avg_exit_layer,
            agg.avg_energy_j * 1e6
        );
    }
}
