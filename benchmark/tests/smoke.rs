//! Both passes end to end at a tiny `--scale`: every check passes, and
//! what a real run emits names exactly the metrics of `BENCHMARK.json`.
//!
//! One `#[test]` on purpose: the passes time themselves, and two at once
//! on a small box would only slow each other down.

use edgebert_benchmark::cli::{end_to_end, traced, Options};
use edgebert_benchmark::report::{Manifest, Pass};
use edgebert_benchmark::workloads::{find, WORKLOADS};

#[test]
fn both_passes_run_check_out_and_match_the_manifest() {
    let manifest = Manifest::builtin();
    let options = |workload: &str| Options {
        workloads: vec![find(workload).expect("a workload of the benchmark")],
        seed: 3,
        seconds: 0.01,
        scale: 0.02,
        out: std::env::temp_dir(),
    };

    // The scheduler workload carries the strictest checks: every
    // response against a direct serve, and two drains bit for bit.
    let drained = options("sched_drain");
    let result = end_to_end(drained.workloads[0], &drained);
    assert_eq!(result.failed, 0);
    assert!(result.attempted > 0);
    assert_eq!(result.check_against(&manifest, Pass::EndToEnd), Ok(()));
    assert!(result.metrics.values().all(|m| m.value > 0.0));
    let again = end_to_end(drained.workloads[0], &drained);
    assert_eq!(again.input_digest, result.input_digest);
    assert_eq!(again.attempted, result.attempted);

    // The burst workload is the one with threads, preemption and
    // telemetry in play.
    let burst = options("burst_backlog");
    let result = end_to_end(burst.workloads[0], &burst);
    assert_eq!(result.failed, 0);
    assert_eq!(result.check_against(&manifest, Pass::EndToEnd), Ok(()));

    let shallow = options("serve_shallow");
    let (result, spans) = traced(shallow.workloads[0], &shallow);
    assert_eq!(result.failed, 0);
    assert_eq!(result.check_against(&manifest, Pass::Traced), Ok(()));
    assert_eq!(result.metrics["model.layers_per_sentence"].value, 1.0);
    for rung in [
        "engine.serve",
        "session.step",
        "nn.encoder_infer",
        "server.submit",
    ] {
        assert!(spans.iter().any(|s| s.name == rung), "no {rung} span");
    }
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert_eq!(manifest.workloads.len(), WORKLOADS.len());
}
