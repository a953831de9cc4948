//! The analyzer run on its own workspace: the repo must be clean, and
//! the contracts the serving stack claims in its comments — hot-path
//! telemetry push, hot-path lane pop — must actually carry the
//! annotations the analyzer verifies.

use edgebert_analyzer::{analyze, collect_workspace_files, workspace_root};
use std::path::Path;

fn workspace_report() -> edgebert_analyzer::Report {
    let root = workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("analyzer lives inside the workspace");
    let files = collect_workspace_files(&root).expect("walk workspace sources");
    assert!(
        files.len() > 20,
        "workspace walk looks wrong: {} files",
        files.len()
    );
    analyze(&files)
}

#[test]
fn workspace_is_clean() {
    let report = workspace_report();
    assert!(
        report.findings.is_empty(),
        "analyzer findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn telemetry_push_and_lane_pop_paths_are_declared_hot() {
    let report = workspace_report();
    let hot: Vec<&str> = report
        .hot_path_fns
        .iter()
        .map(|(_, q)| q.as_str())
        .collect();
    for expected in [
        // Telemetry push path.
        "Ring::push",
        "PackedEvent::pack",
        "SpanRecorder::emit",
        "Telemetry::record_at",
        // Lane pop path.
        "LaneQueue::pop_work",
        "LaneQueue::best",
        "LaneQueue::finish_pop",
        "LaneQueue::resume_parked",
        // The pop's energy envelope.
        "LaneConfig::envelope_w",
        "FleetBudget::envelope_w",
        "split",
    ] {
        assert!(
            hot.contains(&expected),
            "{expected} lost its hot-path annotation (have: {hot:?})"
        );
    }
}

/// A lane has one lock, so nothing in `crates/core` may hold two: a
/// second lane lock must not come back blessed by a comment.
#[test]
fn core_carries_no_nested_lock_suppression() {
    let root = workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let files = collect_workspace_files(&root).expect("walk workspace sources");
    let offenders: Vec<&str> = files
        .iter()
        .filter(|(path, source)| {
            path.starts_with("crates/core/") && source.contains("allow(nested-lock)")
        })
        .map(|(path, _)| path.as_str())
        .collect();
    assert!(
        offenders.is_empty(),
        "allow(nested-lock) directives in crates/core: {offenders:?}"
    );
}

/// Modeled-timeline code never reads the clock: every sanctioned read
/// goes through `edgebert::clock::Clock`, so its file holds the one
/// wall-clock lint exemption and the one `Instant` in core. The
/// scheduler and span recording hold neither.
#[test]
fn scheduler_and_span_recording_read_no_clock() {
    let root = workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let files = collect_workspace_files(&root).expect("walk workspace sources");
    let holding = |dir: &str, needle: &str| -> Vec<&str> {
        let hits = files
            .iter()
            .filter(|(path, source)| path.starts_with(dir) && source.contains(needle));
        hits.map(|(path, _)| path.as_str()).collect()
    };
    let clock = ["crates/core/src/clock.rs"];
    assert_eq!(holding("", "clippy::disallowed_methods"), clock);
    assert_eq!(holding("crates/core/src/", "Instant"), clock);
}
