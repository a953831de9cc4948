//! Fixture corpus: every lint has a minimal source file under
//! `tests/fixtures/` that must produce *exactly* its expected finding —
//! same lint, same line, same function — plus a clean fixture that must
//! stay silent, a broken-suppression fixture whose directive is itself
//! the finding, and one holding every retired directive.

use edgebert_analyzer::{analyze, Finding, Lint};
use std::path::Path;

fn run_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    analyze(&[(name.to_string(), src)]).findings
}

/// Asserts the fixture yields exactly one finding of `lint` at `line`
/// inside `function`.
fn assert_single(name: &str, lint: Lint, line: u32, function: &str) {
    let findings = run_fixture(name);
    assert_eq!(
        findings.len(),
        1,
        "{name}: expected exactly one finding, got {findings:?}"
    );
    let f = &findings[0];
    assert_eq!(f.lint, lint, "{name}: wrong lint: {f}");
    assert_eq!(f.line, line, "{name}: wrong line: {f}");
    assert_eq!(f.function, function, "{name}: wrong function: {f}");
}

#[test]
fn nested_lock_direct() {
    assert_single("nested_lock.rs", Lint::NestedLock, 13, "sum");
}

#[test]
fn nested_lock_one_level_interprocedural() {
    assert_single(
        "nested_lock_interprocedural.rs",
        Lint::NestedLock,
        18,
        "State::drain",
    );
}

#[test]
fn lock_held_across_session_step() {
    assert_single(
        "lock_across_step.rs",
        Lint::LockAcrossStep,
        14,
        "serve_locked",
    );
}

#[test]
fn lock_held_across_session_completion() {
    let findings = run_fixture("lock_across_completion.rs");
    let got: Vec<(Lint, u32, &str)> = findings
        .iter()
        .map(|f| (f.lint, f.line, f.function.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![
            (Lint::LockAcrossStep, 15, "finish_locked"),
            (Lint::LockAcrossStep, 21, "complete_locked"),
        ],
        "{findings:?}"
    );
}

#[test]
fn hot_path_allocation() {
    assert_single("hot_path_alloc.rs", Lint::HotPathAlloc, 5, "record");
}

#[test]
fn hot_path_blocking_lock() {
    assert_single("hot_path_block.rs", Lint::HotPathBlock, 8, "push");
}

#[test]
fn hot_path_panicking_unwrap() {
    assert_single("hot_path_panic.rs", Lint::HotPathPanic, 5, "latest");
}

#[test]
fn clean_fixture_is_silent() {
    let findings = run_fixture("clean.rs");
    assert!(findings.is_empty(), "clean.rs flagged: {findings:?}");
}

#[test]
fn allow_without_reason_is_invalid_and_suppresses_nothing() {
    let findings = run_fixture("allow_no_reason.rs");
    let invalid: Vec<_> = findings
        .iter()
        .filter(|f| f.lint == Lint::InvalidDirective)
        .collect();
    assert_eq!(
        invalid.len(),
        1,
        "expected one invalid-directive: {findings:?}"
    );
    assert_eq!(invalid[0].line, 6);
    // The malformed allow must not silence the underlying finding.
    assert!(
        findings
            .iter()
            .any(|f| f.lint == Lint::HotPathPanic && f.line == 7),
        "broken allow silenced the unwrap: {findings:?}"
    );
    assert_eq!(findings.len(), 2, "unexpected extras: {findings:?}");
}

/// A directive or lint id the analyzer retired is not quietly ignored:
/// every stale comment is an unsuppressible finding, so the workspace
/// test fails until it is deleted.
#[test]
fn retired_directives_are_invalid() {
    let findings = run_fixture("retired_directives.rs");
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![5, 7, 9, 11, 12, 13, 14], "{findings:?}");
    assert!(
        findings.iter().all(|f| f.lint == Lint::InvalidDirective),
        "{findings:?}"
    );
}
