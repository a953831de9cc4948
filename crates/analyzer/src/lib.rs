//! `edgebert-analyzer` — an in-repo static analysis pass enforcing
//! the serving stack's concurrency and hot-path contracts: the two
//! things no compiler, stock lint or runtime budget can see. Hand-rolled
//! lexer + item scanner; zero dependencies (the build environment is
//! offline by design).
//!
//! It is a library with one entry point, [`analyze`], and it runs as a
//! test: `tests/workspace.rs` analyzes the whole workspace inside
//! `cargo test` and prints every finding as
//! `file:line: [lint] message (in fn)`.
//!
//! ```text
//! cargo test -p edgebert-analyzer
//! ```
//!
//! The determinism contract (no clock, hash-order or exact-float reads
//! in modeled-timeline code) is not checked here: it is three stock
//! clippy lints, configured in the root `clippy.toml` and CI's `check`
//! job.
//!
//! # Lint catalog
//!
//! **Lock discipline** — per-function lock summaries, interprocedural
//! one level deep:
//!
//! - `nested-lock` — a blocking `lock()` (or a call to a function
//!   that acquires one, including guard-returning helpers) while
//!   another guard is live. A lane has one lock and two lane locks
//!   are never held together, so `crates/core` carries no `allow` for
//!   this lint (`tests/workspace.rs` pins that).
//! - `lock-across-step` — a guard held across a call into
//!   `InferenceSession::step`, the calls that drive a session to
//!   completion (`finish`, `run_to_completion`) or the engine forward
//!   paths (`begin`, `run_layers`, `serve`, `evaluate`, ...). Forward
//!   work under a lane lock serializes sibling shards for milliseconds
//!   at a time.
//!
//! **Hot-path discipline** — functions annotated
//! `// analyzer: hot-path` may not:
//!
//! - allocate (`hot-path-alloc`): `Box::new`, `Vec::`/`String::`
//!   constructors, `format!`/`vec!`, `.to_vec()`, `.clone()`,
//!   `.collect()`, `.push()`, ... (`Arc::clone(&x)` is exempt — it
//!   is the sanctioned refcount-bump spelling);
//! - block (`hot-path-block`): blocking `lock()` (use `try_lock` and
//!   count a drop), `Condvar::wait`, `sleep`, `join`, `recv`;
//! - panic (`hot-path-panic`): `panic!`/`assert!`-family macros,
//!   `.unwrap()`, `.expect()`.
//!
//! This statically complements the counting-allocator budgets in
//! `tests/{forward,backward,drain}_allocations.rs` and
//! `tests/telemetry_overhead.rs`, which only see the paths a test
//! happens to run.
//!
//! **Directive hygiene**:
//!
//! - `invalid-directive` — a malformed `analyzer:` comment: unknown
//!   directive or lint id, missing/empty `reason`, or a dangling
//!   `hot-path` with no function below it. Never suppressible.
//!
//! # Annotations and suppression
//!
//! ```text
//! // analyzer: hot-path                          (next fn: no alloc/block/panic)
//! // analyzer: allow(<lint>) reason="..."        (this line + next code line)
//! ```
//!
//! The `reason` is mandatory. `#[cfg(test)]` and `#[test]` items are
//! skipped wholesale — tests take locks freely on purpose.

pub mod directives;
pub mod lexer;
pub mod lints;
pub mod scan;

pub use lints::{Finding, Lint};
pub use scan::{analyze, Report};

use std::io;
use std::path::{Path, PathBuf};

/// Locate the workspace root by searching upward from `start` for a
/// `Cargo.toml` containing a `[workspace]` table.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collect every `.rs` file under `<root>/src`, `<root>/crates/*/src`,
/// and `<root>/crates/*/*/src` (nested crates like the offline shims)
/// as `(workspace-relative path, contents)`, sorted by path.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut roots = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut names: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        names.sort();
        for c in names {
            if c.join("src").is_dir() {
                roots.push(c.join("src"));
            } else {
                let mut nested: Vec<PathBuf> = std::fs::read_dir(&c)?
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| p.join("src").is_dir())
                    .collect();
                nested.sort();
                for n in nested {
                    roots.push(n.join("src"));
                }
            }
        }
    }
    for src_dir in roots {
        if src_dir.is_dir() {
            collect_rs_files(&src_dir, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// Recursively gather `.rs` files under `dir`, recording paths
/// relative to `root` with `/` separators.
pub fn collect_rs_files(
    dir: &Path,
    root: &Path,
    out: &mut Vec<(String, String)>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs_files(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, std::fs::read_to_string(&p)?));
        }
    }
    Ok(())
}
