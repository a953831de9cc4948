//! `edgebert-analyzer` — an in-repo static analysis pass enforcing
//! the serving stack's concurrency, hot-path, and determinism
//! contracts. Hand-rolled lexer + item scanner; zero dependencies
//! (the build environment is offline by design).
//!
//! Run it over the workspace:
//!
//! ```text
//! cargo run -p edgebert-analyzer -- --workspace
//! ```
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
//!   `InferenceSession::step` or the engine forward paths (`begin`,
//!   `run_layers`, `serve`, ...). Forward work under a lane lock
//!   serializes sibling shards for milliseconds at a time.
//! - `lock-unwrap-in-loop` — `lock().unwrap()/expect()` inside a
//!   function annotated `// analyzer: worker-loop`. A panicking
//!   worker poisons the mutex and the unwrap cascades the panic
//!   across every sibling shard; a site that wants exactly that (the
//!   lane lock: a torn queue must not be drained) says so in an
//!   `allow`.
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
//! This statically complements the PR 8 counting-allocator runtime
//! pin on the telemetry push path.
//!
//! **Determinism** — the bit-identity oracles rule out hidden
//! nondeterminism in modeled-timeline code:
//!
//! - `wall-clock` — `Instant::now()`, `SystemTime`, or `.elapsed()`
//!   outside a file annotated
//!   `// analyzer: wall-clock-module reason="..."`.
//! - `hash-iter` — iteration over a `HashMap`/`HashSet` (`for`,
//!   `.iter()`, `.keys()`, `.values()`, `.drain()`, `.retain()`,
//!   ...): hash order is seeded per process.
//! - `float-eq` — float `==`/`!=` against a nonzero literal, or
//!   `partial_cmp().unwrap()/expect()`; use `f64::total_cmp`.
//!   Comparisons against a literal `0.0` are exempt (the unset-field
//!   sentinel idiom: written verbatim, never computed).
//! - `unseeded-rng` — `thread_rng`/`from_entropy`/`from_os_rng`; all
//!   randomness must flow from explicit seeds.
//!
//! **Directive hygiene**:
//!
//! - `invalid-directive` — a malformed `analyzer:` comment: unknown
//!   directive or lint id, missing/empty `reason`, or a dangling
//!   `hot-path`/`worker-loop` with no function below it. Never
//!   suppressible, never baselinable.
//!
//! # Annotations and suppression
//!
//! ```text
//! // analyzer: hot-path                          (next fn: no alloc/block/panic)
//! // analyzer: worker-loop                       (next fn: lock-unwrap-in-loop applies)
//! // analyzer: wall-clock-module reason="..."    (file: wall-clock reads sanctioned)
//! // analyzer: allow(<lint>) reason="..."        (this line + next code line)
//! ```
//!
//! The `reason` is mandatory wherever it appears. `#[cfg(test)]` and
//! `#[test]` items are skipped wholesale — the oracles compare floats
//! exactly and take locks freely on purpose.
//!
//! # Baseline workflow
//!
//! Pre-existing findings are grandfathered in `analyzer-baseline.toml`
//! at the workspace root (matched on `(lint, file, function)`, not
//! line numbers). `--workspace` loads it automatically; new findings
//! outside the baseline fail with exit code 1. To triage after a
//! refactor: `--emit-baseline` prints a candidate file for the
//! current findings.

pub mod baseline;
pub mod directives;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod scan;

pub use baseline::BaselineEntry;
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
