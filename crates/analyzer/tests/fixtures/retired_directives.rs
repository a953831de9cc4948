//! Fixture: directives and lint ids the analyzer no longer knows (the
//! determinism family is clippy's; the poison lint is gone) — each
//! stale comment is an `invalid-directive`, which nothing suppresses.

// analyzer: wall-clock-module reason="retired: #![allow(clippy::disallowed_methods, reason = ..)]"

// analyzer: worker-loop
pub fn drain(queue: &std::sync::Mutex<Vec<u32>>) -> usize {
    // analyzer: allow(lock-unwrap-in-loop) reason="retired"
    let q = queue.lock().expect("queue mutex");
    // analyzer: allow(wall-clock) reason="retired"
    // analyzer: allow(hash-iter) reason="retired"
    // analyzer: allow(float-eq) reason="retired"
    // analyzer: allow(unseeded-rng) reason="retired"
    q.len()
}
