//! Fixture: a suppression without its mandatory reason string — the
//! directive itself is the finding, and it cannot be suppressed.

// analyzer: hot-path
pub fn latest(samples: &[f64]) -> f64 {
    // analyzer: allow(hot-path-panic)
    *samples.last().unwrap()
}
