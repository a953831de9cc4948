//! The workspace's one wall-clock reader. The server's stamps, its
//! emulation sleep, telemetry, and the
//! timers of the bench crate and the wall-clock gates all read real
//! time as `f64` seconds through a [`Clock`]. This file is the one
//! place the root `clippy.toml`'s `Instant` ban is lifted;
//! modeled-timeline code never holds a clock.

#![allow(
    clippy::disallowed_methods,
    reason = "the one wall-clock reader: every sanctioned real-time measurement goes through Clock"
)]

use std::time::{Duration, Instant};

/// A monotonic clock reading seconds since [`start`](Self::start).
/// `Copy`: every thread that shares a timeline holds its own copy of
/// the same epoch.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock reading zero now.
    pub fn start() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Seconds since the clock started. Never decreases.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Sleeps until the clock reads `target_s`. Returns at once when
    /// the target has passed, is NaN or infinite, or lies beyond what
    /// a `Duration` holds.
    pub fn sleep_until(&self, target_s: f64) {
        if let Ok(gap) = Duration::try_from_secs_f64(target_s - self.now_s()) {
            std::thread::sleep(gap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_until_returns_at_once_for_past_and_non_finite_targets() {
        let clock = Clock::start();
        for target_s in [-1.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            clock.sleep_until(target_s);
        }
        assert!(clock.now_s() < 1.0, "no target may block the caller");
        clock.sleep_until(clock.now_s() + 2e-3);
        assert!(clock.now_s() >= 2e-3);
    }
}
