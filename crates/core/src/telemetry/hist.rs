//! Log-bucketed histograms with fixed, implicit bucket boundaries.
//!
//! HDR-style: bucket edges are a fixed geometric grid (16 buckets per
//! decade over 12 decades starting at 1 ns / 1 nJ), so two histograms
//! recorded independently can be merged by elementwise addition and a
//! serde round-trip is exact — the boundaries are never serialized,
//! only the counts, and the grid is recomputed identically everywhere.
//!
//! Values are `f64` seconds (or joules — the grid covers both ranges):
//! `[1e-9, 1e3)` in 192 buckets. Non-positive and NaN values land in a
//! dedicated `zero` bucket (queue delays of exactly zero are common);
//! values above the top edge are absorbed by the last bucket, so
//! quantiles of pathological tails saturate instead of lying.

use serde::{Deserialize, Serialize};

/// Number of log-spaced buckets: 16 per decade × 12 decades.
pub const HIST_BUCKETS: usize = 192;

/// Buckets per decade of the geometric grid.
pub const HIST_BUCKETS_PER_DECADE: f64 = 16.0;

/// Lower edge of bucket 0 (1 ns / 1 nJ).
pub const HIST_LOWEST: f64 = 1e-9;

/// Log-bucketed histogram over positive `f64` values with exact merge
/// and serde semantics (fixed implicit boundaries; only counts travel).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Count of non-positive (or NaN) samples; quantiles that land
    /// here report `0.0`.
    pub zero: u64,
    /// Per-bucket counts on the fixed geometric grid.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples recorded (`zero` + all buckets).
    pub count: u64,
    /// Sum of all recorded values (exact mean recovery; zero/NaN
    /// samples contribute nothing).
    pub sum: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            zero: 0,
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
        }
    }

    /// Index of the bucket covering `v`, or `None` for the zero bucket.
    fn index_of(v: f64) -> Option<usize> {
        if v.is_nan() || v <= 0.0 {
            return None;
        }
        let idx = ((v / HIST_LOWEST).log10() * HIST_BUCKETS_PER_DECADE).floor();
        if idx < 0.0 {
            // Sub-nanosecond positives: below the grid, clamp into the
            // first bucket (its reported edge still bounds them above).
            Some(0)
        } else if idx as usize >= HIST_BUCKETS {
            // Above the top edge: saturate into the last bucket.
            Some(HIST_BUCKETS - 1)
        } else {
            Some(idx as usize)
        }
    }

    /// Exclusive upper edge of bucket `i` on the fixed grid.
    pub fn upper_edge(i: usize) -> f64 {
        HIST_LOWEST * 10f64.powf((i as f64 + 1.0) / HIST_BUCKETS_PER_DECADE)
    }

    /// Record one sample. Never allocates.
    pub fn record(&mut self, v: f64) {
        match Self::index_of(v) {
            Some(i) => {
                self.buckets[i] += 1;
                self.sum += v;
            }
            None => self.zero += 1,
        }
        self.count += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded (positive) values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all recorded samples, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merge `other` into `self` by elementwise addition — exact
    /// because both share the same fixed grid.
    pub fn merge(&mut self, other: &Self) {
        self.zero += other.zero;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Value at quantile `q` in `[0, 1]`: the upper edge of the bucket
    /// containing the sample of rank `ceil(q·count)` (rank ≥ 1), so the
    /// reported value is a true upper bound on that sample. Returns
    /// `0.0` for an empty histogram or when the rank falls in the zero
    /// bucket. Monotone in `q` by construction.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zero;
        if rank <= seen {
            return 0.0;
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return Self::upper_edge(i);
            }
        }
        // Unreachable when count is consistent; saturate defensively.
        Self::upper_edge(HIST_BUCKETS - 1)
    }

    /// Median upper bound.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Largest recorded value's bucket upper edge (`0.0` when only
    /// zero-bucket samples exist or the histogram is empty).
    pub fn max_edge(&self) -> f64 {
        self.quantile(1.0)
    }

    /// Iterate `(upper_edge, cumulative_count)` over every non-empty
    /// prefix boundary, Prometheus-style: the zero bucket folds into
    /// the first yielded cumulative count. Only boundaries whose bucket
    /// holds at least one sample are yielded (renderers append the
    /// `+Inf` line themselves from [`Self::count`]).
    pub fn cumulative_nonzero(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let mut cum = self.zero;
        self.buckets.iter().enumerate().filter_map(move |(i, &c)| {
            if c == 0 {
                None
            } else {
                cum += c;
                Some((Self::upper_edge(i), cum))
            }
        })
    }
}

/// The full per-lane distribution set the server records when
/// telemetry is enabled, beside the lane's counters under its lock.
/// It leaves one way, as a lane of a
/// [`TelemetrySnapshot`](super::TelemetrySnapshot); `Copy` (fixed-size
/// arrays), so the copy-out is one hold of that lock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LaneHistograms {
    /// Admission-to-pop queueing delay, seconds.
    pub queue_delay_s: LogHistogram,
    /// Admission-to-completion sojourn, seconds.
    pub sojourn_s: LogHistogram,
    /// Wall-clock compute time of a single `InferenceSession::step`,
    /// seconds (excludes emulated service-time sleeps).
    pub step_time_s: LogHistogram,
    /// Modeled accelerator energy per completed request, joules.
    pub energy_per_request_j: LogHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_bracket_recorded_values() {
        let mut h = LogHistogram::new();
        for &v in &[1e-9, 3.7e-6, 1.0, 999.0, 0.042] {
            h.record(v);
            let q = h.max_edge();
            assert!(q >= v * 0.999, "edge {q} below sample {v}");
            h = LogHistogram::new();
        }
    }

    #[test]
    fn bucket_width_is_tight() {
        // 16 buckets/decade → upper/lower ratio 10^(1/16) ≈ 1.155: the
        // quantile over-reports by at most ~15.5%.
        let ratio = LogHistogram::upper_edge(0) / HIST_LOWEST;
        assert!((ratio - 10f64.powf(1.0 / 16.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_and_nan_go_to_zero_bucket() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-1.0);
        h.record(f64::NAN);
        assert_eq!(h.zero, 3);
        assert_eq!(h.count(), 3);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn overflow_saturates_top_bucket() {
        let mut h = LogHistogram::new();
        h.record(1e12);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(h.p99(), LogHistogram::upper_edge(HIST_BUCKETS - 1));
    }

    #[test]
    fn merge_equals_union_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut union = LogHistogram::new();
        for i in 0..100 {
            let v = 1e-6 * 1.17f64.powi(i % 37);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            union.record(v);
        }
        a.merge(&b);
        // Counts are exactly the union; the sum may differ only by
        // f64 accumulation order.
        assert_eq!(a.buckets, union.buckets);
        assert_eq!(a.zero, union.zero);
        assert_eq!(a.count(), union.count());
        assert!((a.sum() - union.sum()).abs() <= 1e-9 * union.sum().abs());
    }
}
