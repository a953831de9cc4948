//! Medians, percentiles and spreads over blocks of a run.

/// The `p`-th percentile (`0.0..=100.0`) of `sorted` by nearest rank:
/// the smallest value with at least `p` percent of the sample at or
/// below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `p`-th percentile of an unsorted sample; `0.0` for an empty one.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    percentile(&sorted, p)
}

/// Sorts a sample ascending (`total_cmp`, so a NaN cannot panic).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The median of `values` (mean of the two middle values when even).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the spread printed here is the
/// spread the driver computes. A sample of one has no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The sustained rate, per second, of a stream of completions: one
/// over the median time between two of them. `stamps_s` holds the time
/// the stream started and then the time of each completion, in order.
/// A stall of the host (another tenant's time slice) lengthens the
/// intervals it falls in and leaves the median alone, where completions
/// over wall time would charge it to the program. `None` without a
/// completion or without time.
pub fn sustained_rate(stamps_s: &[f64]) -> Option<f64> {
    let intervals: Vec<f64> = stamps_s.windows(2).map(|w| w[1] - w[0]).collect();
    if intervals.is_empty() {
        return None;
    }
    let rate = 1.0 / median(&intervals);
    (rate.is_finite() && rate > 0.0).then_some(rate)
}

/// A metric measured once per block of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSummary {
    /// Median over the blocks: the reported value.
    pub median: f64,
    /// Distance between the first and third quartile over the blocks,
    /// as a share of the median.
    pub spread: f64,
    /// Number of blocks.
    pub blocks: usize,
}

/// Median and inter-quartile spread of one value per block.
///
/// # Panics
///
/// Panics if `per_block` is empty.
pub fn summarize(per_block: &[f64]) -> BlockSummary {
    let median = median(per_block);
    let (q1, q3) = quartiles(per_block);
    let spread = if median == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / median.abs()
    };
    BlockSummary {
        median,
        spread,
        blocks: per_block.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 3, 9, 7], n=4) -> [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 9.0, 7.0]), (2.0, 8.0));
    }

    #[test]
    fn sustained_rate_ignores_a_stall() {
        // A completion every 10 ms; then the host stalls 40 ms twice.
        let mut stamps: Vec<f64> = (0..=12).map(|i| f64::from(i) * 0.010).collect();
        let steady = sustained_rate(&stamps).expect("twelve intervals");
        assert!((steady - 100.0).abs() < 1e-9, "{steady}");
        for (i, stamp) in stamps.iter_mut().enumerate() {
            *stamp += 0.040 * ((i >= 3) as u8 + (i >= 9) as u8) as f64;
        }
        let stalled = sustained_rate(&stamps).expect("twelve intervals");
        assert!((stalled - 100.0).abs() < 1e-9, "{stalled}");
        // Completions over wall time would have read 60 a second.
        assert!((12.0 / stamps[12] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn sustained_rate_of_short_and_empty_streams() {
        assert_eq!(sustained_rate(&[0.0, 0.5]), Some(2.0));
        assert_eq!(sustained_rate(&[0.0]), None);
        assert_eq!(sustained_rate(&[]), None);
        assert_eq!(sustained_rate(&[1.0, 1.0]), None);
    }

    #[test]
    fn summary_is_the_median_of_blocks_with_its_spread() {
        // One slow block does not move the reported value.
        let s = summarize(&[10.0, 10.0, 10.0, 10.0, 50.0]);
        assert_eq!(s.median, 10.0);
        assert_eq!(s.blocks, 5);
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(s.median, 5.5);
        assert!((s.spread - 1.0).abs() < 1e-12);
    }
}
