//! Descriptive statistics helpers for calibration and report generation.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Minimum value; `f32::INFINITY` for an empty slice.
pub fn min(xs: &[f32]) -> f32 {
    xs.iter().cloned().fold(f32::INFINITY, f32::min)
}

/// Maximum value; `f32::NEG_INFINITY` for an empty slice.
pub fn max(xs: &[f32]) -> f32 {
    xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
}

/// Index of the maximum value (first occurrence).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// Linear-interpolation percentile, `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is out of range.
pub fn percentile(xs: &[f32], p: f32) -> f32 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (sorted.len() - 1) as f32;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f32;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Root-mean-square error between two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn rmse(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "rmse length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let s: f32 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
    (s / a.len() as f32).sqrt()
}

/// Pearson correlation coefficient; `0.0` when either side is constant.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn pearson(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "pearson length mismatch");
    if a.len() < 2 {
        return 0.0;
    }
    let ma = mean(a);
    let mb = mean(b);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(min(&[]), f32::INFINITY);
        assert_eq!(max(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn argmax_first_occurrence() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), 1);
        assert_eq!(argmax(&[-3.0]), 0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0f32, 10.0];
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert!((percentile(&xs, 50.0) - 5.0).abs() < 1e-6);
        // Median of an odd-length slice is the middle element.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn rmse_zero_for_identical() {
        let xs = [1.0f32, -2.0, 3.5];
        assert_eq!(rmse(&xs, &xs), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn pearson_detects_correlation_sign() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let y = [2.0f32, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-6);
        let z = [8.0f32, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-6);
        assert_eq!(pearson(&x, &[5.0; 4]), 0.0);
    }
}
