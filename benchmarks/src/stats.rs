//! Order statistics for the benchmark's reports.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least ten samples beyond it (a percentile estimated from fewer
//! tail samples is mostly noise), and every reported number carries its
//! sample count.

/// The `p`-th percentile (`0.0..=100.0`) of `values`, linearly interpolated
/// between the two bracketing order statistics.  `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values` (`NaN` for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so the
/// spreads printed here are the ones the acceptance rule is stated in.
/// With fewer than two samples both quartiles equal the only sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let cut = |i: usize| -> f64 {
        // Position i*(n+1)/4 in 1-based order statistics, clamped to the
        // sample range exactly as the Python implementation does.
        let (mut j, mut delta) = (i * (n + 1) / 4, i * (n + 1) % 4);
        if j < 1 {
            (j, delta) = (1, 0);
        } else if j > n - 1 {
            (j, delta) = (n - 1, 4);
        }
        (sorted[j - 1] * (4 - delta) as f64 + sorted[j] * delta as f64) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest whole percentile that still has at least ten of the `n`
/// samples strictly beyond it, or `None` when not even the median does
/// (fewer than 20 samples).
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    // Samples beyond the p-th percentile: n - ceil(p/100 * n) >= 10.
    Some((100 * (n - 10) / n) as u32)
}

/// Median, quartiles and sample count of one reported quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 75.0), 40.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 87.5), 45.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        // 36 samples (three passes over twelve points): p72, not yet p75.
        assert_eq!(highest_supported_percentile(36), Some(72));
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(48), Some(79));
        assert_eq!(highest_supported_percentile(132), Some(92));
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }
}
