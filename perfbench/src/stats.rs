//! The benchmark's own arithmetic: medians, tail percentiles that keep
//! enough samples beyond them to mean something, and geometric means.

/// A tail percentile is reported only when at least this many samples
/// lie strictly beyond it; otherwise it would be one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// the smallest rank `r` with `r / n >= pct / 100`, computed in integers.
fn nearest_rank(n: usize, pct: usize) -> usize {
    (n * pct).div_ceil(100).max(1)
}

/// Samples needed before the `pct`-th percentile leaves [`MIN_BEYOND`]
/// samples beyond it (1000 for p99, 20 for p50).
pub fn min_samples(pct: usize) -> usize {
    (1..)
        .find(|&n| n - nearest_rank(n, pct) >= MIN_BEYOND)
        .expect("some sample count leaves enough beyond any pct < 100")
}

/// Nearest-rank `pct`-th percentile of ascending `sorted` samples, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], pct: usize) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input is sorted");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let r = nearest_rank(n, pct);
    (n - r >= MIN_BEYOND).then(|| sorted[r - 1])
}

/// Median of unsorted samples (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Geometric mean; `None` when empty or when any value is not a finite
/// positive number (a ratio of zero or NaN would hide in the log sum).
pub fn gmean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples(99), 1000);
        assert_eq!(min_samples(50), 20);
        assert_eq!(percentile(&ramp(999), 99), None, "only 9 beyond");
        // 1000 samples: rank 990, so 991..=1000 (ten samples) lie beyond.
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 99), Some(1980.0));
    }

    #[test]
    fn percentile_uses_the_nearest_rank() {
        assert_eq!(percentile(&ramp(100), 50), Some(50.0));
        assert_eq!(percentile(&ramp(101), 50), Some(51.0));
        assert_eq!(percentile(&ramp(19), 50), None, "9 beyond the median");
        assert_eq!(percentile(&[], 50), None);
        // Ties at the rank are reported as the tied value.
        let mut v = vec![1.0; 500];
        v.extend(vec![7.0; 600]);
        assert_eq!(percentile(&v, 99), Some(7.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geometric_mean() {
        let g = gmean(&[1.0, 4.0]).expect("defined");
        assert!((g - 2.0).abs() < 1e-12);
        let g = gmean(&[0.5, 0.5, 0.5]).expect("defined");
        assert!((g - 0.5).abs() < 1e-12);
        // Reciprocal ratios cancel exactly as a gmean should.
        let g = gmean(&[0.8, 1.25]).expect("defined");
        assert!((g - 1.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), None);
        assert_eq!(gmean(&[1.0, 0.0]), None);
        assert_eq!(gmean(&[1.0, f64::NAN]), None);
    }
}
