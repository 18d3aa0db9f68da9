//! Order statistics and the least-squares pieces of the cost-model
//! fit.

/// The `p`-quantile (`0.0..=1.0`) of `values` by the nearest-rank
/// rule: the smallest value with at least `p·n` values at or below it.
/// Non-finite values (failed requests are recorded as `+∞`) sort last.
/// Returns 0 for an empty slice, as do the other statistics here.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 50th [`percentile`].
pub fn p50(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The 99th [`percentile`].
pub fn p99(values: &[f64]) -> f64 {
    percentile(values, 0.99)
}

/// The median of `values` (the mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The least-squares slope of `y ≈ k·x` through the origin, `None`
/// when every `x` is 0.
pub fn slope_through_origin(points: &[(f64, f64)]) -> Option<f64> {
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    (sxx > 0.0).then(|| sxy / sxx)
}

/// The coefficient of determination of `(predicted, actual)` pairs
/// against the mean of `actual`; `None` when `actual` has no variance.
pub fn r_squared(pairs: &[(f64, f64)]) -> Option<f64> {
    let m = mean(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    let ss_res: f64 = pairs.iter().map(|p| (p.1 - p.0).powi(2)).sum();
    let ss_tot: f64 = pairs.iter().map(|p| (p.1 - m).powi(2)).sum();
    (ss_tot > 0.0).then(|| 1.0 - ss_res / ss_tot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.8), 4.0);
        assert_eq!(percentile(&v, 0.81), 5.0);
    }

    #[test]
    fn failures_count_against_the_tail() {
        // Two of four requests failed: the median is the worst success,
        // and p99 is unbounded.
        let v = [f64::INFINITY, 10.0, 20.0, f64::INFINITY];
        assert_eq!(percentile(&v, 0.5), 20.0);
        assert_eq!(percentile(&v, 0.99), f64::INFINITY);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn slope_and_r_squared() {
        assert_eq!(slope_through_origin(&[(1.0, 3.0), (2.0, 6.0)]), Some(3.0));
        assert_eq!(slope_through_origin(&[(0.0, 3.0)]), None);
        assert_eq!(r_squared(&[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]), Some(1.0));
        // Predicting the mean explains nothing.
        assert_eq!(r_squared(&[(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)]), Some(0.0));
        assert_eq!(r_squared(&[(1.0, 5.0), (2.0, 5.0)]), None);
    }
}
