//! Exact order statistics over raw samples (never histogram buckets).

/// Samples sorted ascending (NaNs are never recorded).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); `0.0`
/// for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile that still has at least ten samples beyond it:
/// the value at rank `n - 10` (1-based), reported as `(value,
/// percentile)`. `None` with fewer than eleven samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 11 {
        return None;
    }
    let rank = n - 10;
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// Geometric mean of positive values; `0.0` if any is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|x| x.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), Some((90.0, 90.0)));
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&values), Some((1.0, 100.0 / 11.0)));
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
