//! Order statistics over timing samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile that still has at least ten samples beyond it, as
/// `(percentile, value)`; `None` with ten samples or fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    (n > 10).then(|| ((n - 10) as f64 / n as f64, sorted[n - 11]))
}

/// Nearest-rank percentile `q ∈ (0, 1]`; 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `(q1, q3)` exactly as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default exclusive method) — the acceptance procedure computes
/// spreads with that function, so `summarize` must agree with it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(tail(&hundred), Some((0.9, 90.0)));
        assert_eq!(tail(&hundred[..10]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        //   -> [3.5, 13.5, 31.0]
        let values = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&values), (3.5, 31.0));
        // statistics.quantiles([5, 1, 3], n=4) -> [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
    }
}
