//! Order statistics over small samples: medians of episode values,
//! quartile spread of repeated runs, and latency percentiles.

/// Sort a copy of `values` ascending (NaN-free input).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    v
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The best of a run's episode values. Other tenants of the host only
/// ever slow an episode down, so the best one is the least disturbed.
///
/// # Panics
/// Panics on an empty slice.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "best of no samples");
    if higher_is_better {
        v[v.len() - 1]
    } else {
        v[0]
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses: position `(n + 1) · q`
/// (1-based), interpolated linearly and clamped to the sample range.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |q: usize| {
        // Python: j = i * (n + 1) // 4, delta = i * (n + 1) - j * 4
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median: the spread
/// the acceptance rule is stated in.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// `(max − min) / median`: the spread of a handful of episode values,
/// where quartiles would hide the outlier that matters.
pub fn relative_range(values: &[f64]) -> f64 {
    let v = sorted(values);
    let m = median(values);
    if v.is_empty() || m == 0.0 {
        0.0
    } else {
        (v[v.len() - 1] - v[0]) / m.abs()
    }
}

/// The `p`-th percentile (0 < p < 100) by nearest rank on the sorted
/// samples.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of `candidates` that still has at least ten samples
/// beyond it in a sample of `n` — the tail a sample of that size
/// supports. `None` when even the lowest candidate has fewer.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        // The slack absorbs the rounding of percentiles like 99.9.
        .filter(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn best_follows_the_direction() {
        assert_eq!(best(&[3.0, 1.0, 2.0], true), 3.0);
        assert_eq!(best(&[3.0, 1.0, 2.0], false), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12);
        assert!((q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0]);
        assert!((q1 - 1.0).abs() < 1e-12);
        assert!((q3 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn relative_range_spans_min_to_max() {
        assert!((relative_range(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        let c = [50.0, 95.0, 99.0, 99.9];
        // 100 samples: 5 beyond p95 — only the median is supported.
        assert_eq!(highest_supported_percentile(100, &c), Some(50.0));
        // 200 samples: exactly 10 beyond p95.
        assert_eq!(highest_supported_percentile(200, &c), Some(95.0));
        // 999 samples: 9.99 beyond p99 — not yet.
        assert_eq!(highest_supported_percentile(999, &c), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000, &c), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000, &c), Some(99.9));
        assert_eq!(highest_supported_percentile(15, &c), None);
    }
}
