//! Estimators: the floor (minimum over repetitions), percentiles of
//! virtual-time samples and the quartile spread the benchmark contract
//! uses (Python's `statistics.quantiles(values, n=4)`).

/// The floor estimator: host-time noise on this simulator is one-sided
/// (scheduler hand-off stalls only ever add time), so the minimum over
/// repetitions is the statistic that repeats. Panics on an empty slice.
pub fn floor(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)`
/// (exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median, in percent; 0 when
/// there are too few values to have quartiles.
pub fn iqr_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    100.0 * (q3 - q1) / median(values)
}

/// Nearest-rank percentile (`p` in 0..=100) of integer samples.
pub fn percentile(sorted_samples: &[u64], p: f64) -> u64 {
    let n = sorted_samples.len();
    assert!(n > 0, "percentile of nothing");
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted_samples[rank.clamp(1, n) - 1]
}

/// The highest percentile, at most 99, that still has ten samples beyond
/// it: 99 from 1,000 samples up, `100 · (1 − 10/n)` below that, and the
/// median when there are fewer than twenty.
pub fn tail_percentile(n: usize) -> f64 {
    if n >= 1000 {
        99.0
    } else if n >= 20 {
        100.0 * (1.0 - 10.0 / n as f64)
    } else {
        50.0
    }
}

/// How far the floor has converged within one run: the floors of the
/// even-numbered and the odd-numbered repetitions, as a relative
/// difference. `--compare` reports a metric as unresolved when this is
/// wider than the metric's bound.
pub fn split_half_spread(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let half = |parity: usize| {
        values
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, &v)| v)
            .fold(f64::INFINITY, f64::min)
    };
    let (a, b) = (half(0), half(1));
    (a - b).abs() / a.min(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_and_median() {
        let v = [3.0, 1.5, 9.0, 2.0];
        assert_eq!(floor(&v), 1.5);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[4.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) -> [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) -> [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert!((iqr_pct(&v) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 50.0), 500);
        assert_eq!(percentile(&s, 99.0), 990);
        assert_eq!(percentile(&s, 100.0), 1000);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5000), 99.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn split_half_spread_sees_an_unconverged_floor() {
        assert_eq!(split_half_spread(&[1.0, 1.0, 5.0, 9.0]), 0.0);
        assert!((split_half_spread(&[1.0, 2.0, 3.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(split_half_spread(&[1.0, 2.0]), 0.0);
    }
}
