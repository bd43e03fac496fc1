//! Order statistics for timings: medians, quartiles that match the
//! reference tool's, nearest-rank percentiles, and the tail rule.

/// Sorted copy of `xs` (NaN-free inputs; timings and counts only).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even lengths); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so a run's printed spread equals the one an outside script
/// computes from the same values. One value yields itself three times;
/// none yields `NaN`s.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile `q` in `(0, 1]`: the smallest sample with at
/// least `q` of all samples at or below it. `NaN` when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The percentiles the tail rule chooses from, lowest first.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The tail rule: the highest percentile of [`TAIL_LADDER`] that still
/// has at least ten of `n` samples strictly beyond its nearest rank.
/// `None` when even the median lacks ten samples beyond it (`n < 20`).
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| n >= rank(n, q) + 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[4.0], 0.9), 4.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(99), Some(0.5));
        // p90 of 100 is rank 90: exactly ten samples beyond.
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(1_680), Some(0.99));
        assert_eq!(tail_level(9_999), Some(0.99));
        assert_eq!(tail_level(10_000), Some(0.999));
        assert_eq!(tail_level(45_000), Some(0.999));
    }
}
