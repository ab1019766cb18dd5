//! Order statistics over per-operation samples.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, one outlier would decide its value.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` samples. `None` when
/// there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The highest percentile, at most `wanted`, that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond its nearest rank. `None` when
/// `n` is too small for any.
pub fn tail_percentile(n: usize, wanted: f64) -> Option<f64> {
    if n <= MIN_BEYOND {
        return None;
    }
    let mut p = wanted.min(100.0 * (n - MIN_BEYOND) as f64 / n as f64);
    // At the exact limit, rounding can put the ceiling one rank high.
    while n - rank(n, p) < MIN_BEYOND {
        p = p.next_down();
    }
    Some(p)
}

/// Median of unsorted values (mean of the middle pair for an even
/// count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(n: usize, p: f64) -> usize {
        n - rank(n, p)
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(tail_percentile(200, 95.0), Some(95.0));
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(tail_percentile(1000, 95.0), Some(95.0));
        let p = tail_percentile(199, 95.0).unwrap();
        assert!(p < 95.0);
        assert!(beyond(199, p) >= MIN_BEYOND);
    }

    #[test]
    fn tail_percentile_is_the_highest_with_ten_beyond() {
        for n in 11..600 {
            let p = tail_percentile(n, 99.9).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            // Any rank further out would leave fewer than ten beyond.
            assert_eq!(rank(n, p), n - MIN_BEYOND, "n={n} p={p}");
        }
        assert_eq!(tail_percentile(100, 95.0), Some(90.0));
        assert_eq!(tail_percentile(10, 50.0), None);
        assert_eq!(tail_percentile(0, 50.0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 100.0), Some(200.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
