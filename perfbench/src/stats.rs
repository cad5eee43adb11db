//! Order statistics over timing samples.
//!
//! Latency samples may hold `f64::INFINITY`: a failed or refused job counts
//! as infinitely late, so it sorts above every real sample instead of being
//! dropped from the distribution.

/// Samples sorted ascending (infinities last; NaN is a bug upstream).
fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(xs.iter().all(|x| !x.is_nan()), "NaN sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle sample, or the mean of the two middle samples.
///
/// # Panics
/// On an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of all samples at or below it (`p` in `(0, 100]`).
///
/// # Panics
/// On an empty slice or `p` outside `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let v = sorted(xs);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 10.0);
        assert_eq!(percentile(&xs, 95.0), 19.0);
        assert_eq!(percentile(&xs, 99.0), 20.0);
        assert_eq!(percentile(&xs, 100.0), 20.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert_eq!(percentile(&[5.0], 95.0), 5.0);
    }

    #[test]
    fn failures_count_as_infinitely_late() {
        // 2 of 20 jobs failed: p95 lands on a failure, p90 does not.
        let mut xs: Vec<f64> = (1..=18).map(f64::from).collect();
        xs.push(f64::INFINITY);
        xs.push(f64::INFINITY);
        assert_eq!(percentile(&xs, 90.0), 18.0);
        assert!(percentile(&xs, 95.0).is_infinite());
        assert_eq!(median(&xs), 10.5);
    }
}
