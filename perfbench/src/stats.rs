//! Order statistics the benchmark reports: nearest-rank percentiles,
//! the "at least ten samples beyond" rule, and quartile spreads.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p/100 × n)` (1-based). `None` for an empty sample or a
/// `p` outside `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank_of(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank_of(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Samples strictly above the nearest rank of `p` in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    rank_of(n, p).map_or(0, |rank| n - rank)
}

/// Whether percentile `p` of a sample of `n` has at least ten samples
/// beyond it, the condition for reporting it at all.
pub fn reportable(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// The highest of `candidates` (ascending percentiles) that is
/// reportable for a sample of `n`.
pub fn highest_reportable(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().rev().copied().find(|&p| reportable(n, p))
}

/// Sort a sample ascending (total order, NaN last).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Arithmetic mean (NaN for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(xs, n=4)`: positions `(n+1)·k/4`,
/// linearly interpolated. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |k: f64| {
        let pos = (n as f64 + 1.0) * k / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(1.0), at(3.0)))
}

/// Quartile spread as a share of the median: `(Q3 − Q1) / |median|`.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// How much worse `later` is than `first`, as a share of `first`, for a
/// metric where `lower_is_better` says which way is worse. Negative
/// when `later` is better.
pub fn worsening(first: f64, later: f64, lower_is_better: bool) -> f64 {
    let change = (later - first) / first.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&xs, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&xs, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&xs, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&xs, 0.0), None);
        assert_eq!(nearest_rank(&xs, 101.0), None);
        // Never interpolates: every answer is a sample.
        assert_eq!(nearest_rank(&[1.0, 3.0], 50.0), Some(1.0));
    }

    #[test]
    fn ten_beyond_rule() {
        // p90 of 100 samples sits at rank 90: exactly ten beyond.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(reportable(100, 90.0));
        assert!(!reportable(99, 90.0));
        // p99 needs a thousand samples.
        assert!(!reportable(999, 99.0));
        assert!(reportable(1000, 99.0));
        assert_eq!(highest_reportable(150, &[50.0, 90.0, 99.0]), Some(90.0));
        assert_eq!(highest_reportable(15, &[50.0, 90.0, 99.0]), None);
        assert_eq!(highest_reportable(20, &[50.0, 90.0, 99.0]), Some(50.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = spread(&xs).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn worsening_follows_the_direction() {
        // A time that grows from 2 to 2.5 is 25 % worse.
        assert_eq!(worsening(2.0, 2.5, true), 0.25);
        // A throughput that falls from 4 to 3 is 25 % worse.
        assert_eq!(worsening(4.0, 3.0, false), 0.25);
        // Improvements read negative.
        assert_eq!(worsening(4.0, 5.0, false), -0.25);
        assert_eq!(worsening(2.0, 1.5, true), -0.25);
    }
}
