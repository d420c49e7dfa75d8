//! Percentiles, medians and the quartile spread the benchmark reports.

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `⌈q · n⌉` (1-based). `q` in `(0, 1]`; panics on an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank `⌈q · n⌉`, kept inside `1..=n`. The small
/// subtraction keeps a product such as `0.99 · 1000`, which floating point
/// may put a hair above 990, on the rank arithmetic intends.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The tail percentiles a timing may be reported at, lowest first.
pub const TAILS: [(&str, f64); 4] =
    [("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999), ("p99.99", 0.9999)];

/// The highest of [`TAILS`] that still has at least ten samples beyond it
/// among `n` samples, or `None` below 100 samples. A percentile with fewer
/// samples beyond it is the reading of a handful of requests, not of the
/// distribution.
pub fn supported_tail(n: usize) -> Option<(&'static str, f64)> {
    TAILS.iter().rev().copied().find(|&(_, q)| beyond(n, q) >= 10)
}

/// Samples strictly above the nearest-rank position of `q` among `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// A timing as the benchmark reports it: median, the highest supported tail
/// percentile, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    pub samples: usize,
    pub median: f64,
    pub tail: Option<(&'static str, f64)>,
}

/// Summarises raw samples (any order). `None` when there are none.
pub fn timing(samples: &mut [f64]) -> Option<Timing> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(Timing {
        samples: samples.len(),
        median: nearest_rank(samples, 0.5),
        tail: supported_tail(samples.len()).map(|(label, q)| (label, nearest_rank(samples, q))),
    })
}

/// Median of raw samples (mean of the middle two for an even count); 0 for
/// none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the default "exclusive" method); needs at least two values.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two values");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<u32> = (1..=10).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5);
        assert_eq!(nearest_rank(&v, 0.9), 9);
        assert_eq!(nearest_rank(&v, 0.91), 10);
        assert_eq!(nearest_rank(&v, 1.0), 10);
        assert_eq!(nearest_rank(&v, 0.01), 1);
        assert_eq!(nearest_rank(&[7u32], 0.5), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None); // p90 of 99 leaves 9 beyond
        assert_eq!(supported_tail(100).map(|t| t.0), Some("p90"));
        assert_eq!(supported_tail(999).map(|t| t.0), Some("p90"));
        assert_eq!(supported_tail(1000).map(|t| t.0), Some("p99"));
        assert_eq!(supported_tail(10_000).map(|t| t.0), Some("p99.9"));
        assert_eq!(supported_tail(100_000).map(|t| t.0), Some("p99.99"));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(25, 0.9), 2);
    }

    #[test]
    fn timing_reports_median_tail_and_count() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = timing(&mut v).unwrap();
        assert_eq!(t, Timing { samples: 1000, median: 500.0, tail: Some(("p99", 990.0)) });
        assert_eq!(timing(&mut []), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 30, 20], n=4) -> [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), (10.0, 30.0));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
