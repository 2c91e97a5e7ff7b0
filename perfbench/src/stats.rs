//! Order statistics for timings: medians, and the percentile reporter that
//! names the highest percentile still backed by at least ten samples.

/// Percentiles the reporter may name, in tenths of a percent, highest first
/// (integer ranks avoid float rounding at exact boundaries).
const CANDIDATES: [u64; 5] = [999, 990, 950, 900, 500];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`permille` in tenths of
/// a percent).
fn percentile(sorted: &[f64], permille: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille)]
}

/// Index of the nearest-rank percentile among `n` samples.
fn rank(n: usize, permille: u64) -> usize {
    let r = (permille * n as u64).div_ceil(1000) as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile.
fn beyond(n: usize, permille: u64) -> usize {
    n - rank(n, permille) - 1
}

/// Median of unsorted samples (the lower middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 500)
}

/// The tail the reporter names: the highest candidate percentile with at
/// least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile named.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Picks the highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond it; `None` when not even the median qualifies.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    CANDIDATES
        .iter()
        .find(|&&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
        .map(|&p| Tail {
            pct: p as f64 / 10.0,
            value: percentile(&s, p),
            samples: n,
        })
}

/// The value of the percentile `permille` (in tenths of a percent) when at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn backed_percentile(samples: &[f64], permille: u64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    (!s.is_empty() && beyond(s.len(), permille) >= MIN_BEYOND).then(|| percentile(&s, permille))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn names_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 10000 samples: p99.9 has 10 beyond.
        assert_eq!(tail(&ramp(10_000)).unwrap().pct, 99.9);
        // 999 samples: p99 has 9 beyond, so p95 is named.
        assert_eq!(tail(&ramp(999)).unwrap().pct, 95.0);
        // 20 samples: only the median qualifies.
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
        assert_eq!(tail(&ramp(15)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn backed_percentile_refuses_thin_tails() {
        assert_eq!(backed_percentile(&ramp(1000), 990), Some(990.0));
        assert_eq!(backed_percentile(&ramp(999), 990), None);
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
