//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank and computed in integer arithmetic on
//! thousandths of a percent, so a percentile's rank never depends on
//! how `0.999 * n` happens to round.

/// Percentiles the tail metric is chosen from — the median and the
/// "nines" — in thousandths of a percent (99_900 = p99.9), lowest first.
/// Rungs a factor of ten apart keep between 10 and 100 samples beyond
/// the chosen one, so the tail of a run never rests on a handful of
/// requests.
pub const TAIL_LADDER: [u64; 5] = [50_000, 90_000, 99_000, 99_900, 99_990];

/// Samples that must lie beyond a percentile before it may be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p_milli` (thousandths of a
/// percent) in a sample of `n`: the smallest rank with at least that
/// share of the sample at or below it.
pub fn rank(n: usize, p_milli: u64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let r = (p_milli * n as u64).div_ceil(100_000) as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn nearest_rank(sorted: &[f64], p_milli: u64) -> f64 {
    sorted[rank(sorted.len(), p_milli) - 1]
}

/// Samples strictly above the nearest-rank position of `p_milli`.
pub fn beyond(n: usize, p_milli: u64) -> usize {
    n - rank(n, p_milli)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it (p50 for samples too small for any other).
pub fn tail_percentile(n: usize) -> u64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// Renders a ladder percentile for humans: 99_900 → "p99.9".
pub fn percentile_label(p_milli: u64) -> String {
    let whole = p_milli / 1000;
    let frac = p_milli % 1000;
    if frac == 0 {
        format!("p{whole}")
    } else {
        let digits = format!("{frac:03}");
        format!("p{whole}.{}", digits.trim_end_matches('0'))
    }
}

/// Half-open bounds of `k` near-equal consecutive slices of `0..n`
/// (fewer when `n < k`; none empty).
pub fn slices(n: usize, k: usize) -> Vec<(usize, usize)> {
    (0..k)
        .map(|i| (i * n / k, (i + 1) * n / k))
        .filter(|(a, b)| b > a)
        .collect()
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Latency summary of one timed phase.
#[derive(Debug, Clone)]
pub struct Latency {
    /// Samples summarised.
    pub n: usize,
    /// Median, same unit as the samples.
    pub p50: f64,
    /// The tail percentile, chosen by the caller with
    /// [`tail_percentile`].
    pub tail_p_milli: u64,
    /// Value at that percentile.
    pub tail: f64,
    /// Samples beyond the tail percentile.
    pub tail_beyond: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// p10, p20, …, p90, p99: the shape of the distribution, for the
    /// run record.
    pub profile: Vec<f64>,
}

impl Latency {
    /// Summarises an unsorted, non-empty sample, with its tail at
    /// percentile `tail_p_milli`.
    pub fn of(samples: &[f64], tail_p_milli: u64) -> Latency {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Latency {
            n: s.len(),
            p50: nearest_rank(&s, 50_000),
            tail_p_milli,
            tail: nearest_rank(&s, tail_p_milli),
            tail_beyond: beyond(s.len(), tail_p_milli),
            mean: mean(&s),
            profile: (1..=9)
                .map(|d| d * 10_000)
                .chain([99_000])
                .map(|p| nearest_rank(&s, p))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50_000), 5.0);
        assert_eq!(nearest_rank(&s, 90_000), 9.0);
        assert_eq!(nearest_rank(&s, 91_000), 10.0);
        assert_eq!(nearest_rank(&s, 100_000), 10.0);
        assert_eq!(nearest_rank(&s, 0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99_990), 7.0);
    }

    #[test]
    fn rank_is_exact_where_float_products_are_not() {
        // 0.999 * 1000 is 998.999… in binary floating point; the
        // integer rank must still be 999.
        assert_eq!(rank(1000, 99_900), 999);
        assert_eq!(beyond(1000, 99_900), 1);
        assert_eq!(rank(3, 50_000), 2);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 50_000);
        assert_eq!(tail_percentile(99), 50_000);
        assert_eq!(tail_percentile(100), 90_000);
        assert_eq!(tail_percentile(999), 90_000);
        assert_eq!(tail_percentile(1000), 99_000);
        assert_eq!(tail_percentile(9_999), 99_000);
        assert_eq!(tail_percentile(10_000), 99_900);
        assert_eq!(tail_percentile(100_000), 99_990);
        for n in [100, 137, 640, 3200, 20_000] {
            assert!(beyond(n, tail_percentile(n)) >= TAIL_MIN_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn slices_cover_the_phase_once() {
        assert_eq!(slices(10, 3), vec![(0, 3), (3, 6), (6, 10)]);
        assert_eq!(slices(2, 4), vec![(0, 1), (1, 2)]);
        assert!(slices(0, 4).is_empty());
        let s = slices(1234, 20);
        assert_eq!((s.len(), s[0].0, s[19].1), (20, 0, 1234));
        assert!(s.windows(2).all(|w| w[0].1 == w[1].0));
    }

    #[test]
    fn labels_and_summaries() {
        assert_eq!(percentile_label(99_000), "p99");
        assert_eq!(percentile_label(99_900), "p99.9");
        assert_eq!(percentile_label(99_950), "p99.95");
        let sample: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let l = Latency::of(&sample, tail_percentile(sample.len()));
        assert_eq!(
            (l.n, l.p50, l.tail_p_milli, l.tail, l.tail_beyond),
            (200, 100.0, 90_000, 180.0, 20)
        );
        assert_eq!(l.mean, 100.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
