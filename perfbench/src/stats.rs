//! The benchmark's own statistics: medians, tail percentiles and the
//! `*_io_ratio` arithmetic. Kept free of I/O so each rule is unit-tested.

use emcore::EmConfig;

/// A tail percentile must have at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Candidate percentiles, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Index of the nearest-rank `p`-th percentile in a sorted sample of `n`.
fn rank_index(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9 · 10 000 / 100 = 9990.000…02)
    // from rounding an exact rank up.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(n, p)
    }
}

/// The highest ladder percentile no larger than `cap` that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// fewer.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank `p`-th percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank_index(sorted.len(), p)]
}

/// A tail summary: the chosen percentile, its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (see [`tail_percentile`]).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The tail of `values` at the highest supported percentile `≤ cap`. With
/// too few samples for any ladder percentile the maximum is reported as
/// the 100th.
pub fn tail(values: &[f64], cap: f64) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match tail_percentile(v.len(), cap) {
        Some(pct) => Tail {
            pct,
            value: percentile(&v, pct),
            samples: v.len(),
        },
        None => Tail {
            pct: 100.0,
            value: v.last().copied().unwrap_or(0.0),
            samples: v.len(),
        },
    }
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Measured I/Os as a share of a closed-form bound.
pub fn io_ratio(measured: u64, bound: f64) -> f64 {
    measured as f64 / bound
}

/// `partition_ios ÷` the two-sided partitioning bound of `apsplit::bounds`.
pub fn partition_io_ratio(cfg: EmConfig, ios: u64, n: u64, k: u64, a: u64, b: u64) -> f64 {
    io_ratio(
        ios,
        apsplit::bounds::partitioning_two_sided(cfg, n, k, a, b),
    )
}

/// `splitters_ios ÷` the two-sided splitters bound of `apsplit::bounds`.
pub fn splitters_io_ratio(cfg: EmConfig, ios: u64, n: u64, k: u64, a: u64, b: u64) -> f64 {
    io_ratio(ios, apsplit::bounds::splitters_two_sided(cfg, n, k, a, b))
}

/// `select_ios ÷` the multi-selection bound (Theorem 4) for `k` ranks.
pub fn select_io_ratio(cfg: EmConfig, ios: u64, n: u64, k: u64) -> f64 {
    io_ratio(ios, apsplit::bounds::multi_select_bound(cfg, n, k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chooser_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        // 999 samples leave only 9 beyond p99, so p95 is the highest.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        assert_eq!(tail_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(tail_percentile(10_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
    }

    #[test]
    fn tail_reports_value_and_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        let few = tail(&[3.0, 1.0, 2.0], 99.0);
        assert_eq!((few.pct, few.value, few.samples), (100.0, 3.0, 3));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn cfg() -> EmConfig {
        EmConfig::builder()
            .mem(1 << 18)
            .block(1 << 10)
            .workers(1)
            .cache_blocks(0)
            .device_latency_us(0)
            .build()
            .unwrap()
    }

    #[test]
    fn io_ratios_divide_by_the_matching_bound() {
        let (cfg, n) = (cfg(), 1u64 << 22);
        // N/B = 4096 blocks and M/B = 256, so every lg_{M/B} term below
        // clamps to 1 and each bound is a whole number of block I/Os.
        let near = apsplit::ProblemSpec::near_even(n, 64).unwrap();
        // aK/B + N/B = 4096 + 4096.
        assert_eq!(
            apsplit::bounds::partitioning_two_sided(cfg, n, 64, near.a, near.b),
            8192.0
        );
        assert_eq!(partition_io_ratio(cfg, 16_384, n, 64, near.a, near.b), 2.0);
        // (1 + aK/B) + N/B = 2049 + 4096.
        assert_eq!(
            apsplit::bounds::splitters_two_sided(cfg, n, 1024, n / 2048, n / 512),
            6145.0
        );
        assert_eq!(
            splitters_io_ratio(cfg, 12_290, n, 1024, n / 2048, n / 512),
            2.0
        );
        // (N/B)·lg(K/B) = 4096.
        assert_eq!(select_io_ratio(cfg, 16_236, n, 63), 16_236.0 / 4096.0);
    }
}
