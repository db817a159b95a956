//! Sample summaries: median, quartiles, the 10th percentile and the tail
//! percentile, and the bootstrap spread of a statistic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tail percentiles considered, lowest first.
const TAIL_PERCENTILES: [u32; 5] = [50, 75, 90, 95, 99];
/// A tail percentile is reported only with at least this many samples
/// beyond it, so that one outlier cannot set it.
const TAIL_MIN_BEYOND: usize = 10;
/// Resamples behind [`Summary::stat_spread`].
const BOOTSTRAP_RESAMPLES: usize = 200;

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The samples in measurement order.
    pub samples: Vec<f64>,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// 10th percentile, by nearest rank.
    pub p10: f64,
    /// The highest percentile in [`TAIL_PERCENTILES`] with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, and its value; `None` below
    /// 20 samples.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        Some(Summary {
            samples: samples.to_vec(),
            median: median(&sorted),
            q1,
            q3,
            p10: percentile(&sorted, 10),
            tail: tail(&sorted),
        })
    }

    /// How far `stat` would move between runs like this one: the
    /// interquartile range of `stat` over bootstrap resamples of the
    /// samples, as a share of `stat` of the samples (0 when that is 0).
    /// The resampling is seeded, so the result repeats.
    pub fn stat_spread(&self, stat: impl Fn(&Summary) -> f64) -> f64 {
        let center = stat(self);
        if center == 0.0 {
            return 0.0;
        }
        let n = self.samples.len();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut resample = vec![0.0; n];
        let mut values: Vec<f64> = (0..BOOTSTRAP_RESAMPLES)
            .map(|_| {
                for v in resample.iter_mut() {
                    *v = self.samples[rng.gen_range(0..n)];
                }
                Summary::of(&resample).map_or(center, |s| stat(&s))
            })
            .collect();
        values.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&values);
        (q3 - q1) / center.abs()
    }
}

/// Median of ascending `sorted` (mean of the middle pair for even length).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median of unsorted values; 0 for none.
pub fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    median(&v)
}

/// First and third quartiles of ascending `sorted`, by the rule of
/// Python's `statistics.quantiles(data, n=4)` (the "exclusive" method), so
/// the spreads this benchmark prints match the ones computed from its
/// results by that function.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Percentile `p` of ascending, non-empty `sorted` by nearest rank: the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The highest tail percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it (p50 at n = 20, p75 at n = 40, p90 at n = 100).
pub fn tail(sorted: &[f64]) -> Option<(u32, f64)> {
    let n = sorted.len();
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| n * (100 - p as usize) >= 100 * TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|k| k as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 9.0]), 2.5);
        assert_eq!(median_of([9.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of([]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ascending(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&ascending(4)), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&ascending(2)), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&ascending(19)), None);
        assert_eq!(tail(&ascending(20)), Some((50, 10.0)));
        assert_eq!(tail(&ascending(39)), Some((50, 20.0)));
        assert_eq!(tail(&ascending(40)), Some((75, 30.0)));
        assert_eq!(tail(&ascending(100)), Some((90, 90.0)));
        assert_eq!(tail(&ascending(200)), Some((95, 190.0)));
        assert_eq!(tail(&ascending(1000)), Some((99, 990.0)));
        for n in [20, 40, 100, 200, 1000] {
            let (p, v) = tail(&ascending(n)).expect("enough samples");
            let beyond = ascending(n).iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "p{p} at n={n}: {beyond} beyond");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&ascending(20), 10), 2.0);
        assert_eq!(percentile(&ascending(25), 10), 3.0);
        assert_eq!(percentile(&ascending(5), 10), 1.0);
        assert_eq!(percentile(&[7.0], 10), 7.0);
        assert_eq!(percentile(&ascending(10), 100), 10.0);
    }

    #[test]
    fn summary_keeps_measurement_order() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).expect("non-empty");
        assert_eq!(s.samples, vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn stat_spread_tracks_the_statistic_not_the_samples() {
        // A tight fast end under a burst of slow samples: the samples'
        // interquartile range is wide, the 10th percentile barely moves.
        let mut samples: Vec<f64> = (0..20).map(|k| 1.0 + 0.001 * k as f64).collect();
        samples.extend((0..20).map(|k| 1.5 + 0.01 * k as f64));
        let s = Summary::of(&samples).expect("non-empty");
        assert!((s.q3 - s.q1) / s.median > 0.3);
        assert!(s.stat_spread(|x| x.p10) < 0.01);
        assert!(s.stat_spread(|x| x.median) > 0.1);
        assert_eq!(s.stat_spread(|x| x.p10), s.stat_spread(|x| x.p10));
        let constant = Summary::of(&[3.0; 7]).expect("non-empty");
        assert_eq!(constant.stat_spread(|x| x.median), 0.0);
    }
}
