//! Order statistics for samples and the summary every timed metric carries.

/// Median of `values` (mean of the two middle values when even).
/// Panics on an empty slice: every caller has taken at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest of `values` (infinity for none).
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile of an ascending slice, `p` in `(0, 1]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it — the percentile a sample of size `n` supports.
/// `None` below twenty samples, where not even the median qualifies.
pub fn supported_percentile(n: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    [
        (0.9999, 10_000),
        (0.999, 1_000),
        (0.99, 100),
        (0.9, 10),
        (0.5, 2),
    ]
    .into_iter()
    .find(|(_, one_in)| n >= 10 * one_in)
    .map(|(p, _)| p)
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance check computes spreads from.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's samples, summarised.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// First and third quartile (the median itself below two samples).
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// The samples in the order taken (empty when read back from a file).
    pub samples: Vec<f64>,
    /// For a timing read against the reference process: the raw timings
    /// the samples were normalised from, in the same order.
    pub raw: Vec<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let median = median(samples);
        let (q1, q3) = if samples.len() >= 2 {
            quartiles(samples)
        } else {
            (median, median)
        };
        Summary {
            median,
            min: minimum(samples),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            q1,
            q3,
            n: samples.len(),
            samples: samples.to_vec(),
            raw: Vec::new(),
        }
    }

    /// How far the run's own samples leave their median open, as a share
    /// of it: the distance between the quartiles over the square root of
    /// the sample count (about the standard error of a median). `compare`
    /// calls a difference unresolved when it exceeds the bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 || self.n == 0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs() / (self.n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(99), Some(0.5));
        assert_eq!(supported_percentile(100), Some(0.9));
        assert_eq!(supported_percentile(999), Some(0.9));
        assert_eq!(supported_percentile(1000), Some(0.99));
        assert_eq!(supported_percentile(1249), Some(0.99));
        assert_eq!(supported_percentile(25_000), Some(0.999));
        assert_eq!(supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn spread_is_the_quartile_distance_over_median_and_root_n() {
        let s = Summary::of(&[10.0, 12.0, 11.0, 30.0, 10.5]);
        assert_eq!(s.median, 11.0);
        // statistics.quantiles([10, 10.5, 11, 12, 30], n=4) == [10.25, 11, 21]
        assert!((s.spread() - 10.75 / 11.0 / 5f64.sqrt()).abs() < 1e-12);
        assert_eq!(Summary::of(&[4.0]).spread(), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }
}
