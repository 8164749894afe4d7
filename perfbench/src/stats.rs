//! Exact order statistics over raw samples.
//!
//! Quantiles are nearest-rank picks from the sorted samples themselves, so
//! a reported quantile is always a value that was observed and can never
//! exceed the maximum (unlike quantiles read off histogram bucket edges).

/// Order statistics of one sample set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order). Panics on NaN samples, and checks
    /// that the quantiles are ordered: `p50 ≤ p99 ≤ p99.9 ≤ max`.
    pub fn of(mut samples: Vec<f64>) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let s = Summary {
            n: samples.len(),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            p50: nearest_rank(&samples, 0.50),
            p99: nearest_rank(&samples, 0.99),
            p999: nearest_rank(&samples, 0.999),
            max: samples[samples.len() - 1],
        };
        assert!(
            s.p50 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max,
            "quantiles out of order: {s:?}"
        );
        s
    }

    /// Whether the p99.9 has at least ten samples beyond it.
    pub fn p999_resolved(&self) -> bool {
        self.n >= 10_000
    }
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q·n` samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `samples` (any order); the lower middle for even counts.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    nearest_rank(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_observed_values_and_never_exceed_the_max() {
        let s = Summary::of((1..=10_000).map(f64::from).rev().collect());
        assert_eq!(
            (s.p50, s.p99, s.p999, s.max),
            (5000.0, 9900.0, 9990.0, 10_000.0)
        );
        assert!(s.p999_resolved());
        let one = Summary::of(vec![3.0]);
        assert_eq!((one.p50, one.p99, one.max), (3.0, 3.0, 3.0));
    }

    #[test]
    fn median_picks_the_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
