//! The one latency histogram: log-linear buckets over `u64` samples
//! (nanoseconds everywhere it is used), plus count, sum, min and max.
//!
//! Geometry: values below 8 get one exact bucket each; every octave
//! `[2^e, 2^(e+1))` above that splits into [`SUB_BUCKETS`] equal-width
//! sub-buckets. A bucket's width is therefore at most 1/8 of its lower
//! edge, which bounds the relative error of any estimate placed inside
//! the bucket by 1/8; [`BUCKETS`] buckets cover all of `u64`.

use serde::{Deserialize, Serialize};

/// Sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Buckets covering `0..=u64::MAX`: octaves `2^3 … 2^63` of
/// [`SUB_BUCKETS`] each, preceded by the eight exact buckets `0..8`.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// The bucket a sample falls into.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    (e - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// Smallest value in bucket `i`.
pub fn lower_edge(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let e = (i / SUB_BUCKETS) as u32 + SUB_BITS - 1;
    ((SUB_BUCKETS + i % SUB_BUCKETS) as u64) << (e - SUB_BITS)
}

/// Exclusive upper edge of bucket `i` (`2^64` for the last one, hence
/// `f64`). This is the `le` bound the exposition writer renders.
pub fn upper_edge(i: usize) -> f64 {
    if i + 1 < BUCKETS {
        lower_edge(i + 1) as f64
    } else {
        2f64.powi(64)
    }
}

/// Inverse of [`upper_edge`], tolerant of the rounding a decimal
/// round trip adds: adjacent edges differ by at least 1/16, so pulling
/// the edge down by 1/64 lands strictly inside its own bucket.
pub fn bucket_of_upper_edge(edge: f64) -> Option<usize> {
    (edge > 0.0).then(|| bucket_of((edge * (63.0 / 64.0)) as u64))
}

/// A plain (single-threaded) histogram in the shared geometry. The
/// registry's atomic shards sum into one of these on every snapshot;
/// `mbts flood` records into one per connection thread.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts, [`BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Folds in one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Folds in every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean sample (0 with no samples).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Nearest-rank `q`-quantile estimate: the rank is located in its
    /// bucket, interpolated linearly inside it, and clamped to
    /// `[min, max]`. Within 1/8 relative error of the exact value,
    /// monotone in `q`, and never above the observed max. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = lower_edge(i);
                let frac = ((rank - seen) as f64 - 0.5) / n as f64;
                let offset = ((upper_edge(i) - lo as f64) * frac) as u64;
                // max/min rather than clamp: a racing scrape may see min > max.
                return lo.saturating_add(offset).max(self.min).min(self.max);
            }
            seen += n;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geometry_is_contiguous_and_covers_u64() {
        assert_eq!(BUCKETS, 496);
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(15), 15);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for i in 0..BUCKETS {
            let lo = lower_edge(i);
            assert_eq!(bucket_of(lo), i, "lower edge of {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_of(lower_edge(i + 1) - 1), i, "last value of {i}");
                assert_eq!(upper_edge(i), lower_edge(i + 1) as f64);
            }
            if i >= SUB_BUCKETS {
                // Width ≤ lower/8: the source of the 1/8 error bound.
                assert!((upper_edge(i) - lo as f64) * 8.0 <= lo as f64, "bucket {i}");
            }
        }
    }

    #[test]
    fn upper_edges_invert_through_a_decimal_seconds_round_trip() {
        for i in 0..BUCKETS {
            let text = format!("{:e}", upper_edge(i) / 1e9);
            let back: f64 = text.parse().unwrap();
            assert_eq!(bucket_of_upper_edge(back * 1e9), Some(i), "{text}");
        }
        assert_eq!(bucket_of_upper_edge(0.0), None);
    }

    #[test]
    fn single_sample_quantiles_are_the_sample() {
        let mut h = LatencyHistogram::default();
        h.record(29_339_365);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 29_339_365);
        }
        assert_eq!(LatencyHistogram::default().quantile(0.5), 0);
    }

    /// Exact nearest-rank quantile of `sorted`, with the rank computed
    /// exactly as [`LatencyHistogram::quantile`] computes it.
    fn exact(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        sorted[rank as usize - 1]
    }

    fn samples() -> impl Strategy<Value = Vec<u64>> {
        let value = prop_oneof![
            0u64..16,
            0u64..100_000,
            any::<u64>(),
            (u64::MAX - 4096)..=u64::MAX,
        ];
        proptest::collection::vec(value, 1..200)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn quantiles_are_bounded_monotone_and_clamped(mut vs in samples()) {
            let mut h = LatencyHistogram::default();
            for &v in &vs {
                h.record(v);
            }
            vs.sort_unstable();
            let mut last = 0u64;
            for k in 0..=100 {
                let q = k as f64 / 100.0;
                let est = h.quantile(q);
                let x = exact(&vs, q);
                prop_assert!(
                    est.abs_diff(x) as f64 <= x as f64 / 8.0,
                    "q={} est={} exact={}", q, est, x
                );
                prop_assert!(est >= vs[0] && est <= vs[vs.len() - 1]);
                prop_assert!(est >= last, "non-monotone at q={}", q);
                last = est;
            }
        }

        #[test]
        fn merge_equals_recording_the_union(a in samples(), b in samples()) {
            let mut ha = LatencyHistogram::default();
            let mut hb = LatencyHistogram::default();
            let mut union = LatencyHistogram::default();
            for &v in &a {
                ha.record(v);
                union.record(v);
            }
            for &v in &b {
                hb.record(v);
                union.record(v);
            }
            ha.merge(&hb);
            prop_assert_eq!(ha, union);
        }
    }
}
