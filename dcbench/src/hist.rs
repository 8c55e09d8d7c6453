//! Latency histograms and the percentile rule.
//!
//! Values below 128 ns land in exact 1 ns buckets; above, each power of
//! two splits into 64 buckets (under 1.6% relative width), up to 2^40 ns.
//! A quantile interpolates inside its bucket by rank, so medians keep
//! their digits. The table is 9 KiB, so the histogram an op records into
//! stays in L1; at the end of a window it is saved as a sparse list of
//! its non-empty buckets ([`Sparse`]).

const EXACT: u64 = 128;
const EXACT_BITS: u32 = 7;
const SUB_BITS: u32 = 6;
const TOP_BIT: u32 = 40;
const BUCKETS: usize = EXACT as usize + (((TOP_BIT - EXACT_BITS) as usize) << SUB_BITS);

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// A histogram of nanosecond samples.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

/// A histogram's non-empty buckets as `(bucket, count)`.
pub type Sparse = Vec<(u16, u32)>;

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    if v >= 1 << TOP_BIT {
        return BUCKETS - 1;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    EXACT as usize + (((e - EXACT_BITS) as usize) << SUB_BITS) + sub as usize
}

/// `(lowest value, width)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < EXACT as usize {
        return (i as f64, 1.0);
    }
    let j = i - EXACT as usize;
    let e = (j >> SUB_BITS) as u32 + EXACT_BITS;
    let sub = (j & ((1 << SUB_BITS) - 1)) as u64;
    let width = 1u64 << (e - SUB_BITS);
    (((1u64 << e) + sub * width) as f64, width as f64)
}

impl Hist {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Adds a saved histogram.
    pub fn merge_sparse(&mut self, s: &Sparse) {
        for &(i, c) in s {
            self.counts[i as usize] += c;
            self.n += c as u64;
        }
    }

    /// The non-empty buckets, and empties this histogram.
    pub fn take_sparse(&mut self) -> Sparse {
        let mut out = Sparse::new();
        if self.n == 0 {
            return out;
        }
        for (i, c) in self.counts.iter_mut().enumerate() {
            if *c > 0 {
                out.push((i as u16, *c));
                *c = 0;
            }
        }
        self.n = 0;
        out
    }

    /// The value at quantile `q`, or `None` unless at least
    /// [`MIN_BEYOND`] samples lie above it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let rank = ((q * self.n as f64).ceil() as u64).max(1);
        if self.n < rank + MIN_BEYOND {
            return None;
        }
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if c > 0 && below + c >= rank {
                let (lo, width) = bounds(i);
                return Some(lo + width * ((rank - below) as f64 - 0.5) / c as f64);
            }
            below += c;
        }
        None
    }

    /// The median, or 0 for a histogram too small to have one.
    pub fn median_or_zero(&self) -> f64 {
        self.quantile(0.5).unwrap_or(0.0)
    }
}

/// Median of a list (mean of the middle pair for even sizes; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in [0u64, 1, 127, 128, 129, 1500, 70_000, 1 << 30, (1 << 39) + 7] {
            let (lo, width) = bounds(index(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "v = {v}");
        }
        // Values past the top land in the last bucket.
        assert_eq!(index(u64::MAX), BUCKETS - 1);
        assert_eq!(index(1 << 45), BUCKETS - 1);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let mut h = Hist::default();
        for v in 1..=999u64 {
            h.record(v);
        }
        // 999 samples: the p99 rank is 990, only 9 lie beyond it.
        assert_eq!(h.quantile(0.99), None);
        h.record(1000);
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        let p99 = h.quantile(0.99).expect("p99 with ten beyond");
        assert!((980.0..1000.0).contains(&p99), "p99 = {p99}");
        let p50 = h.quantile(0.5).expect("p50");
        assert!((495.0..505.0).contains(&p50), "p50 = {p50}");
        assert_eq!(Hist::default().quantile(0.5), None);
        let mut small = Hist::default();
        for v in 0..10 {
            small.record(v);
        }
        // rank 5 of 10 leaves 5 beyond: too few even for a median.
        assert_eq!(small.quantile(0.5), None);
        // 19 samples: the median's rank 10 leaves 9 beyond; 20 leave 10.
        let mut h = Hist::default();
        for v in 0..19 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), None);
        h.record(19);
        assert!(h.quantile(0.5).is_some());
    }

    #[test]
    fn sparse_round_trip() {
        let mut h = Hist::default();
        for v in [5u64, 5, 300, 70_000, 70_001] {
            h.record(v);
        }
        let before = h.clone();
        let s = h.take_sparse();
        assert_eq!(h.count(), 0);
        assert_eq!(s.len(), 3);
        let mut back = Hist::default();
        back.merge_sparse(&s);
        assert_eq!(back.counts, before.counts);
        assert_eq!(back.count(), 5);
    }

    #[test]
    fn medians_of_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
