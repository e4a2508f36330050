//! Deterministic fixed-bucket quantile sketch.
//!
//! A log-histogram over `u64` samples (latencies in ns) with a *fixed*
//! bucket layout: every power-of-two octave is split into 16 linear
//! sub-buckets. The layout is data-independent, so two sketches built from
//! the same multiset of samples are bit-identical regardless of arrival
//! order, and [`QuantileSketch::merge`] (element-wise bucket addition) of
//! per-shard sketches equals single-stream ingestion exactly — the
//! worker-count independence the deterministic parallel runner needs.
//!
//! ## Error bound
//!
//! Quantiles are nearest-rank over the bucketed samples, reported as the
//! containing bucket's *upper bound*. Values below 32 land in width-1
//! buckets and are exact; for v ≥ 32 the bucket width is `2^(k-4)` where
//! `2^k ≤ v`, so the reported value `r` satisfies
//! `v ≤ r < v + v/16` — an overestimate by strictly less than **6.25 %**
//! relative error. No floats are involved anywhere.

use openoptics_sim::nearest_rank;
use openoptics_sim::to_usize;

/// Values below this are counted in exact width-1 buckets.
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per power-of-two octave (`2^SUB_BITS`).
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Total fixed bucket count: 16 exact slots + 16 per octave for octaves
/// 4..=63.
pub(crate) const SKETCH_BUCKETS: usize = to_usize(LINEAR_MAX) + (64 - SUB_BITS as usize) * SUB;

/// Bucket index of a sample value (monotone in the value).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return to_usize(v);
    }
    let k = 63 - v.leading_zeros(); // k >= 4
    let sub = to_usize(v >> (k - SUB_BITS)) & (SUB - 1);
    to_usize(LINEAR_MAX) + (k - SUB_BITS) as usize * SUB + sub
}

/// Largest value that maps into bucket `i` (the reported quantile value).
#[inline]
fn bucket_upper_bound(i: usize) -> u64 {
    if i < to_usize(LINEAR_MAX) {
        return i as u64;
    }
    let oct = (i - to_usize(LINEAR_MAX)) / SUB;
    let sub = ((i - to_usize(LINEAR_MAX)) % SUB) as u64;
    #[expect(clippy::cast_possible_truncation, reason = "there are 60 octaves")]
    let k = SUB_BITS + oct as u32; // octave: 2^k ..
    let width = 1u64 << (k - SUB_BITS);
    let lo = (LINEAR_MAX + sub) << (k - SUB_BITS);
    lo + (width - 1)
}

/// Fixed-bucket log-histogram quantile sketch (see module docs for the
/// layout and the ≤ 6.25 % relative-error bound).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantileSketch {
    counts: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch. All `SKETCH_BUCKETS` slots exist up front, so the
    /// memory cost is fixed (~8 KiB) and merge never reallocates.
    pub fn new() -> Self {
        QuantileSketch { counts: vec![0; SKETCH_BUCKETS], count: 0, max: 0 }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank quantile `numer/denom`, reported as the containing
    /// bucket's upper bound (0 when empty). `quantile(1, 2)` is the median.
    pub fn quantile(&self, numer: u64, denom: u64) -> u64 {
        if self.count == 0 || denom == 0 {
            return 0;
        }
        let rank = nearest_rank(to_usize(self.count), numer, denom) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper_bound(i);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(1, 2)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(99, 100)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(999, 1000)
    }

    /// Fold another sketch into this one (element-wise bucket addition).
    /// Merging per-shard sketches yields the same sketch as ingesting the
    /// concatenated stream, in any merge order.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..32u64 {
            s.record(v);
        }
        assert_eq!(s.quantile(1, 32), 0);
        assert_eq!(s.quantile(16, 32), 15);
        assert_eq!(s.quantile(32, 32), 31);
        assert_eq!(s.max, 31);
    }

    #[test]
    fn quantile_overestimates_within_bound() {
        let mut s = QuantileSketch::new();
        let mut vals: Vec<u64> = (0..1000).map(|i| (i * 2654435761) % 10_000_000).collect();
        for &v in &vals {
            s.record(v);
        }
        vals.sort_unstable();
        for (numer, denom) in [(1, 2), (99, 100), (999, 1000)] {
            let rank = (vals.len() as u64 * numer).div_ceil(denom).clamp(1, vals.len() as u64);
            let exact = vals[to_usize(rank) - 1];
            let got = s.quantile(numer, denom);
            assert!(got >= exact, "p{numer}/{denom}: {got} < exact {exact}");
            assert!((got - exact) * 16 <= exact, "p{numer}/{denom}: {got} off {exact}");
        }
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut whole = QuantileSketch::new();
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for i in 0..500u64 {
            let v = (i * 48271) % 1_000_000;
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, whole);
        let mut merged_rev = b;
        merged_rev.merge(&a);
        assert_eq!(merged_rev, whole);
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut s = QuantileSketch::new();
        s.record(u64::MAX);
        assert_eq!(s.quantile(1, 1), u64::MAX);
        assert_eq!(bucket_upper_bound(SKETCH_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), SKETCH_BUCKETS - 1);
    }
}
