//! Instruments: counter and gauge handles, and the log₂ histogram value.
//!
//! A counter or gauge handle is either *attached* (it shares the cell of a
//! [`Registry`](crate::Registry) series) or *detached* (the `Option` is
//! `None`, the state a disabled registry hands out and the `Default` of
//! every handle). All hot-path operations on a detached handle are a single
//! branch — this is the zero-cost-when-disabled contract the churn
//! micro-bench measures. Engine components do not hold handles: they count
//! in plain fields, which a [`MirrorPass`](crate::MirrorPass) copies into
//! the registry. A [`Log2Histogram`] is such a plain value.

use std::cell::Cell;

/// Number of histogram buckets: one for zero plus one per power of two of
/// the `u64` range.
pub(crate) const HIST_BUCKETS: usize = 65;

/// A monotonically increasing `u64` counter. Saturates at `u64::MAX`
/// instead of wrapping, so overflow can never masquerade as a reset.
#[derive(Clone, Debug, Default)]
pub struct Counter(
    #[expect(
        clippy::disallowed_types,
        reason = "reserved: the frozen benchmark increments a counter through `&self` after its \
                  registry is dropped (benchmark/src/kernels.rs:341)"
    )]
    pub(crate) Option<std::rc::Rc<Cell<u64>>>,
);

impl Counter {
    /// A detached counter; all operations are no-ops.
    pub(crate) const fn detached() -> Self {
        Counter(None)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.set(c.get().saturating_add(n));
        }
    }

    /// Overwrite with an absolute value. Intended for *mirroring* counters
    /// that live outside the registry (e.g. engine structs) at snapshot
    /// time; hot paths should use [`Counter::add`].
    #[inline]
    pub(crate) fn set(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.set(v);
        }
    }
}

/// A signed point-in-time value (queue depth, clock offset, …).
#[derive(Clone, Debug, Default)]
pub struct Gauge(
    #[expect(
        clippy::disallowed_types,
        reason = "reserved with `Counter`: the mirror cache sets gauges through these handles \
                  because the frozen benchmark exports through `&OpenOpticsNet` \
                  (benchmark/src/sim.rs:404); both become indices together"
    )]
    pub(crate) Option<std::rc::Rc<Cell<i64>>>,
);

impl Gauge {
    /// A detached gauge; all operations are no-ops.
    pub(crate) const fn detached() -> Self {
        Gauge(None)
    }

    /// Overwrite the value.
    #[inline]
    pub(crate) fn set(&self, v: i64) {
        if let Some(c) = &self.0 {
            c.set(v);
        }
    }
}

/// A log₂ histogram of `u64` values (sim-time durations, byte counts): a
/// plain value its owner records into. A mirror pass copies it into a
/// registry series ([`MirrorPass::histogram`](crate::MirrorPass::histogram)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { counts: [0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Log2Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Aggregate view of everything recorded so far.
    #[expect(clippy::cast_possible_truncation, reason = "a histogram has 65 buckets")]
    pub fn summary(&self) -> HistogramSummary {
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i as u8, c))
            .collect();
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets,
        }
    }
}

/// Bucket index of a value: 0 holds exactly 0; bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)`. Values are typically sim-time durations in ns or byte
/// counts; log₂ buckets cover the full `u64` range in 65 slots.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Point-in-time aggregate of one histogram series: totals plus the
/// non-empty log₂ buckets as `(bucket index, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by index; see `bucket_index`.
    pub buckets: Vec<(u8, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inclusive upper bound of a bucket (`2^i - 1`; bucket 0 → 0).
    fn bucket_upper_bound(i: u8) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [0u64, 1, 2, 3, 5, 100, 4096, u64::MAX / 2, u64::MAX] {
            let i = u8::try_from(bucket_index(v)).unwrap();
            assert!(v <= bucket_upper_bound(i), "v={v} above bound of bucket {i}");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "v={v} not above bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn detached_instruments_are_inert() {
        let c = Counter::detached();
        c.inc();
        c.add(100);
        assert!(c.0.is_none());
        let g = Gauge::detached();
        g.set(5);
        assert!(g.0.is_none());
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter(Some(Cell::new(u64::MAX - 1).into()));
        c.inc();
        assert_eq!(c.0.as_ref().unwrap().get(), u64::MAX);
        c.inc();
        assert_eq!(c.0.as_ref().unwrap().get(), u64::MAX, "must saturate, not wrap to 0");
        c.add(u64::MAX);
        assert_eq!(c.0.as_ref().unwrap().get(), u64::MAX);
    }

    #[test]
    fn histogram_summary_aggregates() {
        let mut h = Log2Histogram::default();
        for v in [0u64, 1, 3, 3, 8, 1000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1015);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        // 0 -> b0; 1 -> b1; 3,3 -> b2; 8 -> b4; 1000 -> b10.
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (4, 1), (10, 1)]);
    }

    #[test]
    fn histogram_count_saturates() {
        let mut h = Log2Histogram { count: u64::MAX, ..Log2Histogram::default() };
        h.record(1);
        assert_eq!(h.summary().count, u64::MAX);
    }
}
