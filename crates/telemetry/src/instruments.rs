//! Instrument handles: counters, gauges, and log₂ histograms.
//!
//! A handle is either *attached* (it shares storage with a
//! [`Registry`](crate::Registry) series through an `Rc`) or *detached* (the
//! `Option` is `None`, the state
//! a disabled registry hands out and the `Default` of every handle). All
//! hot-path operations on a detached handle are a single branch — this is
//! the zero-cost-when-disabled contract the churn micro-bench measures.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Number of histogram buckets: one for zero plus one per power of two of
/// the `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing `u64` counter. Saturates at `u64::MAX`
/// instead of wrapping, so overflow can never masquerade as a reset.
#[derive(Clone, Debug, Default)]
pub struct Counter(pub(crate) Option<Rc<Cell<u64>>>);

impl Counter {
    /// A detached counter; all operations are no-ops.
    pub const fn detached() -> Self {
        Counter(None)
    }

    /// Whether this handle is attached to a registry series.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
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
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.set(v);
        }
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// A signed point-in-time value (queue depth, clock offset, …).
#[derive(Clone, Debug, Default)]
pub struct Gauge(pub(crate) Option<Rc<Cell<i64>>>);

impl Gauge {
    /// A detached gauge; all operations are no-ops.
    pub const fn detached() -> Self {
        Gauge(None)
    }

    /// Whether this handle is attached to a registry series.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(c) = &self.0 {
            c.set(v);
        }
    }

    /// Adjust by a signed delta, saturating at the `i64` range.
    #[inline]
    pub fn add(&self, d: i64) {
        if let Some(c) = &self.0 {
            c.set(c.get().saturating_add(d));
        }
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// Shared storage of one histogram series.
#[derive(Debug)]
pub(crate) struct HistData {
    counts: RefCell<[u64; HIST_BUCKETS]>,
    count: Cell<u64>,
    sum: Cell<u64>,
    min: Cell<u64>,
    max: Cell<u64>,
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            counts: RefCell::new([0; HIST_BUCKETS]),
            count: Cell::new(0),
            sum: Cell::new(0),
            min: Cell::new(u64::MAX),
            max: Cell::new(0),
        }
    }
}

impl HistData {
    #[inline]
    fn record(&self, v: u64) {
        self.counts.borrow_mut()[bucket_index(v)] += 1;
        self.count.set(self.count.get().saturating_add(1));
        self.sum.set(self.sum.get().saturating_add(v));
        if v < self.min.get() {
            self.min.set(v);
        }
        if v > self.max.get() {
            self.max.set(v);
        }
    }

    pub(crate) fn deep_clone(&self) -> HistData {
        HistData {
            counts: RefCell::new(*self.counts.borrow()),
            count: Cell::new(self.count.get()),
            sum: Cell::new(self.sum.get()),
            min: Cell::new(self.min.get()),
            max: Cell::new(self.max.get()),
        }
    }

    #[expect(clippy::cast_possible_truncation, reason = "a histogram has 65 buckets")]
    pub(crate) fn summary(&self) -> HistogramSummary {
        let counts = self.counts.borrow();
        let buckets = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i as u8, c))
            .collect();
        HistogramSummary {
            count: self.count.get(),
            sum: self.sum.get(),
            min: if self.count.get() == 0 { 0 } else { self.min.get() },
            max: self.max.get(),
            buckets,
        }
    }
}

/// Bucket index of a value: 0 holds exactly 0; bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)`. Values are typically sim-time durations in ns or byte
/// counts; log₂ buckets cover the full `u64` range in 65 slots.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (`2^i - 1`; bucket 0 → 0).
pub fn bucket_upper_bound(i: u8) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log₂ histogram of `u64` values (sim-time durations, byte counts).
#[derive(Clone, Debug, Default)]
pub struct Histogram(pub(crate) Option<Rc<HistData>>);

impl Histogram {
    /// A detached histogram; all operations are no-ops.
    pub fn detached() -> Self {
        Histogram(None)
    }

    /// Whether this handle is attached to a registry series.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Aggregate view of everything recorded so far (empty when detached).
    pub fn summary(&self) -> HistogramSummary {
        self.0.as_ref().map_or_else(HistogramSummary::default, |h| h.summary())
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
    /// Non-empty buckets, ascending by index; see [`bucket_index`].
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSummary {
    /// Mean of the observed values, or 0 when empty. Computed on demand so
    /// exports stay float-free.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(c.get(), 0);
        assert!(!c.is_attached());
        let g = Gauge::detached();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 0);
        let h = Histogram::detached();
        h.record(42);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter(Some(Rc::new(Cell::new(u64::MAX - 1))));
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX, "must saturate, not wrap to 0");
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_saturates_both_directions() {
        let g = Gauge(Some(Rc::new(Cell::new(i64::MAX - 1))));
        g.add(5);
        assert_eq!(g.get(), i64::MAX);
        g.set(i64::MIN + 1);
        g.add(-5);
        assert_eq!(g.get(), i64::MIN);
    }

    #[test]
    fn histogram_summary_aggregates() {
        let h = Histogram(Some(Rc::default()));
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
        assert!((s.mean() - 1015.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_count_saturates() {
        let h = Histogram(Some(Rc::default()));
        h.0.as_ref().unwrap().count.set(u64::MAX);
        h.record(1);
        assert_eq!(h.summary().count, u64::MAX);
    }
}
