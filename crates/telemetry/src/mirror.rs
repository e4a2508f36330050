//! Handles bound once, for a caller that sets the same series every pass.
//!
//! State that lives in plain fields (engine and switch counters, queue
//! statistics, span and profiler totals) is copied into the registry
//! before a snapshot reads it. The copy names the same series in the same
//! order every time, so the registry's `Mirror` remembers the handle each
//! position resolved to and a pass after the first is a pointer comparison
//! and a `Cell` store per series instead of a `BTreeMap` search by
//! `(name, labels)`.

use std::cell::RefMut;

use crate::instruments::{Counter, Gauge, Log2Histogram};
use crate::labels::Labels;
use crate::registry::Registry;

/// The handles of one instrument kind, in the order a pass asks for them.
type Bound<H> = Vec<(&'static str, Labels, H)>;

/// The handle at position `at`, re-bound through `bind` unless the slot
/// already holds this series. Names compare by address first: a position
/// is reached from one call site, whose literal does not move.
fn bound<'a, H>(
    slots: &'a mut Bound<H>,
    at: usize,
    name: &'static str,
    labels: Labels,
    bind: impl FnOnce() -> H,
) -> &'a H {
    match slots.get(at) {
        Some((n, l, _)) if (std::ptr::eq(*n, name) || *n == name) && *l == labels => {}
        Some(_) => slots[at] = (name, labels, bind()),
        None => slots.push((name, labels, bind())),
    }
    &slots[at].2
}

/// A positional cache of the handles one mirroring routine writes through.
///
/// The registry owns it, next to the cells the handles point into, and a
/// clone of the registry starts with an empty one. A pass whose sequence
/// changes — a fault plan that starts emitting `faults.*` mid-run —
/// re-binds the positions that moved and is cached again from the next
/// pass on.
#[derive(Debug, Default)]
pub(crate) struct Mirror {
    counters: Bound<Counter>,
    gauges: Bound<Gauge>,
}

/// One pass of a mirroring routine ([`Registry::mirror`]): every call sets
/// the next series.
#[derive(Debug)]
pub struct MirrorPass<'a> {
    reg: &'a Registry,
    cache: RefMut<'a, Mirror>,
    counters: usize,
    gauges: usize,
}

impl<'a> MirrorPass<'a> {
    pub(crate) fn new(reg: &'a Registry, cache: RefMut<'a, Mirror>) -> Self {
        MirrorPass { reg, cache, counters: 0, gauges: 0 }
    }

    /// Set the counter series `(name, labels)` to `v`.
    #[inline]
    pub fn counter(&mut self, name: &'static str, labels: Labels, v: u64) {
        let reg = self.reg;
        bound(&mut self.cache.counters, self.counters, name, labels, || reg.counter(name, labels))
            .set(v);
        self.counters += 1;
    }

    /// Set the gauge series `(name, labels)` to `v`.
    #[inline]
    pub fn gauge(&mut self, name: &'static str, labels: Labels, v: i64) {
        let reg = self.reg;
        bound(&mut self.cache.gauges, self.gauges, name, labels, || reg.gauge(name, labels)).set(v);
        self.gauges += 1;
    }

    /// Set the histogram series `(name, labels)` to a copy of `h`. There is
    /// one histogram per switch, so it is found by key, not cached.
    pub fn histogram(&mut self, name: &'static str, labels: Labels, h: &Log2Histogram) {
        self.reg.set_histogram(name, labels, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_sim::SimTime;

    /// One pass of a routine whose middle series is optional.
    fn pass(reg: &Registry, with_middle: bool, v: u64) {
        let mut m = reg.mirror().unwrap();
        m.counter("m.first", Labels::None, v);
        if with_middle {
            m.counter("m.middle", Labels::None, v + 1);
        }
        m.counter("m.last", Labels::None, v + 2);
        m.gauge("m.gauge", Labels::None, -(v as i64));
    }

    #[test]
    fn a_sequence_that_grows_mid_run_rebinds_itself() {
        let reg = Registry::enabled(0);
        pass(&reg, false, 10);
        pass(&reg, true, 20);
        pass(&reg, true, 30);
        let snap = reg.snapshot(SimTime::ZERO);
        let counters: Vec<(&str, u64)> = snap.counters.iter().map(|(n, v)| (&**n, *v)).collect();
        assert_eq!(counters, [("m.first", 30), ("m.last", 32), ("m.middle", 31)]);
        assert_eq!(snap.gauges[0].1, -30);
    }

    #[test]
    fn a_clone_mirrors_into_its_own_series() {
        let reg = Registry::enabled(0);
        pass(&reg, false, 10);
        let copy = reg.clone();
        pass(&copy, false, 20);
        assert_eq!(reg.snapshot(SimTime::ZERO).counters[0].1, 10);
        pass(&reg, false, 30);
        assert_eq!(copy.snapshot(SimTime::ZERO).counters[0].1, 20);
        assert_eq!(reg.snapshot(SimTime::ZERO).counters[0].1, 30);
    }
}
