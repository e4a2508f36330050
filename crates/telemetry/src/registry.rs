//! The metrics registry and its deterministic snapshots.
//!
//! A series renders its `{name}{labels}` string once, at the first
//! snapshot that reads it, and every snapshot after that carries a shared
//! handle ([`SeriesName`]) to the same string: registering a series
//! formats nothing, and a snapshot allocates one `Vec` per instrument kind
//! however many series there are.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write;

use openoptics_sim::time::SimTime;

use crate::instruments::{Counter, Gauge, HistogramSummary, Log2Histogram};
use crate::json::{self, ToJson, Writer};
use crate::labels::Labels;
use crate::mirror::{Mirror, MirrorPass};
use crate::trace::Trace;

/// A metric series key: a static name plus a typed label set. `BTreeMap`
/// ordering over this key is what makes snapshots deterministic.
type Key = (&'static str, Labels);

/// A series' rendered name, `{name}{labels}`: one string per series,
/// shared by every snapshot and sample row that lists it.
#[expect(
    clippy::disallowed_types,
    reason = "not pinned by the frozen benchmark: a name is rendered once and never written \
              again, so sharing it cannot make a clone write into its original"
)]
pub type SeriesName = std::rc::Rc<str>;

/// One registered series: its cell and, once a snapshot has read it, its
/// rendered name. A clone gets a new cell holding the same value and
/// shares the name.
#[derive(Debug, Default)]
struct Series<T> {
    #[expect(
        clippy::disallowed_types,
        reason = "reserved: the cell a `Counter` or `Gauge` handle shares, which the frozen \
                  benchmark pins (benchmark/src/kernels.rs:341)"
    )]
    data: std::rc::Rc<T>,
    name: OnceCell<SeriesName>,
}

impl<T: Clone> Clone for Series<T> {
    fn clone(&self) -> Self {
        Series { data: T::clone(&self.data).into(), name: self.name.clone() }
    }
}

impl<T> Series<T> {
    /// The rendered name of the series registered under `key`.
    fn name(&self, (name, labels): &Key) -> SeriesName {
        self.name.get_or_init(|| format!("{name}{labels}").into()).clone()
    }
}

type SeriesMap<T> = RefCell<BTreeMap<Key, Series<T>>>;

/// `(rendered name, value)` of every series in `map`, in key order.
fn scalars<T: Copy>(map: &SeriesMap<Cell<T>>) -> Vec<(SeriesName, T)> {
    map.borrow().iter().map(|(key, s)| (s.name(key), s.data.get())).collect()
}

/// The series of an enabled registry, and the mirror cache of handles into
/// them. A clone copies every series into a new cell, shares the names
/// already rendered and starts with an empty cache: the cached handles
/// point into the original's cells.
#[derive(Debug, Default)]
struct Inner {
    counters: SeriesMap<Cell<u64>>,
    gauges: SeriesMap<Cell<i64>>,
    histograms: SeriesMap<Cell<Log2Histogram>>,
    mirror: RefCell<Mirror>,
}

impl Clone for Inner {
    fn clone(&self) -> Self {
        Inner {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            mirror: RefCell::default(),
        }
    }
}

/// The registry: every series by `(name, labels)` and the run's one trace
/// stream, owned by value. A clone shares nothing with its original: a
/// handle taken from a clone counts into the clone's copy of the series,
/// which the network never exports, so take handles from
/// `net.telemetry()` itself. The engine is the trace's only writer;
/// [`Registry::trace`] is for reading it.
///
/// A registry built with [`Registry::disabled`] holds no storage at all and
/// hands out detached handles — see the crate docs for the zero-cost
/// contract.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Option<Box<Inner>>,
    trace: Trace,
}

impl Registry {
    /// A disabled registry: no storage, detached handles, empty snapshots.
    pub fn disabled() -> Self {
        Registry::default()
    }

    /// An enabled registry whose trace stream keeps at most
    /// `trace_capacity` records (0 disables tracing but keeps metrics).
    pub fn enabled(trace_capacity: usize) -> Self {
        let trace =
            if trace_capacity > 0 { Trace::bounded(trace_capacity) } else { Trace::detached() };
        Registry { inner: Some(Box::default()), trace }
    }

    /// [`Registry::enabled`] or [`Registry::disabled`] by flag.
    pub fn new(on: bool, trace_capacity: usize) -> Self {
        if on {
            Registry::enabled(trace_capacity)
        } else {
            Registry::disabled()
        }
    }

    /// Whether instruments are attached and snapshots carry data.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get or create the counter series `(name, labels)`.
    pub fn counter(&self, name: &'static str, labels: Labels) -> Counter {
        match &self.inner {
            None => Counter::detached(),
            Some(inner) => Counter(Some(
                inner.counters.borrow_mut().entry((name, labels)).or_default().data.clone(),
            )),
        }
    }

    /// Get or create the gauge series `(name, labels)`.
    pub fn gauge(&self, name: &'static str, labels: Labels) -> Gauge {
        match &self.inner {
            None => Gauge::detached(),
            Some(inner) => Gauge(Some(
                inner.gauges.borrow_mut().entry((name, labels)).or_default().data.clone(),
            )),
        }
    }

    /// Set the histogram series `(name, labels)`, creating it if needed.
    pub(crate) fn set_histogram(&self, name: &'static str, labels: Labels, h: &Log2Histogram) {
        if let Some(inner) = &self.inner {
            inner.histograms.borrow_mut().entry((name, labels)).or_default().data.set(*h);
        }
    }

    /// Start one pass of a routine that copies plain fields into the
    /// registry (`None` when disabled). The registry keeps the pass's
    /// positional cache of handles next to the series they point into.
    pub fn mirror(&self) -> Option<MirrorPass<'_>> {
        let inner = self.inner.as_ref()?;
        Some(MirrorPass::new(self, inner.mirror.borrow_mut()))
    }

    /// The trace stream (detached when the registry is disabled or was
    /// built with `trace_capacity == 0`).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The trace stream, to emit into.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// `(rendered name, value)` of every counter, sorted by series key.
    /// With [`Registry::gauge_values`], the scalar half of a snapshot and
    /// all a sample row holds.
    pub fn counter_values(&self) -> Vec<(SeriesName, u64)> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| scalars(&inner.counters))
    }

    /// `(rendered name, value)` of every gauge, sorted by series key.
    pub fn gauge_values(&self) -> Vec<(SeriesName, i64)> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| scalars(&inner.gauges))
    }

    /// Render every series at sim-time `at`. Series appear sorted by
    /// `(name, labels)`; the result is byte-identical for identical runs.
    pub fn snapshot(&self, at: SimTime) -> Snapshot {
        let (counters, gauges) = (self.counter_values(), self.gauge_values());
        let mut snap = Snapshot { at, counters, gauges, ..Snapshot::default() };
        let Some(inner) = &self.inner else { return snap };
        snap.histograms = inner
            .histograms
            .borrow()
            .iter()
            .map(|(k, s)| (s.name(k), s.data.get().summary()))
            .collect();
        snap.trace_len = self.trace.len() as u64;
        snap.trace_dropped = self.trace.dropped();
        snap
    }
}

/// A point-in-time rendering of every registered series, stamped in sim
/// time only. Produced by [`Registry::snapshot`]; exportable as JSON or CSV.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Simulation instant the snapshot was taken.
    pub at: SimTime,
    /// `(rendered name, value)`, sorted by series key.
    pub counters: Vec<(SeriesName, u64)>,
    /// `(rendered name, value)`, sorted by series key.
    pub gauges: Vec<(SeriesName, i64)>,
    /// `(rendered name, summary)`, sorted by series key.
    pub histograms: Vec<(SeriesName, HistogramSummary)>,
    /// Records held in the trace stream.
    pub trace_len: u64,
    /// Trace records rejected for capacity.
    pub trace_dropped: u64,
}

impl Snapshot {
    /// Value of a counter series by exact rendered name (0 when absent).
    /// A scan: the list is sorted by series *key*, which orders
    /// `Node(2) < Node(10)` and `a` before `a.b`, not by rendered name.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| **n == *name).map_or(0, |(_, v)| *v)
    }

    /// Sum counters by *base* name, folding labeled series together:
    /// `tor.slice_miss{node=N0}` and `tor.slice_miss{node=N1}` both
    /// contribute to `tor.slice_miss`. Returns sorted `(base name, total)`.
    pub fn counter_totals(&self) -> Vec<(String, u64)> {
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for (name, v) in &self.counters {
            let base = name.split('{').next().unwrap_or(name);
            let t = totals.entry(base).or_insert(0);
            *t = t.saturating_add(*v);
        }
        totals.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    /// One JSON object. Integer-only (histogram means are left to the
    /// consumer), fields in a fixed order: byte-identical across identical
    /// runs and worker counts.
    pub fn to_json(&self) -> String {
        json::render(self)
    }

    /// CSV with header `type,name,field,value`, one row per scalar
    /// ([`Snapshot::write_csv`] into a `String`).
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(1024);
        self.write_csv(&mut s);
        s
    }

    /// Write the CSV rendering to `s`: header `type,name,field,value`, one
    /// row per scalar. Histograms flatten to `count`/`sum`/`min`/`max` plus
    /// one `bucket_<i>` row per non-empty bucket.
    pub fn write_csv(&self, s: &mut impl Write) {
        let _ = writeln!(s, "type,name,field,value");
        let _ = writeln!(s, "meta,snapshot,at_ns,{}", self.at.as_ns());
        for (name, v) in &self.counters {
            let _ = writeln!(s, "counter,{name},value,{v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(s, "gauge,{name},value,{v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(s, "histogram,{name},count,{}", h.count);
            let _ = writeln!(s, "histogram,{name},sum,{}", h.sum);
            let _ = writeln!(s, "histogram,{name},min,{}", h.min);
            let _ = writeln!(s, "histogram,{name},max,{}", h.max);
            for (b, c) in &h.buckets {
                let _ = writeln!(s, "histogram,{name},bucket_{b},{c}");
            }
        }
        let _ = writeln!(s, "meta,trace,len,{}", self.trace_len);
        let _ = writeln!(s, "meta,trace,dropped,{}", self.trace_dropped);
    }
}

impl ToJson for Snapshot {
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.field("at_ns", self.at.as_ns());
            w.key("counters");
            w.obj(|w| self.counters.iter().for_each(|(name, v)| w.field(name, v)));
            w.key("gauges");
            w.obj(|w| self.gauges.iter().for_each(|(name, v)| w.field(name, v)));
            w.key("histograms");
            w.obj(|w| {
                for (name, h) in &self.histograms {
                    w.key(name);
                    w.obj(|w| {
                        w.field("count", h.count);
                        w.field("sum", h.sum);
                        w.field("min", h.min);
                        w.field("max", h.max);
                        w.key("buckets");
                        w.arr(|w| {
                            for &(bucket, count) in &h.buckets {
                                w.arr(|w| {
                                    w.value(bucket);
                                    w.value(count);
                                });
                            }
                        });
                    });
                }
            });
            w.key("trace");
            w.obj(|w| {
                w.field("len", self.trace_len);
                w.field("dropped", self.trace_dropped);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_proto::{HostId, NodeId, PortId};

    #[test]
    fn disabled_registry_hands_out_detached_handles() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x", Labels::None);
        c.add(10);
        assert!(!c.is_attached());
        assert!(!r.trace().is_on());
        assert!(r.mirror().is_none());
        let snap = r.snapshot(SimTime::from_us(1));
        assert!(snap.counters.is_empty());
        assert_eq!(snap.to_json(), snapshot_json_empty(1_000));
    }

    fn snapshot_json_empty(at_ns: u64) -> String {
        format!(
            "{{\"at_ns\":{at_ns},\"counters\":{{}},\"gauges\":{{}},\"histograms\":{{}},\
             \"trace\":{{\"len\":0,\"dropped\":0}}}}"
        )
    }

    #[test]
    fn series_are_shared_and_sorted() {
        let r = Registry::enabled(16);
        // Registration order is scrambled; export order must not be.
        let b = r.counter("b.second", Labels::None);
        let a1 = r.counter("a.first", Labels::Node(NodeId(1)));
        let a0 = r.counter("a.first", Labels::Node(NodeId(0)));
        let a0_again = r.counter("a.first", Labels::Node(NodeId(0)));
        a0.add(1);
        a0_again.add(2);
        a1.add(5);
        b.inc();
        let snap = r.snapshot(SimTime::ZERO);
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| &**n).collect();
        assert_eq!(names, vec!["a.first{node=N0}", "a.first{node=N1}", "b.second"]);
        assert_eq!(snap.counter("a.first{node=N0}"), 3, "clones share storage");
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn counter_lookup_follows_key_order_not_rendered_order() {
        // Series sort by key: `Node(9) < Node(10)` although "…N10}" <
        // "…N9}", and `tor` before `tor.x` although '{' sorts after '.'.
        let r = Registry::enabled(0);
        for node in 0..12 {
            r.counter("tor.x", Labels::Node(NodeId(node))).set(100 + u64::from(node));
            r.counter("tor", Labels::Node(NodeId(node))).set(200 + u64::from(node));
        }
        let snap = r.snapshot(SimTime::ZERO);
        for node in 0..12 {
            assert_eq!(snap.counter(&format!("tor.x{{node=N{node}}}")), 100 + node, "N{node}");
            assert_eq!(snap.counter(&format!("tor{{node=N{node}}}")), 200 + node, "N{node}");
        }
        assert_eq!(snap.counter("tor.x"), 0);
    }

    #[test]
    fn a_name_is_rendered_once_and_reads_as_name_then_labels() {
        let all = [
            Labels::None,
            Labels::Node(NodeId(10)),
            Labels::NodePort(NodeId(2), PortId(1)),
            Labels::NodeQueue(NodeId(2), PortId(1), 7),
            Labels::Host(HostId(9)),
            Labels::Pair(NodeId(1), NodeId(2)),
            Labels::Slice(5),
        ];
        let r = Registry::enabled(0);
        let mut h = Log2Histogram::default();
        h.record(3);
        for labels in all {
            r.counter("s.c", labels).inc();
            r.gauge("s.g", labels).set(-1);
            r.mirror().unwrap().histogram("s.h", labels, &h);
        }
        let first = r.snapshot(SimTime::ZERO);
        let copy = r.clone();
        let (again, copied) = (r.snapshot(SimTime::ZERO), copy.snapshot(SimTime::ZERO));
        assert_eq!((&again, &copied), (&first, &first));
        // `all` is in key order, so series and labels line up.
        for (i, labels) in all.iter().enumerate() {
            assert_eq!(*first.counters[i].0, format!("s.c{labels}"));
            assert_eq!(*first.gauges[i].0, format!("s.g{labels}"));
            assert_eq!(*first.histograms[i].0, format!("s.h{labels}"));
            // One string per series, shared by every snapshot and by the clone.
            assert!(std::ptr::eq(first.counters[i].0.as_ptr(), again.counters[i].0.as_ptr()));
            assert!(std::ptr::eq(first.counters[i].0.as_ptr(), copied.counters[i].0.as_ptr()));
        }
        // The clone has its own cells: a write to one is not seen by the other.
        copy.counter("s.c", Labels::None).add(10);
        r.gauge("s.g", Labels::None).set(5);
        assert_eq!(r.snapshot(SimTime::ZERO).counter("s.c"), 1);
        assert_eq!(copy.snapshot(SimTime::ZERO).counter("s.c"), 11);
        assert_eq!(copy.snapshot(SimTime::ZERO).gauges[0].1, -1);
    }

    #[test]
    fn exports_of_a_50_node_registry_read_as_formatted_names() {
        let r = Registry::enabled(0);
        let (mut json, mut csv) = (String::new(), String::new());
        for name in ["bench.a", "bench.b"] {
            for node in 0..50u32 {
                r.counter(name, Labels::Node(NodeId(node))).add(u64::from(node) + 1);
                let rendered = format!("{name}{}", Labels::Node(NodeId(node)));
                let _ = write!(
                    json,
                    "{}\"{rendered}\":{}",
                    if json.is_empty() { "" } else { "," },
                    node + 1
                );
                let _ = writeln!(csv, "counter,{rendered},value,{}", node + 1);
            }
        }
        r.gauge("bench.g", Labels::Node(NodeId(11))).set(-5);
        let snap = r.snapshot(SimTime::from_ns(7));
        assert_eq!(
            snap.to_json(),
            format!(
                "{{\"at_ns\":7,\"counters\":{{{json}}},\"gauges\":{{\"bench.g{{node=N11}}\":-5}},\
                 \"histograms\":{{}},\"trace\":{{\"len\":0,\"dropped\":0}}}}"
            )
        );
        assert_eq!(
            snap.to_csv(),
            format!(
                "type,name,field,value\nmeta,snapshot,at_ns,7\n{csv}\
                 gauge,bench.g{{node=N11}},value,-5\nmeta,trace,len,0\nmeta,trace,dropped,0\n"
            )
        );
    }

    #[test]
    fn counter_totals_fold_labels() {
        let r = Registry::enabled(0);
        r.counter("tor.slice_miss", Labels::Node(NodeId(0))).add(2);
        r.counter("tor.slice_miss", Labels::Node(NodeId(1))).add(3);
        r.counter("sim.events", Labels::None).add(7);
        let totals = r.snapshot(SimTime::ZERO).counter_totals();
        assert_eq!(totals, vec![("sim.events".to_string(), 7), ("tor.slice_miss".to_string(), 5)]);
    }

    #[test]
    fn snapshot_exports_are_deterministic() {
        let build = || {
            let r = Registry::enabled(4);
            r.counter("c", Labels::None).add(3);
            r.gauge("g", Labels::Node(NodeId(2))).set(-4);
            let mut h = Log2Histogram::default();
            h.record(5);
            h.record(900);
            r.mirror().unwrap().histogram("h", Labels::None, &h);
            r.snapshot(SimTime::from_ms(2))
        };
        let (s1, s2) = (build(), build());
        assert_eq!(s1.to_json(), s2.to_json());
        assert_eq!(s1.to_csv(), s2.to_csv());
        assert!(s1.to_json().contains("\"h\":{\"count\":2,\"sum\":905,\"min\":5,\"max\":900"));
        assert!(s1.to_csv().contains("gauge,g{node=N2},value,-4\n"));
        assert!(s1.to_csv().starts_with("type,name,field,value\nmeta,snapshot,at_ns,2000000\n"));
    }

    #[test]
    fn zero_trace_capacity_disables_tracing_only() {
        let r = Registry::enabled(0);
        assert!(r.is_enabled());
        assert!(!r.trace().is_on());
        r.counter("c", Labels::None).inc();
        assert_eq!(r.snapshot(SimTime::ZERO).counter("c"), 1);
    }
}
