//! Sim-time-sampled series and the subscription frame log.
//!
//! When `NetConfig::sample_every_ns > 0` the engine schedules a sampling
//! timer on the simulation clock; each firing appends a row — every
//! counter and gauge plus the per-service latency summaries — to a bounded
//! [`TimeSeries`] and notes the row's index in the [`FrameLog`], the log
//! streaming subscriptions drain. A sample is stored once, as its values:
//! the series names are the same in every row until a series is added, so
//! a row keeps 8 bytes per series in a value column and the index of the
//! name lists it shares with its neighbours. It is rendered when somebody
//! reads it: a subscriber draining the log, or a time-series export. Both
//! stores are plain owned data (cloned with the engine, so a clone's
//! frames index the clone's own rows), stamped exclusively with sim time,
//! and rendered with stable field order, so the series and the frame
//! stream are byte-identical at any `--jobs` count.

use crate::chunked::ChunkedVec;
use crate::json::{ToJson, Writer};
use crate::keep_first::KeepFirst;
use crate::registry::{Registry, SeriesName};
use crate::slo::SloSummary;

/// One sampling instant: every counter/gauge plus per-service summaries.
/// A [`TimeSeries`] stores it as its values and hands it back as a
/// [`Row`]; this is the built form, for a caller that has one to push.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleRow {
    /// Sim time of the sample.
    pub at_ns: u64,
    /// `(rendered name, value)` for every counter, sorted by series key.
    pub counters: Vec<(SeriesName, u64)>,
    /// `(rendered name, value)` for every gauge, sorted by series key.
    pub gauges: Vec<(SeriesName, i64)>,
    /// Per-service latency/SLO summaries, in service-declaration order.
    pub services: Vec<SloSummary>,
}

impl ToJson for SampleRow {
    fn write_json(&self, w: &mut Writer) {
        write_sample(
            w,
            self.at_ns,
            self.counters.iter().map(|(name, v)| (&**name, *v)),
            self.gauges.iter().map(|(name, v)| (&**name, *v)),
            &self.services,
        );
    }
}

/// The one rendering of a sample, stored or built.
fn write_sample<'a>(
    w: &mut Writer,
    at_ns: u64,
    counters: impl Iterator<Item = (&'a str, u64)>,
    gauges: impl Iterator<Item = (&'a str, i64)>,
    services: &[SloSummary],
) {
    w.obj(|w| {
        w.field("frame", "sample");
        w.field("t_ns", at_ns);
        w.key("counters");
        w.obj(|w| counters.for_each(|(name, v)| w.field(name, v)));
        w.key("gauges");
        w.obj(|w| gauges.for_each(|(name, v)| w.field(name, v)));
        w.field("services", services);
    });
}

/// The names of a row's series, kept once for every row that lists the
/// same ones.
#[derive(Clone, Debug, Default)]
struct Schema {
    counters: Box<[SeriesName]>,
    gauges: Box<[SeriesName]>,
}

impl Schema {
    fn widths(&self) -> (usize, usize) {
        (self.counters.len(), self.gauges.len())
    }
}

/// The names of a built row's series.
fn names<T>(series: &[(SeriesName, T)]) -> Box<[SeriesName]> {
    series.iter().map(|(name, _)| name.clone()).collect()
}

/// A stored row: where its values and names are. `services` stays empty,
/// and allocation-free, when no service is declared.
#[derive(Clone, Debug)]
struct Head {
    at_ns: u64,
    schema: usize,
    counters: usize,
    gauges: usize,
    services: Vec<SloSummary>,
}

/// What rows are stored in: the distinct name lists and the value columns.
#[derive(Clone, Debug, Default)]
struct Columns {
    schemas: Vec<Schema>,
    counters: ChunkedVec<u64>,
    gauges: ChunkedVec<i64>,
}

impl Columns {
    /// Store one row's values and return its head. The last schema is
    /// reused when it is as wide as the row and `same` accepts it; `names`
    /// builds a new one otherwise.
    fn append(
        &mut self,
        at_ns: u64,
        counters: impl ExactSizeIterator<Item = u64>,
        gauges: impl ExactSizeIterator<Item = i64>,
        same: impl FnOnce(&Schema) -> bool,
        names: impl FnOnce() -> Schema,
        services: Vec<SloSummary>,
    ) -> Head {
        let widths = (counters.len(), gauges.len());
        if !self.schemas.last().is_some_and(|s| s.widths() == widths && same(s)) {
            let schema = names();
            assert_eq!(schema.widths(), widths, "a schema names every value of its row");
            self.schemas.push(schema);
        }
        Head {
            at_ns,
            schema: self.schemas.len() - 1,
            counters: self.counters.push_run(counters),
            gauges: self.gauges.push_run(gauges),
            services,
        }
    }

    fn row<'a>(&'a self, head: &'a Head) -> Row<'a> {
        let schema = &self.schemas[head.schema];
        let (c, g) = schema.widths();
        Row {
            at_ns: head.at_ns,
            schema,
            counters: self.counters.run(head.counters, c),
            gauges: self.gauges.run(head.gauges, g),
            services: &head.services,
        }
    }
}

/// Bounded store of samples: the first `capacity` rows are kept and later
/// ones counted in `dropped`, the trace buffer's deterministic keep-first
/// policy. A row is a head (its instant, its services, where its values
/// are) in a keep-first store; its counter and gauge values sit in value
/// columns that grow in fixed chunks, never copied, and its names in the
/// list of series sets seen so far.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    heads: KeepFirst<Head>,
    columns: Columns,
}

impl TimeSeries {
    /// An empty store keeping at most `capacity` rows.
    pub fn new(capacity: usize) -> Self {
        TimeSeries { heads: KeepFirst::new(capacity), columns: Columns::default() }
    }

    /// Append a built row (counted, not kept, once the store is full).
    pub fn push(&mut self, row: SampleRow) {
        let Self { heads, columns } = self;
        heads.push_with(|| {
            columns.append(
                row.at_ns,
                row.counters.iter().map(|&(_, v)| v),
                row.gauges.iter().map(|&(_, v)| v),
                |s| {
                    s.counters.iter().eq(row.counters.iter().map(|(n, _)| n))
                        && s.gauges.iter().eq(row.gauges.iter().map(|(n, _)| n))
                },
                || Schema { counters: names(&row.counters), gauges: names(&row.gauges) },
                row.services,
            )
        });
    }

    /// Append every counter and gauge of `registry` as the row at `at_ns`,
    /// read straight from its cells, with the summaries `services` builds.
    /// A full store reads nothing. Series are never removed from a
    /// registry, so one whose counter and gauge counts are those of the
    /// last row lists the same names and reuses its schema.
    pub fn push_sample(
        &mut self,
        at_ns: u64,
        registry: &Registry,
        services: impl FnOnce() -> Vec<SloSummary>,
    ) {
        let Self { heads, columns } = self;
        heads.push_with(|| match registry.scalars() {
            Some(s) => columns.append(
                at_ns,
                s.counters(),
                s.gauges(),
                |schema| {
                    let strict = cfg!(feature = "strict-invariants");
                    let same = !strict || s.named(&schema.counters, &schema.gauges);
                    assert!(same, "equal series counts listed different series");
                    true
                },
                || Schema {
                    counters: s.counter_names().collect(),
                    gauges: s.gauge_names().collect(),
                },
                services(),
            ),
            None => columns.append(
                at_ns,
                std::iter::empty(),
                std::iter::empty(),
                |_| true,
                Schema::default,
                services(),
            ),
        });
    }

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether no row is held.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Row `i`, in sampling order.
    pub fn row(&self, i: usize) -> Option<Row<'_>> {
        self.heads.as_slice().get(i).map(|h| self.columns.row(h))
    }

    /// Rows held, in sampling order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_>> {
        self.heads.as_slice().iter().map(|h| self.columns.row(h))
    }
}

/// A stored row, borrowed: what [`TimeSeries::row`] hands back and what an
/// export or a sample frame renders, in [`SampleRow`]'s bytes.
#[derive(Clone, Copy, Debug)]
pub struct Row<'a> {
    /// Sim time of the sample.
    pub at_ns: u64,
    schema: &'a Schema,
    counters: &'a [u64],
    gauges: &'a [i64],
    /// Per-service latency/SLO summaries, in service-declaration order.
    pub services: &'a [SloSummary],
}

impl<'a> Row<'a> {
    /// `(rendered name, value)` for every counter, sorted by series key.
    pub fn counters(&self) -> impl ExactSizeIterator<Item = (&'a str, u64)> + 'a {
        self.schema.counters.iter().map(|n| &**n).zip(self.counters.iter().copied())
    }

    /// `(rendered name, value)` for every gauge, sorted by series key.
    pub fn gauges(&self) -> impl ExactSizeIterator<Item = (&'a str, i64)> + 'a {
        self.schema.gauges.iter().map(|n| &**n).zip(self.gauges.iter().copied())
    }
}

impl ToJson for Row<'_> {
    fn write_json(&self, w: &mut Writer) {
        write_sample(w, self.at_ns, self.counters(), self.gauges(), self.services);
    }
}

/// One entry of the [`FrameLog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A sampling tick: the index of its row in the [`TimeSeries`] of the
    /// engine that owns both, which renders it for whoever reads the frame
    /// (`Engine::write_frame`).
    Sample(usize),
    /// An event frame (SLO transition, flight-recorder dump) as a finished
    /// JSON line.
    Line(String),
}

/// Bounded log of frames for streaming subscriptions.
///
/// The engine appends every frame it produces (samples, SLO transitions,
/// flight-recorder dumps); subscribers keep a cursor into the log and
/// drain `since(cursor)` after each run step. The keep-first bound makes
/// the log — and therefore every subscriber's view of it — deterministic
/// regardless of run length.
pub type FrameLog = KeepFirst<Frame>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::labels::Labels;
    use openoptics_proto::NodeId;
    use openoptics_sim::SimTime;
    use proptest::prelude::*;

    #[test]
    fn sample_row_json_is_stable() {
        let row = SampleRow {
            at_ns: 500,
            counters: vec![("a.b".into(), 1), ("c".into(), 2)],
            gauges: vec![("g".into(), -3)],
            services: Vec::new(),
        };
        assert_eq!(
            json::render(&row),
            "{\"frame\":\"sample\",\"t_ns\":500,\"counters\":{\"a.b\":1,\"c\":2},\
             \"gauges\":{\"g\":-3},\"services\":[]}"
        );
    }

    #[test]
    fn series_keeps_first_rows() {
        let mut ts = TimeSeries::new(2);
        for i in 0..4u64 {
            ts.push(SampleRow {
                at_ns: i,
                counters: Vec::new(),
                gauges: Vec::new(),
                services: Vec::new(),
            });
        }
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.heads.dropped(), 2);
        assert_eq!(ts.row(1).map(|r| r.at_ns), Some(1));
        assert!(ts.row(2).is_none());
    }

    #[test]
    fn a_registry_sample_renders_its_series_and_shares_its_names() {
        let reg = Registry::enabled(0);
        reg.counter("b", Labels::None).add(2);
        reg.gauge("g", Labels::None).set(-1);
        let mut ts = TimeSeries::new(8);
        ts.push_sample(10, &reg, Vec::new);
        reg.counter("a", Labels::None).add(5);
        ts.push_sample(20, &reg, Vec::new);
        ts.push_sample(30, &reg, Vec::new);
        let lines: Vec<String> = ts.rows().map(|r| json::render(&r)).collect();
        assert_eq!(
            lines,
            [
                "{\"frame\":\"sample\",\"t_ns\":10,\"counters\":{\"b\":2},\"gauges\":{\"g\":-1},\"services\":[]}",
                "{\"frame\":\"sample\",\"t_ns\":20,\"counters\":{\"a\":5,\"b\":2},\"gauges\":{\"g\":-1},\"services\":[]}",
                "{\"frame\":\"sample\",\"t_ns\":30,\"counters\":{\"a\":5,\"b\":2},\"gauges\":{\"g\":-1},\"services\":[]}",
            ]
        );
        // Two series sets, so two schemas for three rows; the last two
        // rows share one.
        assert_eq!(ts.columns.schemas.len(), 2);
        let (r1, r2) = (ts.row(1).unwrap(), ts.row(2).unwrap());
        assert!(std::ptr::eq(r1.schema, r2.schema));
    }

    #[test]
    fn frame_log_cursors() {
        let mut log = FrameLog::new(8);
        log.push(Frame::Line("{\"frame\":\"slo\"}".into()));
        log.push(Frame::Sample(0));
        assert_eq!(log.since(0).len(), 2);
        assert_eq!(log.since(1), [Frame::Sample(0)]);
        assert!(log.since(2).is_empty());
        assert!(log.since(99).is_empty());
    }

    fn summary(i: usize, v: u64) -> SloSummary {
        SloSummary {
            service: format!("svc{i}"),
            count: v,
            p50_ns: v / 2,
            p99_ns: v,
            p999_ns: v + 1,
            bad: v % 3,
            bad_in_fault: v % 2,
            burn_milli: v % 1_000,
            breached: v.is_multiple_of(2),
            has_target: i.is_multiple_of(2),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Rows sampled from a registry whose series set grows between
        /// ticks render as the [`SampleRow`]s a snapshot of each tick
        /// builds, and so do the same rows pushed built, with foreign rows
        /// (equal widths, other names) interleaved; a full store keeps its
        /// count and builds nothing. A tick is the counters and gauges
        /// added before it, a bump, the services' summary values, and
        /// whether a foreign row follows it.
        #[test]
        fn stored_rows_render_as_the_rows_they_were_sampled_as(
            capacity in 0usize..6,
            ticks in collection::vec(
                (0usize..3, 0usize..2, 0u64..1_000, collection::vec(0u64..5_000, 0..3), any::<bool>()),
                0..14,
            ),
        ) {
            const NAMES: [&str; 3] = ["a", "m.x", "z"];
            let reg = Registry::enabled(0);
            let (mut sampled, mut built) = (TimeSeries::new(capacity), TimeSeries::new(capacity));
            let (mut want, mut want_built) = (Vec::new(), Vec::new());
            let (mut counters, mut gauges) = (Vec::new(), Vec::new());
            let mut summaries_built = 0;
            for (i, (new_counters, new_gauges, bump, services, foreign)) in ticks.iter().enumerate() {
                let serial = |k: usize| NodeId(u32::try_from(i * 8 + k).unwrap());
                for k in 0..*new_counters {
                    counters.push(reg.counter(NAMES[(i + k) % 3], Labels::Node(serial(k))));
                }
                for k in 0..*new_gauges {
                    gauges.push(reg.gauge(NAMES[(i + k + 1) % 3], Labels::Node(serial(k + 4))));
                }
                counters.iter().step_by(2).for_each(|c| c.add(*bump));
                gauges.iter().for_each(|g| g.set(-i64::try_from(*bump * i as u64).unwrap()));
                let services: Vec<SloSummary> =
                    services.iter().enumerate().map(|(k, &v)| summary(k, v)).collect();
                let at_ns = 100 * i as u64;
                sampled.push_sample(at_ns, &reg, || {
                    summaries_built += 1;
                    services.clone()
                });
                let snap = reg.snapshot(SimTime::from_ns(at_ns));
                let row = SampleRow { at_ns, counters: snap.counters, gauges: snap.gauges, services };
                if *foreign {
                    let rename = |n: &SeriesName| SeriesName::from(format!("x.{n}"));
                    want_built.push(row.clone());
                    want_built.push(SampleRow {
                        counters: row.counters.iter().map(|(n, v)| (rename(n), *v)).collect(),
                        gauges: row.gauges.iter().map(|(n, v)| (rename(n), *v)).collect(),
                        ..row.clone()
                    });
                } else {
                    want_built.push(row.clone());
                }
                want.push(row);
            }
            want_built.iter().for_each(|row| built.push(row.clone()));
            for (store, rows) in [(&sampled, &want), (&built, &want_built)] {
                let kept = rows.len().min(capacity);
                prop_assert_eq!(store.len(), kept);
                prop_assert_eq!(store.heads.dropped(), (rows.len() - kept) as u64);
                prop_assert_eq!(store.rows().len(), kept);
                for (row, expect) in store.rows().zip(rows) {
                    prop_assert_eq!(json::render(&row), json::render(&expect));
                    prop_assert_eq!(row.at_ns, expect.at_ns);
                    prop_assert!(row.counters().eq(expect.counters.iter().map(|(n, v)| (&**n, *v))));
                    prop_assert!(row.gauges().eq(expect.gauges.iter().map(|(n, v)| (&**n, *v))));
                    prop_assert_eq!(row.services, &expect.services[..]);
                }
            }
            prop_assert_eq!(summaries_built, want.len().min(capacity));
        }
    }
}
