//! Sim-time-sampled series and the subscription frame log.
//!
//! When `NetConfig::sample_every_ns > 0` the engine schedules a sampling
//! timer on the simulation clock; each firing appends a [`SampleRow`] —
//! every counter and gauge plus the per-service latency summaries — to a
//! bounded [`TimeSeries`] and notes the row's index in the [`FrameLog`],
//! the log streaming subscriptions drain. A sample is stored once, as its
//! row (a shared name handle and a value per series), and rendered when
//! somebody reads it: a subscriber draining the log, or a time-series
//! export. Both stores are plain owned data (cloned with the engine, so a
//! clone's frames index the clone's own rows), stamped exclusively with
//! sim time, and rendered with stable field order, so the series and the
//! frame stream are byte-identical at any `--jobs` count.

use crate::json::{self, ToJson, Writer};
use crate::keep_first::KeepFirst;
use crate::registry::SeriesName;
use crate::slo::SloSummary;

/// One sampling instant: every counter/gauge plus per-service summaries.
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

impl SampleRow {
    /// Render as one JSON frame line with a stable field order.
    pub fn to_json(&self) -> String {
        json::render(self)
    }
}

impl ToJson for SampleRow {
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.field("frame", "sample");
            w.field("t_ns", self.at_ns);
            w.key("counters");
            w.obj(|w| self.counters.iter().for_each(|(name, v)| w.field(name, v)));
            w.key("gauges");
            w.obj(|w| self.gauges.iter().for_each(|(name, v)| w.field(name, v)));
            w.field("services", &self.services);
        });
    }
}

/// Bounded store of sample rows: the first `capacity` rows are kept and
/// later ones counted in `dropped`, the trace buffer's deterministic
/// keep-first policy.
pub type TimeSeries = KeepFirst<SampleRow>;

impl KeepFirst<SampleRow> {
    /// Rows held, in sampling order.
    pub fn rows(&self) -> &[SampleRow] {
        self.as_slice()
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

    #[test]
    fn sample_row_json_is_stable() {
        let row = SampleRow {
            at_ns: 500,
            counters: vec![("a.b".into(), 1), ("c".into(), 2)],
            gauges: vec![("g".into(), -3)],
            services: Vec::new(),
        };
        assert_eq!(
            row.to_json(),
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
        assert_eq!(ts.dropped(), 2);
        assert_eq!(ts.rows()[1].at_ns, 1);
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
}
