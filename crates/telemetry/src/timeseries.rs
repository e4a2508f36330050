//! Sim-time-sampled series and the subscription frame log.
//!
//! When `NetConfig::sample_every_ns > 0` the engine schedules a sampling
//! timer on the simulation clock; each firing appends a [`SampleRow`] —
//! every counter and gauge plus the per-service latency summaries — to a
//! bounded [`TimeSeries`] and renders the same row into the [`FrameLog`],
//! the line buffer streaming subscriptions drain. Both stores are plain
//! owned data (deep-cloned by `fork`), stamped exclusively with sim time,
//! and rendered with stable field order, so the series and the frame
//! stream are byte-identical at any `--jobs` count.

use crate::json::{self, ToJson, Writer};
use crate::slo::SloSummary;

/// One sampling instant: every counter/gauge plus per-service summaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleRow {
    /// Sim time of the sample.
    pub at_ns: u64,
    /// `(rendered name, value)` for every counter, sorted by series key.
    pub counters: Vec<(String, u64)>,
    /// `(rendered name, value)` for every gauge, sorted by series key.
    pub gauges: Vec<(String, i64)>,
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
/// later ones counted in `dropped`, mirroring the trace buffer's
/// deterministic keep-first policy.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    capacity: usize,
    rows: Vec<SampleRow>,
    dropped: u64,
}

impl TimeSeries {
    /// An empty series keeping at most `capacity` rows.
    pub fn new(capacity: usize) -> Self {
        TimeSeries { capacity, rows: Vec::new(), dropped: 0 }
    }

    /// Append a row (counted once full).
    pub fn push(&mut self, row: SampleRow) {
        if self.rows.len() < self.capacity {
            self.rows.push(row);
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
    }

    /// Rows held, in sampling order.
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are held.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows rejected because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The whole series as JSON lines (one sample frame per row).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&row.to_json());
            out.push('\n');
        }
        out
    }
}

/// Bounded log of rendered frame lines for streaming subscriptions.
///
/// The engine appends every frame it produces (samples, SLO transitions,
/// flight-recorder dumps) as a finished JSON line; subscribers keep a
/// cursor into the log and drain `since(cursor)` after each run step. The
/// keep-first bound makes the log — and therefore every subscriber's view
/// of it — deterministic regardless of run length.
#[derive(Clone, Debug)]
pub struct FrameLog {
    capacity: usize,
    lines: Vec<String>,
    dropped: u64,
}

impl FrameLog {
    /// An empty log keeping at most `capacity` frame lines.
    pub fn new(capacity: usize) -> Self {
        FrameLog { capacity, lines: Vec::new(), dropped: 0 }
    }

    /// Append a rendered frame line (counted once full).
    pub fn push(&mut self, line: String) {
        if self.lines.len() < self.capacity {
            self.lines.push(line);
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
    }

    /// Number of frame lines held.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no frames are held.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Frames rejected because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All frame lines held, in emission order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Frames appended at or after position `cursor` (empty when past the
    /// end) — the delta a subscriber at `cursor` has not yet seen.
    pub fn since(&self, cursor: usize) -> &[String] {
        if cursor >= self.lines.len() {
            &[]
        } else {
            &self.lines[cursor..]
        }
    }
}

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
        log.push("{\"frame\":\"a\"}".into());
        log.push("{\"frame\":\"b\"}".into());
        assert_eq!(log.since(0).len(), 2);
        assert_eq!(log.since(1), ["{\"frame\":\"b\"}".to_string()]);
        assert!(log.since(2).is_empty());
        assert!(log.since(99).is_empty());
    }
}
