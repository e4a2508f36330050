//! The span table: every recorded span, in span-id order, as one row
//! `(begin, end, parent, flow, packet, stage, arg)`.
//!
//! The rows are the recording itself ([`crate::Spans`] pushes one per
//! `span_begin` and writes its end in place); a table is a copy of them
//! with every end settled at some `now`. Every export reads it.

use openoptics_sim::cast::to_usize;
use openoptics_sim::time::SimTime;

use crate::span::Stage;

/// One span. While recording, `end` is the recorded end (zero while the
/// span is open); in a [`SpanTable`] it is the settled end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRow {
    /// When the span opened.
    pub begin: SimTime,
    /// When it closed: its recorded end, its begin if that is later, `now`
    /// if it is still open, and no earlier than any child's end.
    pub end: SimTime,
    /// Causal parent span id (0 = root).
    pub parent: u64,
    /// Owning flow id (0 for flow-less spans).
    pub flow: u64,
    /// Owning packet id (0 for flow-level spans).
    pub packet: u64,
    /// Stage-specific annotation (drop site, retransmit kind, fault code).
    pub arg: u64,
    /// Stage attribution.
    pub stage: Stage,
    pub(crate) ended: bool,
}

impl SpanRow {
    /// Row 0 of every recording: the "no parent" slot, never a span.
    pub(crate) const ROOT: SpanRow = SpanRow {
        begin: SimTime::ZERO,
        end: SimTime::ZERO,
        parent: 0,
        flow: 0,
        packet: 0,
        arg: 0,
        stage: Stage::Flow,
        ended: false,
    };

    /// Interval length, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end.saturating_since(self.begin)
    }
}

/// How the recording API was misused: the first misuse makes
/// [`crate::Spans::table`] fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WellFormedError {
    /// A span was ended twice.
    DuplicateEnd(u64),
    /// An end named a span id that was never begun.
    EndWithoutBegin(u64),
    /// A span named a parent that is not an earlier span.
    UnknownParent {
        /// The child span.
        span: u64,
        /// The parent id it named.
        parent: u64,
    },
}

impl std::fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WellFormedError::DuplicateEnd(s) => write!(f, "span {s}: duplicate end"),
            WellFormedError::EndWithoutBegin(s) => write!(f, "span {s}: end without begin"),
            WellFormedError::UnknownParent { span, parent } => {
                write!(f, "span {span}: parent {parent} does not exist")
            }
        }
    }
}

impl std::error::Error for WellFormedError {}

/// The settled rows of a recording, in span-id order.
#[derive(Default)]
pub struct SpanTable {
    /// Row `s` is span `s`; row 0 is [`SpanRow::ROOT`] (or absent when
    /// nothing was recorded).
    pub(crate) rows: Vec<SpanRow>,
}

impl SpanTable {
    /// Settle `rows` at `now`: a span still open closes at
    /// `max(begin, now)`, an end before its begin moves up to the begin,
    /// and every end is raised to cover its children's. A parent's id is
    /// lower than its child's, so one descending pass settles every child
    /// before its parent is visited.
    pub(crate) fn settled(mut rows: Vec<SpanRow>, now: SimTime) -> SpanTable {
        for s in (1..rows.len()).rev() {
            let r = rows[s];
            let open = if r.ended { SimTime::ZERO } else { now };
            let end = r.end.max(r.begin).max(open);
            rows[s].end = end;
            let p = &mut rows[to_usize(r.parent)].end;
            *p = (*p).max(end);
        }
        SpanTable { rows }
    }

    /// `(span id, row)` of every span, in id order.
    pub fn spans(&self) -> impl Iterator<Item = (u64, &SpanRow)> {
        (0..).zip(&self.rows).skip(1)
    }

    /// The row of span `id` (`None` for 0 and for ids never begun).
    pub fn span(&self, id: u64) -> Option<&SpanRow> {
        self.rows.get(to_usize(id)).filter(|_| id != 0)
    }
}

#[cfg(test)]
mod tests {
    use crate::reference::{self, SpanEvent, SpanPhase};
    use crate::span::Stage;
    use crate::Spans;
    use openoptics_sim::time::SimTime;
    use openoptics_telemetry::json;
    use proptest::prelude::*;

    const STAGES: [Stage; 12] = [
        Stage::Flow,
        Stage::Packet,
        Stage::HostTxQueue,
        Stage::CalendarWait,
        Stage::GuardbandHold,
        Stage::Serialization,
        Stage::Propagation,
        Stage::Rx,
        Stage::TcpDelivery,
        Stage::Retransmit,
        Stage::FaultDrop,
        Stage::Drop,
    ];

    /// A stream recorded the way the engine records, as the recording
    /// handle and as its edges: `(op, pick, stage, step, jitter)` opens a
    /// span under an open one (or a root), closes an open one, or marks an
    /// instant. Time steps forward; a close may land before its span's
    /// begin or after its parent's close.
    fn recorded(ops: &[(usize, usize, usize, u64, u64)]) -> (Spans, Vec<SpanEvent>) {
        let spans = Spans::bounded(1, 0, usize::MAX);
        let mut edges = Vec::new();
        let mut edge =
            |at: u64, span: u64, parent: u64, stage: Stage, phase: SpanPhase, arg: u64| {
                let (flow, packet) =
                    if phase == SpanPhase::Begin { (parent % 4, span % 5) } else { (0, 0) };
                let at = SimTime::from_ns(at);
                edges.push(SpanEvent { at, span, parent, flow, packet, stage, phase, arg });
                match phase {
                    SpanPhase::Begin => spans.span_begin(at, parent, flow, packet, stage, arg),
                    SpanPhase::End => {
                        spans.span_end(at, span, stage);
                        span
                    }
                }
            };
        let (mut open, mut next, mut now): (Vec<(u64, Stage)>, u64, u64) = (Vec::new(), 1, 0);
        for &(op, pick, stage, step, jitter) in ops {
            now += step;
            let parent = match op {
                0 | 1 if !open.is_empty() => open[pick % open.len()].0,
                _ => 0,
            };
            let stage = STAGES[stage];
            match op {
                3 if !open.is_empty() => {
                    let (s, st) = open.swap_remove(pick % open.len());
                    edge(now.saturating_sub(jitter * 7), s, 0, st, SpanPhase::End, 0);
                }
                0..=2 => {
                    edge(now, next, parent, stage, SpanPhase::Begin, jitter);
                    open.push((next, stage));
                    next += 1;
                }
                _ => {
                    edge(now, next, parent, stage, SpanPhase::Begin, jitter);
                    edge(now, next, 0, stage, SpanPhase::End, 0);
                    next += 1;
                }
            }
        }
        (spans, edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The byte gate: the table the recording settles into exports the
        /// Chrome trace and the span report that finalizing the same edges
        /// and walking their forest did.
        #[test]
        fn recorded_streams_export_like_the_forest(
            ops in collection::vec((0usize..5, 0usize..64, 0usize..12, 0u64..30, 0u64..4), 0..120),
            now in 0u64..4_000,
        ) {
            let (spans, events) = recorded(&ops);
            let now = SimTime::from_ns(now);
            let finalized = reference::finalize(&events, now);
            let table = spans.table(now).expect("a recording through the API is well-formed");
            prop_assert_eq!(json::render(&table), reference::chrome_trace(&finalized));
            prop_assert_eq!(
                json::text(|out| table.write_report(out)),
                reference::span_report(&finalized)
            );
        }
    }
}
