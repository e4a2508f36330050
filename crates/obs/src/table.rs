//! The span table: every span of a recorded stream, in span-id order, as
//! one row `(begin, final end, parent, flow, packet, stage, arg)`.
//!
//! The table is built in place from the recorded edges — one pass to fill
//! the rows, one descending pass to settle the ends a finalized stream
//! would carry — and checked with exactly the rules, and in exactly the
//! precedence, of a stream-order reconstruction. Every export reads it;
//! [`finalize`] and [`crate::build_forest`] are views over it.

use openoptics_sim::cast::to_usize;
use openoptics_sim::time::SimTime;

use crate::report::WellFormedError;
use crate::span::{SpanEvent, SpanPhase, Stage};

/// One span id's slot. A slot whose id was never begun has `begins == 0`
/// and only carries a recorded end.
#[derive(Clone, Copy)]
pub(crate) struct Row {
    pub(crate) begin: SimTime,
    /// The recorded end (the last `End` edge's time) while the table is
    /// built; the final end once it is.
    pub(crate) end: SimTime,
    pub(crate) parent: u64,
    pub(crate) flow: u64,
    pub(crate) packet: u64,
    pub(crate) arg: u64,
    pub(crate) stage: Stage,
    /// `Begin` edges seen, saturating at 2.
    begins: u8,
    /// `End` edges recorded.
    ends: u32,
}

impl Row {
    const EMPTY: Row = Row {
        begin: SimTime::ZERO,
        end: SimTime::ZERO,
        parent: 0,
        flow: 0,
        packet: 0,
        arg: 0,
        stage: Stage::Packet,
        begins: 0,
        ends: 0,
    };

    pub(crate) fn is_span(&self) -> bool {
        self.begins > 0
    }

    pub(crate) fn duration_ns(&self) -> u64 {
        self.end.saturating_since(self.begin)
    }
}

/// A checked span stream: one row per span id, in id order.
pub struct SpanTable {
    pub(crate) rows: Vec<Row>,
}

/// Fill one row per span id from `events`. With `now`, settle every end as
/// [`finalize`] would: a span still open closes at `max(begin, now)`, and
/// every end is raised to cover its children's. The flag says whether the
/// stream shows anything that can make the stream-order check fail (a
/// repeated edge, an end before its begin), so a clean stream skips it.
fn fill(events: &[SpanEvent], now: Option<SimTime>) -> (Vec<Row>, bool) {
    let n = events.iter().map(|e| e.span).max().map_or(0, |m| to_usize(m) + 1);
    let mut rows = vec![Row::EMPTY; n];
    let mut suspect = false;
    for e in events {
        let r = &mut rows[to_usize(e.span)];
        match e.phase {
            // A repeated begin overwrites: finalize reads the last one.
            SpanPhase::Begin => {
                suspect |= r.begins > 0;
                *r = Row {
                    begin: e.at,
                    parent: e.parent,
                    flow: e.flow,
                    packet: e.packet,
                    arg: e.arg,
                    stage: e.stage,
                    begins: r.begins.saturating_add(1),
                    ..*r
                };
            }
            SpanPhase::End => {
                // Finalize moves an end before its begin up to the begin,
                // except for span 0, which it never touches.
                let early = e.at < r.begin && (now.is_none() || e.span == 0);
                suspect |= r.ends > 0 || r.begins == 0 || early;
                r.end = e.at;
                r.ends = r.ends.saturating_add(1);
            }
        }
    }
    if let Some(now) = now {
        // A child's id is greater than its parent's in a recorded stream,
        // so one descending pass settles every end before its parent is
        // visited. A child naming a later (or its own) id raises nothing,
        // as in the event-copying finalize this replaces.
        for s in (1..n).rev() {
            let r = rows[s];
            if !r.is_span() {
                continue;
            }
            let open = if r.ends == 0 { now } else { SimTime::ZERO };
            let end = r.end.max(r.begin).max(open);
            rows[s].end = end;
            let p = to_usize(r.parent);
            if p > 0 && p < s {
                rows[p].end = rows[p].end.max(end);
            }
        }
    }
    (rows, suspect)
}

impl SpanTable {
    /// The table of `events` exactly as recorded: what
    /// [`crate::build_forest`] reconstructs.
    pub(crate) fn recorded(events: &[SpanEvent]) -> Result<SpanTable, WellFormedError> {
        SpanTable::build(events, None)
    }

    /// The table of [`finalize`]`(events, now)`, built without copying the
    /// stream: what every export renders.
    pub(crate) fn finalized(
        events: &[SpanEvent],
        now: SimTime,
    ) -> Result<SpanTable, WellFormedError> {
        SpanTable::build(events, Some(now))
    }

    fn build(events: &[SpanEvent], now: Option<SimTime>) -> Result<SpanTable, WellFormedError> {
        let (rows, suspect) = fill(events, now);
        if suspect {
            first_stream_error(&rows, events, now.is_some()).map_or(Ok(()), Err)?;
        }
        // After finalize only span 0 — which it never closes — can lack an end.
        let missing = rows
            .iter()
            .enumerate()
            .position(|(s, r)| r.is_span() && r.ends == 0 && (now.is_none() || s == 0));
        if let Some(s) = missing {
            return Err(WellFormedError::MissingEnd(s as u64));
        }
        for (s, r) in rows.iter().enumerate() {
            if !r.is_span() || r.parent == 0 {
                continue;
            }
            let (span, parent) = (s as u64, r.parent);
            match usize::try_from(parent).ok().and_then(|p| rows.get(p)) {
                Some(p) if p.is_span() => {
                    if p.end < r.end {
                        return Err(WellFormedError::ParentEndsBeforeChild { parent, child: span });
                    }
                }
                _ => return Err(WellFormedError::UnknownParent { span, parent }),
            }
        }
        Ok(SpanTable { rows })
    }

    /// `(span id, row)` of every span, in id order.
    pub(crate) fn spans(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.rows.iter().enumerate().filter(|(_, r)| r.is_span())
    }
}

/// The first error a reconstruction reading the (finalized, if
/// `finalized`) stream edge by edge meets: a repeated begin or end, an end
/// with no begin before it, an end before its begin's time.
fn first_stream_error(
    rows: &[Row],
    events: &[SpanEvent],
    finalized: bool,
) -> Option<WellFormedError> {
    // Per span id: (first begin's time, if begun; ended).
    let mut seen: Vec<(Option<SimTime>, bool)> = vec![(None, false); rows.len()];
    for e in events {
        let s = to_usize(e.span);
        let (begun, ended) = &mut seen[s];
        match e.phase {
            SpanPhase::Begin => {
                if begun.is_some() {
                    return Some(WellFormedError::DuplicateBegin(e.span));
                }
                *begun = Some(e.at);
            }
            SpanPhase::End => {
                if *ended {
                    return Some(WellFormedError::DuplicateEnd(e.span));
                }
                let Some(begin) = *begun else {
                    return Some(WellFormedError::EndWithoutBegin(e.span));
                };
                // Finalize moved a span's only end to its final end.
                let at = if finalized && rows[s].ends == 1 { rows[s].end } else { e.at };
                if at < begin {
                    return Some(WellFormedError::EndBeforeBegin(e.span));
                }
                *ended = true;
            }
        }
    }
    // The ends finalize appends close spans that have none, after all of
    // their begins: they cannot fail.
    None
}

/// Close every open span in `events` (see
/// [`crate::Spans::finalized_events`]). Public so externally-assembled
/// streams (tests, replay tools) can be normalized the same way: every
/// recorded edge keeps its place, the last end of each begun span takes
/// the span's final end, and a span with no end gets one appended, highest
/// id first.
pub fn finalize(events: &[SpanEvent], now: SimTime) -> Vec<SpanEvent> {
    let (mut rows, _) = fill(events, Some(now));
    let mut out = events.to_vec();
    out.extend(
        rows.iter().enumerate().skip(1).rev().filter(|(_, r)| r.is_span() && r.ends == 0).map(
            |(s, r)| SpanEvent {
                at: r.end,
                span: s as u64,
                parent: 0,
                flow: 0,
                packet: 0,
                stage: r.stage,
                phase: SpanPhase::End,
                arg: 0,
            },
        ),
    );
    for e in out[..events.len()].iter_mut().rev() {
        let r = &mut rows[to_usize(e.span)];
        if e.phase == SpanPhase::End && r.is_span() && r.ends > 0 {
            e.at = r.end;
            r.ends = 0; // earlier ends of the span keep their time
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::report::build_forest;
    use crate::Spans;
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

    /// `(span, parent, stage * 2 + is_end, at, arg)`.
    type Edge = (u64, u64, usize, u64, u64);

    /// Any edge over a few span ids. Most streams of them are malformed, in
    /// every way there is.
    fn edge() -> impl Strategy<Value = Edge> {
        (0u64..9, 0u64..11, 0usize..24, 0u64..60, 0u64..3)
    }

    fn stream(edges: &[Edge]) -> Vec<SpanEvent> {
        edges
            .iter()
            .map(|&(span, parent, kind, at, arg)| SpanEvent {
                at: SimTime::from_ns(at),
                span,
                parent,
                flow: span % 3,
                packet: parent % 2,
                stage: STAGES[kind / 2],
                phase: if kind % 2 == 0 { SpanPhase::Begin } else { SpanPhase::End },
                arg,
            })
            .collect()
    }

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

    /// `edits` applied to a stream: duplicate, drop or move an edge, or
    /// change its span id (span 0 included), parent or time — streams with
    /// one or two things wrong, where which check fires first is decided
    /// by a single edge.
    fn edited(mut events: Vec<SpanEvent>, edits: &[(u8, usize, u64)]) -> Vec<SpanEvent> {
        for &(kind, at, value) in edits {
            if events.is_empty() {
                break;
            }
            let (n, i) = (events.len(), at % events.len());
            let ids = events.iter().map(|e| e.span).max().unwrap_or(0) + 2;
            match kind {
                0 => {
                    let e = events[i];
                    events.insert(to_usize(value) % (events.len() + 1), e);
                }
                1 => drop(events.remove(i)),
                2 => events[i].span = value % ids,
                3 => events[i].parent = value % ids,
                4 => events[i].at = SimTime::from_ns(value),
                _ => events.swap(i, (i + 1) % n),
            }
        }
        events
    }

    /// The table against the pre-table pipeline on one stream: the same
    /// finalized stream, forest, exports and errors, in the same order.
    fn same_as_reference(events: &[SpanEvent], now: SimTime) -> Result<(), TestCaseError> {
        prop_assert_eq!(finalize(events, now), reference::finalize(events, now));
        prop_assert_eq!(build_forest(events), reference::build_forest(events));
        let finalized = reference::finalize(events, now);
        let table = SpanTable::finalized(events, now);
        prop_assert_eq!(
            table.as_ref().map(json::render).map_err(Clone::clone),
            reference::chrome_trace(&finalized)
        );
        prop_assert_eq!(
            table.as_ref().map(|t| json::text(|out| t.write_report(out))).map_err(Clone::clone),
            reference::span_report(&finalized)
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn any_stream_checks_and_exports_like_the_forest(
            edges in collection::vec(edge(), 0..40),
            now in 0u64..80,
        ) {
            same_as_reference(&stream(&edges), SimTime::from_ns(now))?;
        }

        #[test]
        fn recorded_streams_export_like_the_forest(
            ops in collection::vec((0usize..5, 0usize..64, 0usize..12, 0u64..30, 0u64..4), 0..120),
            now in 0u64..4_000,
        ) {
            let (spans, events) = recorded(&ops);
            let now = SimTime::from_ns(now);
            same_as_reference(&events, now)?;
            // What the engine exports: the table straight from the buffer.
            prop_assert_eq!(spans.finalized_events(now), reference::finalize(&events, now));
            prop_assert_eq!(
                spans.table(now).as_ref().map(json::render).map_err(Clone::clone),
                reference::chrome_trace(&reference::finalize(&events, now))
            );
        }

        #[test]
        fn streams_with_a_fault_or_two_fail_like_the_forest(
            ops in collection::vec((0usize..5, 0usize..64, 0usize..12, 0u64..30, 0u64..4), 1..40),
            edits in collection::vec((0u8..6, 0usize..200, 0u64..400), 1..3),
            now in 0u64..1_000,
        ) {
            let events = edited(recorded(&ops).1, &edits);
            same_as_reference(&events, SimTime::from_ns(now))?;
        }
    }

    /// Span 0 is a node like any other to the checks but is never closed
    /// or moved by finalize: an early end, a missing end and a child are
    /// each reported as the forest reported them.
    #[test]
    fn span_zero_is_checked_but_never_finalized() -> Result<(), TestCaseError> {
        let cases: [&[Edge]; 3] = [
            &[(0, 0, 2, 10, 0), (0, 0, 3, 5, 0)],
            &[(0, 0, 2, 10, 0), (1, 0, 2, 12, 0)],
            &[(0, 0, 2, 10, 0), (0, 0, 3, 30, 0), (1, 0, 2, 12, 0), (2, 1, 4, 40, 0)],
        ];
        for edges in cases {
            same_as_reference(&stream(edges), SimTime::from_ns(20))?;
        }
        Ok(())
    }
}
