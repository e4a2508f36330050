//! # OpenOptics observability: lifecycle spans, profiler, trace export.
//!
//! Three pieces, all deterministic and owned by value (a clone is an
//! independent copy); a detached one (span sampling or telemetry off in the
//! configuration) costs one `Option` branch per call:
//!
//! * **Causal lifecycle spans** ([`Spans`], [`Stage`]) — sampled
//!   packets/flows are stamped with sim-time begin/end events per stage,
//!   linked by causal parent ids into a single tree per flow.
//!   [`SpanCursors`] is the per-flow / per-packet bookkeeping that places
//!   those edges; it also owns the `arg` codes ([`DropSite`], retransmit
//!   kinds) every export carries.
//! * **A sim-time profiler** ([`Profiler`], [`Phase`]) — per-engine-phase
//!   event counts and sim-time attribution, with an opt-in wall-clock
//!   mode for bench self-profiling.
//! * **Exporters** ([`SpanTable`]) — the recorded rows, one per span,
//!   with every end settled; it renders as Chrome trace-event /
//!   Perfetto JSON (`ToJson`) and as a plain-text span report
//!   ([`SpanTable::write_report`]), both into a sink, and its rows
//!   ([`SpanTable::spans`]) are the programmatic view.
//!
//! ```
//! use openoptics_obs::{Spans, Stage};
//! use openoptics_sim::SimTime;
//! use openoptics_telemetry::json;
//!
//! let spans = Spans::bounded(1, 0, 1024); // sample every flow
//! if spans.is_on() {
//!     let t = SimTime::from_ns(100);
//!     let f = spans.span_begin(t, 0, 7, 0, Stage::Flow, 0);
//!     spans.span_end(SimTime::from_ns(900), f, Stage::Flow);
//! }
//! let table = spans.table(SimTime::from_ns(1_000)).unwrap();
//! assert!(json::render(&table).starts_with("{\"traceEvents\":["));
//! ```

mod cursor;
mod profiler;
#[cfg(test)]
mod reference;
mod report;
mod span;
mod table;

pub use cursor::{DropSite, PacketEnd, SpanCursors};
pub use profiler::{Phase, PhaseStat, Profiler, PHASES, PHASE_COUNT};
pub use report::REPORT_MAX_FLOWS;
pub use span::{Spans, Stage};
pub use table::{SpanRow, SpanTable, WellFormedError};

/// Why an observability request was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsError {
    /// Span recording (or profiling) is not enabled for this network —
    /// set `span_sample_every` (or `telemetry`) in the configuration.
    Disabled,
    /// The recording calls were misused (see [`WellFormedError`]).
    Malformed(WellFormedError),
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsError::Disabled => write!(f, "observability is disabled for this network"),
            ObsError::Malformed(e) => write!(f, "span stream is malformed: {e}"),
        }
    }
}

impl std::error::Error for ObsError {}

impl From<WellFormedError> for ObsError {
    fn from(e: WellFormedError) -> Self {
        ObsError::Malformed(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_sim::to_usize;
    use openoptics_sim::SimTime;
    use openoptics_telemetry::json;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn report(s: &Spans, now: SimTime) -> Result<String, WellFormedError> {
        let table = s.table(now)?;
        Ok(json::text(|out| table.write_report(out)))
    }

    #[test]
    fn detached_records_nothing() {
        let s = Spans::detached();
        assert!(!s.is_on());
        assert!(!s.samples(0));
        assert_eq!(s.span_begin(t(5), 0, 1, 1, Stage::Packet, 0), 0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn sampling_is_head_based_and_seeded() {
        let s = Spans::bounded(4, 7, 1024);
        // phase = 7 % 4 = 3: flows 3, 7, 11, ... are sampled.
        assert!(s.samples(3) && s.samples(7) && s.samples(11));
        assert!(!s.samples(4) && !s.samples(6));
    }

    #[test]
    fn capacity_gates_admission_not_completion() {
        let s = Spans::bounded(1, 0, 3);
        let a = s.span_begin(t(1), 0, 1, 1, Stage::Packet, 0);
        let b = s.span_begin(t(2), a, 1, 1, Stage::Rx, 0);
        assert!(s.admit()); // 2 edges < 3
        s.span_end(t(3), b, Stage::Rx);
        assert!(!s.admit()); // full: new roots refused...
        assert_eq!(s.skipped(), 1);
        s.span_end(t(4), a, Stage::Packet); // ...but ends still land
        assert_eq!(s.len(), 4);
        assert!(s.table(t(5)).is_ok());
    }

    #[test]
    fn table_closes_open_spans_and_covers_children() -> Result<(), WellFormedError> {
        let s = Spans::bounded(1, 0, 1024);
        let f = s.span_begin(t(10), 0, 1, 0, Stage::Flow, 0);
        let p = s.span_begin(t(20), f, 1, 9, Stage::Packet, 0);
        let st = s.span_begin(t(20), p, 1, 9, Stage::Serialization, 0);
        s.span_end(t(90), st, Stage::Serialization);
        s.span_end(t(30), f, Stage::Flow); // flow "ends" before its packet
        let table = s.table(t(50))?;
        // The open packet span closed at max(now, child end) = 90, and
        // the flow end was raised to cover it.
        let end = |id| table.span(id).map(|r| r.end.as_ns());
        assert_eq!((end(f), end(p), end(st)), (Some(90), Some(90), Some(90)));
        assert_eq!(table.spans().map(|(id, _)| id).collect::<Vec<_>>(), [f, p, st]);
        Ok(())
    }

    /// `finalize` once recovered the stage of every span it closed by
    /// re-scanning the stream; this pins stage and end of every settled
    /// row to what that lookup (and a closure over ancestor chains, not
    /// the descending pass) yields, with thousands of spans still open.
    #[test]
    fn table_closes_thousands_of_open_spans_like_the_rescan_did() -> Result<(), WellFormedError> {
        const STAGES: [Stage; 7] = [
            Stage::HostTxQueue,
            Stage::CalendarWait,
            Stage::GuardbandHold,
            Stage::Serialization,
            Stage::Propagation,
            Stage::Rx,
            Stage::TcpDelivery,
        ];
        let now = t(20_000);
        let s = Spans::bounded(1, 0, usize::MAX);
        // Per span id: (begin, recorded end, parent, stage).
        let mut want: Vec<(u64, Option<u64>, u64, Stage)> = vec![(0, None, 0, Stage::Flow)];
        let mut begin = |at: u64, parent: u64, stage: Stage| {
            want.push((at, None, parent, stage));
            s.span_begin(t(at), parent, 0, 0, stage, 0)
        };
        // 40 flows x 10 packets x 7 stages = 3,240 spans; half the flows
        // begin after `now`, and only every third stage span is closed.
        let mut closed = Vec::new();
        for f in 0..40 {
            let flow = begin(f * 1_000, 0, Stage::Flow);
            for p in 0..10 {
                let at = f * 1_000 + p * 100;
                let pkt = begin(at, flow, Stage::Packet);
                for (k, stage) in (0..).zip(STAGES) {
                    let id = begin(at + k * 10, pkt, stage);
                    if id % 3 == 0 {
                        s.span_end(t(at + k * 10 + 5), id, stage);
                        closed.push((id, at + k * 10 + 5));
                    }
                }
            }
        }
        for (id, at) in closed {
            want[to_usize(id)].1 = Some(at);
        }
        // A span's own end, raised along its ancestor chain.
        let mut want_end = vec![0; want.len()];
        for span in 1..want.len() {
            let (begin, recorded, ..) = want[span];
            let own = recorded.unwrap_or(begin.max(now.as_ns()));
            let mut up = span;
            while up != 0 {
                want_end[up] = want_end[up].max(own);
                up = to_usize(want[up].2);
            }
        }
        let open = want.iter().skip(1).filter(|w| w.1.is_none()).count();
        assert!(open > 2_000, "{open} open spans");
        let table = s.table(now)?;
        assert_eq!(table.spans().count(), want.len() - 1);
        for (id, r) in table.spans() {
            let (begin, _, parent, stage) = want[to_usize(id)];
            assert_eq!((r.begin.as_ns(), r.parent, r.stage), (begin, parent, stage), "span {id}");
            assert_eq!(r.end.as_ns(), want_end[to_usize(id)], "span {id}");
        }
        Ok(())
    }

    /// The three ways to misuse the recording calls. Each makes `table`
    /// fail with its error, the first one recorded wins, and the edge
    /// still counts toward the capacity.
    #[test]
    fn table_reports_each_misuse() {
        let ended_twice = Spans::bounded(1, 0, 16);
        let a = ended_twice.span_begin(t(1), 0, 1, 1, Stage::Packet, 0);
        ended_twice.span_end(t(5), a, Stage::Packet);
        ended_twice.span_end(t(6), a, Stage::Packet);
        ended_twice.span_end(t(7), 9, Stage::Packet);
        assert_eq!(ended_twice.len(), 4);
        assert_eq!(ended_twice.table(t(9)).err(), Some(WellFormedError::DuplicateEnd(a)));

        let never_begun = Spans::bounded(1, 0, 16);
        never_begun.span_end(t(5), 3, Stage::Rx);
        assert_eq!(never_begun.len(), 1);
        assert_eq!(never_begun.table(t(9)).err(), Some(WellFormedError::EndWithoutBegin(3)));

        let orphan = Spans::bounded(1, 0, 16);
        let a = orphan.span_begin(t(1), 0, 1, 0, Stage::Flow, 0);
        let b = orphan.span_begin(t(2), a + 1, 1, 1, Stage::Packet, 0);
        orphan.span_begin(t(3), 7, 1, 1, Stage::Packet, 0);
        assert_eq!(orphan.len(), 3);
        let first = WellFormedError::UnknownParent { span: b, parent: b };
        assert_eq!(orphan.table(t(9)).err(), Some(first));
    }

    #[test]
    fn chrome_trace_is_valid_and_integer_only() -> Result<(), WellFormedError> {
        let s = Spans::bounded(1, 0, 1024);
        let f = s.span_begin(t(100), 0, 3, 0, Stage::Flow, 0);
        let p = s.span_begin(t(150), f, 3, 11, Stage::Packet, 0);
        s.span_end(t(400), p, Stage::Packet);
        s.span_end(t(500), f, Stage::Flow);
        let json = json::render(&s.table(t(500))?);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ns\"}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"pid\":3"));
        assert!(json.contains("\"tid\":11"));
        assert!(!json.contains('.')); // integers only: replayable bytes
        Ok(())
    }

    #[test]
    fn report_totals_and_trees() -> Result<(), WellFormedError> {
        let s = Spans::bounded(1, 0, 1024);
        let f = s.span_begin(t(0), 0, 2, 0, Stage::Flow, 0);
        let p = s.span_begin(t(10), f, 2, 4, Stage::Packet, 0);
        let w = s.span_begin(t(10), p, 2, 4, Stage::CalendarWait, 0);
        s.span_end(t(60), w, Stage::CalendarWait);
        s.span_end(t(60), p, Stage::Packet);
        s.span_end(t(80), f, Stage::Flow);
        let rep = report(&s, t(80))?;
        assert!(rep.contains("calendar_wait"));
        assert!(rep.contains("flow 2"));
        assert!(rep.contains("packet 4"));
        Ok(())
    }

    /// Every rendering branch of the span report against literal bytes:
    /// the three duration units in tree and totals column, values that
    /// round up into the next magnitude's digits (`1_999` ns, `999_999` ns),
    /// the first `ms` value, an exact binary tie (`1_125` ns is 1.125 us
    /// and prints `1.12`, half-to-even — integer rounding would say
    /// `1.13`), `arg` present and absent, depth 3, flow / packet / stage
    /// labels, and more roots than the report prints.
    #[test]
    fn span_report_matches_its_golden_rendering() -> Result<(), WellFormedError> {
        let s = Spans::bounded(1, 0, usize::MAX);
        let stage = |parent, pkt, st, from, to, arg| {
            let id = s.span_begin(t(from), parent, 7, pkt, st, arg);
            s.span_end(t(to), id, st);
            id
        };
        let f = s.span_begin(t(0), 0, 7, 0, Stage::Flow, 0);
        let p = s.span_begin(t(10), f, 7, 9, Stage::Packet, 0);
        stage(p, 9, Stage::HostTxQueue, 10, 2_009, 0);
        stage(p, 9, Stage::CalendarWait, 2_009, 2_508, 3);
        stage(p, 9, Stage::Serialization, 2_508, 3_633, 0);
        let prop = s.span_begin(t(3_633), p, 7, 9, Stage::Propagation, 0);
        s.span_mark(t(1_000_009), prop, 7, 9, Stage::Drop, 5);
        s.span_end(t(1_000_009), prop, Stage::Propagation);
        s.span_end(t(1_000_009), p, Stage::Packet);
        s.span_mark(t(500), f, 7, 0, Stage::Retransmit, 2);
        let q = s.span_begin(t(1_000_000), f, 7, 10, Stage::Packet, 0);
        stage(q, 10, Stage::GuardbandHold, 1_000_000, 1_000_999, 0);
        stage(q, 10, Stage::Rx, 1_000_999, 2_000_999, 0);
        stage(q, 10, Stage::TcpDelivery, 2_000_999, 2_000_999, 0);
        s.span_end(t(2_000_999), q, Stage::Packet);
        s.span_end(t(3_456_789), f, Stage::Flow);
        for _ in 0..REPORT_MAX_FLOWS + 1 {
            s.span_mark(t(4_000_000), 0, 0, 0, Stage::FaultDrop, 1);
        }
        let report = report(&s, t(5_000_000))?;
        let head = "\
span report: 63 spans

stage            count    total_sim
rx                   1      1.000ms
propagation          1     996.38us
host_tx_queue        1       2.00us
serialization        1       1.12us
guardband_hold       1        999ns
calendar_wait        1        499ns
tcp_delivery         1          0ns
retransmit           1          0ns
fault_drop          51          0ns
drop                 1          0ns

flow 7 [0 .. 3456789] 3.457ms
  packet 9 [10 .. 1000009] 1000.00us
    host_tx_queue [10 .. 2009] 2.00us
    calendar_wait [2009 .. 2508] 499ns (arg 3)
    serialization [2508 .. 3633] 1.12us
    propagation [3633 .. 1000009] 996.38us
      drop [1000009 .. 1000009] 0ns (arg 5)
  retransmit [500 .. 500] 0ns (arg 2)
  packet 10 [1000000 .. 2000999] 1.001ms
    guardband_hold [1000000 .. 1000999] 999ns
    rx [1000999 .. 2000999] 1.000ms
    tcp_delivery [2000999 .. 2000999] 0ns
";
        let marks = "fault_drop [4000000 .. 4000000] 0ns (arg 1)\n".repeat(REPORT_MAX_FLOWS - 1);
        assert_eq!(report, format!("{head}{marks}(+2 more root spans)\n"));
        Ok(())
    }

    #[test]
    fn profiler_attributes_gaps_and_counts() {
        let mut p = Profiler::enabled();
        p.event(Phase::HostTx, t(100));
        p.event(Phase::PortFree, t(250)); // 150 ns charged to HostTx
        p.enter(Phase::Drain);
        p.exit(Phase::Drain);
        p.event(Phase::HostRx, t(400)); // 150 ns charged to PortFree
        let stats = p.stats();
        let get = |ph: Phase| stats.iter().find(|(q, _)| *q == ph).unwrap().1;
        assert_eq!(get(Phase::HostTx).events, 1);
        assert_eq!(get(Phase::HostTx).sim_ns, 150);
        assert_eq!(get(Phase::PortFree).sim_ns, 150);
        assert_eq!(get(Phase::Drain).events, 1);
        assert_eq!(get(Phase::HostRx).sim_ns, 0);
        let rep = p.report();
        assert!(rep.contains("tor.port_free"));
    }

    #[test]
    fn profiler_wall_mode_nests_inclusive_exclusive() {
        let mut p = Profiler::enabled();
        // A deterministic "clock": one reading per call, the last repeated.
        let readings = [0u64, 10, 20, 100];
        let calls = std::cell::Cell::new(0);
        p.set_clock(move || {
            let i = calls.get();
            calls.set(i + 1);
            readings[i.min(readings.len() - 1)]
        });
        p.event(Phase::PortFree, t(0)); // clock: 0
        p.enter(Phase::Drain); // clock: 10
        p.exit(Phase::Drain); // clock: 20 -> Drain wall 10
        p.event(Phase::HostRx, t(5)); // clock: 100 -> PortFree incl 100, child 10
        let stats = p.stats();
        let get = |ph: Phase| stats.iter().find(|(q, _)| *q == ph).unwrap().1;
        assert_eq!(get(Phase::Drain).wall_incl_ns, 10);
        assert_eq!(get(Phase::PortFree).wall_incl_ns, 100);
        assert_eq!(get(Phase::PortFree).wall_child_ns, 10);
    }
}
