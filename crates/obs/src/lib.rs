//! # OpenOptics observability: lifecycle spans, profiler, trace export.
//!
//! Three pieces, all deterministic; a detached handle (span sampling or
//! telemetry off in the configuration) costs one `Option` branch per call:
//!
//! * **Causal lifecycle spans** ([`Spans`], [`Stage`]) — sampled
//!   packets/flows are stamped with sim-time begin/end events per stage,
//!   linked by causal parent ids into a single tree per flow.
//! * **A sim-time profiler** ([`Profiler`], [`Phase`]) — per-engine-phase
//!   event counts and sim-time attribution, with an opt-in wall-clock
//!   mode for bench self-profiling.
//! * **Exporters** ([`chrome_trace`], [`span_report`]) — Chrome
//!   trace-event / Perfetto JSON and a plain-text span report, both pure
//!   functions of the recorded stream.
//!
//! ```
//! use openoptics_obs::{chrome_trace, Spans, Stage};
//! use openoptics_sim::time::SimTime;
//!
//! let spans = Spans::bounded(1, 0, 1024); // sample every flow
//! if spans.is_on() {
//!     let t = SimTime::from_ns(100);
//!     let f = spans.span_begin(t, 0, 7, 0, Stage::Flow, 0);
//!     spans.span_end(SimTime::from_ns(900), f, Stage::Flow);
//! }
//! let json = chrome_trace(&spans.finalized_events(SimTime::from_ns(1_000))).unwrap();
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

mod profiler;
mod report;
mod span;

pub use profiler::{Phase, PhaseStat, Profiler, PHASES, PHASE_COUNT};
pub use report::{
    build_forest, chrome_trace, span_report, stage_sum_vs_span, SpanNode, WellFormedError,
    REPORT_MAX_FLOWS,
};
pub use span::{finalize, SpanEvent, SpanPhase, Spans, Stage};

/// Why an observability request was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsError {
    /// Span recording (or profiling) is not enabled for this network —
    /// set `span_sample_every` (or `telemetry`) in the configuration.
    Disabled,
    /// The recorded stream failed well-formedness checks.
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
    use openoptics_sim::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
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
        assert!(s.admit()); // 2 events < 3
        s.span_end(t(3), b, Stage::Rx);
        assert!(!s.admit()); // full: new roots refused...
        assert_eq!(s.skipped(), 1);
        s.span_end(t(4), a, Stage::Packet); // ...but ends still land
        assert_eq!(s.len(), 4);
        assert!(build_forest(&s.finalized_events(t(5))).is_ok());
    }

    #[test]
    fn finalize_closes_open_spans_and_covers_children() {
        let s = Spans::bounded(1, 0, 1024);
        let f = s.span_begin(t(10), 0, 1, 0, Stage::Flow, 0);
        let p = s.span_begin(t(20), f, 1, 9, Stage::Packet, 0);
        let st = s.span_begin(t(20), p, 1, 9, Stage::Serialization, 0);
        s.span_end(t(90), st, Stage::Serialization);
        s.span_end(t(30), f, Stage::Flow); // flow "ends" before its packet
        let events = s.finalized_events(t(50));
        let forest = build_forest(&events).expect("well-formed after finalize");
        let flow = forest.iter().find(|n| n.stage == Stage::Flow).unwrap();
        let pkt = forest.iter().find(|n| n.stage == Stage::Packet).unwrap();
        // The open packet span closed at max(now, child end) = 90, and
        // the flow end was raised to cover it.
        assert_eq!(pkt.end.as_ns(), 90);
        assert_eq!(flow.end.as_ns(), 90);
    }

    #[test]
    fn forest_rejects_malformed_streams() {
        let s = Spans::bounded(1, 0, 16);
        let a = s.span_begin(t(1), 0, 1, 1, Stage::Packet, 0);
        s.span_end(t(5), a, Stage::Packet);
        s.span_end(t(6), a, Stage::Packet);
        let raw: Vec<SpanEvent> = s.finalized_events(t(9));
        assert_eq!(build_forest(&raw).err(), Some(WellFormedError::DuplicateEnd(a)));
    }

    #[test]
    fn chrome_trace_is_valid_and_integer_only() {
        let s = Spans::bounded(1, 0, 1024);
        let f = s.span_begin(t(100), 0, 3, 0, Stage::Flow, 0);
        let p = s.span_begin(t(150), f, 3, 11, Stage::Packet, 0);
        s.span_end(t(400), p, Stage::Packet);
        s.span_end(t(500), f, Stage::Flow);
        let json = chrome_trace(&s.finalized_events(t(500))).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ns\"}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"pid\":3"));
        assert!(json.contains("\"tid\":11"));
        assert!(!json.contains('.')); // integers only: replayable bytes
    }

    #[test]
    fn report_totals_and_trees() {
        let s = Spans::bounded(1, 0, 1024);
        let f = s.span_begin(t(0), 0, 2, 0, Stage::Flow, 0);
        let p = s.span_begin(t(10), f, 2, 4, Stage::Packet, 0);
        let w = s.span_begin(t(10), p, 2, 4, Stage::CalendarWait, 0);
        s.span_end(t(60), w, Stage::CalendarWait);
        s.span_end(t(60), p, Stage::Packet);
        s.span_end(t(80), f, Stage::Flow);
        let rep = span_report(&s.finalized_events(t(80))).unwrap();
        assert!(rep.contains("calendar_wait"));
        assert!(rep.contains("flow 2"));
        assert!(rep.contains("packet 4"));
    }

    #[test]
    fn profiler_attributes_gaps_and_counts() {
        let p = Profiler::enabled();
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
        assert!(p.wall_report().is_none());
    }

    #[test]
    fn profiler_wall_mode_nests_inclusive_exclusive() {
        let p = Profiler::enabled();
        let fake = std::cell::Cell::new(0u64);
        // A deterministic "clock" the test advances by hand.
        let ticks = std::rc::Rc::new(std::cell::RefCell::new(vec![0u64, 10, 20, 100]));
        let ticks2 = ticks.clone();
        p.set_clock(move || {
            let mut v = ticks2.borrow_mut();
            if v.is_empty() {
                fake.get()
            } else {
                let t = v.remove(0);
                fake.set(t);
                t
            }
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
        let rep = p.wall_report().expect("clock installed");
        assert!(rep.contains("wall_excl_ns"));
    }
}
