//! Causal lifecycle spans.
//!
//! A *span* is a sim-time interval attributed to one stage of a packet's
//! (or flow's) life, linked to its causal parent: stage spans hang off a
//! packet span, packet spans hang off their flow span, and retransmit
//! annotations hang off the flow span too — so a flow's whole story,
//! retransmits included, reconstructs into a single tree.
//!
//! Recording follows the telemetry crate's zero-cost-when-disabled idiom:
//! [`Spans`] owns an optional buffer; a detached stream turns every call
//! into a single `None` branch. Sampling is head-based and
//! seed-deterministic — flow `f` is sampled iff
//! `f % sample_every == seed % sample_every` — so the same seed records
//! the same spans at any worker count.

use std::cell::{Cell, RefCell};

use openoptics_sim::to_usize;
use openoptics_sim::SimTime;
use openoptics_telemetry::{ChunkedVec, Labels, MirrorPass};

use crate::table::{SpanRow, SpanTable, WellFormedError};

/// Lifecycle stage a span is attributed to.
///
/// `Flow` and `Packet` are the tree roots; the remaining stages tile a
/// delivered packet's end-to-end latency exactly (see DESIGN.md for the
/// taxonomy table): host tx queue → \[calendar queue wait ⇄ guardband
/// hold\] → serialization → propagation (per hop) → rx → TCP delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Root span of one flow (begin = flow start, end = flow completion).
    Flow,
    /// Root span of one data packet (begin = segment queued at the host,
    /// end = delivery or drop).
    Packet,
    /// Waiting in the host's vma segment queue (includes pause/push-back
    /// holds — a paused destination simply stops draining).
    HostTxQueue,
    /// Waiting in a queue for transmission: a ToR calendar queue (or the
    /// electrical uplink queue), including any buffer-offload parking.
    CalendarWait,
    /// Head-of-line wait while the port sits out a slice guardband.
    GuardbandHold,
    /// Serialization onto the wire at the transmitting port.
    Serialization,
    /// In flight: host wire, optical fabric, or electrical core.
    Propagation,
    /// Receive side: ToR downlink queueing + delivery to the host NIC.
    Rx,
    /// Hand-off to the transport layer (instantaneous in this model).
    TcpDelivery,
    /// Instant annotation on a flow: a retransmission was triggered
    /// (`arg` encodes the kind: 1 watchdog, 2 RTO, 3 fast, 4 NACK).
    Retransmit,
    /// Instant annotation: the packet was eaten by an injected fault
    /// (`arg` is the [fault-kind code](openoptics_telemetry) of the owner).
    FaultDrop,
    /// Instant annotation: the packet was dropped (`arg` encodes where:
    /// 1 switch, 2 no-route, 3 fabric, 4 link queue, 5 trimmed).
    Drop,
}

/// Number of [`Stage`] variants.
pub(crate) const STAGE_COUNT: usize = Stage::Drop as usize + 1;

impl Stage {
    /// Stable display name (also the Chrome trace-event `name`).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Flow => "flow",
            Stage::Packet => "packet",
            Stage::HostTxQueue => "host_tx_queue",
            Stage::CalendarWait => "calendar_wait",
            Stage::GuardbandHold => "guardband_hold",
            Stage::Serialization => "serialization",
            Stage::Propagation => "propagation",
            Stage::Rx => "rx",
            Stage::TcpDelivery => "tcp_delivery",
            Stage::Retransmit => "retransmit",
            Stage::FaultDrop => "fault_drop",
            Stage::Drop => "drop",
        }
    }
}

/// Storage of a recording stream. The counters and the rows are cells
/// because recording goes through `&self`, which the frozen benchmark
/// spells (`benchmark/src/kernels.rs:378`).
#[derive(Clone)]
struct SpanBuf {
    /// Soft cap on recorded edges (a begin, or an end naming a span):
    /// once reached, *new* flow/packet spans are refused (counted in
    /// `skipped`) but already-admitted spans still end.
    capacity: usize,
    sample_every: u64,
    sample_phase: u64,
    edges: Cell<usize>,
    skipped: Cell<u64>,
    /// The first misuse of the recording calls, which [`Spans::table`]
    /// reports.
    misuse: Cell<Option<WellFormedError>>,
    /// Row `s` is span `s`: `span_begin` pushes it, `span_end` writes its
    /// end. Row 0 is [`SpanRow::ROOT`]. The rows grow a chunk at a time,
    /// so a recording never copies what it already holds.
    rows: RefCell<ChunkedVec<SpanRow>>,
}

impl SpanBuf {
    fn misused(&self, e: WellFormedError) {
        if self.misuse.get().is_none() {
            self.misuse.set(Some(e));
        }
    }
}

/// The span stream, owned by value: a clone is an independent copy.
/// Detached (inert) when span recording is off, so hot paths pay one
/// branch.
#[derive(Clone, Default)]
pub struct Spans(Option<Box<SpanBuf>>);

impl Spans {
    /// A stream that records nothing (span recording off).
    pub fn detached() -> Spans {
        Spans(None)
    }

    /// A recording stream sampling every `sample_every`-th flow id (with a
    /// seed-derived phase) into a buffer admitting new spans while fewer
    /// than `capacity` edges are recorded. `sample_every == 0` disables
    /// recording entirely (returns a detached stream).
    pub fn bounded(sample_every: u64, seed: u64, capacity: usize) -> Spans {
        if sample_every == 0 {
            return Spans(None);
        }
        let mut rows = ChunkedVec::new();
        rows.push(SpanRow::ROOT);
        Spans(Some(Box::new(SpanBuf {
            capacity,
            sample_every,
            sample_phase: seed % sample_every,
            edges: Cell::new(0),
            skipped: Cell::new(0),
            misuse: Cell::new(None),
            rows: RefCell::new(rows),
        })))
    }

    /// Whether this stream records anything.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Whether flow `flow` falls in the deterministic head-based sample.
    #[inline]
    pub(crate) fn samples(&self, flow: u64) -> bool {
        match &self.0 {
            Some(b) => flow % b.sample_every == b.sample_phase,
            None => false,
        }
    }

    /// Whether a new root span may start. Refusals (buffer at capacity)
    /// are counted in [`Spans::skipped`].
    pub(crate) fn admit(&self) -> bool {
        match &self.0 {
            Some(b) => {
                if b.edges.get() < b.capacity {
                    true
                } else {
                    b.skipped.set(b.skipped.get() + 1);
                    false
                }
            }
            None => false,
        }
    }

    /// Open a span; returns its id (0 when detached). `parent` must be 0
    /// or an earlier span.
    #[inline]
    pub fn span_begin(
        &self,
        at: SimTime,
        parent: u64,
        flow: u64,
        packet: u64,
        stage: Stage,
        arg: u64,
    ) -> u64 {
        let Some(b) = &self.0 else { return 0 };
        let mut rows = b.rows.borrow_mut();
        let span = rows.len() as u64;
        if parent >= span {
            b.misused(WellFormedError::UnknownParent { span, parent });
        }
        b.edges.set(b.edges.get() + 1);
        rows.push(SpanRow { begin: at, parent, flow, packet, arg, stage, ..SpanRow::ROOT });
        span
    }

    /// Close span `span` at `at` (span 0, a detached begin's id, is
    /// ignored). `_stage` names the begin's stage at the call site; the
    /// row keeps the begin's.
    #[inline]
    pub fn span_end(&self, at: SimTime, span: u64, _stage: Stage) {
        let Some(b) = &self.0 else { return };
        if span == 0 {
            return;
        }
        b.edges.set(b.edges.get() + 1);
        match b.rows.borrow_mut().get_mut(to_usize(span)) {
            Some(r) if r.ended => b.misused(WellFormedError::DuplicateEnd(span)),
            Some(r) => {
                r.end = at;
                r.ended = true;
            }
            None => b.misused(WellFormedError::EndWithoutBegin(span)),
        }
    }

    /// Record an instantaneous annotation span (begin and end at `at`).
    pub(crate) fn span_mark(
        &self,
        at: SimTime,
        parent: u64,
        flow: u64,
        packet: u64,
        stage: Stage,
        arg: u64,
    ) {
        let s = self.span_begin(at, parent, flow, packet, stage, arg);
        self.span_end(at, s, stage);
    }

    /// Recorded edge count: two per ended span, one per open one.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |b| b.edges.get())
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Root spans admitted so far (flow + packet + annotation spans).
    pub fn started(&self) -> u64 {
        self.0.as_ref().map_or(0, |b| b.rows.borrow().len() as u64 - 1)
    }

    /// Root spans refused because the buffer was at capacity.
    pub(crate) fn skipped(&self) -> u64 {
        self.0.as_ref().map_or(0, |b| b.skipped.get())
    }

    /// The recorded rows settled at `now` (see [`SpanTable`]): what every
    /// export renders. Empty when detached; the first misuse of the
    /// recording calls when there was one.
    pub fn table(&self, now: SimTime) -> Result<SpanTable, WellFormedError> {
        let Some(b) = &self.0 else { return Ok(SpanTable::default()) };
        match b.misuse.get() {
            Some(e) => Err(e),
            None => Ok(SpanTable::settled(b.rows.borrow().to_vec(), now)),
        }
    }

    /// Mirror summary counters into the telemetry registry (`obs.*`).
    pub fn mirror_into(&self, m: &mut MirrorPass<'_>) {
        if !self.is_on() {
            return;
        }
        m.counter("obs.span_events", Labels::None, self.len() as u64);
        m.counter("obs.spans_started", Labels::None, self.started());
        m.counter("obs.spans_skipped", Labels::None, self.skipped());
    }
}
