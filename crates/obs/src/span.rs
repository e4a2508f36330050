//! Causal lifecycle spans.
//!
//! A *span* is a sim-time interval attributed to one stage of a packet's
//! (or flow's) life, linked to its causal parent: stage spans hang off a
//! packet span, packet spans hang off their flow span, and retransmit
//! annotations hang off the flow span too — so a flow's whole story,
//! retransmits included, reconstructs into a single tree.
//!
//! Recording follows the telemetry crate's zero-cost-when-disabled idiom:
//! [`Spans`] is a handle around an optional shared buffer; a detached
//! handle turns every call into a single `None` branch. Sampling is
//! head-based and seed-deterministic — flow `f` is sampled iff
//! `f % sample_every == seed % sample_every` — so the same seed records
//! the same spans at any worker count.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use openoptics_sim::time::SimTime;
use openoptics_telemetry::{Labels, MirrorPass};

use crate::report::WellFormedError;
use crate::table::{finalize, SpanTable};

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

/// Begin or end edge of a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanPhase {
    /// The span opens at `at`.
    Begin,
    /// The span closes at `at`.
    End,
}

/// One recorded span edge. `Begin` events carry the causal identity
/// (parent, flow, packet); `End` events carry only the span id and stage
/// — exports join the two on the span id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Sim-time stamp, ns.
    pub at: SimTime,
    /// Span this edge belongs to (allocated in begin order, starting at 1).
    pub span: u64,
    /// Causal parent span id (0 = root).
    pub parent: u64,
    /// Flow the span belongs to (0 on `End` edges and flow-less spans).
    pub flow: u64,
    /// Packet id the span belongs to (0 for flow-level spans and `End`s).
    pub packet: u64,
    /// Stage attribution.
    pub stage: Stage,
    /// Edge kind.
    pub phase: SpanPhase,
    /// Stage-specific annotation (drop site, retransmit kind, fault code).
    pub arg: u64,
}

pub(crate) struct SpanBuf {
    /// Soft cap on recorded events: once reached, *new* flow/packet spans
    /// are refused (counted in `skipped`) but edges of already-admitted
    /// spans always append, so every begin keeps its end.
    capacity: usize,
    sample_every: u64,
    sample_phase: u64,
    next_span: Cell<u64>,
    started: Cell<u64>,
    skipped: Cell<u64>,
    events: RefCell<Vec<SpanEvent>>,
}

/// Handle to the span stream. Cheap to clone; detached (inert) when span
/// recording is off, so hot paths pay one branch.
#[derive(Clone, Default)]
pub struct Spans(pub(crate) Option<Rc<SpanBuf>>);

impl Spans {
    /// A handle that records nothing (span recording off).
    pub fn detached() -> Spans {
        Spans(None)
    }

    /// A recording handle sampling every `sample_every`-th flow id (with a
    /// seed-derived phase) into a buffer admitting new spans while fewer
    /// than `capacity` events are held. `sample_every == 0` disables
    /// recording entirely (returns a detached handle).
    pub fn bounded(sample_every: u64, seed: u64, capacity: usize) -> Spans {
        if sample_every == 0 {
            return Spans(None);
        }
        Spans(Some(Rc::new(SpanBuf {
            capacity,
            sample_every,
            sample_phase: seed % sample_every,
            next_span: Cell::new(1),
            started: Cell::new(0),
            skipped: Cell::new(0),
            events: RefCell::new(Vec::new()),
        })))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Whether flow `flow` falls in the deterministic head-based sample.
    #[inline]
    pub fn samples(&self, flow: u64) -> bool {
        match &self.0 {
            Some(b) => flow % b.sample_every == b.sample_phase,
            None => false,
        }
    }

    /// Whether a new root span may start. Refusals (buffer at capacity)
    /// are counted in [`Spans::skipped`].
    pub fn admit(&self) -> bool {
        match &self.0 {
            Some(b) => {
                if b.events.borrow().len() < b.capacity {
                    true
                } else {
                    b.skipped.set(b.skipped.get() + 1);
                    false
                }
            }
            None => false,
        }
    }

    /// Open a span; returns its id (0 when detached).
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
        let span = b.next_span.get();
        b.next_span.set(span + 1);
        b.started.set(b.started.get() + 1);
        b.events.borrow_mut().push(SpanEvent {
            at,
            span,
            parent,
            flow,
            packet,
            stage,
            phase: SpanPhase::Begin,
            arg,
        });
        span
    }

    /// Close span `span` at `at`. `stage` must repeat the begin's stage
    /// (`tests/obs.rs::recorded_stream_is_well_formed` checks the stream).
    #[inline]
    pub fn span_end(&self, at: SimTime, span: u64, stage: Stage) {
        let Some(b) = &self.0 else { return };
        if span == 0 {
            return;
        }
        b.events.borrow_mut().push(SpanEvent {
            at,
            span,
            parent: 0,
            flow: 0,
            packet: 0,
            stage,
            phase: SpanPhase::End,
            arg: 0,
        });
    }

    /// Record an instantaneous annotation span (begin and end at `at`).
    pub fn span_mark(
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

    /// Recorded event count.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |b| b.events.borrow().len())
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Root spans admitted so far (flow + packet + annotation spans).
    pub fn started(&self) -> u64 {
        self.0.as_ref().map_or(0, |b| b.started.get())
    }

    /// Root spans refused because the buffer was at capacity.
    pub fn skipped(&self) -> u64 {
        self.0.as_ref().map_or(0, |b| b.skipped.get())
    }

    /// An independent copy of the stream: same sampling parameters, same
    /// recorded events and counters, separate storage — span recording in
    /// one copy never appears in the other (checkpoint forks).
    pub fn deep_clone(&self) -> Spans {
        match &self.0 {
            None => Spans(None),
            Some(b) => Spans(Some(Rc::new(SpanBuf {
                capacity: b.capacity,
                sample_every: b.sample_every,
                sample_phase: b.sample_phase,
                next_span: Cell::new(b.next_span.get()),
                started: Cell::new(b.started.get()),
                skipped: Cell::new(b.skipped.get()),
                events: RefCell::new(b.events.borrow().clone()),
            }))),
        }
    }

    /// A well-formed copy of the stream: every `Begin` is guaranteed an
    /// `End`. Spans still open get one synthesized at
    /// `max(begin, now, latest descendant end)`, and parent ends are
    /// extended to cover late children (a retransmitted packet can land
    /// after its flow completed), so exports and tree builders can rely
    /// on strict nesting. Deterministic: output depends only on the
    /// recorded stream and `now`.
    pub fn finalized_events(&self, now: SimTime) -> Vec<SpanEvent> {
        let Some(b) = &self.0 else { return Vec::new() };
        finalize(&b.events.borrow(), now)
    }

    /// The span table of [`Spans::finalized_events`], built in place from
    /// the recorded edges: what every export renders. Empty when detached.
    pub fn table(&self, now: SimTime) -> Result<SpanTable, WellFormedError> {
        match &self.0 {
            Some(b) => SpanTable::finalized(&b.events.borrow(), now),
            None => SpanTable::finalized(&[], now),
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
