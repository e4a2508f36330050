//! Structured trace-event stream.
//!
//! Where metrics aggregate, traces narrate: each record is one occurrence of
//! an optical-DCN mechanism, stamped in sim time. The buffer is bounded —
//! the first `capacity` records are kept and later ones are counted in
//! `dropped`, so a run's trace is deterministic regardless of length.

use std::collections::VecDeque;

use openoptics_proto::{FlowId, HostId, NodeId, PortId};
use openoptics_sim::time::SliceIndex;
use openoptics_sim::SimTime;

use crate::json::{self, Text, ToJson, Writer};
use crate::keep_first::KeepFirst;

/// Which retransmission mechanism fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetxKind {
    /// Engine flow watchdog re-armed a stalled flow.
    Watchdog,
    /// TCP fast retransmit (triple duplicate ACK).
    FastRetx,
    /// TCP retransmission timeout.
    Rto,
    /// NACK-driven retransmit of a trimmed packet.
    Nack,
}

impl RetxKind {
    fn as_str(self) -> &'static str {
        match self {
            RetxKind::Watchdog => "watchdog",
            RetxKind::FastRetx => "fast_retx",
            RetxKind::Rto => "rto",
            RetxKind::Nack => "nack",
        }
    }
}

/// What caused a flight-recorder dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightTrigger {
    /// An injected fault window became active.
    FaultEdge,
    /// A strict-invariants check was about to trip.
    Invariant,
}

impl FlightTrigger {
    /// Stable trigger name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightTrigger::FaultEdge => "fault_edge",
            FlightTrigger::Invariant => "invariant",
        }
    }
}

/// One traced occurrence of a modeled mechanism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A node rotated its calendar queues at a slice boundary.
    SliceRotate {
        /// The rotating ToR.
        node: NodeId,
        /// The slice that became active.
        slice: SliceIndex,
    },
    /// An uplink paused because its locally-perceived slice was inside the
    /// reconfiguration guardband; transmission resumes after it.
    GuardbandHold {
        /// The holding ToR.
        node: NodeId,
        /// The paused uplink.
        port: PortId,
    },
    /// The head packet of an active calendar queue did not fit in the
    /// remainder of the slice and waits a full cycle.
    SliceMiss {
        /// The ToR whose head packet missed.
        node: NodeId,
        /// The uplink the packet waits on.
        port: PortId,
    },
    /// The fabric dropped a packet that crossed during the guardband.
    GuardbandDrop {
        /// The sending ToR.
        node: NodeId,
        /// The uplink the packet left on.
        port: PortId,
    },
    /// The fabric dropped a packet sent on a port with no circuit in the
    /// active slice (or while the OCS was reconfiguring).
    NoCircuitDrop {
        /// The sending ToR.
        node: NodeId,
        /// The uplink the packet left on.
        port: PortId,
    },
    /// One EQO estimation sample: estimated vs. true queue occupancy at
    /// admission (§5.2).
    EqoSample {
        /// The admitting ToR.
        node: NodeId,
        /// The uplink whose calendar queue was estimated.
        port: PortId,
        /// The index of the calendar queue the packet was admitted to.
        queue: u32,
        /// The EQO's estimate of that queue's occupancy.
        estimate_bytes: u64,
        /// The queue's true occupancy.
        actual_bytes: u64,
    },
    /// A switch broadcast a push-back message for `(dst, slice, cycle)`.
    PushbackAssert {
        /// The ToR whose calendar queue filled.
        node: NodeId,
        /// The destination whose queue overflowed.
        dst: NodeId,
        /// The slice of the full queue.
        slice: SliceIndex,
        /// The cycle after which sending may resume.
        cycle: u64,
    },
    /// The dedup entry for a push-back expired (the embargoed cycle passed).
    PushbackDeassert {
        /// The ToR whose dedup entry expired.
        node: NodeId,
        /// The destination ToR of the expired push-back.
        dst: NodeId,
        /// The slice of the expired push-back.
        slice: SliceIndex,
        /// The cycle that passed.
        cycle: u64,
    },
    /// A host's per-destination segment queue transitioned to paused.
    FlowPause {
        /// The pausing host.
        host: HostId,
        /// The destination ToR of the paused queue.
        dst: NodeId,
    },
    /// A host's per-destination segment queue resumed.
    FlowResume {
        /// The resuming host.
        host: HostId,
        /// The destination ToR of the resumed queue.
        dst: NodeId,
    },
    /// A retransmission fired for a flow.
    Retransmit {
        /// The retransmitting flow.
        flow: FlowId,
        /// What triggered the retransmission.
        kind: RetxKind,
    },
    /// An injected fault destroyed a packet at an optical port (link down,
    /// stuck OCS port, or transceiver-flap corruption): the switch drained
    /// the packet and charged it to the fault instead of transmitting.
    FaultDrop {
        /// The ToR that drained the packet.
        node: NodeId,
        /// The faulted optical port.
        port: PortId,
    },
    /// An injected fault window became active on `(node, port)` (`port` is
    /// 0 for node-scoped faults).
    FaultInject {
        /// The faulted node.
        node: NodeId,
        /// The faulted port, or 0 for a node-scoped fault.
        port: PortId,
    },
    /// An injected fault window cleared on `(node, port)`.
    FaultClear {
        /// The recovered node.
        node: NodeId,
        /// The recovered port, or 0 for a node-scoped fault.
        port: PortId,
    },
    /// A service's rolling SLO window went into breach.
    SloBreach {
        /// The breaching service's index.
        service: u32,
    },
    /// A service's rolling SLO window recovered from breach.
    SloRecover {
        /// The recovered service's index.
        service: u32,
    },
    /// The flight recorder dumped its ring of recent trace events into the
    /// subscription frame stream (`records` events, see `trigger`).
    FlightDump {
        /// What caused the dump.
        trigger: FlightTrigger,
        /// How many events the dump carries.
        records: u32,
    },
}

impl TraceKind {
    /// Stable event name used in exports. No wildcard arm is allowed, so a
    /// new variant without a name does not build.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::SliceRotate { .. } => "slice_rotate",
            TraceKind::GuardbandHold { .. } => "guardband_hold",
            TraceKind::SliceMiss { .. } => "slice_miss",
            TraceKind::GuardbandDrop { .. } => "guardband_drop",
            TraceKind::NoCircuitDrop { .. } => "no_circuit_drop",
            TraceKind::EqoSample { .. } => "eqo_sample",
            TraceKind::PushbackAssert { .. } => "pushback_assert",
            TraceKind::PushbackDeassert { .. } => "pushback_deassert",
            TraceKind::FlowPause { .. } => "flow_pause",
            TraceKind::FlowResume { .. } => "flow_resume",
            TraceKind::Retransmit { .. } => "retransmit",
            TraceKind::FaultDrop { .. } => "fault_drop",
            TraceKind::FaultInject { .. } => "fault_inject",
            TraceKind::FaultClear { .. } => "fault_clear",
            TraceKind::SloBreach { .. } => "slo_breach",
            TraceKind::SloRecover { .. } => "slo_recover",
            TraceKind::FlightDump { .. } => "flight_dump",
        }
    }
}

/// One trace record: a sim-time stamp plus the event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the event occurred, on the simulation clock.
    pub t: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

impl ToJson for TraceRecord {
    /// No wildcard arm is allowed, so a new variant without a field
    /// renderer does not build.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.field("t_ns", self.t.as_ns());
            w.field("event", self.kind.name());
            match self.kind {
                TraceKind::SliceRotate { node, slice } => {
                    w.field("node", node.0);
                    w.field("slice", slice);
                }
                TraceKind::GuardbandHold { node, port }
                | TraceKind::SliceMiss { node, port }
                | TraceKind::GuardbandDrop { node, port }
                | TraceKind::NoCircuitDrop { node, port }
                | TraceKind::FaultDrop { node, port }
                | TraceKind::FaultInject { node, port }
                | TraceKind::FaultClear { node, port } => {
                    w.field("node", node.0);
                    w.field("port", port.0);
                }
                TraceKind::EqoSample { node, port, queue, estimate_bytes, actual_bytes } => {
                    w.field("node", node.0);
                    w.field("port", port.0);
                    w.field("queue", queue);
                    w.field("estimate_bytes", estimate_bytes);
                    w.field("actual_bytes", actual_bytes);
                }
                TraceKind::PushbackAssert { node, dst, slice, cycle }
                | TraceKind::PushbackDeassert { node, dst, slice, cycle } => {
                    w.field("node", node.0);
                    w.field("dst", dst.0);
                    w.field("slice", slice);
                    w.field("cycle", cycle);
                }
                TraceKind::FlowPause { host, dst } | TraceKind::FlowResume { host, dst } => {
                    w.field("host", host.0);
                    w.field("dst", dst.0);
                }
                TraceKind::Retransmit { flow, kind } => {
                    w.field("flow", flow);
                    w.field("kind", kind.as_str());
                }
                TraceKind::SloBreach { service } | TraceKind::SloRecover { service } => {
                    w.field("service", service);
                }
                TraceKind::FlightDump { trigger, records } => {
                    w.field("trigger", trigger.as_str());
                    w.field("records", records);
                }
            }
        });
    }
}

/// How many recent records the flight recorder retains.
pub(crate) const FLIGHT_CAPACITY: usize = 64;

/// Storage of an attached trace stream.
#[derive(Clone, Debug)]
struct TraceBuf {
    /// The first `capacity` records (see [`KeepFirst`]).
    records: KeepFirst<TraceRecord>,
    /// Flight recorder: ring of the most recent records. Where the main
    /// buffer keeps the *first* `capacity` records, this keeps the *last*
    /// [`FLIGHT_CAPACITY`] — the short tail worth dumping when a fault
    /// fires or an invariant is about to trip late in a long run.
    recent: VecDeque<TraceRecord>,
}

/// The trace stream, owned by value: the registry holds the one a run
/// emits into, and a clone is an independent copy. A detached stream
/// (`Default`, or a disabled registry's) drops every record at the cost of
/// one branch.
#[derive(Clone, Debug, Default)]
pub struct Trace(Option<Box<TraceBuf>>);

impl Trace {
    /// A detached stream; `emit` is a no-op.
    pub fn detached() -> Self {
        Trace(None)
    }

    /// An attached stream keeping the first `capacity` records.
    pub fn bounded(capacity: usize) -> Self {
        Trace(Some(Box::new(TraceBuf {
            records: KeepFirst::new(capacity),
            recent: VecDeque::with_capacity(FLIGHT_CAPACITY),
        })))
    }

    /// Whether records are being kept. Callers may use this to skip
    /// constructing an expensive [`TraceKind`].
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Append a record (no-op when detached; counted once full).
    #[inline]
    pub fn emit(&mut self, t: SimTime, kind: TraceKind) {
        let Some(b) = &mut self.0 else { return };
        let rec = TraceRecord { t, kind };
        b.records.push(rec);
        if b.recent.len() == FLIGHT_CAPACITY {
            b.recent.pop_front();
        }
        b.recent.push_back(rec);
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records rejected because the buffer was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |b| b.records.dropped())
    }

    /// The records held so far, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        self.0.as_ref().map_or(&[], |b| b.records.as_slice())
    }

    /// Flight recorder contents: the most recent `FLIGHT_CAPACITY`
    /// records, oldest first (empty when detached). Unlike [`records`],
    /// this tail keeps moving after the main buffer fills.
    ///
    /// [`records`]: Trace::records
    pub fn recent_records(&self) -> Vec<TraceRecord> {
        self.0.as_ref().map_or_else(Vec::new, |b| b.recent.iter().copied().collect())
    }

    /// Write the whole stream to `t` as JSON lines (one object per record).
    pub fn write_json_lines(&self, t: &mut Text<'_>) {
        json::write_lines(t, self.records());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_sim::to_u32;

    #[test]
    fn bounded_buffer_keeps_head_and_counts_drops() {
        let mut tr = Trace::bounded(2);
        for i in 0..5u64 {
            tr.emit(
                SimTime::from_ns(i),
                TraceKind::SliceRotate { node: NodeId(0), slice: to_u32(i) },
            );
        }
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 3);
        let recs = tr.records();
        assert_eq!(recs[0].t, SimTime::from_ns(0));
        assert_eq!(recs[1].t, SimTime::from_ns(1));
    }

    #[test]
    fn detached_trace_is_inert() {
        let mut tr = Trace::detached();
        assert!(!tr.is_on());
        tr.emit(SimTime::ZERO, TraceKind::Retransmit { flow: 1, kind: RetxKind::Rto });
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 0);
        assert_eq!(json::text(|t| tr.write_json_lines(t)), "");
    }

    #[test]
    fn flight_recorder_keeps_the_tail() {
        let mut tr = Trace::bounded(2);
        for i in 0..(FLIGHT_CAPACITY as u64 + 10) {
            tr.emit(
                SimTime::from_ns(i),
                TraceKind::SliceRotate { node: NodeId(0), slice: to_u32(i) },
            );
        }
        // Main buffer kept the head; the flight ring kept the tail.
        assert_eq!(tr.len(), 2);
        let recent = tr.recent_records();
        assert_eq!(recent.len(), FLIGHT_CAPACITY);
        assert_eq!(recent[0].t, SimTime::from_ns(10));
        assert_eq!(recent[FLIGHT_CAPACITY - 1].t, SimTime::from_ns(FLIGHT_CAPACITY as u64 + 9));
    }

    #[test]
    fn slo_and_flight_records_render() {
        let rec = TraceRecord { t: SimTime::from_ns(9), kind: TraceKind::SloBreach { service: 1 } };
        assert_eq!(json::render(&rec), "{\"t_ns\":9,\"event\":\"slo_breach\",\"service\":1}");
        let rec = TraceRecord {
            t: SimTime::from_ns(10),
            kind: TraceKind::FlightDump { trigger: FlightTrigger::FaultEdge, records: 64 },
        };
        assert_eq!(
            json::render(&rec),
            "{\"t_ns\":10,\"event\":\"flight_dump\",\"trigger\":\"fault_edge\",\"records\":64}"
        );
    }

    #[test]
    fn json_rendering_is_stable() {
        let rec = TraceRecord {
            t: SimTime::from_ns(42),
            kind: TraceKind::EqoSample {
                node: NodeId(1),
                port: PortId(0),
                queue: 3,
                estimate_bytes: 100,
                actual_bytes: 96,
            },
        };
        assert_eq!(
            json::render(&rec),
            "{\"t_ns\":42,\"event\":\"eqo_sample\",\"node\":1,\"port\":0,\"queue\":3,\
             \"estimate_bytes\":100,\"actual_bytes\":96}"
        );
        let rec = TraceRecord {
            t: SimTime::from_us(1),
            kind: TraceKind::Retransmit { flow: 7, kind: RetxKind::FastRetx },
        };
        assert_eq!(
            json::render(&rec),
            "{\"t_ns\":1000,\"event\":\"retransmit\",\"flow\":7,\"kind\":\"fast_retx\"}"
        );
    }
}
