//! Lifecycle cursors: where each sampled flow and in-flight packet
//! currently is in the span tree.
//!
//! [`Spans`] is the recording, a row per span; [`SpanCursors`] is the
//! bookkeeping that turns "packet 17 just left the calendar queue" into the
//! right begins and ends on it — the flow's root span, each packet's root span
//! and whichever stage span is open, so stages tile a packet's life with
//! no gap and no overlap. The engine names *what happened* ([`Stage`],
//! [`PacketEnd`], [`DropSite`], [`RetxKind`]); the integer codes that land
//! in the exports' `arg` fields are assigned here and nowhere else.
//!
//! Every method early-returns on one branch when span recording is off.

use crate::span::{Spans, Stage};
use openoptics_sim::hash::FxHashMap;
use openoptics_sim::SimTime;
use openoptics_telemetry::RetxKind;

/// Where a packet was dropped. The discriminant is the `arg` of the
/// packet's [`Stage::Drop`] annotation in every span export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropSite {
    /// Refused by a switch (congestion, capacity, rank).
    Switch = 1,
    /// No route to the destination.
    NoRoute = 2,
    /// Lost in the optical fabric (guardband, dark circuit, reconfiguration).
    Fabric = 3,
    /// Tail-dropped at an electrical uplink or host downlink queue.
    Link = 4,
    /// Payload trimmed by a congested switch; only the header arrived.
    Trimmed = 5,
}

/// How a packet's life ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketEnd {
    /// Reached its destination host and was handed to the transport.
    Delivered,
    /// Dropped at `DropSite`.
    Dropped(DropSite),
    /// Eaten by an injected fault; carries the owning fault kind's code.
    FaultDropped(u64),
}

/// The `arg` of a flow's [`Stage::Retransmit`] annotation.
fn retx_code(kind: RetxKind) -> u64 {
    match kind {
        RetxKind::Watchdog => 1,
        RetxKind::Rto => 2,
        RetxKind::FastRetx => 3,
        RetxKind::Nack => 4,
    }
}

/// One in-flight sampled data packet: its root span and whichever stage
/// span is currently open.
#[derive(Clone)]
struct PktCursor {
    span: u64,
    flow: u64,
    open: Option<(Stage, u64)>,
}

/// The span stream plus the cursors of every sampled flow and in-flight
/// packet, owned by value: a clone is an independent copy that can finish
/// what the original began. `Default` records nothing.
#[derive(Clone, Default)]
pub struct SpanCursors {
    spans: Spans,
    /// Flow id → its root flow span.
    flows: FxHashMap<u64, u64>,
    /// Packet id → lifecycle cursor.
    packets: FxHashMap<u64, PktCursor>,
}

impl SpanCursors {
    /// Cursors recording into `spans`.
    pub fn new(spans: Spans) -> Self {
        SpanCursors { spans, ..Default::default() }
    }

    /// The stream being recorded into.
    pub fn spans(&self) -> &Spans {
        &self.spans
    }

    /// Whether anything is being recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.spans.is_on()
    }

    /// Open the flow's root span, if the flow falls in the sample.
    #[inline]
    pub fn flow_begin(&mut self, flow: u64, now: SimTime) {
        if !self.spans.samples(flow) || !self.spans.admit() {
            return;
        }
        let s = self.spans.span_begin(now, 0, flow, 0, Stage::Flow, 0);
        self.flows.insert(flow, s);
    }

    /// Close the flow's root span (finalization raises the end further if
    /// a retransmitted packet lands later).
    #[inline]
    pub fn flow_end(&mut self, flow: u64, now: SimTime) {
        if !self.spans.is_on() {
            return;
        }
        if let Some(s) = self.flows.remove(&flow) {
            self.spans.span_end(now, s, Stage::Flow);
        }
    }

    /// Annotate the flow with a retransmission trigger.
    #[inline]
    pub fn retransmit(&mut self, flow: u64, at: SimTime, kind: RetxKind) {
        if !self.spans.is_on() {
            return;
        }
        if let Some(&fs) = self.flows.get(&flow) {
            self.spans.span_mark(at, fs, flow, 0, Stage::Retransmit, retx_code(kind));
        }
    }

    /// Open a packet's root span under its flow, covering the host tx
    /// queue wait `[queued_at, now]` as the first stage.
    #[inline]
    pub fn packet_begin(&mut self, flow: u64, pkt: u64, queued_at: SimTime, now: SimTime) {
        if !self.spans.is_on() {
            return;
        }
        let Some(&fs) = self.flows.get(&flow) else { return };
        if !self.spans.admit() {
            return;
        }
        let at = queued_at.min(now);
        let ps = self.spans.span_begin(at, fs, flow, pkt, Stage::Packet, 0);
        let q = self.spans.span_begin(at, ps, flow, pkt, Stage::HostTxQueue, 0);
        self.spans.span_end(now, q, Stage::HostTxQueue);
        self.packets.insert(pkt, PktCursor { span: ps, flow, open: None });
    }

    /// Close the packet's open stage span, if any, at `at`.
    fn close_open(&mut self, pkt: u64, at: SimTime) {
        let Some(c) = self.packets.get_mut(&pkt) else { return };
        if let Some((stage, s)) = c.open.take() {
            self.spans.span_end(at, s, stage);
        }
    }

    /// Transition the packet to `stage` at `at`: closes the open stage
    /// span (stages tile — no gaps, no overlap) and opens the next.
    #[inline]
    pub fn enter(&mut self, pkt: u64, stage: Stage, at: SimTime) {
        if !self.spans.is_on() {
            return;
        }
        self.close_open(pkt, at);
        let Some(c) = self.packets.get_mut(&pkt) else { return };
        let s = self.spans.span_begin(at, c.span, c.flow, pkt, stage, 0);
        c.open = Some((stage, s));
    }

    /// Begin (or continue) a guardband hold for the packet at the head of
    /// a held port. Repeated holds on the same head extend the same span.
    #[inline]
    pub fn hold(&mut self, pkt: u64, at: SimTime) {
        if !self.spans.is_on() {
            return;
        }
        match self.packets.get(&pkt) {
            Some(c) if !matches!(c.open, Some((Stage::GuardbandHold, _))) => {
                self.enter(pkt, Stage::GuardbandHold, at);
            }
            _ => {}
        }
    }

    /// The packet left a queue and serializes onto the wire for `tx` ns:
    /// closes the open wait span at `at` and records the full
    /// serialization interval (its end is already known).
    #[inline]
    pub fn serialized(&mut self, pkt: u64, at: SimTime, tx: u64) {
        if !self.spans.is_on() {
            return;
        }
        self.close_open(pkt, at);
        let Some(c) = self.packets.get(&pkt) else { return };
        let s = self.spans.span_begin(at, c.span, c.flow, pkt, Stage::Serialization, 0);
        self.spans.span_end(at + tx, s, Stage::Serialization);
    }

    /// The packet's life is over: close its open stage, annotate how it
    /// ended, and end the packet span.
    #[inline]
    pub fn end_packet(&mut self, pkt: u64, at: SimTime, end: PacketEnd) {
        if !self.spans.is_on() {
            return;
        }
        self.close_open(pkt, at);
        let Some(c) = self.packets.remove(&pkt) else { return };
        let (stage, arg) = match end {
            PacketEnd::Delivered => (Stage::TcpDelivery, 0),
            PacketEnd::Dropped(site) => (Stage::Drop, site as u64),
            PacketEnd::FaultDropped(code) => (Stage::FaultDrop, code),
        };
        self.spans.span_mark(at, c.span, c.flow, pkt, stage, arg);
        self.spans.span_end(at, c.span, Stage::Packet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::WellFormedError;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    /// One sampled flow whose packets end every way a packet can: the
    /// `arg` codes are the numbers every export has always carried, each
    /// packet's stages tile its span, a repeated hold is one span, and
    /// nothing is recorded for an unsampled flow or a finished packet.
    #[test]
    fn every_ending_keeps_its_export_code_and_the_stages_tile() -> Result<(), WellFormedError> {
        use DropSite::*;
        let ends = [
            PacketEnd::Delivered,
            PacketEnd::Dropped(Switch),
            PacketEnd::Dropped(NoRoute),
            PacketEnd::Dropped(Fabric),
            PacketEnd::Dropped(Link),
            PacketEnd::Dropped(Trimmed),
            PacketEnd::FaultDropped(3),
        ];
        let mut c = SpanCursors::new(Spans::bounded(2, 1, usize::MAX));
        c.flow_begin(7, t(0));
        c.flow_begin(8, t(0)); // 8 % 2 != 1: not in the sample
        for (pkt, end) in (1..).zip(ends) {
            let at = 100 * pkt;
            c.packet_begin(7, pkt, t(at), t(at + 5));
            c.packet_begin(8, pkt + 100, t(at), t(at + 5));
            c.enter(pkt, Stage::CalendarWait, t(at + 5));
            c.hold(pkt, t(at + 10));
            c.hold(pkt, t(at + 20));
            c.serialized(pkt, t(at + 30), 12);
            c.enter(pkt, Stage::Propagation, t(at + 42));
            c.end_packet(pkt, t(at + 50), end);
            c.end_packet(pkt, t(at + 60), PacketEnd::Delivered); // already over
        }
        for kind in [RetxKind::Watchdog, RetxKind::Rto, RetxKind::FastRetx, RetxKind::Nack] {
            c.retransmit(7, t(900), kind);
            c.retransmit(8, t(900), kind);
        }
        c.flow_end(7, t(1_000));
        c.flow_end(8, t(1_000));

        let table = c.spans().table(t(1_000))?;
        let args = |stage: Stage| -> Vec<u64> {
            table.spans().filter(|(_, r)| r.stage == stage).map(|(_, r)| r.arg).collect()
        };
        assert_eq!(args(Stage::Drop), [1, 2, 3, 4, 5]);
        assert_eq!(args(Stage::FaultDrop), [3]);
        assert_eq!(args(Stage::Retransmit), [1, 2, 3, 4]);
        assert_eq!(args(Stage::TcpDelivery), [0]);
        assert_eq!(args(Stage::GuardbandHold).len(), ends.len());
        assert!(table.spans().all(|(_, r)| r.flow == 7), "flow 8 was never sampled");
        let packets: Vec<(u64, u64)> = table
            .spans()
            .filter(|(_, r)| r.stage == Stage::Packet)
            .map(|(id, r)| (id, r.duration_ns()))
            .collect();
        assert_eq!(packets.len(), ends.len());
        for (id, span) in packets {
            let stages: u64 = table
                .spans()
                .filter(|(_, r)| r.parent == id)
                .filter(|(_, r)| {
                    !matches!(r.stage, Stage::Retransmit | Stage::FaultDrop | Stage::Drop)
                })
                .map(|(_, r)| r.duration_ns())
                .sum();
            assert_eq!((stages, span), (50, 50));
        }
        Ok(())
    }

    #[test]
    fn a_clone_shares_no_storage_with_the_original() {
        let mut a = SpanCursors::new(Spans::bounded(1, 0, usize::MAX));
        a.flow_begin(1, t(0));
        a.packet_begin(1, 1, t(0), t(1));
        let mut b = a.clone();
        let before = a.spans().len();
        // The copy carries the cursors: it can finish what the original began.
        b.end_packet(1, t(9), PacketEnd::Delivered);
        b.flow_end(1, t(9));
        assert!(b.spans().len() > before);
        assert_eq!(a.spans().len(), before);
        assert!(!SpanCursors::default().is_on());
    }
}
