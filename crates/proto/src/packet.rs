//! The simulated data packet.
//!
//! A [`Packet`] is the unit moved through NICs, calendar queues, and the
//! optical fabric. Its `size` includes all headers and is what every queue
//! and link accounts; its other fields model header contents the OpenOptics
//! data plane actually matches on (source/destination node, flow identity
//! for multipath hashing, the source-route stack for source-routed schemes
//! such as Opera and UCMP, §3).

use crate::ids::{FlowId, HostId, NodeId, PortId};
use openoptics_sim::time::{SimTime, SliceIndex};

/// Standard Ethernet MTU used throughout the evaluation.
pub const MTU: u32 = 1500;

/// Bytes of header overhead per packet (Ethernet+IP+transport, rounded the
/// way DCN papers usually do). Used when converting application bytes to
/// wire bytes.
pub const HEADER_BYTES: u32 = 64;

/// One hop of a source route: the egress port to take and the departure
/// time slice at which to take it — the `<egress port, departure time
/// slice>` tuple of Fig. 3(d).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceHop {
    /// Egress port at the node executing this hop.
    pub port: PortId,
    /// Cycle-relative departure slice; `None` means "immediately"
    /// (wildcard), as in a static network.
    pub dep_slice: Option<SliceIndex>,
}

/// A stack of source-route hops written into the packet at the source
/// endpoint. Nodes pop the front hop as they execute it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceRoute {
    hops: Vec<SourceHop>,
    next: usize,
}

impl SourceRoute {
    /// Build from an ordered hop list (first hop executed at the source).
    pub fn new(hops: Vec<SourceHop>) -> Self {
        SourceRoute { hops, next: 0 }
    }

    /// The hop the current node must execute, if any remain.
    pub fn current(&self) -> Option<SourceHop> {
        self.hops.get(self.next).copied()
    }

    /// Consume the current hop (called when the node forwards the packet).
    pub fn advance(&mut self) {
        self.next += 1;
    }

    /// Remaining (unexecuted) hops, including the current one.
    pub fn remaining(&self) -> usize {
        self.hops.len().saturating_sub(self.next)
    }

    /// Total hops the route was built with.
    pub fn total(&self) -> usize {
        self.hops.len()
    }

    /// Wire bytes this route adds to the packet header
    /// (4 bytes per hop: 2 port + 2 slice, mirroring a compact P4 header stack).
    pub fn wire_bytes(&self) -> u32 {
        4 * self.hops.len() as u32
    }
}

/// What a packet is, for the consumers that care (transports and services).
/// The data plane treats all kinds uniformly; kinds exist so host logic can
/// demultiplex without payload parsing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// Transport payload segment (TCP-like or raw).
    Data,
    /// Transport acknowledgment. `cum_ack` is the cumulative ack sequence.
    Ack {
        /// Cumulative acknowledgment: next expected byte sequence.
        cum_ack: u64,
    },
    /// A UDP-style probe used for RTT measurements (Fig. 13); echoes carry
    /// the original send timestamp.
    Probe {
        /// Time the original probe left the sender.
        echo_of: SimTime,
        /// Whether this is the reply leg.
        is_reply: bool,
    },
}

/// A simulated packet.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Globally unique packet id (monotone per run).
    pub id: u64,
    /// Flow this packet belongs to (0 for probes).
    pub flow: FlowId,
    /// Source endpoint node (ToR of the sending host).
    pub src: NodeId,
    /// Destination endpoint node (ToR of the receiving host).
    pub dst: NodeId,
    /// Sending host.
    pub src_host: HostId,
    /// Receiving host.
    pub dst_host: HostId,
    /// Bytes on the wire, headers included.
    pub size: u32,
    /// Payload bytes (size minus headers) — what transports count.
    pub payload: u32,
    /// Transport sequence number (first payload byte).
    pub seq: u64,
    /// Packet semantics.
    pub kind: PacketKind,
    /// Creation time at the sending host.
    pub created: SimTime,
    /// Ingress timestamp at the current node, refreshed per hop; the
    /// per-packet multipath hash input (§3).
    pub ingress_ts: SimTime,
    /// Source-route stack, when the routing scheme is source-routed.
    pub source_route: Option<SourceRoute>,
    /// Hops traversed so far (diagnostics; Fig. 13 steps by hop count).
    pub hops: u8,
    /// Whether the payload was trimmed by a congested switch (Opera-style
    /// packet trimming): the header still reaches the receiver, which can
    /// NACK the lost payload.
    pub trimmed: bool,
}

impl Packet {
    /// A data packet carrying `payload` application bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        id: u64,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        src_host: HostId,
        dst_host: HostId,
        payload: u32,
        seq: u64,
        created: SimTime,
    ) -> Self {
        Packet {
            id,
            flow,
            src,
            dst,
            src_host,
            dst_host,
            size: payload + HEADER_BYTES,
            payload,
            seq,
            kind: PacketKind::Data,
            created,
            ingress_ts: created,
            source_route: None,
            hops: 0,
            trimmed: false,
        }
    }

    /// Age of the packet at `now`, ns.
    #[inline]
    pub fn age_ns(&self, now: SimTime) -> u64 {
        now.saturating_since(self.created)
    }

    /// Whether this packet carries transport payload.
    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_data() -> Packet {
        Packet::data(1, 10, NodeId(0), NodeId(3), HostId(0), HostId(5), 1436, 0, SimTime::ZERO)
    }

    #[test]
    fn data_packet_sizes_include_headers() {
        let p = mk_data();
        assert_eq!(p.size, 1500);
        assert_eq!(p.payload, 1436);
        assert!(p.is_data());
    }

    #[test]
    fn source_route_walks_hops() {
        let mut sr = SourceRoute::new(vec![
            SourceHop { port: PortId(1), dep_slice: Some(0) },
            SourceHop { port: PortId(2), dep_slice: Some(1) },
        ]);
        assert_eq!(sr.total(), 2);
        assert_eq!(sr.remaining(), 2);
        assert_eq!(sr.current().unwrap().port, PortId(1));
        sr.advance();
        assert_eq!(sr.current().unwrap().dep_slice, Some(1));
        sr.advance();
        assert_eq!(sr.current(), None);
        assert_eq!(sr.remaining(), 0);
    }

    #[test]
    fn source_route_wire_cost() {
        let sr = SourceRoute::new(vec![
            SourceHop { port: PortId(1), dep_slice: None },
            SourceHop { port: PortId(2), dep_slice: Some(3) },
            SourceHop { port: PortId(0), dep_slice: Some(7) },
        ]);
        assert_eq!(sr.wire_bytes(), 12);
    }

    #[test]
    fn packet_age() {
        let p = mk_data();
        assert_eq!(p.age_ns(SimTime::from_us(3)), 3000);
    }
}
