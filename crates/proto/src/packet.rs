//! The simulated data packet.
//!
//! A [`Packet`] is the unit moved through NICs, calendar queues, and the
//! optical fabric. Its `size` includes all headers and is what every queue
//! and link accounts; its other fields model header contents the OpenOptics
//! data plane actually matches on (source/destination node, flow identity
//! for multipath hashing, the source-route stack for source-routed schemes
//! such as Opera and UCMP, §3).

use crate::ids::{FlowId, HostId, NodeId, PortId};
use openoptics_sim::idx_u32;
use openoptics_sim::time::SliceIndex;
use openoptics_sim::SimTime;
use std::ops::{Index, IndexMut};

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

    /// Total hops the route was built with.
    pub fn total(&self) -> usize {
        self.hops.len()
    }

    /// Wire bytes this route adds to the packet header
    /// (4 bytes per hop: 2 port + 2 slice, mirroring a compact P4 header stack).
    #[expect(clippy::cast_possible_truncation, reason = "a route has a handful of hops")]
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
        /// The sender's probe train, which the reply is recorded into.
        train: u32,
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
    #[expect(clippy::too_many_arguments, reason = "one argument per header field")]
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

/// The name of a packet held in a [`PacketStore`]: what events, calendar
/// queues, offload books and link queues carry instead of the packet.
///
/// Deliberately neither `Ord` nor `Hash` nor `Display`: which slot a packet
/// got depends on the order earlier packets were freed in, so a handle must
/// never become a sort key, a hash input or an exported byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PktRef(u32);

/// Where packets live from creation to delivery or drop: written once on
/// [`insert`](Self::insert), edited in place through its [`PktRef`], and
/// the slot reused (last freed first) after [`remove`](Self::remove).
#[derive(Clone, Debug, Default)]
pub struct PacketStore {
    slots: Vec<Packet>,
    free: Vec<u32>,
    /// Whether each slot holds a packet; kept only so `strict-invariants`
    /// can catch a handle used after its packet was removed.
    live: Vec<bool>,
}

impl PacketStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park `pkt` and return its name.
    pub fn insert(&mut self, pkt: Packet) -> PktRef {
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = pkt;
                i
            }
            None => {
                self.slots.push(pkt);
                self.live.push(false);
                idx_u32(self.slots.len() - 1)
            }
        };
        self.live[i as usize] = true;
        PktRef(i)
    }

    /// Take the packet out; its slot is free for reuse and keeps no heap
    /// memory (the source route leaves with the packet).
    pub fn remove(&mut self, r: PktRef) -> Packet {
        self.check_live(r);
        self.live[r.0 as usize] = false;
        self.free.push(r.0);
        let slot = &mut self.slots[r.0 as usize];
        Packet { source_route: slot.source_route.take(), ..*slot }
    }
    /// Packets currently held.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    #[inline]
    fn check_live(&self, r: PktRef) {
        if cfg!(feature = "strict-invariants") {
            assert!(
                self.live[r.0 as usize],
                "packet handle {r:?} used after its packet was removed"
            );
        }
    }
}

impl Index<PktRef> for PacketStore {
    type Output = Packet;
    #[inline]
    fn index(&self, r: PktRef) -> &Packet {
        self.check_live(r);
        &self.slots[r.0 as usize]
    }
}

impl IndexMut<PktRef> for PacketStore {
    #[inline]
    fn index_mut(&mut self, r: PktRef) -> &mut Packet {
        self.check_live(r);
        &mut self.slots[r.0 as usize]
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
        assert_eq!(sr.hops.len() - sr.next, 2);
        assert_eq!(sr.current().unwrap().port, PortId(1));
        sr.advance();
        assert_eq!(sr.current().unwrap().dep_slice, Some(1));
        sr.advance();
        assert_eq!(sr.current(), None);
        assert_eq!(sr.hops.len() - sr.next, 0);
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

    fn mk_id(id: u64) -> Packet {
        Packet { id, ..mk_data() }
    }

    #[test]
    fn store_reuses_the_last_freed_slot_first() {
        let mut s = PacketStore::new();
        let [a, b, c] = [1, 2, 3].map(|id| s.insert(mk_id(id)));
        s.remove(a);
        s.remove(c);
        // LIFO: `c`'s slot comes back first, then `a`'s; only then does the
        // store grow.
        assert_eq!(s.insert(mk_id(4)), c);
        assert_eq!(s.insert(mk_id(5)), a);
        assert_eq!((s[c].id, s[a].id, s[b].id), (4, 5, 2));
        assert_eq!(s.slots.len(), 3);
        s.insert(mk_id(6));
        assert_eq!(s.slots.len(), 4);
    }

    #[test]
    fn store_counts_slots_and_live_packets() {
        let mut s = PacketStore::new();
        assert_eq!((s.slots.len(), s.live()), (0, 0));
        let a = s.insert(mk_id(1));
        let b = s.insert(mk_id(2));
        assert_eq!((s.slots.len(), s.live()), (2, 2));
        assert_eq!(s.remove(a).id, 1);
        assert_eq!((s.slots.len(), s.live()), (2, 1));
        let c = s.insert(mk_id(3));
        let d = s.insert(mk_id(4));
        assert_eq!((s.slots.len(), s.live()), (3, 3));
        for r in [b, c, d] {
            s.remove(r);
        }
        assert_eq!((s.slots.len(), s.live()), (3, 0));
    }

    #[test]
    fn store_edits_in_place_and_a_freed_slot_keeps_no_heap_memory() {
        let mut s = PacketStore::new();
        let mut p = mk_data();
        p.source_route =
            Some(SourceRoute::new(vec![SourceHop { port: PortId(1), dep_slice: None }]));
        let r = s.insert(p);
        s[r].hops = 3;
        let out = s.remove(r);
        assert_eq!((out.hops, out.source_route.map(|sr| sr.total())), (3, Some(1)));
        assert!(s.slots.iter().all(|slot| slot.source_route.is_none()));
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "used after its packet was removed")]
    fn strict_reading_a_dead_handle_panics() {
        let mut s = PacketStore::new();
        let r = s.insert(mk_data());
        s.remove(r);
        let _ = s[r].id;
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "used after its packet was removed")]
    fn strict_freeing_a_handle_twice_panics() {
        let mut s = PacketStore::new();
        let r = s.insert(mk_data());
        s.remove(r);
        s.remove(r);
    }
}
