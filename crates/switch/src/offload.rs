//! Buffer offloading (§5.2) — switch-side bookkeeping.
//!
//! Multi-hop schemes like VLB buffer packets for up to a full optical cycle
//! at intermediate switches. OpenOptics keeps only the calendar queues for
//! the immediate future on the switch and stores the rest on hosts,
//! returning them "in advance, guided by circuit notification messages".
//!
//! This module is the switch's ledger: which packets were parked for which
//! absolute slice, and when each batch must be recalled so it reaches the
//! switch before its slice activates. The engine moves the actual bytes
//! over the host links; the Fig. 14 experiment measures how stable that
//! round trip is.

use openoptics_proto::{PktRef, PortId};
use openoptics_sim::{SimTime, SliceConfig};
use std::collections::BTreeMap;

/// Offloading policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct OffloadPolicy {
    /// Ranks `< keep_ranks` stay in switch calendar queues; deeper ranks
    /// are parked on hosts ("each switch only keeps N calendar queues per
    /// egress port for the immediate future").
    pub keep_ranks: u32,
    /// How long before its slice a parked batch is recalled. Must cover the
    /// host round trip plus jitter (Fig. 14: ±0.75 µs with libvma).
    pub return_lead_ns: u64,
}

impl OffloadPolicy {
    /// Whether a packet of this rank should be parked.
    pub(crate) fn should_offload(&self, rank: u32) -> bool {
        rank >= self.keep_ranks
    }
}

/// The switch's ledger of parked packets, keyed by absolute slice ordinal:
/// `(egress port, wire size, handle)` per packet.
#[derive(Clone, Debug, Default)]
pub struct OffloadBook {
    parked: BTreeMap<u64, Vec<(PortId, u32, PktRef)>>,
    parked_bytes: u64,
    /// Total packets ever parked.
    pub offloaded_packets: u64,
    /// Total bytes ever parked.
    pub offloaded_bytes: u64,
    /// Total packets recalled.
    pub returned_packets: u64,
    /// Peak concurrently parked bytes.
    pub peak_parked_bytes: u64,
}

impl OffloadBook {
    /// An empty ledger.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Park a packet of `size` wire bytes destined for absolute slice
    /// `abs_slice`, remembering the uplink it must eventually leave on.
    pub(crate) fn park(&mut self, abs_slice: u64, port: PortId, size: u32, pkt: PktRef) {
        self.offloaded_packets += 1;
        self.offloaded_bytes += size as u64;
        self.parked_bytes += size as u64;
        self.peak_parked_bytes = self.peak_parked_bytes.max(self.parked_bytes);
        self.parked.entry(abs_slice).or_default().push((port, size, pkt));
    }

    /// Packets currently parked.
    pub(crate) fn parked_packets(&self) -> usize {
        self.parked.values().map(|v| v.len()).sum()
    }

    /// Whether anything is parked.
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// The recall deadline for a batch destined to `abs_slice`: the slice's
    /// start minus the configured lead.
    pub(crate) fn recall_time(abs_slice: u64, cfg: &SliceConfig, lead_ns: u64) -> SimTime {
        SimTime::from_ns((abs_slice * cfg.slice_ns).saturating_sub(lead_ns))
    }

    /// The earliest pending recall deadline, if any batch is parked.
    pub(crate) fn next_recall(&self, cfg: &SliceConfig, lead_ns: u64) -> Option<(u64, SimTime)> {
        self.parked.keys().next().map(|&s| (s, Self::recall_time(s, cfg, lead_ns)))
    }

    /// Pull every batch whose recall deadline is at or before `now`.
    /// Returns `(target absolute slice, port, packet)` triples.
    pub(crate) fn due(
        &mut self,
        now: SimTime,
        cfg: &SliceConfig,
        lead_ns: u64,
    ) -> Vec<(u64, PortId, PktRef)> {
        let due_slices: Vec<u64> = self
            .parked
            .keys()
            .copied()
            .take_while(|&s| Self::recall_time(s, cfg, lead_ns) <= now)
            .collect();
        let mut out = Vec::new();
        for s in due_slices {
            let batch = self.parked.remove(&s).expect("key just listed");
            for &(_, size, _) in &batch {
                self.parked_bytes -= size as u64;
            }
            self.returned_packets += batch.len() as u64;
            out.extend(batch.into_iter().map(|(port, _, p)| (s, port, p)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_proto::{HostId, NodeId, Packet, PacketStore};

    /// Store packet `id`, `size` bytes on the wire, and park it for `abs`.
    fn park(b: &mut OffloadBook, store: &mut PacketStore, abs: u64, port: u16, id: u64, size: u32) {
        let (n0, n1, h0, h1) = (NodeId(0), NodeId(1), HostId(0), HostId(1));
        let p = Packet::data(id, 1, n0, n1, h0, h1, size - 64, 0, SimTime::ZERO);
        assert_eq!(p.size, size);
        b.park(abs, PortId(port), size, store.insert(p));
    }

    fn cfg() -> SliceConfig {
        SliceConfig::new(100_000, 32, 1_000) // 100 us slices
    }

    #[test]
    fn policy_splits_by_rank() {
        let p = OffloadPolicy { keep_ranks: 8, return_lead_ns: 10_000 };
        assert!(!p.should_offload(0));
        assert!(!p.should_offload(7));
        assert!(p.should_offload(8));
    }

    #[test]
    fn park_and_recall_in_slice_order() {
        let (mut b, mut store) = (OffloadBook::new(), PacketStore::new());
        park(&mut b, &mut store, 50, 0, 1, 1500);
        park(&mut b, &mut store, 40, 0, 2, 1500);
        park(&mut b, &mut store, 60, 1, 3, 1500);
        assert_eq!(b.parked_packets(), 3);
        let c = cfg();
        // Recall deadline for slice 40 = 40*100us - 10us = 3.99 ms.
        let (s, t) = b.next_recall(&c, 10_000).expect("a recall is pending");
        assert_eq!(s, 40);
        assert_eq!(t, SimTime::from_ns(40 * 100_000 - 10_000));
        // At 4.0 ms, slice 40's batch is due, 50/60 are not.
        let due = b.due(SimTime::from_ms(4), &c, 10_000);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0, 40);
        assert_eq!(store[due[0].2].id, 2);
        assert_eq!(b.parked_packets(), 2);
        assert_eq!(b.returned_packets, 1);
    }

    #[test]
    fn byte_accounting_and_peak() {
        let (mut b, mut store) = (OffloadBook::new(), PacketStore::new());
        park(&mut b, &mut store, 10, 0, 1, 1500);
        park(&mut b, &mut store, 10, 0, 2, 500);
        assert_eq!(b.parked_bytes, 2000);
        assert_eq!(b.peak_parked_bytes, 2000);
        let due = b.due(SimTime::from_secs(1), &cfg(), 0);
        assert_eq!(due.len(), 2);
        assert_eq!(b.parked_bytes, 0);
        assert_eq!(b.peak_parked_bytes, 2000);
        assert_eq!(b.offloaded_bytes, 2000);
    }

    #[test]
    fn recall_lead_saturates_at_zero() {
        // A batch for slice 0 with a huge lead recalls at t=0, not underflow.
        assert_eq!(OffloadBook::recall_time(0, &cfg(), 999_999), SimTime::ZERO);
    }

    #[test]
    fn empty_book_has_no_recalls() {
        let b = OffloadBook::new();
        assert!(b.next_recall(&cfg(), 0).is_none());
    }
}
