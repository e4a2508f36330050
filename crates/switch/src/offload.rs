//! Buffer offloading (§5.2) — switch-side bookkeeping.
//!
//! Multi-hop schemes like VLB buffer packets for up to a full optical cycle
//! at intermediate switches. OpenOptics keeps only the calendar queues for
//! the immediate future on the switch and stores the rest on hosts,
//! returning them "in advance, guided by circuit notification messages".
//!
//! This module is the switch's ledger. A packet's recall instant is fixed
//! when it parks: its batch's deadline, so that it reaches the switch
//! before its slice activates, or the parking instant once that deadline
//! has passed. The engine posts the packet's return for that instant plus
//! the host round trip, and from then until the packet is re-admitted the
//! pending event is the one thing that names it; the ledger keeps counts.
//! The engine moves the actual bytes over the host links; the Fig. 14
//! experiment measures how stable that round trip is.

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

/// The switch's ledger of parked packets: how many there were, and how
/// many bytes are parked now.
#[derive(Clone, Debug, Default)]
pub struct OffloadBook {
    /// Parked bytes by recall instant: a batch's bytes leave the parked
    /// total once its recall instant has passed.
    recalls: BTreeMap<SimTime, u64>,
    parked_bytes: u64,
    /// Total packets ever parked.
    pub offloaded_packets: u64,
    /// Total bytes ever parked.
    pub offloaded_bytes: u64,
    /// Total parked packets re-admitted.
    pub returned_packets: u64,
    /// Peak concurrently parked bytes.
    pub peak_parked_bytes: u64,
}

impl OffloadBook {
    /// An empty ledger.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Park a packet of `size` wire bytes at `now` until `recall`. The
    /// batches recalled by `now` leave the parked total first, as their
    /// recalls ran before anything parked at their instant.
    pub(crate) fn park(&mut self, now: SimTime, recall: SimTime, size: u32) {
        while let Some(batch) = self.recalls.first_entry().filter(|b| *b.key() <= now) {
            self.parked_bytes -= batch.remove();
        }
        self.offloaded_packets += 1;
        self.offloaded_bytes += u64::from(size);
        self.parked_bytes += u64::from(size);
        self.peak_parked_bytes = self.peak_parked_bytes.max(self.parked_bytes);
        *self.recalls.entry(recall).or_default() += u64::from(size);
    }

    /// A parked packet is back at the switch.
    pub(crate) fn returned(&mut self) {
        self.returned_packets += 1;
    }

    /// Whether every parked packet is back.
    pub fn is_empty(&self) -> bool {
        self.returned_packets == self.offloaded_packets
    }

    /// The recall deadline for a batch destined to `abs_slice`: the slice's
    /// start minus the configured lead.
    pub(crate) fn recall_time(abs_slice: u64, cfg: &SliceConfig, lead_ns: u64) -> SimTime {
        SimTime::from_ns((abs_slice * cfg.slice_ns).saturating_sub(lead_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn byte_accounting_and_peak() {
        let mut b = OffloadBook::new();
        let (t, recall) = (SimTime::from_us(1), SimTime::from_us(10));
        b.park(t, recall, 1500);
        b.park(t, recall, 500);
        assert_eq!((b.parked_bytes, b.peak_parked_bytes), (2000, 2000));
        // Parked at the batch's recall instant: the batch is gone by then.
        b.park(recall, SimTime::from_us(20), 700);
        assert_eq!((b.parked_bytes, b.peak_parked_bytes), (700, 2000));
        assert_eq!((b.offloaded_packets, b.offloaded_bytes), (3, 2700));
        // Empty once every parked packet is back, not once its bytes left.
        (0..2).for_each(|_| b.returned());
        assert!(!b.is_empty(), "one packet is still parked");
        b.returned();
        assert!(b.is_empty());
    }

    #[test]
    fn recall_lead_saturates_at_zero() {
        // A batch for slice 0 with a huge lead recalls at t=0, not underflow.
        assert_eq!(OffloadBook::recall_time(0, &cfg(), 999_999), SimTime::ZERO);
    }
}
