//! Traffic push-back (§5.2) — switch side.
//!
//! When a packet finds its designated calendar queue full, it and all
//! subsequent packets to that queue are rejected; if the service is
//! enabled, a push-back message naming the queue's time slice is broadcast
//! to the sender's hosts, pausing their traffic toward that destination
//! for that slice. One message per `(destination, slice, cycle)` suffices —
//! this module deduplicates so the broadcast doesn't storm.

use openoptics_proto::{NodeId, PushBack};
use openoptics_sim::hash::FxHashSet;
use openoptics_sim::time::SliceIndex;

/// Push-back message generator for one switch.
#[derive(Debug, Clone, Default)]
pub(crate) struct PushbackGen {
    enabled: bool,
    sent: FxHashSet<(NodeId, SliceIndex, u64)>,
    /// Messages emitted (post-deduplication).
    pub emitted: u64,
    /// Full-queue events observed (pre-deduplication).
    pub events: u64,
}

impl PushbackGen {
    /// A generator; disabled generators observe events but emit nothing.
    pub(crate) fn new(enabled: bool) -> Self {
        PushbackGen { enabled, ..Default::default() }
    }

    /// A packet toward `dst` found the queue for `slice` (in absolute cycle
    /// `cycle`) full. Returns the message to broadcast, if one is due.
    pub(crate) fn on_queue_full(
        &mut self,
        dst: NodeId,
        slice: SliceIndex,
        cycle: u64,
    ) -> Option<PushBack> {
        self.events += 1;
        if !self.enabled {
            return None;
        }
        if self.sent.insert((dst, slice, cycle)) {
            self.emitted += 1;
            Some(PushBack { dst, slice, cycle })
        } else {
            None
        }
    }

    /// Drop dedup state older than `min_cycle` (bounded memory).
    pub(crate) fn gc(&mut self, min_cycle: u64) {
        self.sent.retain(|&(_, _, c)| c >= min_cycle);
    }

    /// [`PushbackGen::gc`], returning the expired keys in sorted order —
    /// each is a push-back whose embargoed cycle has passed (deassert).
    /// Sorted so trace emission is independent of hash iteration order.
    pub(crate) fn gc_collect(&mut self, min_cycle: u64) -> Vec<(NodeId, SliceIndex, u64)> {
        let mut expired: Vec<_> =
            self.sent.iter().copied().filter(|&(_, _, c)| c < min_cycle).collect();
        expired.sort_unstable();
        for k in &expired {
            self.sent.remove(k);
        }
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_once_per_dst_slice_cycle() {
        let mut g = PushbackGen::new(true);
        let m = g.on_queue_full(NodeId(3), 2, 10);
        assert_eq!(m, Some(PushBack { dst: NodeId(3), slice: 2, cycle: 10 }));
        assert_eq!(g.on_queue_full(NodeId(3), 2, 10), None);
        assert_eq!(g.events, 2);
        assert_eq!(g.emitted, 1);
        // A later cycle re-arms.
        assert!(g.on_queue_full(NodeId(3), 2, 11).is_some());
        // A different destination is independent.
        assert!(g.on_queue_full(NodeId(4), 2, 10).is_some());
    }

    #[test]
    fn disabled_generator_counts_but_stays_silent() {
        let mut g = PushbackGen::new(false);
        assert_eq!(g.on_queue_full(NodeId(1), 0, 0), None);
        assert_eq!(g.events, 1);
        assert_eq!(g.emitted, 0);
    }

    #[test]
    fn gc_collect_names_expired_pushbacks() {
        let mut g = PushbackGen::new(true);
        g.on_queue_full(NodeId(2), 1, 5);
        g.on_queue_full(NodeId(1), 0, 3);
        g.on_queue_full(NodeId(1), 0, 9);
        let expired = g.gc_collect(8);
        assert_eq!(expired, vec![(NodeId(1), 0, 3), (NodeId(2), 1, 5)]);
        assert!(g.gc_collect(8).is_empty(), "second pass finds nothing");
        assert!(g.on_queue_full(NodeId(1), 0, 9).is_none(), "recent state retained");
    }

    #[test]
    fn gc_rearms_old_cycles_only() {
        let mut g = PushbackGen::new(true);
        g.on_queue_full(NodeId(1), 0, 5);
        g.on_queue_full(NodeId(1), 0, 9);
        g.gc(8);
        // Cycle 5 state gone; cycle 9 retained.
        assert!(g.on_queue_full(NodeId(1), 0, 5).is_some());
        assert!(g.on_queue_full(NodeId(1), 0, 9).is_none());
    }
}
