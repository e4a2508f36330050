//! vma-style segment-queue sockets with flow pausing (§5.2).
//!
//! libvma links sockets to a user-space stack where OpenOptics intercepts
//! send calls: data sits in per-destination segment queues, and a paused
//! destination simply stops draining — "suspending and resuming
//! applications require no additional memory buffers beyond the segment
//! queue, as applications are naturally pushed back by the socket interface
//! when the segment queue reaches its capacity."
//!
//! Two pause mechanisms exist:
//! * **flow pausing** — a destination is held until its circuit opens
//!   (driven by circuit-notification messages);
//! * **push-back blocks** — a destination is embargoed until a wall-clock
//!   deadline (driven by push-back broadcasts).

use openoptics_proto::{FlowId, HostId, NodeId};
use openoptics_sim::bytequeue::ByteQueue;
use openoptics_sim::hash::FxHashMap;
use openoptics_sim::time::SimTime;

/// One queued application segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Flow the segment belongs to.
    pub flow: FlowId,
    /// Destination host.
    pub dst_host: HostId,
    /// Payload bytes.
    pub bytes: u32,
    /// Stream sequence of the first byte.
    pub seq: u64,
    /// When the segment entered the host tx queue (feeds the
    /// `host_tx_queue` lifecycle span; `SimTime::ZERO` when untracked).
    pub queued_at: SimTime,
}

/// Per-destination pause state.
#[derive(Clone, Copy, Debug, Default)]
struct DstState {
    /// Flow-pausing gate: destination held until explicitly resumed.
    paused: bool,
    /// Push-back embargo deadline (send allowed at or after this instant).
    blocked_until: SimTime,
}

/// The host's user-space send stack: one segment queue per destination
/// endpoint node (ToR).
#[derive(Clone, Debug)]
pub struct VmaStack {
    queues: FxHashMap<NodeId, ByteQueue<Segment>>,
    state: FxHashMap<NodeId, DstState>,
    queue_capacity: u64,
    /// All destinations ever seen, kept sorted — the queue map only grows,
    /// so [`Self::pop_next`] can scan this instead of re-sorting the key
    /// set on every transmitted packet.
    known_dsts: Vec<NodeId>,
    /// Reusable scratch for the per-call non-empty destination list.
    scratch_dsts: Vec<NodeId>,
    /// Round-robin cursor over destinations for fair draining.
    rr_cursor: usize,
    /// Segments rejected because the segment queue was full (application
    /// push-back events).
    pub app_pushback_events: u64,
    /// Flow-pause transitions (running → paused), for churn telemetry.
    pub pause_events: u64,
    /// Flow-resume transitions (paused → running).
    pub resume_events: u64,
    /// Push-back embargoes that extended a destination's deadline.
    pub block_events: u64,
}

impl VmaStack {
    /// A stack whose per-destination segment queues hold `queue_capacity`
    /// bytes (the socket buffer).
    pub fn new(queue_capacity: u64) -> Self {
        VmaStack {
            queues: FxHashMap::default(),
            state: FxHashMap::default(),
            queue_capacity,
            known_dsts: vec![],
            scratch_dsts: vec![],
            rr_cursor: 0,
            app_pushback_events: 0,
            pause_events: 0,
            resume_events: 0,
            block_events: 0,
        }
    }

    /// Enqueue an application segment toward `dst`. `Err` is the socket
    /// pushing back on the application (queue full) — the caller should
    /// retry after draining.
    pub fn send(&mut self, dst: NodeId, seg: Segment) -> Result<(), Segment> {
        let cap = self.queue_capacity;
        let q = self.queues.entry(dst).or_insert_with(|| {
            // First segment toward this destination: register it in the
            // sorted scan list.
            ByteQueue::new(cap)
        });
        let bytes = seg.bytes;
        let res = q.push(bytes, seg).inspect_err(|_s| {
            self.app_pushback_events += 1;
        });
        if let Err(pos) = self.known_dsts.binary_search(&dst) {
            self.known_dsts.insert(pos, dst);
        }
        res
    }

    /// Whether a segment of `bytes` toward `dst` would be accepted.
    pub fn would_accept(&self, dst: NodeId, bytes: u32) -> bool {
        self.queues
            .get(&dst)
            .map(|q| q.would_fit(bytes))
            .unwrap_or(bytes as u64 <= self.queue_capacity)
    }

    /// Flow pausing: hold all traffic toward `dst` (until [`Self::resume`]).
    /// Returns whether this was a running → paused transition.
    pub fn pause(&mut self, dst: NodeId) -> bool {
        let s = self.state.entry(dst).or_default();
        let transition = !s.paused;
        s.paused = true;
        self.pause_events += transition as u64;
        transition
    }

    /// Release a flow-pausing hold. Returns whether this was a
    /// paused → running transition.
    pub fn resume(&mut self, dst: NodeId) -> bool {
        let s = self.state.entry(dst).or_default();
        let transition = s.paused;
        s.paused = false;
        self.resume_events += transition as u64;
        transition
    }

    /// Push-back: embargo `dst` until `deadline`.
    pub fn block_until(&mut self, dst: NodeId, deadline: SimTime) {
        let s = self.state.entry(dst).or_default();
        if deadline > s.blocked_until {
            s.blocked_until = deadline;
            self.block_events += 1;
        }
    }

    /// Whether `dst` may be drained at `now`.
    pub fn sendable(&self, dst: NodeId, now: SimTime) -> bool {
        match self.state.get(&dst) {
            Some(s) => !s.paused && now >= s.blocked_until,
            None => true,
        }
    }

    /// Pop the next segment to transmit, round-robin across sendable
    /// destinations. Returns the destination node alongside the segment.
    pub fn pop_next(&mut self, now: SimTime) -> Option<(NodeId, Segment)> {
        // Rebuild the non-empty destination list from the presorted known
        // set (deterministic order, no per-packet allocation or sort).
        let mut dsts = std::mem::take(&mut self.scratch_dsts);
        dsts.clear();
        dsts.extend(
            self.known_dsts.iter().filter(|d| self.queues.get(d).is_some_and(|q| !q.is_empty())),
        );
        if dsts.is_empty() {
            self.scratch_dsts = dsts;
            return None;
        }
        let n = dsts.len();
        let mut found = None;
        for i in 0..n {
            let dst = dsts[(self.rr_cursor + i) % n];
            if !self.sendable(dst, now) {
                continue;
            }
            if let Some((_, seg)) = self.queues.get_mut(&dst).and_then(|q| q.pop()) {
                self.rr_cursor = (self.rr_cursor + i + 1) % n.max(1);
                found = Some((dst, seg));
                break;
            }
        }
        self.scratch_dsts = dsts;
        found
    }

    /// Total queued bytes across destinations.
    pub fn total_queued(&self) -> u64 {
        self.queues.values().map(|q| q.bytes()).sum()
    }

    /// Per-destination queued bytes snapshot — the host's contribution to
    /// traffic collection (§5.2: "packets buffered in separate queues
    /// inside vma based on the destination switch").
    pub fn queue_snapshot(&self) -> Vec<(NodeId, u64)> {
        let mut v: Vec<(NodeId, u64)> = self.queues.iter().map(|(d, q)| (*d, q.bytes())).collect();
        v.sort_unstable_by_key(|(d, _)| *d);
        v
    }

    /// Whether any sendable destination has queued data at `now`.
    pub fn has_sendable(&self, now: SimTime) -> bool {
        self.queues.iter().any(|(d, q)| !q.is_empty() && self.sendable(*d, now))
    }

    /// The earliest push-back embargo expiry among destinations with queued
    /// data, if every such destination is currently blocked (for engine
    /// re-scheduling).
    pub fn next_unblock(&self, now: SimTime) -> Option<SimTime> {
        self.queues
            .iter()
            .filter(|(d, q)| {
                !q.is_empty()
                    && !self.sendable(**d, now)
                    && !self.state.get(d).map(|s| s.paused).unwrap_or(false)
            })
            .filter_map(|(d, _)| self.state.get(d).map(|s| s.blocked_until))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(flow: FlowId, bytes: u32, seq: u64) -> Segment {
        Segment { flow, dst_host: HostId(9), bytes, seq, queued_at: SimTime::ZERO }
    }

    #[test]
    fn fifo_per_destination() {
        let mut v = VmaStack::new(1_000_000);
        v.send(NodeId(1), seg(1, 100, 0)).unwrap();
        v.send(NodeId(1), seg(1, 100, 100)).unwrap();
        let (d, s) = v.pop_next(SimTime::ZERO).unwrap();
        assert_eq!(d, NodeId(1));
        assert_eq!(s.seq, 0);
        let (_, s2) = v.pop_next(SimTime::ZERO).unwrap();
        assert_eq!(s2.seq, 100);
        assert!(v.pop_next(SimTime::ZERO).is_none());
    }

    #[test]
    fn round_robin_across_destinations() {
        let mut v = VmaStack::new(1_000_000);
        for i in 0..3 {
            v.send(NodeId(1), seg(1, 100, i * 100)).unwrap();
            v.send(NodeId(2), seg(2, 100, i * 100)).unwrap();
        }
        let mut order = vec![];
        while let Some((d, _)) = v.pop_next(SimTime::ZERO) {
            order.push(d.0);
        }
        // Alternates between the two destinations.
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn pause_gates_draining_but_not_queueing() {
        let mut v = VmaStack::new(1_000_000);
        v.pause(NodeId(1));
        v.send(NodeId(1), seg(1, 100, 0)).unwrap();
        assert!(v.pop_next(SimTime::ZERO).is_none());
        v.resume(NodeId(1));
        assert!(v.pop_next(SimTime::ZERO).is_some());
    }

    #[test]
    fn pause_resume_churn_counts_transitions_only() {
        let mut v = VmaStack::new(1_000_000);
        assert!(v.pause(NodeId(1)));
        assert!(!v.pause(NodeId(1)), "already paused: not a transition");
        assert!(v.resume(NodeId(1)));
        assert!(!v.resume(NodeId(1)));
        assert_eq!((v.pause_events, v.resume_events), (1, 1));
        v.block_until(NodeId(2), SimTime::from_us(10));
        v.block_until(NodeId(2), SimTime::from_us(5)); // not an extension
        v.block_until(NodeId(2), SimTime::from_us(20));
        assert_eq!(v.block_events, 2);
    }

    #[test]
    fn pushback_block_expires() {
        let mut v = VmaStack::new(1_000_000);
        v.send(NodeId(1), seg(1, 100, 0)).unwrap();
        v.block_until(NodeId(1), SimTime::from_us(10));
        assert!(v.pop_next(SimTime::from_us(5)).is_none());
        assert_eq!(v.next_unblock(SimTime::from_us(5)), Some(SimTime::from_us(10)));
        assert!(v.pop_next(SimTime::from_us(10)).is_some());
    }

    #[test]
    fn block_never_shrinks() {
        let mut v = VmaStack::new(1_000_000);
        v.block_until(NodeId(1), SimTime::from_us(10));
        v.block_until(NodeId(1), SimTime::from_us(5));
        assert!(!v.sendable(NodeId(1), SimTime::from_us(7)));
        assert!(v.sendable(NodeId(1), SimTime::from_us(10)));
    }

    #[test]
    fn application_pushback_on_full_queue() {
        let mut v = VmaStack::new(250);
        v.send(NodeId(1), seg(1, 200, 0)).unwrap();
        assert!(!v.would_accept(NodeId(1), 100));
        let rejected = v.send(NodeId(1), seg(1, 100, 200));
        assert!(rejected.is_err());
        assert_eq!(v.app_pushback_events, 1);
        // Draining reopens the socket.
        v.pop_next(SimTime::ZERO);
        assert!(v.would_accept(NodeId(1), 100));
    }

    #[test]
    fn paused_destination_does_not_starve_others() {
        let mut v = VmaStack::new(1_000_000);
        v.send(NodeId(1), seg(1, 100, 0)).unwrap();
        v.send(NodeId(2), seg(2, 100, 0)).unwrap();
        v.pause(NodeId(1));
        let (d, _) = v.pop_next(SimTime::ZERO).unwrap();
        assert_eq!(d, NodeId(2));
        assert!(!v.has_sendable(SimTime::ZERO));
        assert_eq!(v.total_queued(), 100);
    }

    #[test]
    fn snapshot_reports_per_destination() {
        let mut v = VmaStack::new(1_000_000);
        v.send(NodeId(2), seg(1, 300, 0)).unwrap();
        v.send(NodeId(1), seg(2, 100, 0)).unwrap();
        assert_eq!(v.queue_snapshot(), vec![(NodeId(1), 100), (NodeId(2), 300)]);
    }
}
