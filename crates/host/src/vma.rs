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
//!
//! The stack indexes its destinations densely by node id and keeps, beside
//! them, the ascending list of the ones with queued segments. Transmit-side
//! questions — what to send next, whether anything is sendable, when an
//! embargo lifts — walk that list, so they cost what is queued rather than
//! the size of the fabric (107 destinations per host at 108 ToRs).

use openoptics_proto::{FlowId, HostId, NodeId};
use openoptics_sim::idx_u32;
use openoptics_sim::ByteQueue;
use openoptics_sim::SimTime;

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

/// Everything the stack keeps about one destination node.
#[derive(Clone, Debug)]
struct Dst {
    /// The segment queue (the socket buffer toward this destination).
    queue: ByteQueue<Segment>,
    /// Flow-pausing gate: destination held until explicitly resumed.
    paused: bool,
    /// Push-back embargo deadline (send allowed at or after this instant).
    blocked_until: SimTime,
}

impl Dst {
    fn sendable(&self, now: SimTime) -> bool {
        !self.paused && now >= self.blocked_until
    }
}

/// The host's user-space send stack: one segment queue per destination
/// endpoint node (ToR).
#[derive(Clone, Debug)]
pub struct VmaStack {
    /// Indexed by destination node id, grown on first use; an entry nobody
    /// has touched yet is an empty, unpaused, unblocked queue, which is
    /// also what a destination past the end of the table is.
    dsts: Vec<Dst>,
    /// Ids of the destinations whose queue is non-empty, ascending: an id
    /// enters when `send` fills an empty queue and leaves when `pop_next`
    /// empties it.
    busy: Vec<u32>,
    queue_capacity: u64,
    /// Round-robin cursor over `busy`, for fair draining.
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
            dsts: vec![],
            busy: vec![],
            queue_capacity,
            rr_cursor: 0,
            app_pushback_events: 0,
            pause_events: 0,
            resume_events: 0,
            block_events: 0,
        }
    }

    /// The entry for `dst`, growing the table up to it on first use.
    fn dst_mut(&mut self, dst: NodeId) -> &mut Dst {
        if dst.index() >= self.dsts.len() {
            let fresh = Dst {
                queue: ByteQueue::new(self.queue_capacity),
                paused: false,
                blocked_until: SimTime::ZERO,
            };
            self.dsts.resize(dst.index() + 1, fresh);
        }
        &mut self.dsts[dst.index()]
    }

    /// Enqueue an application segment toward `dst`. `Err` is the socket
    /// pushing back on the application (queue full) — the caller should
    /// retry after draining.
    pub fn send(&mut self, dst: NodeId, seg: Segment) -> Result<(), Segment> {
        let queue = &mut self.dst_mut(dst).queue;
        let was_empty = queue.is_empty();
        let res = queue.push(seg.bytes, seg);
        self.app_pushback_events += u64::from(res.is_err());
        if was_empty && res.is_ok() {
            let id = idx_u32(dst.index());
            self.busy.insert(self.busy.partition_point(|&b| b < id), id);
        }
        res
    }

    /// Whether a segment of `bytes` toward `dst` would be accepted.
    pub fn would_accept(&self, dst: NodeId, bytes: u32) -> bool {
        match self.dsts.get(dst.index()) {
            Some(d) => d.queue.would_fit(bytes),
            None => bytes as u64 <= self.queue_capacity,
        }
    }

    /// Flow pausing: hold all traffic toward `dst` (until [`Self::resume`]).
    /// Returns whether this was a running → paused transition.
    pub fn pause(&mut self, dst: NodeId) -> bool {
        let d = self.dst_mut(dst);
        let transition = !d.paused;
        d.paused = true;
        self.pause_events += transition as u64;
        transition
    }

    /// Release a flow-pausing hold. Returns whether this was a
    /// paused → running transition.
    pub fn resume(&mut self, dst: NodeId) -> bool {
        let d = self.dst_mut(dst);
        let transition = d.paused;
        d.paused = false;
        self.resume_events += transition as u64;
        transition
    }

    /// Push-back: embargo `dst` until `deadline`.
    pub fn block_until(&mut self, dst: NodeId, deadline: SimTime) {
        let d = self.dst_mut(dst);
        if deadline > d.blocked_until {
            d.blocked_until = deadline;
            self.block_events += 1;
        }
    }

    /// Pop the next segment to transmit, round-robin across sendable
    /// destinations. Returns the destination node alongside the segment.
    ///
    /// The round runs over the *non-empty* destinations in ascending node
    /// order, starting at the cursor taken modulo their count, and the
    /// cursor moves one past the destination served.
    pub fn pop_next(&mut self, now: SimTime) -> Option<(NodeId, Segment)> {
        let n = self.busy.len();
        if n == 0 {
            return None;
        }
        let start = self.rr_cursor % n;
        let (served, &at) = self.busy[start..]
            .iter()
            .chain(&self.busy[..start])
            .enumerate()
            .find(|&(_, &at)| self.dsts[at as usize].sendable(now))?;
        let queue = &mut self.dsts[at as usize].queue;
        let (_, seg) = queue.pop()?;
        if queue.is_empty() {
            self.busy.remove((start + served) % n);
        }
        self.rr_cursor = (start + served + 1) % n;
        Some((NodeId(at), seg))
    }

    /// Total queued bytes across destinations.
    pub fn total_queued(&self) -> u64 {
        self.busy_dsts().map(|d| d.queue.bytes()).sum()
    }

    /// Per-destination queued bytes snapshot, in ascending node order — the
    /// host's contribution to traffic collection (§5.2: "packets buffered
    /// in separate queues inside vma based on the destination switch").
    pub fn queue_snapshot(&self) -> Vec<(NodeId, u64)> {
        let queued = self.busy.iter().map(|&at| (NodeId(at), self.dsts[at as usize].queue.bytes()));
        queued.filter(|&(_, bytes)| bytes > 0).collect()
    }

    /// Whether any sendable destination has queued data at `now`.
    pub fn has_sendable(&self, now: SimTime) -> bool {
        self.busy_dsts().any(|d| d.sendable(now))
    }

    /// The earliest push-back embargo expiry among destinations with queued
    /// data that only an embargo holds back (for engine re-scheduling).
    pub fn next_unblock(&self, now: SimTime) -> Option<SimTime> {
        self.busy_dsts()
            .filter(|d| !d.paused && now < d.blocked_until)
            .map(|d| d.blocked_until)
            .min()
    }

    /// The destinations with queued segments, ascending.
    fn busy_dsts(&self) -> impl Iterator<Item = &Dst> {
        self.busy.iter().map(|&at| &self.dsts[at as usize])
    }

    /// `strict-invariants`: the busy list is exactly the destinations with
    /// queued segments, in ascending order.
    pub fn assert_busy_list(&self) {
        let non_empty = self.dsts.iter().enumerate().filter(|(_, d)| !d.queue.is_empty());
        assert!(
            self.busy.iter().copied().eq(non_empty.map(|(at, _)| idx_u32(at))),
            "vma busy list {:?} != non-empty destinations",
            self.busy,
        );
    }
}

/// The full-scan transmit path the busy list replaced, code verbatim: every
/// destination visited on every call. The oracle `pop_next`, `has_sendable`
/// and `next_unblock` must equal on pops, cursor and answers.
#[cfg(test)]
impl VmaStack {
    fn pop_next_reference(&mut self, now: SimTime) -> Option<(NodeId, Segment)> {
        let n = self.dsts.iter().filter(|d| !d.queue.is_empty()).count();
        if n == 0 {
            return None;
        }
        let start = self.rr_cursor % n;
        let busy = self.dsts.iter().enumerate().filter(|(_, d)| !d.queue.is_empty());
        let (served, at) = busy
            .clone()
            .skip(start)
            .chain(busy.take(start))
            .enumerate()
            .find_map(|(i, (at, d))| d.sendable(now).then_some((i, at)))?;
        let (_, seg) = self.dsts[at].queue.pop()?;
        self.rr_cursor = (start + served + 1) % n;
        Some((NodeId(idx_u32(at)), seg))
    }

    fn has_sendable_reference(&self, now: SimTime) -> bool {
        self.dsts.iter().any(|d| !d.queue.is_empty() && d.sendable(now))
    }

    fn next_unblock_reference(&self, now: SimTime) -> Option<SimTime> {
        self.dsts
            .iter()
            .filter(|d| !d.queue.is_empty() && !d.paused && now < d.blocked_until)
            .map(|d| d.blocked_until)
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
        assert!(!v.dsts[1].sendable(SimTime::from_us(7)));
        assert!(v.dsts[1].sendable(SimTime::from_us(10)));
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

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Send { dst: u32, bytes: u32 },
        Pause(u32),
        Resume(u32),
        BlockUntil { dst: u32, after_ns: u64 },
        PopNext,
        Advance(u64),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        (1u32..=130).prop_flat_map(|dsts| {
            // Choice is uniform: sends and pops are listed twice, so
            // queues both fill and drain.
            let send = (0..dsts, 0u32..1_500).prop_map(|(dst, bytes)| Op::Send { dst, bytes });
            let op = prop_oneof![
                send.clone(),
                send,
                (0..dsts).prop_map(Op::Pause),
                (0..dsts).prop_map(Op::Resume),
                (0..dsts, 0u64..5_000).prop_map(|(dst, after_ns)| Op::BlockUntil { dst, after_ns }),
                Just(Op::PopNext),
                Just(Op::PopNext),
                (0u64..3_000).prop_map(Op::Advance),
            ];
            proptest::collection::vec(op, 1..300)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The busy-list transmit path against the full scan it replaced:
        /// same pops in the same order, same cursor, same answers, on every
        /// prefix of an arbitrary send / pause / block / pop sequence.
        #[test]
        fn busy_list_matches_full_scan(ops in arb_ops()) {
            // A small socket, so full queues push back too.
            let (mut fast, mut full) = (VmaStack::new(4_000), VmaStack::new(4_000));
            let mut now = SimTime::ZERO;
            for (seq, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Send { dst, bytes } => {
                        let s = Segment {
                            flow: u64::from(dst),
                            dst_host: HostId(dst),
                            bytes,
                            seq: seq as u64,
                            queued_at: now,
                        };
                        let dst = NodeId(dst);
                        prop_assert_eq!(fast.send(dst, s.clone()).is_ok(), full.send(dst, s).is_ok());
                    }
                    Op::Pause(dst) => {
                        prop_assert_eq!(fast.pause(NodeId(dst)), full.pause(NodeId(dst)));
                    }
                    Op::Resume(dst) => {
                        prop_assert_eq!(fast.resume(NodeId(dst)), full.resume(NodeId(dst)));
                    }
                    Op::BlockUntil { dst, after_ns } => {
                        fast.block_until(NodeId(dst), now + after_ns);
                        full.block_until(NodeId(dst), now + after_ns);
                    }
                    Op::PopNext => {
                        prop_assert_eq!(fast.pop_next(now), full.pop_next_reference(now));
                    }
                    Op::Advance(ns) => now += ns,
                }
                prop_assert_eq!(fast.rr_cursor, full.rr_cursor);
                prop_assert_eq!(fast.has_sendable(now), full.has_sendable_reference(now));
                prop_assert_eq!(fast.next_unblock(now), full.next_unblock_reference(now));
                // `full`'s own busy list is stale (the reference pop never
                // shrinks it), so the snapshot is checked against a scan.
                let scan = full.dsts.iter().enumerate().filter(|(_, d)| d.queue.bytes() > 0);
                let scan: Vec<_> = scan.map(|(at, d)| (NodeId(idx_u32(at)), d.queue.bytes())).collect();
                prop_assert_eq!(fast.total_queued(), scan.iter().map(|&(_, b)| b).sum::<u64>());
                prop_assert_eq!(fast.queue_snapshot(), scan);
                fast.assert_busy_list();
            }
        }
    }
}
