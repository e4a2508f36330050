//! Calendar queues (§5.1).
//!
//! Each egress port owns a ring of `N` queues. Queue `(active + rank) % N`
//! buffers packets departing `rank` slices in the future ("the rank of an
//! ingress packet is the difference between its departure time slice and
//! arrival time slice"). At every slice boundary the rotation pauses the
//! active queue and resumes the next — triggered in hardware by the on-chip
//! packet generator, here by the engine's per-node rotation event.
//!
//! The port keeps the byte total of its ring as a field, updated by its two
//! mutators (`enqueue` on success, `pop_active`), so
//! [`CalendarPort::total_bytes`] is a load rather than a sum over the ring:
//! the switch reads it after every enqueue to track its buffer high-water
//! mark, and at 32 queues per port that sum was most of admission's cost.

use openoptics_sim::bytequeue::ByteQueue;

/// A set of calendar queues for one egress port.
#[derive(Debug, Clone)]
pub struct CalendarPort<T> {
    queues: Vec<ByteQueue<T>>,
    active: usize,
    /// Bytes across the ring: the sum of every queue's `bytes()`.
    total: u64,
}

impl<T> CalendarPort<T> {
    /// `num_queues` queues of `queue_capacity` bytes each. All queues start
    /// paused except queue 0, the active one.
    pub fn new(num_queues: usize, queue_capacity: u64) -> Self {
        assert!(num_queues >= 1);
        let mut queues: Vec<ByteQueue<T>> =
            (0..num_queues).map(|_| ByteQueue::new(queue_capacity)).collect();
        for q in queues.iter_mut().skip(1) {
            q.pause();
        }
        CalendarPort { queues, active: 0, total: 0 }
    }

    /// Number of queues in the ring.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Index of the active queue.
    pub fn active_index(&self) -> usize {
        self.active
    }

    /// Ring index that rank `rank` maps to.
    pub fn index_for_rank(&self, rank: u32) -> usize {
        (self.active + rank as usize) % self.queues.len()
    }

    /// Whether a rank is representable without wrapping onto a nearer slice.
    pub fn rank_fits(&self, rank: u32) -> bool {
        (rank as usize) < self.queues.len()
    }

    /// Enqueue an item departing `rank` slices from now.
    ///
    /// Fails with `RankOverflow` when the ring is too short for the rank
    /// (the condition buffer offloading exists to solve, §5.2) and
    /// `QueueFull` when the target queue lacks capacity.
    pub fn enqueue(&mut self, rank: u32, len: u32, item: T) -> Result<usize, EnqueueError<T>> {
        if !self.rank_fits(rank) {
            return Err(EnqueueError::RankOverflow(item));
        }
        let idx = self.index_for_rank(rank);
        match self.queues[idx].push(len, item) {
            Ok(()) => {
                self.total += u64::from(len);
                Ok(idx)
            }
            Err(item) => Err(EnqueueError::QueueFull(item)),
        }
    }

    /// Rotate at a slice boundary: pause the active queue, activate the
    /// next. Leftover packets in the paused queue wait a full ring cycle —
    /// the slice-miss delay the congestion service guards against.
    pub fn rotate(&mut self) {
        self.queues[self.active].pause();
        self.active = (self.active + 1) % self.queues.len();
        self.queues[self.active].resume();
        if cfg!(feature = "strict-invariants") {
            // Exactly the active queue may be unpaused; a second live queue
            // would let packets leave out of slice order.
            for (i, q) in self.queues.iter().enumerate() {
                assert_eq!(
                    q.is_paused(),
                    i != self.active,
                    "calendar ring pause state inconsistent at queue {i} \
                     (active {})",
                    self.active,
                );
            }
        }
    }

    /// Pop the head of the active queue (respects pause — but the active
    /// queue is always resumed).
    pub fn pop_active(&mut self) -> Option<(u32, T)> {
        let (len, item) = self.queues[self.active].pop()?;
        self.total -= u64::from(len);
        Some((len, item))
    }

    /// Peek the head of the active queue without dequeuing.
    pub fn peek_active(&self) -> Option<&(u32, T)> {
        self.queues[self.active].peek()
    }

    /// Bytes in the active queue.
    pub fn active_bytes(&self) -> u64 {
        self.queues[self.active].bytes()
    }

    /// Bytes in the queue at ring index `idx`.
    pub fn queue_bytes(&self, idx: usize) -> u64 {
        self.queues[idx].bytes()
    }

    /// Items in the queue at ring index `idx`.
    pub fn queue_len(&self, idx: usize) -> usize {
        self.queues[idx].len()
    }

    /// Total buffered bytes across the ring.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }
}

/// Why an enqueue failed.
#[derive(Debug)]
pub enum EnqueueError<T> {
    /// Rank beyond the ring size (needs offloading).
    RankOverflow(T),
    /// Target queue is out of capacity.
    QueueFull(T),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_active_queue_pops() {
        let mut cp: CalendarPort<&str> = CalendarPort::new(4, 10_000);
        cp.enqueue(0, 100, "now").expect("rank fits the ring with capacity to spare");
        cp.enqueue(1, 100, "next").expect("rank fits the ring with capacity to spare");
        assert_eq!(cp.pop_active(), Some((100, "now")));
        assert_eq!(cp.pop_active(), None); // "next" is paused
        cp.rotate();
        assert_eq!(cp.pop_active(), Some((100, "next")));
    }

    #[test]
    fn rank_maps_relative_to_active() {
        let mut cp: CalendarPort<u32> = CalendarPort::new(4, 10_000);
        assert_eq!(cp.index_for_rank(2), 2);
        cp.rotate();
        assert_eq!(cp.active_index(), 1);
        assert_eq!(cp.index_for_rank(2), 3);
        assert_eq!(cp.index_for_rank(3), 0); // wraps
    }

    #[test]
    fn rank_overflow_rejected() {
        let mut cp: CalendarPort<u32> = CalendarPort::new(4, 10_000);
        assert!(matches!(cp.enqueue(4, 100, 7), Err(EnqueueError::RankOverflow(7))));
        assert_eq!(cp.total_bytes(), 0, "a rejected item is not held");
        assert!(cp.rank_fits(3));
        assert!(!cp.rank_fits(4));
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut cp: CalendarPort<u32> = CalendarPort::new(2, 250);
        cp.enqueue(0, 200, 1).expect("rank fits the ring with capacity to spare");
        assert!(matches!(cp.enqueue(0, 100, 2), Err(EnqueueError::QueueFull(2))));
        assert_eq!(cp.total_bytes(), 200, "a rejected item adds nothing to the total");
        assert!(matches!(cp.enqueue(0, 50, 3), Ok(0)), "50 bytes still fit queue 0");
        assert!(matches!(cp.enqueue(0, 1, 4), Err(EnqueueError::QueueFull(4))));
        // Other queues unaffected.
        assert!(matches!(cp.enqueue(1, 250, 5), Ok(1)), "queue 1 is empty");
        assert_eq!(cp.total_bytes(), 500);
    }

    #[test]
    fn missed_slice_waits_full_cycle() {
        let mut cp: CalendarPort<&str> = CalendarPort::new(3, 10_000);
        cp.enqueue(0, 100, "missed").expect("rank fits the ring with capacity to spare");
        // Slice ends without the packet being sent.
        cp.rotate();
        assert_eq!(cp.pop_active(), None);
        cp.rotate();
        assert_eq!(cp.pop_active(), None);
        // Full ring cycle later the queue is active again.
        cp.rotate();
        assert_eq!(cp.pop_active(), Some((100, "missed")));
    }

    #[test]
    fn totals_follow_enqueues_pops_and_rotations() {
        let mut cp: CalendarPort<u32> = CalendarPort::new(4, 10_000);
        cp.enqueue(0, 100, 1).expect("rank fits the ring with capacity to spare");
        cp.enqueue(1, 200, 2).expect("rank fits the ring with capacity to spare");
        cp.enqueue(1, 300, 3).expect("rank fits the ring with capacity to spare");
        assert_eq!(cp.total_bytes(), 600);
        assert_eq!(cp.active_bytes(), 100);
        cp.pop_active();
        assert_eq!(cp.total_bytes(), 500);
        cp.rotate();
        assert_eq!((cp.total_bytes(), cp.active_bytes()), (500, 500), "rotation moves no bytes");
        cp.pop_active();
        assert_eq!((cp.total_bytes(), cp.queue_bytes(1)), (300, 300));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Model-check the calendar against a simple reference: items enqueued
    /// at a rank pop exactly `rank` rotations later (relative to enqueue),
    /// in FIFO order within a rank, and never while their queue is paused.
    #[derive(Clone, Debug)]
    enum Op {
        Enqueue { rank: u8 },
        Rotate,
        PopAll,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u8..8).prop_map(|rank| Op::Enqueue { rank }),
                Just(Op::Rotate),
                Just(Op::PopAll),
            ],
            1..120,
        )
    }

    proptest! {
        #[test]
        fn matches_reference_model(ops in arb_ops()) {
            let queues = 8usize;
            let mut cp: CalendarPort<u64> = CalendarPort::new(queues, u64::MAX);
            // Reference: absolute slice -> FIFO of ids.
            let mut model: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
            let mut abs: u64 = 0;
            let mut next_id: u64 = 0;

            for op in ops {
                match op {
                    Op::Enqueue { rank } => {
                        let id = next_id;
                        next_id += 1;
                        cp.enqueue(u32::from(rank), 100 + u32::from(rank), id).expect("rank fits the ring with capacity to spare");
                        model.entry(abs + rank as u64).or_default().push(id);
                    }
                    Op::Rotate => {
                        // Anything still queued for the current slice waits
                        // a full ring cycle in the real calendar.
                        if let Some(leftover) = model.remove(&abs) {
                            model.entry(abs + queues as u64).or_default().extend(leftover);
                        }
                        cp.rotate();
                        abs += 1;
                    }
                    Op::PopAll => {
                        let expect = model.remove(&abs).unwrap_or_default();
                        let mut got = vec![];
                        while let Some((_, id)) = cp.pop_active() {
                            got.push(id);
                        }
                        prop_assert_eq!(got, expect, "at abs slice {}", abs);
                    }
                }
                let by_queue: u64 = (0..queues).map(|i| cp.queue_bytes(i)).sum();
                prop_assert_eq!(cp.total_bytes(), by_queue);
            }
        }
    }
}
