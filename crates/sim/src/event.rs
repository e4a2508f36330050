//! Deterministic pending-event queue.
//!
//! A bucketed **calendar queue** keyed by `(time, sequence)`. The sequence
//! number breaks ties between events scheduled for the same instant in
//! insertion order, which makes runs bit-for-bit reproducible regardless of
//! queue internals — the exact contract the previous `BinaryHeap`
//! implementation had, now at amortized O(1) schedule/pop for the dense
//! near-future event mix a slice-rotating simulator produces.
//!
//! # Structure
//!
//! Time is divided into fixed buckets of 2^`BUCKET_BITS` ns, and a ring of
//! `NUM_BUCKETS` buckets covers the *near window* (~4 ms) starting at the
//! queue's current position. Every event in that window is stored exactly
//! once, in a node of one `slab` — `(time, seq)`, the event, and the index
//! of the next node of whatever list it is on — and freed nodes are reused
//! through a LIFO free list threaded through the same `next` field, so in
//! steady state the queue neither allocates nor moves an event between
//! being scheduled and being popped. Two tables of `u32` list heads index
//! the slab:
//!
//! * `heads` — one per ring bucket (16 KB in all): an unordered list a
//!   schedule pushes onto the front of.
//! * `fine` — the one bucket the cursor is on, split into `FINE_SLOTS`
//!   slots of 16 ns, each an ascending `(time, seq)` list, with one
//!   occupancy bit per slot. When the cursor reaches a bucket its `heads`
//!   list is distributed over the slots; from then on a schedule into that
//!   bucket is a sorted link into its slot (one to three nodes long in the
//!   engine's event mix; appending behind the slot's tail, which is where a
//!   schedule at or after everything pending lands, takes no walk), and a
//!   pop is the lowest set bit, an unlink and a free.
//!
//! Three auxiliary structures keep arbitrary schedules correct:
//!
//! * `overlay` — a small binary heap for events that land in a bucket
//!   *behind* the cursor; `pop` takes the smaller of the first occupied
//!   slot's head and the overlay's head.
//! * `far` — a binary heap for events beyond the near window (sparse
//!   watchdogs, RTO polls). When the window empties, the queue jumps its
//!   base directly to the earliest far event and redistributes the now-near
//!   events into the ring, so pathological sparse distributions degrade to
//!   plain heap behavior (O(log n)) instead of scanning empty buckets.
//! * `near_len` — lets the cursor skip the empty-bucket scan entirely when
//!   the ring holds nothing.
//!
//! Events at equal timestamps are delivered in the order they were scheduled
//! (FIFO), which is the property that makes the whole simulation
//! deterministic under a fixed seed.
//! ```
//! use openoptics_sim::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_us(3), "late");
//! q.schedule(SimTime::from_us(1), "early");
//! assert_eq!(q.pop(), Some((SimTime::from_us(1), "early")));
//! assert_eq!(q.pop(), Some((SimTime::from_us(3), "late")));
//! ```

use crate::cast::{idx_u32, to_usize};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the bucket width in ns (1024 ns ≈ one EQO interval batch; a few
/// packet serializations at 100 Gbps).
const BUCKET_BITS: u32 = 10;
/// Ring size; together with [`BUCKET_BITS`] the near window spans ~4.2 ms,
/// comfortably covering slice rotations (µs–100 µs scale) while keeping the
/// 10 ms watchdog timers in the far heap.
const NUM_BUCKETS: usize = 4096;
/// log2 of the slots the cursor's bucket is split into: one occupancy bit
/// each in a `u64`, 16 ns of a 1024 ns bucket per slot.
const FINE_BITS: u32 = 6;
const FINE_SLOTS: usize = 1 << FINE_BITS;
/// "No node": the end of a list, an empty bucket, an empty free list.
const NIL: u32 = u32::MAX;

/// A heap entry: the far and overlay heaps hold their events by value.
#[derive(Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other.key().cmp(&self.key())
    }
}

/// A slab slot: one near-window event and its place on a list. A node on
/// the free list keeps the stale event it last held, which nothing reads:
/// an event moves in and out of its node as a plain copy, with no tag to
/// write or check beside it.
#[derive(Clone)]
struct Node<E> {
    time: SimTime,
    seq: u64,
    /// The next node of the bucket, slot or free list this one is on.
    next: u32,
    event: E,
}

impl<E> Node<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A time-ordered queue of pending events.
///
/// Events at equal timestamps are delivered in the order they were scheduled
/// (FIFO). See the module docs for the calendar structure.
///
/// Cloning copies the entire pending set (slab, list heads, overlay, far
/// heap, and every sequence counter), so a cloned queue replays the exact
/// same delivery order as the original — the property checkpoint forks rely
/// on.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Every near-window event, live or freed; all `u32`s below index it.
    slab: Vec<Node<E>>,
    /// Head of the LIFO list of freed nodes.
    free: u32,
    /// Nodes on the free list; only read by the `strict-invariants` check.
    free_len: usize,
    /// The near-window ring; slot `b % NUM_BUCKETS` heads the unordered list
    /// of absolute bucket `b`. The cursor's own slot is always empty: that
    /// bucket lives in `fine`.
    heads: Vec<u32>,
    /// Bucket `cur` by 16 ns slot: head and tail of each slot's ascending
    /// `(time, seq)` list, meaningful where the slot's `occupied` bit is set.
    fine: [u32; FINE_SLOTS],
    fine_tail: [u32; FINE_SLOTS],
    occupied: u64,
    /// First absolute bucket of the near window.
    base: u64,
    /// Absolute bucket the cursor is on (`base <= cur < base + NUM_BUCKETS`).
    cur: u64,
    /// Events scheduled into a bucket behind the cursor (min-heap via the
    /// inverted `Entry` ordering).
    overlay: BinaryHeap<Entry<E>>,
    /// Events beyond the near window (min-heap).
    far: BinaryHeap<Entry<E>>,
    /// Events currently stored in the slab (excluding overlay/far).
    near_len: usize,
    /// Total pending events.
    len: usize,
    next_seq: u64,
    scheduled_total: u64,
    popped_total: u64,
    far_scheduled: u64,
    overlay_scheduled: u64,
    peak_len: usize,
    /// Key of the most recently popped event; only read by the
    /// `strict-invariants` monotonicity check.
    last_popped: Option<(SimTime, u64)>,
}

/// Point-in-time statistics of an [`EventQueue`], for telemetry mirroring.
/// Plain data so the sim crate stays dependency-free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events currently pending.
    pub len: usize,
    /// Largest number of simultaneously pending events seen.
    pub peak_len: usize,
    /// Events ever scheduled.
    pub scheduled_total: u64,
    /// Events ever popped.
    pub popped_total: u64,
    /// Events that landed in the far heap (beyond the near window).
    pub far_scheduled: u64,
    /// Events that landed in the overlay heap (at/behind the drain point).
    pub overlay_scheduled: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_of(time: SimTime) -> u64 {
    time.as_ns() >> BUCKET_BITS
}

#[inline]
fn ring_slot(bucket: u64) -> usize {
    to_usize(bucket % NUM_BUCKETS as u64)
}

#[inline]
fn fine_slot(time: SimTime) -> usize {
    ((time.as_ns() >> (BUCKET_BITS - FINE_BITS)) % FINE_SLOTS as u64) as usize
}

impl<E: Copy> EventQueue<E> {
    /// Bytes one pending near-window event occupies: its `(time, seq)` key,
    /// its list link and the payload. It is written once when scheduled and
    /// read once when popped; the ring's memory is
    /// [`slab_nodes`](Self::slab_nodes) times this.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Node<E>>();

    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            free_len: 0,
            heads: vec![NIL; NUM_BUCKETS],
            fine: [NIL; FINE_SLOTS],
            fine_tail: [NIL; FINE_SLOTS],
            occupied: 0,
            base: 0,
            cur: 0,
            overlay: BinaryHeap::new(),
            far: BinaryHeap::new(),
            near_len: 0,
            len: 0,
            next_seq: 0,
            scheduled_total: 0,
            popped_total: 0,
            far_scheduled: 0,
            overlay_scheduled: 0,
            peak_len: 0,
            last_popped: None,
        }
    }

    /// Schedule `event` to fire at absolute instant `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        if cfg!(feature = "strict-invariants") {
            // The overlay deliberately admits entries at or behind the drain
            // point (the kick-port pattern); rewind the monotonicity
            // watermark past such entries so only genuine reordering of
            // already-pending events trips the pop-side check.
            if let Some(last) = self.last_popped {
                if (time, seq) < last {
                    self.last_popped = Some((time, seq.saturating_sub(1)));
                }
            }
        }
        let b = bucket_of(time);
        if b >= self.base + NUM_BUCKETS as u64 {
            self.far_scheduled += 1;
            self.far.push(Entry { time, seq, event });
        } else if b < self.cur {
            // Before the drain point: merge via the overlay so already-popped
            // positions are never revisited.
            self.overlay_scheduled += 1;
            self.overlay.push(Entry { time, seq, event });
        } else {
            self.link_near(time, seq, event);
        }
    }

    /// Schedule `event` to fire `delay_ns` after `now`.
    pub fn schedule_after(&mut self, now: SimTime, delay_ns: u64, event: E) {
        self.schedule(now + delay_ns, event);
    }

    /// Store a near-window event (`cur <= bucket < base + NUM_BUCKETS`) in a
    /// recycled or new node and link it: sorted into its slot if the cursor
    /// is on its bucket, onto the front of its bucket's list otherwise.
    fn link_near(&mut self, time: SimTime, seq: u64, event: E) {
        let node = Node { time, seq, next: NIL, event };
        let idx = match self.free {
            NIL => {
                let idx = idx_u32(self.slab.len());
                assert!(idx != NIL, "event queue slab outgrew its u32 indices");
                self.slab.push(node);
                idx
            }
            idx => {
                let slot = &mut self.slab[idx as usize];
                self.free = slot.next;
                self.free_len -= 1;
                *slot = node;
                idx
            }
        };
        self.near_len += 1;
        let b = bucket_of(time);
        if b == self.cur {
            self.link_fine(idx, (time, seq));
        } else {
            let head = &mut self.heads[ring_slot(b)];
            self.slab[idx as usize].next = *head;
            *head = idx;
        }
    }

    /// Link node `idx`, whose key is `key` and whose bucket is `cur`, into
    /// its slot's ascending list.
    fn link_fine(&mut self, idx: u32, key: (SimTime, u64)) {
        let s = fine_slot(key.0);
        let bit = 1u64 << s;
        if self.occupied & bit == 0 {
            self.occupied |= bit;
            self.slab[idx as usize].next = NIL;
            self.fine[s] = idx;
            self.fine_tail[s] = idx;
            return;
        }
        let tail = self.fine_tail[s];
        if self.slab[tail as usize].key() < key {
            // Where a schedule at or after everything in the slot lands —
            // any number of kicks at `now` append without a walk.
            self.slab[idx as usize].next = NIL;
            self.slab[tail as usize].next = idx;
            self.fine_tail[s] = idx;
            return;
        }
        // Before the tail, so the walk ends inside the list.
        let (mut prev, mut at) = (NIL, self.fine[s]);
        while self.slab[at as usize].key() < key {
            (prev, at) = (at, self.slab[at as usize].next);
        }
        self.slab[idx as usize].next = at;
        if prev == NIL {
            self.fine[s] = idx;
        } else {
            self.slab[prev as usize].next = idx;
        }
    }

    /// Move every far-heap event that now falls inside the near window
    /// (`base .. base + NUM_BUCKETS`) into the ring.
    fn refill_from_far(&mut self) {
        let horizon = self.base + NUM_BUCKETS as u64;
        while let Some(e) = self.far.peek() {
            if bucket_of(e.time) >= horizon {
                break;
            }
            let Entry { time, seq, event } = self.far.pop().expect("peeked entry vanished");
            self.link_near(time, seq, event);
        }
    }

    /// Advance the cursor to the bucket holding the earliest pending event.
    /// After this, the global minimum is the smaller of the first occupied
    /// slot's head and the overlay's head. The caller has checked `len > 0`.
    fn ensure_current(&mut self) {
        while self.occupied == 0 && self.overlay.is_empty() {
            if self.near_len == 0 {
                // Everything pending lives in the far heap: jump the window
                // straight to it instead of walking empty buckets.
                let t = self.far.peek().expect("len > 0 but queue empty").time;
                self.base = bucket_of(t);
                self.cur = self.base;
                self.refill_from_far();
                continue;
            }
            // Walk to the next bucket. Every ring event sits in a bucket from
            // `cur` to the window's end, so the walk stops inside the window:
            // `base` moves only by the jump above.
            self.cur += 1;
            debug_assert!(self.cur < self.base + NUM_BUCKETS as u64);
            // Open it: distribute its list over the slots.
            let mut idx = std::mem::replace(&mut self.heads[ring_slot(self.cur)], NIL);
            while idx != NIL {
                let node = &self.slab[idx as usize];
                let (next, key) = (node.next, node.key());
                self.link_fine(idx, key);
                idx = next;
            }
        }
    }

    /// Key of the earliest pending event, and whether the ring rather than
    /// the overlay holds it. Call after [`ensure_current`](Self::ensure_current).
    fn head(&self) -> ((SimTime, u64), bool) {
        let near = (self.occupied != 0)
            .then(|| self.slab[self.fine[self.occupied.trailing_zeros() as usize] as usize].key());
        match (near, self.overlay.peek().map(Entry::key)) {
            (Some(n), Some(o)) => (n.min(o), n < o),
            (Some(n), None) => (n, true),
            (None, Some(o)) => (o, false),
            (None, None) => unreachable!("ensure_current found no event"),
        }
    }

    /// Remove and return the earliest event, with its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime::MAX)
    }

    /// Remove and return the earliest event if it fires at or before
    /// `until`; leave the queue untouched otherwise.
    ///
    /// This is the batched-drain primitive: a window-bounded run loop calls
    /// it in place of the `peek_time` + `pop` pair, halving the
    /// cursor-advance (`ensure_current`) work per delivered event — the
    /// dominant fixed cost of the hot loop once handlers are cheap.
    pub fn pop_before(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        self.ensure_current();
        let ((time, seq), near) = self.head();
        if time > until {
            return None;
        }
        let event = if near {
            let s = self.occupied.trailing_zeros() as usize;
            let idx = self.fine[s];
            let node = &mut self.slab[idx as usize];
            self.fine[s] = node.next;
            if node.next == NIL {
                self.occupied &= !(1u64 << s);
            }
            node.next = self.free;
            self.free = idx;
            self.free_len += 1;
            self.near_len -= 1;
            node.event
        } else {
            let Some(e) = self.overlay.pop() else { unreachable!("event queue head vanished") };
            e.event
        };
        self.len -= 1;
        self.popped_total += 1;
        if cfg!(feature = "strict-invariants") {
            assert_eq!(
                self.near_len + self.overlay.len() + self.far.len(),
                self.len,
                "event queue occupancy leak: near + overlay + far != pending"
            );
            assert_eq!(
                self.scheduled_total - self.popped_total,
                self.len as u64,
                "event queue conservation: scheduled - popped != pending"
            );
            assert_eq!(
                self.slab.len() - self.free_len,
                self.near_len,
                "event queue slab leak: nodes - freed != near"
            );
            if let Some(last) = self.last_popped {
                assert!(
                    (time, seq) > last,
                    "event queue delivered (time, seq) keys out of order: \
                     {:?} after {:?}",
                    (time, seq),
                    last,
                );
            }
            self.last_popped = Some((time, seq));
        }
        Some((time, event))
    }

    /// Test hook: pretend an event with the given `(time, seq)` key was
    /// already delivered, so a test can prove the monotonicity check trips.
    #[cfg(feature = "strict-invariants")]
    pub fn force_last_popped_for_test(&mut self, time: SimTime, seq: u64) {
        self.last_popped = Some((time, seq));
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        self.ensure_current();
        Some(self.head().0 .0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Nodes the slab holds, pending or free — the ring's memory in units of
    /// [`ENTRY_BYTES`](Self::ENTRY_BYTES). A node is only added when every
    /// other holds a pending event, so this never exceeds
    /// [`QueueStats::peak_len`].
    pub fn slab_nodes(&self) -> usize {
        self.slab.len()
    }

    /// Statistics for telemetry mirroring.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            len: self.len,
            peak_len: self.peak_len,
            scheduled_total: self.scheduled_total,
            popped_total: self.popped_total,
            far_scheduled: self.far_scheduled,
            overlay_scheduled: self.overlay_scheduled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ns(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_and_times() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(5), 0);
        q.schedule(SimTime::from_ns(1), 1);
        q.schedule(SimTime::from_ns(5), 2);
        q.schedule(SimTime::from_ns(1), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn schedule_after_offsets() {
        let mut q = EventQueue::new();
        q.schedule_after(SimTime::from_ns(100), 50, ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(150)));
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn stats_track_structure_usage() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(2_000), 0); // near
        q.schedule(SimTime::from_secs(1), 1); // far
        assert_eq!(q.pop(), Some((SimTime::from_ns(2_000), 0)));
        // An earlier *bucket* than the drain point -> overlay (a same-bucket
        // arrival would be linked into its slot of the cursor's bucket).
        q.schedule(SimTime::from_ns(500), 2);
        let s = q.stats();
        assert_eq!(s.scheduled_total, 3);
        assert_eq!(s.popped_total, 1);
        assert_eq!(s.far_scheduled, 1);
        assert_eq!(s.overlay_scheduled, 1);
        assert_eq!(s.len, 2);
        assert_eq!(s.peak_len, 2);
    }

    #[test]
    fn far_future_events_cross_windows() {
        let mut q = EventQueue::new();
        // One event per ~10 ms over a second: every pop crosses the near
        // window and exercises the far-heap jump.
        for i in (0..100u64).rev() {
            q.schedule(SimTime::from_ns(i * 10_000_000 + 1), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn insert_at_current_time_during_drain() {
        // The kick-port pattern: while draining events at time T, new events
        // at T keep being scheduled; FIFO among them must hold.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(1_000), 0);
        q.schedule(SimTime::from_ns(1_000), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ns(1_000), 0)));
        q.schedule(SimTime::from_ns(1_000), 2); // the cursor's bucket: behind 1
        q.schedule(SimTime::from_ns(999), 3); // "past" relative to drain point
        assert_eq!(q.pop(), Some((SimTime::from_ns(999), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(1_000), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(1_000), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_schedule_behind_an_advanced_cursor_takes_the_overlay_and_pops_first() {
        // The overlay heap's only customer. Inside a run nothing schedules
        // behind the cursor; between runs a caller can: a `pop_before` that
        // stops short of the next event has already walked the cursor to
        // that event's bucket, and `now` is buckets behind it.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(500), "next");
        let now = SimTime::from_us(100);
        assert_eq!(q.pop_before(now), None);
        assert_eq!(q.len(), 1);
        q.schedule(now, "added at now");
        q.schedule(SimTime::from_us(499), "also behind");
        assert_eq!(q.stats().overlay_scheduled, 2);
        assert_eq!(q.peek_time(), Some(now));
        assert_eq!(q.pop(), Some((now, "added at now")));
        assert_eq!(q.pop(), Some((SimTime::from_us(499), "also behind")));
        assert_eq!(q.pop(), Some((SimTime::from_us(500), "next")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn many_kicks_at_one_instant_stay_fifo_around_earlier_and_later_arrivals() {
        // One 16 ns slot of the cursor's bucket taking appends (the tail
        // path), an arrival before everything in it and one in its middle.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5_000);
        q.schedule(t, 0);
        assert_eq!(q.pop(), Some((t, 0)));
        for i in 1..=50 {
            q.schedule(t + 2, i);
        }
        q.schedule(t + 1, 51);
        q.schedule(t + 3, 52);
        q.schedule(t + 2, 53);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let mut expect = vec![(t + 1, 51)];
        expect.extend((1..=50).map(|i| (t + 2, i)));
        expect.extend([(t + 2, 53), (t + 3, 52)]);
        assert_eq!(order, expect);
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        q.schedule(SimTime::from_ns(30), "c");
        assert_eq!(q.pop_before(SimTime::from_ns(20)), Some((SimTime::from_ns(10), "a")));
        assert_eq!(q.pop_before(SimTime::from_ns(20)), Some((SimTime::from_ns(20), "b")));
        // "c" fires after the horizon: untouched, still pending.
        assert_eq!(q.pop_before(SimTime::from_ns(20)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(SimTime::from_ns(30)), Some((SimTime::from_ns(30), "c")));
        assert_eq!(q.pop_before(SimTime::from_ns(30)), None);
    }

    #[test]
    fn pop_before_matches_peek_pop_under_churn() {
        // The fused primitive must deliver exactly what peek+pop would.
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for i in 0..2_000u64 {
            let t = SimTime::from_ns(i * 37 % 9_001);
            a.schedule(t, i);
            b.schedule(t, i);
        }
        let horizon = SimTime::from_ns(5_000);
        loop {
            let via_fused = a.pop_before(horizon);
            let via_pair = match b.peek_time() {
                Some(t) if t <= horizon => b.pop(),
                _ => None,
            };
            assert_eq!(via_fused, via_pair);
            if via_fused.is_none() {
                break;
            }
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn dense_then_sparse_mix() {
        let mut q = EventQueue::new();
        let mut expect = vec![];
        // Dense burst in the first window, then sparse watchdog-like tail.
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_ns(i * 7 % 5_000), i);
            expect.push((i * 7 % 5_000, i));
        }
        for i in 0..20u64 {
            q.schedule(SimTime::from_ns(10_000_000 * (i + 1)), 1_000 + i);
            expect.push((10_000_000 * (i + 1), 1_000 + i));
        }
        expect.sort_by_key(|&(t, i)| (t, i));
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.as_ns(), e)).collect();
        assert_eq!(got, expect);
    }
}
