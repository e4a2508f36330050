//! Deterministic pending-event queue.
//!
//! A bucketed **calendar queue** keyed by `(time, sequence)`. The sequence
//! number breaks ties between events scheduled for the same instant in
//! insertion order, which makes runs bit-for-bit reproducible regardless of
//! queue internals — the exact contract of a binary heap over the same key
//! (the reference `tests/queue_equivalence.rs` checks against), at
//! amortized O(1) schedule/pop for the dense near-future event mix a
//! slice-rotating simulator produces.
//!
//! # Structure
//!
//! Time is divided into fixed buckets of 2^`BUCKET_BITS` ns, and a ring of
//! `NUM_BUCKETS` buckets covers the *near window* (~4 ms) starting at the
//! queue's current position. Every pending event is stored exactly once,
//! in a node of one `slab` — `(time, seq)`, the event, and the index of the
//! next node of whatever list it is on — and freed nodes are reused through
//! a LIFO free list threaded through the same `next` field, so in steady
//! state the queue neither allocates nor copies an event between being
//! scheduled and being popped. Four kinds of list hold the pending nodes,
//! each named by a `u32` head:
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
//! * `overlay` — one ascending `(time, seq)` list, linked like a slot, for
//!   events that land in a bucket *behind* the cursor; `pop` takes the
//!   smaller of the first occupied slot's head and the overlay's head.
//! * `far` — the nodes of events beyond the near window (watchdogs, RTO
//!   polls, short delays scheduled near the window's end), on one
//!   unordered list per *epoch* of `NUM_BUCKETS` buckets, exactly one
//!   window width; a map from each non-empty epoch to its list head orders
//!   them. When the window empties, the queue jumps its base directly to the
//!   earliest far event's bucket, found by scanning only the lowest epoch's
//!   list. The new window starts inside that epoch and is one epoch wide, so
//!   that whole list is linked into the ring, and of the next epoch, the
//!   only other one the window reaches, the part before the window's end. A
//!   far event is visited at most three times and never sifted, and a sparse
//!   distribution costs a map lookup per jump instead of a scan of empty
//!   buckets.
//!
//! `near_len` lets the cursor skip the empty-bucket scan entirely when the
//! ring holds nothing.
//!
//! Events at equal timestamps are delivered in the order they were scheduled
//! (FIFO), which is the property that makes the whole simulation
//! deterministic under a fixed seed.
//!
//! A caller may also take a sequence number now and schedule under it later
//! ([`EventQueue::reserve_seq`], [`EventQueue::schedule_reserved`]): the
//! event then fires exactly where it would have had it been scheduled at
//! reservation time. The engine uses this to leave out a link's "free"
//! event when nothing waits behind the transmission, and to schedule it
//! after all if a packet turns up before it would have fired;
//! [`EventQueue::current_key`] is what it compares against.
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
use std::collections::BTreeMap;

/// log2 of the bucket width in ns (1024 ns ≈ one EQO interval batch; a few
/// packet serializations at 100 Gbps).
const BUCKET_BITS: u32 = 10;
/// log2 of the ring size; together with [`BUCKET_BITS`] the near window
/// spans ~4.2 ms, comfortably covering slice rotations (µs–100 µs scale)
/// while sending the 10 ms watchdog timers far. A far event's epoch is its
/// bucket shifted right by this: one window width.
const WINDOW_BITS: u32 = 12;
const NUM_BUCKETS: usize = 1 << WINDOW_BITS;
/// log2 of the slots the cursor's bucket is split into: one occupancy bit
/// each in a `u64`, 16 ns of a 1024 ns bucket per slot.
const FINE_BITS: u32 = 6;
const FINE_SLOTS: usize = 1 << FINE_BITS;
/// "No node": the end of a list, an empty bucket, an empty free list.
const NIL: u32 = u32::MAX;

/// A slab slot: one pending event and its place on a list. A node on
/// the free list keeps the stale event it last held, which nothing reads:
/// an event moves in and out of its node as a plain copy, with no tag to
/// write or check beside it.
#[derive(Clone)]
struct Node<E> {
    time: SimTime,
    seq: u64,
    /// The next node of the list this one is on.
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
/// Cloning copies the entire pending set (slab, list heads, overlay, epoch
/// map, and every sequence counter), so a cloned queue replays the exact
/// same delivery order as the original — the property checkpoint forks rely
/// on.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Every pending event, and the freed nodes; all `u32`s below index it.
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
    /// `(time, seq)` list. An empty slot's head is `NIL` and its `occupied`
    /// bit clear; its tail is stale.
    fine: [u32; FINE_SLOTS],
    fine_tail: [u32; FINE_SLOTS],
    occupied: u64,
    /// First absolute bucket of the near window.
    base: u64,
    /// Absolute bucket the cursor is on (`base <= cur < base + NUM_BUCKETS`).
    cur: u64,
    /// Head and tail of the ascending `(time, seq)` list of events scheduled
    /// into a bucket behind the cursor; the tail is stale while the head is
    /// `NIL`.
    overlay: u32,
    overlay_tail: u32,
    /// Events beyond the near window: each non-empty epoch
    /// (`bucket >> WINDOW_BITS`) to the head of its unordered list.
    far: BTreeMap<u64, u32>,
    /// Events linked into the ring (`heads` and `fine`).
    near_len: usize,
    /// Events on the `far` lists.
    far_len: usize,
    /// Total pending events.
    len: usize,
    next_seq: u64,
    scheduled_total: u64,
    popped_total: u64,
    far_scheduled: u64,
    overlay_scheduled: u64,
    peak_len: usize,
    /// What [`current_key`](Self::current_key) returns.
    current: (SimTime, u64),
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
    /// Events scheduled beyond the near window (`far`).
    pub far_scheduled: u64,
    /// Events scheduled into a bucket behind the cursor (`overlay`).
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

/// Push node `idx` onto the front of the unordered list `head`.
fn push_front<E>(slab: &mut [Node<E>], head: &mut u32, idx: u32) {
    slab[idx as usize].next = *head;
    *head = idx;
}

/// Link node `idx` into the ascending `(time, seq)` list from `head` to
/// `tail` (a stale `tail` when `head` is `NIL`).
fn link_sorted<E>(slab: &mut [Node<E>], head: &mut u32, tail: &mut u32, idx: u32) {
    let key = slab[idx as usize].key();
    if *head == NIL || slab[*tail as usize].key() < key {
        // Where a schedule at or after everything on the list lands — any
        // number of kicks at `now` append without a walk.
        slab[idx as usize].next = NIL;
        match *head {
            NIL => *head = idx,
            _ => slab[*tail as usize].next = idx,
        }
        *tail = idx;
        return;
    }
    // Before the tail, so the walk ends inside the list.
    let (mut prev, mut at) = (NIL, *head);
    while slab[at as usize].key() < key {
        (prev, at) = (at, slab[at as usize].next);
    }
    slab[idx as usize].next = at;
    if prev == NIL {
        *head = idx;
    } else {
        slab[prev as usize].next = idx;
    }
}

impl<E: Copy> EventQueue<E> {
    /// Bytes one pending event occupies: its `(time, seq)` key, its list
    /// link and the payload. It is written once when scheduled and read once
    /// when popped; the slab's memory is [`slab_nodes`](Self::slab_nodes)
    /// times this.
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
            overlay: NIL,
            overlay_tail: NIL,
            far: BTreeMap::new(),
            near_len: 0,
            far_len: 0,
            len: 0,
            next_seq: 0,
            scheduled_total: 0,
            popped_total: 0,
            far_scheduled: 0,
            overlay_scheduled: 0,
            peak_len: 0,
            current: (SimTime::ZERO, 0),
            last_popped: None,
        }
    }

    /// Schedule `event` to fire at absolute instant `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.reserve_seq();
        self.insert(time, seq, event);
    }

    /// Take the next sequence number without scheduling anything. An event
    /// scheduled under it later ([`schedule_reserved`](Self::schedule_reserved))
    /// is ordered as if it had been scheduled now; a number never used
    /// leaves no trace but the gap.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `time` under `seq`, a number
    /// [`reserve_seq`](Self::reserve_seq) handed out earlier. The key must
    /// lie after [`current_key`](Self::current_key): an event the queue has
    /// already passed cannot be put back in front of it.
    pub fn schedule_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        if cfg!(feature = "strict-invariants") {
            assert!(
                (time, seq) > self.current,
                "reserved key {:?} scheduled at or behind the current key {:?}",
                (time, seq),
                self.current,
            );
            assert!(seq < self.next_seq, "seq {seq} was never reserved");
        }
        self.insert(time, seq, event);
    }

    /// The `(time, seq)` the queue has delivered up to: the key of the event
    /// popped last — the one being handled, inside a run — or, once a
    /// [`pop_before`](Self::pop_before)`(until)` has found nothing more due,
    /// `(until, u64::MAX)`. `(SimTime::ZERO, 0)` before anything is popped.
    /// A reserved key after it names an event that would still be pending.
    pub fn current_key(&self) -> (SimTime, u64) {
        self.current
    }

    /// Link a new event with key `(time, seq)` into whichever list its time
    /// falls in.
    fn insert(&mut self, time: SimTime, seq: u64, event: E) {
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
        let idx = self.alloc(Node { time, seq, next: NIL, event });
        if b >= self.base + NUM_BUCKETS as u64 {
            self.far_scheduled += 1;
            self.far_len += 1;
            push_front(&mut self.slab, self.far.entry(b >> WINDOW_BITS).or_insert(NIL), idx);
        } else if b < self.cur {
            // Before the drain point: merge via the overlay so already-popped
            // positions are never revisited.
            self.overlay_scheduled += 1;
            link_sorted(&mut self.slab, &mut self.overlay, &mut self.overlay_tail, idx);
        } else {
            self.link_near(idx);
        }
    }

    /// Schedule `event` to fire `delay_ns` after `now`.
    pub fn schedule_after(&mut self, now: SimTime, delay_ns: u64, event: E) {
        self.schedule(now + delay_ns, event);
    }

    /// Store `node` in a recycled node, or a new one when none is free.
    fn alloc(&mut self, node: Node<E>) -> u32 {
        match self.free {
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
        }
    }

    /// Link node `idx`, due in the ring (`cur <= bucket < base +
    /// NUM_BUCKETS`): sorted into its slot if the cursor is on its bucket,
    /// onto the front of its bucket's list otherwise.
    fn link_near(&mut self, idx: u32) {
        self.near_len += 1;
        let b = bucket_of(self.slab[idx as usize].time);
        if b == self.cur {
            self.link_fine(idx);
        } else {
            push_front(&mut self.slab, &mut self.heads[ring_slot(b)], idx);
        }
    }

    /// Link node `idx`, whose bucket is `cur`, into its slot's ascending
    /// list.
    fn link_fine(&mut self, idx: u32) {
        let s = fine_slot(self.slab[idx as usize].time);
        self.occupied |= 1u64 << s;
        link_sorted(&mut self.slab, &mut self.fine[s], &mut self.fine_tail[s], idx);
    }

    /// With the ring and the overlay empty, move the window to the earliest
    /// far event: `base` and `cur` become its bucket, and every far event
    /// that now falls inside the window joins the ring.
    fn jump(&mut self) {
        let (epoch, head) = self.far.pop_first().expect("len > 0 but queue empty");
        let (mut first, mut idx) = (SimTime::MAX, head);
        while idx != NIL {
            let node = &self.slab[idx as usize];
            first = first.min(node.time);
            idx = node.next;
        }
        self.base = bucket_of(first);
        self.cur = self.base;
        // The window starts inside `epoch` and is one epoch wide: it takes
        // all of that epoch and the front of the next, and nothing beyond.
        let rest = self.take_far(head);
        debug_assert_eq!(rest, NIL, "a far event before the earliest one");
        let next = epoch + 1;
        if let Some(&head) = self.far.get(&next) {
            match self.take_far(head) {
                NIL => self.far.remove(&next),
                kept => self.far.insert(next, kept),
            };
        }
    }

    /// Link every event on the far list `head` that falls inside the window
    /// into the ring; return the list of the rest.
    fn take_far(&mut self, head: u32) -> u32 {
        let horizon = self.base + NUM_BUCKETS as u64;
        let (mut kept, mut idx) = (NIL, head);
        while idx != NIL {
            let node = &self.slab[idx as usize];
            let next = node.next;
            if bucket_of(node.time) < horizon {
                self.far_len -= 1;
                self.link_near(idx);
            } else {
                push_front(&mut self.slab, &mut kept, idx);
            }
            idx = next;
        }
        kept
    }

    /// Advance the cursor to the bucket holding the earliest pending event.
    /// After this, the global minimum is the smaller of the first occupied
    /// slot's head and the overlay's head. The caller has checked `len > 0`.
    fn ensure_current(&mut self) {
        while self.occupied == 0 && self.overlay == NIL {
            if self.near_len == 0 {
                // Everything pending is far: jump the window straight to it
                // instead of walking empty buckets.
                self.jump();
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
                let next = self.slab[idx as usize].next;
                self.link_fine(idx);
                idx = next;
            }
        }
    }

    /// Key of the earliest pending event, and whether the ring rather than
    /// the overlay holds it. Call after [`ensure_current`](Self::ensure_current).
    fn head(&self) -> ((SimTime, u64), bool) {
        let key = |idx: u32| self.slab[idx as usize].key();
        let near =
            (self.occupied != 0).then(|| key(self.fine[self.occupied.trailing_zeros() as usize]));
        match (near, (self.overlay != NIL).then(|| key(self.overlay))) {
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
            self.drained_to(until);
            return None;
        }
        self.ensure_current();
        let ((time, seq), near) = self.head();
        if time > until {
            self.drained_to(until);
            return None;
        }
        self.current = (time, seq);
        let idx = if near {
            let s = self.occupied.trailing_zeros() as usize;
            let idx = self.fine[s];
            self.fine[s] = self.slab[idx as usize].next;
            if self.fine[s] == NIL {
                self.occupied &= !(1u64 << s);
            }
            self.near_len -= 1;
            idx
        } else {
            let idx = self.overlay;
            self.overlay = self.slab[idx as usize].next;
            idx
        };
        push_front(&mut self.slab, &mut self.free, idx);
        self.free_len += 1;
        let event = self.slab[idx as usize].event;
        self.len -= 1;
        self.popped_total += 1;
        if cfg!(feature = "strict-invariants") {
            let next = |&i: &u32| Some(self.slab[i as usize].next).filter(|&n| n != NIL);
            let overlay_len =
                std::iter::successors(Some(self.overlay).filter(|&n| n != NIL), next).count();
            assert_eq!(
                self.near_len + overlay_len + self.far_len,
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
                self.len,
                "event queue slab leak: nodes - freed != pending"
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

    /// Nothing is due by `until`: every event at or before it has been
    /// delivered.
    #[cold]
    fn drained_to(&mut self, until: SimTime) {
        self.current = self.current.max((until, u64::MAX));
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

    /// Nodes the slab holds, pending or free — the queue's memory, bar the
    /// ring's heads and the epoch map, in units of
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
        // window and exercises the jump, one epoch list per event.
        for i in (0..100u64).rev() {
            q.schedule(SimTime::from_ns(i * 10_000_000 + 1), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_jump_takes_the_first_far_epoch_whole_and_the_next_only_where_it_fits() {
        // An epoch is one window width. The first jump lands a quarter of
        // the way into epoch 1, so the window takes all of that epoch and
        // epoch 2 up to 2.25 epochs; the second jump, to 2.25 epochs, takes
        // the rest of epoch 2 and epoch 3 up to 3.25.
        const E: u64 = (NUM_BUCKETS as u64) << BUCKET_BITS;
        let times = [
            // Epoch 2: inside the first window, and from its end on.
            2 * E + E / 4 - 1,
            2 * E + E / 10,
            2 * E + E / 4,
            3 * E - 1,
            // Epoch 1, from the earliest far event to its last ns, with a tie.
            E + E / 2,
            2 * E - 1,
            E + E / 4,
            E + E / 2,
            // Epoch 3: inside the second window, and beyond it.
            3 * E + E / 2,
            3 * E + E / 10,
        ];
        let mut q = EventQueue::new();
        let mut want: Vec<_> = times.iter().copied().zip(0u64..).collect();
        for &(t, seq) in &want {
            q.schedule(SimTime::from_ns(t), seq);
        }
        assert_eq!(q.stats().far_scheduled, 10);
        let mut got = vec![q.pop().unwrap()];
        assert_eq!(got[0], (SimTime::from_ns(E + E / 4), 6));
        // After the first jump: one schedule into the part of epoch 2 it
        // kept, one into the part it took.
        for (t, seq) in [(2 * E + E / 2, 10), (2 * E + E / 5, 11)] {
            q.schedule(SimTime::from_ns(t), seq);
            want.push((t, seq));
        }
        assert_eq!(q.stats().far_scheduled, 11);
        got.extend(std::iter::from_fn(|| q.pop()));
        want.sort_unstable();
        let got: Vec<_> = got.into_iter().map(|(t, seq)| (t.as_ns(), seq)).collect();
        assert_eq!(got, want);
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
        // The overlay's only customer. Inside a run nothing schedules
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
    fn a_reserved_event_fires_where_its_number_says() {
        // A number taken before two same-instant schedules orders its event
        // ahead of them, however late it is scheduled; the current key
        // tells whether it would still be pending.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(4_000);
        q.schedule(SimTime::from_ns(100), "first");
        let seq = q.reserve_seq();
        q.schedule(t, "a");
        q.schedule(t, "b");
        assert_eq!(q.pop(), Some((SimTime::from_ns(100), "first")));
        assert_eq!(q.current_key(), (SimTime::from_ns(100), 0));
        assert!((t, seq) > q.current_key());
        q.schedule_reserved(t, seq, "reserved");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["reserved", "a", "b"]);
        assert_eq!(q.current_key(), (SimTime::MAX, u64::MAX), "drained to the end");
        assert_eq!(q.stats().scheduled_total, 4, "a reservation alone is not a schedule");
    }

    #[test]
    fn a_bounded_pop_that_finds_nothing_due_moves_the_current_key_to_its_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.schedule(SimTime::from_ns(50), ());
        assert!(q.pop_before(SimTime::from_ns(20)).is_some());
        assert_eq!(q.current_key(), (SimTime::from_ns(10), 0));
        assert!(q.pop_before(SimTime::from_ns(20)).is_none());
        assert_eq!(q.current_key(), (SimTime::from_ns(20), u64::MAX));
        // An earlier horizon never moves it back.
        assert!(q.pop_before(SimTime::from_ns(15)).is_none());
        assert_eq!(q.current_key(), (SimTime::from_ns(20), u64::MAX));
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
