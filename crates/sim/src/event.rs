//! Deterministic pending-event queue.
//!
//! A bucketed **calendar queue** keyed by `(time, order)`. `order` says
//! where an event stands among those due at the same instant (its [`Tie`]):
//! a rank the caller names, lowest first, then within the rank either a
//! key the caller names or the queue's own sequence number, which keeps the
//! order of scheduling. Runs are bit-for-bit reproducible regardless of
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
//! in a node of one `slab` — `(time, order)`, the event, and the index of the
//! next node of whatever list it is on — and freed nodes are reused through
//! a LIFO free list threaded through the same `next` field, so in steady
//! state the queue neither allocates nor copies an event between being
//! scheduled and being popped. Three kinds of list hold the pending nodes,
//! each named by a `u32` head:
//!
//! * `heads` — one per ring bucket (16 KB in all): an unordered list a
//!   schedule pushes onto the front of.
//! * `fine` — the one bucket the cursor is on, split into `FINE_SLOTS`
//!   slots of 16 ns, each a `(time, order)` list, with one occupancy bit
//!   per slot. When the cursor reaches a bucket its `heads` list is
//!   distributed over the slots; from then on a schedule into that bucket
//!   is a link into its slot, and a pop is the lowest set bit, an unlink
//!   and a free. A link appends behind the slot's tail, which is where a
//!   schedule at or after everything pending lands, or walks at most
//!   `WALK_LIMIT` nodes to its place. One that belongs deeper is appended
//!   and marks the slot, and a marked slot is sorted once, in a retained
//!   buffer, when the cursor first pops from it: n links cost O(n log n)
//!   in any order. An event that lands in a bucket *behind* the cursor is
//!   linked into slot 0: it is earlier than everything in the bucket, so it
//!   goes ahead of the slot's events, slot 0 pops first, and an occupied
//!   slot keeps the cursor where it is.
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
//! Events at equal timestamps are delivered by rank, then by key, and
//! events of one rank scheduled without a key in the order they were
//! scheduled (FIFO). Since an event with a key gets its place from the key
//! alone, a caller may schedule it late — after events that would have
//! been scheduled behind it — and it still pops where it would have.
//! ```
//! use openoptics_sim::{EventQueue, SimTime, Tie};
//!
//! let mut q = EventQueue::new();
//! let t = SimTime::from_us(1);
//! q.schedule(SimTime::from_us(3), "late");
//! q.schedule(t, "first in rank 0");
//! q.schedule_tied(t, Tie::key(1, 7), "rank 1, key 7");
//! q.schedule_tied(t, Tie::key(1, 2), "rank 1, key 2");
//! assert_eq!(q.pop(), Some((t, "first in rank 0")));
//! assert_eq!(q.pop(), Some((t, "rank 1, key 2")));
//! assert_eq!(q.pop(), Some((t, "rank 1, key 7")));
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
/// Nodes a link into a slot's sorted list walks past at most. A node that
/// belongs deeper is appended instead, and its slot is sorted once, when
/// the cursor first pops from it. Past nearly every walk the engine's own
/// mix makes: at 8, `testbed_apps` sorted enough slots to run ~5 % slower.
const WALK_LIMIT: u32 = 32;

/// Bits of an order below its rank: a key, or a FIFO tie's flag and
/// sequence number.
const RANK_SHIFT: u32 = 59;
/// Set in a FIFO tie's order, so that within a rank keyed events go first.
const FIFO: u64 = 1 << 58;

/// Where an event stands among the events due at the same instant: the
/// low 64 bits of its queue key, after the time.
///
/// A tie has a rank (`0..32`, lowest first) and, within the rank, either a
/// key the caller names (below 2^58; ascending) or no key: those events pop
/// after the rank's keyed ones, in the order they were scheduled. A key
/// must be unique among the events pending at one instant and rank, since
/// nothing else orders two events under the same key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tie(u64);

impl Tie {
    /// In rank `rank`, by scheduling order.
    pub const fn fifo(rank: u8) -> Tie {
        Tie(Tie::key(rank, 0).0 | FIFO)
    }

    /// In rank `rank`, by `key`.
    pub const fn key(rank: u8, key: u64) -> Tie {
        assert!(rank < 32, "a rank is below 32");
        assert!(key < FIFO, "a key is below 2^58");
        Tie(((rank as u64) << RANK_SHIFT) | key)
    }

    /// The rank.
    pub const fn rank(self) -> u8 {
        (self.0 >> RANK_SHIFT) as u8
    }
}

/// A slab slot: one pending event and its place on a list. A node on
/// the free list keeps the stale event it last held, which nothing reads:
/// an event moves in and out of its node as a plain copy, with no tag to
/// write or check beside it.
#[derive(Clone)]
struct Node<E> {
    time: SimTime,
    /// The [`Tie`], a FIFO one with its sequence number filled in.
    order: u64,
    /// The next node of the list this one is on.
    next: u32,
    event: E,
}

impl<E> Node<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.order)
    }
}

/// A time-ordered queue of pending events.
///
/// Events at equal timestamps are delivered by their [`Tie`]s. See the
/// module docs for the calendar structure.
///
/// Cloning copies the entire pending set (slab, list heads, epoch map, and
/// the sequence counter), so a cloned queue replays the exact
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
    /// Bucket `cur` by 16 ns slot: head and tail of each slot's
    /// `(time, order)` list, ascending unless `unsorted` marks it; slot 0
    /// also holds the events scheduled into a bucket behind the cursor. An
    /// empty slot's head is `NIL` and its `occupied` bit clear; its tail is
    /// stale.
    fine: [u32; FINE_SLOTS],
    fine_tail: [u32; FINE_SLOTS],
    occupied: u64,
    /// One bit per slot whose list took an append out of key order: it is
    /// sorted before its head is read, through `sort_buf`.
    unsorted: u64,
    /// The retained buffer a slot is sorted in; empty between sorts.
    sort_buf: Vec<((SimTime, u64), u32)>,
    /// Nodes walked and keys compared, linking and sorting.
    #[cfg(test)]
    link_steps: u64,
    /// First absolute bucket of the near window.
    base: u64,
    /// Absolute bucket the cursor is on (`base <= cur < base + NUM_BUCKETS`).
    cur: u64,
    /// Events beyond the near window: each non-empty epoch
    /// (`bucket >> WINDOW_BITS`) to the head of its unordered list.
    far: BTreeMap<u64, u32>,
    /// Events linked into the ring (`heads` and `fine`), those behind the
    /// cursor included.
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
    /// Events scheduled into a bucket behind the cursor (linked into slot 0
    /// of the cursor's bucket).
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

impl<E: Copy> EventQueue<E> {
    /// Bytes one pending event occupies: its `(time, order)` key, its list
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
            unsorted: 0,
            sort_buf: Vec::new(),
            #[cfg(test)]
            link_steps: 0,
            base: 0,
            cur: 0,
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
            last_popped: None,
        }
    }

    /// Schedule `event` to fire at absolute instant `time`, in rank 0 by
    /// scheduling order.
    #[expect(clippy::disallowed_methods, reason = "the queue's own FIFO rank")]
    pub fn schedule(&mut self, time: SimTime, event: E) {
        self.schedule_tied(time, Tie::fifo(0), event);
    }

    /// Schedule `event` to fire at absolute instant `time`, placed among
    /// the events due then by `tie`. It may lie behind what the queue has
    /// delivered: a lower-rank follow-on at the current instant pops next.
    #[inline]
    pub fn schedule_tied(&mut self, time: SimTime, tie: Tie, event: E) {
        let mut order = tie.0;
        if order & FIFO != 0 {
            order |= self.next_seq;
            self.next_seq += 1;
        }
        self.insert(time, order, event);
    }

    /// Link a new event with key `(time, order)` into whichever list its
    /// time falls in.
    fn insert(&mut self, time: SimTime, order: u64, event: E) {
        self.scheduled_total += 1;
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        if cfg!(feature = "strict-invariants") {
            // A schedule may land behind the drain point (a lower-rank
            // follow-on at `now`, or a caller scheduling between runs);
            // rewind the monotonicity watermark to just before such an
            // entry, which pops next (or clear it, for an order of 0), so
            // only genuine reordering of already-pending events trips the
            // pop-side check.
            if self.last_popped.is_some_and(|last| (time, order) < last) {
                self.last_popped = order.checked_sub(1).map(|before| (time, before));
            }
        }
        let b = bucket_of(time);
        let idx = self.alloc(Node { time, order, next: NIL, event });
        if b >= self.base + NUM_BUCKETS as u64 {
            self.far_scheduled += 1;
            self.far_len += 1;
            push_front(&mut self.slab, self.far.entry(b >> WINDOW_BITS).or_insert(NIL), idx);
        } else if b < self.cur {
            // Behind the cursor: ahead of everything in its bucket, so slot
            // 0 takes it, and already-popped positions are never revisited.
            self.overlay_scheduled += 1;
            self.near_len += 1;
            self.link_slot(0, idx);
        } else {
            self.link_near(idx);
        }
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
    /// NUM_BUCKETS`): linked into its slot if the cursor is on its bucket,
    /// onto the front of its bucket's list otherwise.
    fn link_near(&mut self, idx: u32) {
        self.near_len += 1;
        let b = bucket_of(self.slab[idx as usize].time);
        if b == self.cur {
            self.link_slot(fine_slot(self.slab[idx as usize].time), idx);
        } else {
            push_front(&mut self.slab, &mut self.heads[ring_slot(b)], idx);
        }
    }

    /// Link node `idx` into slot `s`'s list: to its place, if that is at
    /// most [`WALK_LIMIT`] nodes in, else behind the tail, marking the slot.
    fn link_slot(&mut self, s: usize, idx: u32) {
        let (bit, key) = (1u64 << s, self.slab[idx as usize].key());
        self.occupied |= bit;
        // `prev` is the node `idx` goes behind (`NIL`: it becomes the head).
        // The tail is where a schedule at or after everything in the slot
        // lands without a walk (any number of kicks at `now`), as does any
        // schedule into a marked slot.
        let mut prev = if self.fine[s] == NIL { NIL } else { self.fine_tail[s] };
        if prev != NIL && self.unsorted & bit == 0 && key <= self.slab[prev as usize].key() {
            // Before the tail, so the walk ends inside the list.
            let (mut before, mut at, mut steps) = (NIL, self.fine[s], 0);
            while self.slab[at as usize].key() < key && steps < WALK_LIMIT {
                (before, at, steps) = (at, self.slab[at as usize].next, steps + 1);
            }
            #[cfg(test)]
            {
                self.link_steps += u64::from(steps);
            }
            if steps < WALK_LIMIT {
                prev = before;
            } else {
                self.unsorted |= bit;
            }
        }
        let next = if prev == NIL { self.fine[s] } else { self.slab[prev as usize].next };
        self.slab[idx as usize].next = next;
        match prev {
            NIL => self.fine[s] = idx,
            _ => self.slab[prev as usize].next = idx,
        }
        if next == NIL {
            self.fine_tail[s] = idx;
        }
    }

    /// Sort marked slot `s`'s list by `(time, order)` and clear its mark.
    fn sort_slot(&mut self, s: usize) {
        let mut buf = std::mem::take(&mut self.sort_buf);
        let mut idx = self.fine[s];
        while idx != NIL {
            buf.push((self.slab[idx as usize].key(), idx));
            idx = self.slab[idx as usize].next;
        }
        buf.sort_unstable_by(|a, b| {
            #[cfg(test)]
            {
                self.link_steps += 1;
            }
            a.0.cmp(&b.0)
        });
        let mut next = NIL;
        for &(_, idx) in buf.iter().rev() {
            self.slab[idx as usize].next = next;
            next = idx;
        }
        (self.fine[s], self.fine_tail[s]) = (next, buf[buf.len() - 1].1);
        self.unsorted &= !(1u64 << s);
        buf.clear();
        self.sort_buf = buf;
    }

    /// With the ring empty, move the window to the earliest far event:
    /// `base` and `cur` become its bucket, and every far event that now
    /// falls inside the window joins the ring.
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
    /// After this, the global minimum is the first occupied slot's head.
    /// The caller has checked `len > 0`.
    fn ensure_current(&mut self) {
        while self.occupied == 0 {
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
                self.link_slot(fine_slot(self.slab[idx as usize].time), idx);
                idx = next;
            }
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
    /// it once per delivered event, one cursor advance (`ensure_current`)
    /// each — the dominant fixed cost of the hot loop once handlers are
    /// cheap.
    pub fn pop_before(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        self.ensure_current();
        let s = self.occupied.trailing_zeros() as usize;
        if self.unsorted & (1u64 << s) != 0 {
            self.sort_slot(s);
        }
        let idx = self.fine[s];
        let (time, order) = self.slab[idx as usize].key();
        if time > until {
            return None;
        }
        self.fine[s] = self.slab[idx as usize].next;
        if self.fine[s] == NIL {
            self.occupied &= !(1u64 << s);
        }
        self.near_len -= 1;
        push_front(&mut self.slab, &mut self.free, idx);
        self.free_len += 1;
        let event = self.slab[idx as usize].event;
        self.len -= 1;
        self.popped_total += 1;
        if cfg!(feature = "strict-invariants") {
            assert_eq!(
                self.near_len + self.far_len,
                self.len,
                "event queue occupancy leak: near + far != pending"
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
                    (time, order) > last,
                    "event queue delivered (time, order) keys out of order: \
                     {:?} after {:?}",
                    (time, order),
                    last,
                );
            }
            self.last_popped = Some((time, order));
        }
        Some((time, event))
    }

    /// Test hook: pretend an event with the given `(time, order)` key was
    /// already delivered, so a test can prove the monotonicity check trips.
    #[cfg(feature = "strict-invariants")]
    pub fn force_last_popped_for_test(&mut self, time: SimTime, order: u64) {
        self.last_popped = Some((time, order));
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    #[expect(clippy::disallowed_methods, reason = "tests the FIFO rank")]
    fn ties_pop_by_rank_then_key_then_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        q.schedule_tied(t, Tie::fifo(2), "rank 2, first scheduled");
        q.schedule_tied(t, Tie::key(2, 9), "rank 2, key 9");
        q.schedule_tied(t, Tie::fifo(2), "rank 2, second scheduled");
        q.schedule_tied(t, Tie::key(2, 3), "rank 2, key 3");
        q.schedule_tied(t, Tie::key(1, 1 << 57), "rank 1");
        q.schedule_tied(SimTime::from_ns(4), Tie::key(31, 0), "earlier");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            [
                "earlier",
                "rank 1",
                "rank 2, key 3",
                "rank 2, key 9",
                "rank 2, first scheduled",
                "rank 2, second scheduled"
            ]
        );
        assert_eq!(Tie::key(17, 5).rank(), 17);
        assert_eq!(Tie::fifo(31).rank(), 31);
    }

    #[test]
    fn a_lower_rank_follow_on_at_the_current_instant_pops_next() {
        // Handling a rank-3 event at `t` schedules a rank-1 event at `t`:
        // it goes ahead of the rank-3 events still pending at `t`.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(3_000);
        for key in 0..3 {
            q.schedule_tied(t, Tie::key(3, key), key);
        }
        assert_eq!(q.pop(), Some((t, 0)));
        q.schedule_tied(t, Tie::key(1, 7), 7);
        q.schedule_tied(t, Tie::key(3, 1 << 40), 8);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [7, 1, 2, 8]);
    }

    #[test]
    fn a_keyed_event_scheduled_late_pops_where_its_key_says() {
        // What lazy scheduling rests on: scheduled after the events that
        // pop behind it, even after the queue delivered an earlier one.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(4_000);
        q.schedule(SimTime::from_ns(100), "first");
        q.schedule_tied(t, Tie::key(2, 8), "b");
        q.schedule_tied(t, Tie::key(2, 9), "c");
        assert_eq!(q.pop(), Some((SimTime::from_ns(100), "first")));
        q.schedule_tied(t, Tie::key(2, 4), "a");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
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
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.stats().scheduled_total, 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().scheduled_total, 2);
    }

    #[test]
    fn stats_track_structure_usage() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(2_000), 0); // near
        q.schedule(SimTime::from_secs(1), 1); // far
        assert_eq!(q.pop(), Some((SimTime::from_ns(2_000), 0)));
        // An earlier *bucket* than the drain point counts as behind the
        // cursor (a same-bucket arrival is linked into its own slot).
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
    fn a_schedule_behind_an_advanced_cursor_takes_slot_0_and_pops_first() {
        // The only way behind the cursor. Inside a run nothing schedules
        // there; between runs a caller can: a `pop_before` that stops short
        // of the next event has already walked the cursor to that event's
        // bucket, and `now` is buckets behind it.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(500), "next");
        let now = SimTime::from_us(100);
        assert_eq!(q.pop_before(now), None);
        assert_eq!(q.len(), 1);
        q.schedule(now, "added at now");
        q.schedule(SimTime::from_us(499), "also behind");
        assert_eq!(q.stats().overlay_scheduled, 2);
        assert_eq!(q.pop(), Some((now, "added at now")));
        assert_eq!(q.pop(), Some((SimTime::from_us(499), "also behind")));
        assert_eq!(q.pop(), Some((SimTime::from_us(500), "next")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn behind_the_cursor_goes_ahead_of_slot_0_and_a_later_slot() {
        // Bucket 5 (5,120 ns on) holds two events in slot 0 and two in slot
        // 10. A bounded pop short of them walks the cursor there; then
        // events land behind it, in bucket 5's slot 0 too, and one behind
        // an event already popped from there.
        let mut q = EventQueue::new();
        let mut want = vec![];
        let mut add = |q: &mut EventQueue<u64>, t: u64| {
            let seq = want.len() as u64;
            q.schedule(SimTime::from_ns(t), seq);
            want.push((t, seq));
        };
        for t in [5_130, 5_290, 5_120, 5_290] {
            add(&mut q, t);
        }
        assert_eq!(q.pop_before(SimTime::from_ns(100)), None);
        for t in [4_000, 3_000, 5_125, 4_000, 5_000] {
            add(&mut q, t);
        }
        assert_eq!(q.stats().overlay_scheduled, 4, "5,125 ns is in the cursor's bucket");
        let mut got = vec![q.pop().unwrap()];
        add(&mut q, 3_500);
        assert_eq!(q.stats().overlay_scheduled, 5);
        got.extend(std::iter::from_fn(|| q.pop()));
        want.sort_unstable();
        let got: Vec<_> = got.into_iter().map(|(t, seq)| (t.as_ns(), seq)).collect();
        assert_eq!(got, want);
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

    /// Link steps (nodes walked, keys compared sorting) to schedule `keys`
    /// at one instant of the cursor's bucket and pop them, in key order.
    fn link_steps_of(keys: impl Iterator<Item = u64>) -> u64 {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10_000), 0);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10_000), 0)));
        let mut want: Vec<u64> = keys.collect();
        for &key in &want {
            q.schedule_tied(SimTime::from_ns(10_100), Tie::key(3, key), key);
        }
        want.sort_unstable();
        assert!(std::iter::from_fn(|| q.pop()).map(|(_, key)| key).eq(want));
        q.link_steps
    }

    #[test]
    fn an_insert_s_cost_does_not_depend_on_its_order() {
        // Keys n, 1, 2, ..., n - 1: each link belongs just before the tail.
        // Walking to its place took n²/2 ≈ 8.4 M steps at n = 4,096; walks
        // of at most `WALK_LIMIT` nodes and one sort of the slot take ~45 k.
        const N: u64 = 4_096;
        let steps = link_steps_of(std::iter::once(N).chain(1..N));
        assert!(steps <= 2 * N * u64::from(N.ilog2()), "{steps} steps for {N} links");
        assert_eq!(link_steps_of(0..N), 0, "in key order, nothing walks or sorts");
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
    fn pop_before_under_churn_delivers_exactly_what_is_due() {
        let mut q = EventQueue::new();
        let mut due = vec![];
        for i in 0..2_000u64 {
            let t = i * 37 % 9_001;
            q.schedule(SimTime::from_ns(t), i);
            if t <= 5_000 {
                due.push((t, i));
            }
        }
        due.sort_unstable();
        let horizon = SimTime::from_ns(5_000);
        let got: Vec<_> =
            std::iter::from_fn(|| q.pop_before(horizon)).map(|(t, i)| (t.as_ns(), i)).collect();
        assert_eq!(got, due);
        assert_eq!(q.len(), 2_000 - due.len());
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
