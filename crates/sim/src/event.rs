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
//! Time is divided into fixed buckets of 2^`BUCKET_BITS` ns. A ring of
//! `NUM_BUCKETS` buckets covers the *near window* (~4 ms) starting at the
//! queue's current position; each ring slot is an unsorted `Vec` that is
//! sorted once, lazily, when the cursor reaches it. Three auxiliary
//! structures keep arbitrary schedules correct:
//!
//! * `overlay` — a small binary heap for events that land in (or before) the
//!   *current, already-sorted* bucket; `pop` takes the smaller of the bucket
//!   head and the overlay head.
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

/// A time-ordered queue of pending events.
///
/// Events at equal timestamps are delivered in the order they were scheduled
/// (FIFO). See the module docs for the calendar structure.
///
/// Cloning copies the entire pending set (buckets, overlay, far heap, and
/// every sequence counter), so a cloned queue replays the exact same
/// delivery order as the original — the property checkpoint forks rely on.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// The near-window ring; slot `b % NUM_BUCKETS` holds absolute bucket `b`.
    buckets: Vec<Vec<Entry<E>>>,
    /// First absolute bucket of the near window.
    base: u64,
    /// Absolute bucket the cursor is on (`base <= cur < base + NUM_BUCKETS`).
    cur: u64,
    /// Whether the current bucket has been sorted for draining.
    cur_sorted: bool,
    /// Events at or before the current bucket that arrived after it was
    /// sorted (min-heap via the inverted `Entry` ordering).
    overlay: BinaryHeap<Entry<E>>,
    /// Events beyond the near window (min-heap).
    far: BinaryHeap<Entry<E>>,
    /// Events currently stored in ring buckets (excluding overlay/far).
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

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_of(time: SimTime) -> u64 {
    time.as_ns() >> BUCKET_BITS
}

impl<E> EventQueue<E> {
    /// Bytes one pending event occupies: its `(time, seq)` key plus the
    /// payload. A bucket sort, a sorted insert and a heap sift each move
    /// whole entries, so a world with a hot queue pins this with a `const`
    /// assertion.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<E>>();

    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            base: 0,
            cur: 0,
            cur_sorted: false,
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
        let entry = Entry { time, seq, event };
        let b = bucket_of(time);
        if b >= self.base + NUM_BUCKETS as u64 {
            self.far_scheduled += 1;
            self.far.push(entry);
        } else if b < self.cur {
            // Before the drain point: merge via the overlay so already-popped
            // positions are never revisited.
            self.overlay_scheduled += 1;
            self.overlay.push(entry);
        } else if b == self.cur && self.cur_sorted {
            // Into the sorted current bucket (the kick-at-`now` hot path): a
            // sorted insert keeps the bucket drainable from the back. The new
            // entry carries the largest seq so far, so for the common
            // schedule-at-current-time case it is the smallest key in the
            // bucket (descending order) and lands at the tail with no shift.
            let slot = &mut self.buckets[(b % NUM_BUCKETS as u64) as usize];
            let key = std::cmp::Reverse(entry.key());
            let pos = slot.partition_point(|e| std::cmp::Reverse(e.key()) < key);
            slot.insert(pos, entry);
            self.near_len += 1;
        } else {
            if b == self.cur {
                // Late arrival into the unsorted current bucket.
                self.cur_sorted = false;
            }
            self.buckets[(b % NUM_BUCKETS as u64) as usize].push(entry);
            self.near_len += 1;
        }
    }

    /// Schedule `event` to fire `delay_ns` after `now`.
    pub fn schedule_after(&mut self, now: SimTime, delay_ns: u64, event: E) {
        self.schedule(now + delay_ns, event);
    }

    /// Move every far-heap event that now falls inside the near window
    /// (`base .. base + NUM_BUCKETS`) into its ring bucket.
    fn refill_from_far(&mut self) {
        let horizon = self.base + NUM_BUCKETS as u64;
        while let Some(e) = self.far.peek() {
            if bucket_of(e.time) >= horizon {
                break;
            }
            let e = self.far.pop().expect("peeked entry vanished");
            self.buckets[(bucket_of(e.time) % NUM_BUCKETS as u64) as usize].push(e);
            self.near_len += 1;
        }
    }

    /// Advance the cursor to the bucket holding the earliest pending event
    /// and sort it for draining. After this, the global minimum is the
    /// smaller of the current bucket's tail and the overlay's head.
    fn ensure_current(&mut self) {
        if self.len == 0 {
            return;
        }
        loop {
            let slot = (self.cur % NUM_BUCKETS as u64) as usize;
            if !self.buckets[slot].is_empty() || !self.overlay.is_empty() {
                if !self.buckets[slot].is_empty() && !self.cur_sorted {
                    // Sort descending so draining pops from the back.
                    self.buckets[slot].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                    self.cur_sorted = true;
                }
                return;
            }
            if self.near_len == 0 {
                // Everything pending lives in the far heap: jump the window
                // straight to it instead of walking empty buckets.
                let t = self.far.peek().expect("len > 0 but queue empty").time;
                self.base = bucket_of(t);
                self.cur = self.base;
                self.cur_sorted = false;
                self.refill_from_far();
                continue;
            }
            // Walk to the next bucket; on window end, refill from `far`.
            self.cur += 1;
            self.cur_sorted = false;
            if self.cur == self.base + NUM_BUCKETS as u64 {
                self.base = self.cur;
                self.refill_from_far();
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
    /// it in place of the `peek_time` + `pop` pair, halving the
    /// cursor-advance (`ensure_current`) work per delivered event — the
    /// dominant fixed cost of the hot loop once handlers are cheap.
    pub fn pop_before(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        self.ensure_current();
        let slot = (self.cur % NUM_BUCKETS as u64) as usize;
        let (take_bucket, head_time) = match (self.buckets[slot].last(), self.overlay.peek()) {
            (Some(b), Some(o)) if b.key() < o.key() => (true, b.time),
            (Some(b), None) => (true, b.time),
            (_, Some(o)) => (false, o.time),
            (None, None) => unreachable!("ensure_current found no event"),
        };
        if head_time > until {
            return None;
        }
        self.len -= 1;
        self.popped_total += 1;
        let e = match if take_bucket {
            self.near_len -= 1;
            self.buckets[slot].pop()
        } else {
            self.overlay.pop()
        } {
            Some(e) => e,
            None => unreachable!("peeked head vanished"),
        };
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
            if let Some(last) = self.last_popped {
                assert!(
                    e.key() > last,
                    "event queue delivered (time, seq) keys out of order: \
                     {:?} after {:?}",
                    e.key(),
                    last,
                );
            }
            self.last_popped = Some(e.key());
        }
        Some((e.time, e.event))
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
        let slot = (self.cur % NUM_BUCKETS as u64) as usize;
        let bucket = self.buckets[slot].last().map(|e| e.key());
        let overlay = self.overlay.peek().map(|e| e.key());
        match (bucket, overlay) {
            (Some(b), Some(o)) => Some(b.min(o).0),
            (Some(b), None) => Some(b.0),
            (None, Some(o)) => Some(o.0),
            (None, None) => unreachable!("ensure_current found no event"),
        }
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
        // arrival would sorted-insert into the current bucket instead).
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
        q.schedule(SimTime::from_ns(1_000), 2); // lands in overlay
        q.schedule(SimTime::from_ns(999), 3); // "past" relative to drain point
        assert_eq!(q.pop(), Some((SimTime::from_ns(999), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(1_000), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(1_000), 2)));
        assert_eq!(q.pop(), None);
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
