//! A pausable byte-accounted FIFO.
//!
//! The primitive beneath both the switch calendar queues (§5.1) and the
//! host-side vma segment queues (§5.2): items carry a byte length, the queue
//! tracks total occupancy against a capacity, and the whole queue can be
//! paused/resumed — the modern-ASIC queue-pausing feature OpenOptics is
//! built on.
//!
//! It keeps only what some caller reads: the items, their byte total, the
//! capacity and the pause gate. Every calendar, vma and link queue in a run
//! is one of these (20,736 calendar queues alone at 108 ToRs × 6 uplinks ×
//! 32), and every packet pushes through several, so a statistic kept here
//! is a store per packet-hop and a field per queue; aggregates that are
//! exported live with their owner (`CalendarPort`'s byte total, the
//! switch's `peak_buffer_bytes`). The core crate pins the struct's size.

use std::collections::VecDeque;

/// A FIFO of items with byte accounting, a capacity, and a pause gate.
#[derive(Debug, Clone)]
pub struct ByteQueue<T> {
    items: VecDeque<(u32, T)>,
    bytes: u64,
    capacity: u64,
    paused: bool,
}

impl<T> ByteQueue<T> {
    /// An empty, unpaused queue with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        ByteQueue { items: VecDeque::new(), bytes: 0, capacity, paused: false }
    }

    /// Try to enqueue an item of `len` bytes. Fails (returning the item)
    /// when it would exceed capacity. Pausing does not affect admission —
    /// a paused queue still buffers; it just will not release.
    pub fn push(&mut self, len: u32, item: T) -> Result<(), T> {
        if !self.would_fit(len) {
            return Err(item);
        }
        self.bytes += len as u64;
        self.items.push_back((len, item));
        Ok(())
    }

    /// Whether an item of `len` bytes would be admitted right now.
    pub fn would_fit(&self, len: u32) -> bool {
        self.bytes + len as u64 <= self.capacity
    }

    /// Dequeue the head item, unless empty or paused.
    pub fn pop(&mut self) -> Option<(u32, T)> {
        if self.paused {
            return None;
        }
        self.pop_even_if_paused()
    }

    /// Dequeue ignoring the pause gate — used when draining a queue for
    /// offload to a host rather than for transmission.
    pub(crate) fn pop_even_if_paused(&mut self) -> Option<(u32, T)> {
        let (len, item) = self.items.pop_front()?;
        self.bytes -= len as u64;
        Some((len, item))
    }

    /// Peek the head without dequeuing.
    pub fn peek(&self) -> Option<&(u32, T)> {
        self.items.front()
    }

    /// Pause the queue: `pop` returns `None` until resumed.
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// Resume the queue.
    pub fn resume(&mut self) {
        self.paused = false;
    }

    /// Whether the queue is paused.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Current occupancy in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_accounting() {
        let mut q = ByteQueue::new(1000);
        q.push(100, "a").expect("push fits the test queue capacity");
        q.push(200, "b").expect("push fits the test queue capacity");
        assert_eq!(q.bytes(), 300);
        assert_eq!(q.pop(), Some((100, "a")));
        assert_eq!(q.pop(), Some((200, "b")));
        assert_eq!(q.bytes(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_rejects_and_returns_the_item() {
        let mut q = ByteQueue::new(250);
        q.push(100, 1).expect("push fits the test queue capacity");
        q.push(100, 2).expect("push fits the test queue capacity");
        assert!(!q.would_fit(100));
        assert_eq!(q.push(100, 3), Err(3));
        assert_eq!((q.bytes(), q.len()), (200, 2), "a rejected push leaves no trace");
        assert!(q.would_fit(50));
        q.push(50, 4).expect("push fits the test queue capacity");
        assert_eq!(q.bytes(), 250);
    }

    #[test]
    fn pause_blocks_pop_but_not_push() {
        let mut q = ByteQueue::new(1000);
        q.pause();
        q.push(10, "x").expect("push fits the test queue capacity");
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 1);
        q.resume();
        assert_eq!(q.pop(), Some((10, "x")));
    }

    #[test]
    fn pop_even_if_paused_bypasses_gate() {
        let mut q = ByteQueue::new(1000);
        q.pause();
        q.push(10, "x").expect("push fits the test queue capacity");
        assert_eq!(q.pop_even_if_paused(), Some((10, "x")));
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn occupancy_follows_pushes_and_pops() {
        let mut q = ByteQueue::new(1000);
        q.push(400, ()).expect("push fits the test queue capacity");
        q.push(300, ()).expect("push fits the test queue capacity");
        assert_eq!(q.bytes(), 700);
        q.pop();
        assert_eq!((q.bytes(), q.len()), (300, 1));
    }

    #[test]
    fn pop_frees_capacity_for_the_next_push() {
        let mut q = ByteQueue::new(100);
        q.push(60, ()).expect("push fits the test queue capacity");
        assert!(!q.would_fit(60));
        q.pop();
        q.push(60, ()).expect("the pop made room for a second 60-byte push");
        assert_eq!(q.bytes(), 60);
    }
}
