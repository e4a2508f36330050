//! Proof that the `strict-invariants` checks actually fire: a deliberately
//! corrupted queue must trip the `(time, order)` monotonicity assertion, so
//! must a key used twice at one instant, and a legal mixed workload —
//! lower-rank follow-ons at the instant being delivered included — must
//! not trip anything.

#![cfg(feature = "strict-invariants")]

use openoptics_sim::{EventQueue, SimTime, Tie};

#[test]
#[should_panic(expected = "keys out of order")]
fn monotonicity_check_trips_on_rewound_queue() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_ns(10), ());
    // Claim an event far in the future was already delivered; the next pop
    // rewinds the (time, order) key and must be caught.
    q.force_last_popped_for_test(SimTime::from_ns(1_000), 999);
    let _ = q.pop();
}

#[test]
#[should_panic(expected = "keys out of order")]
fn a_key_used_twice_at_one_instant_is_caught() {
    // Nothing orders two events under one key: the second pop does not
    // come after the first.
    let mut q = EventQueue::new();
    q.schedule_tied(SimTime::from_ns(10), Tie::key(3, 5), ());
    q.schedule_tied(SimTime::from_ns(10), Tie::key(3, 5), ());
    while q.pop().is_some() {}
}

#[test]
#[expect(clippy::disallowed_methods, reason = "a FIFO tie is legal traffic for the queue")]
fn legal_mixed_traffic_passes_all_checks() {
    // Near, far, and at-the-drain-point traffic interleaved: every pop runs the
    // occupancy-conservation and monotonicity checks.
    let mut q = EventQueue::new();
    for i in 0..500u64 {
        q.schedule(SimTime::from_ns(i * 37 % 9_000), i);
    }
    q.schedule(SimTime::from_secs(1), 500); // far
    let mut popped = 0;
    while let Some((t, _)) = q.pop() {
        popped += 1;
        if popped == 100 {
            // At the drain point: linked into the cursor's bucket.
            q.schedule(t, 501);
            // A lower-rank follow-on, and a keyed one in the rank just
            // delivered: both behind the key just popped, both legal.
            q.schedule_tied(t, Tie::key(0, 0), 502);
            q.schedule_tied(t, Tie::fifo(0), 503);
        }
    }
    assert_eq!(popped, 504);
}
