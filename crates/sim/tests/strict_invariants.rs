//! Proof that the `strict-invariants` checks actually fire: a deliberately
//! corrupted queue must trip the `(time, seq)` monotonicity assertion, a
//! reserved number scheduled behind the current key must be refused, and a
//! legal mixed workload must not trip anything.

#![cfg(feature = "strict-invariants")]

use openoptics_sim::{EventQueue, SimTime};

#[test]
#[should_panic(expected = "keys out of order")]
fn monotonicity_check_trips_on_rewound_queue() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_ns(10), ());
    // Claim an event far in the future was already delivered; the next pop
    // rewinds the (time, seq) key and must be caught.
    q.force_last_popped_for_test(SimTime::from_ns(1_000), 999);
    let _ = q.pop();
}

#[test]
#[should_panic(expected = "at or behind the current key")]
fn a_reserved_key_behind_the_current_key_is_refused() {
    let mut q = EventQueue::new();
    let seq = q.reserve_seq();
    q.schedule(SimTime::from_ns(10), ());
    let _ = q.pop();
    // `(10 ns, seq)` would have fired before the event just delivered.
    q.schedule_reserved(SimTime::from_ns(10), seq, ());
}

#[test]
fn legal_mixed_traffic_passes_all_checks() {
    // Near, far, and overlay traffic interleaved: every pop runs the
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
            // Behind the drain point: lands in the overlay.
            q.schedule(t, 501);
        }
    }
    assert_eq!(popped, 502);
}
