//! The calendar [`EventQueue`] must be observationally equivalent to the
//! reference binary-heap queue it replaced: for any interleaving of
//! schedules and pops, both structures produce the identical pop sequence —
//! including FIFO order among events scheduled for the same instant, the
//! property that keeps seeded runs reproducible.

use openoptics_sim::{EventQueue, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference model: a min-heap over `(time, seq)`; `seq` is the insertion
/// counter, so ties pop in FIFO order — exactly the queue's contract.
type Reference = BinaryHeap<Reverse<(u64, u64)>>;

fn check_pop(cal: &mut EventQueue<u64>, reference: &mut Reference) -> Result<(), TestCaseError> {
    let got = cal.pop().map(|(t, s)| (t.as_ns(), s));
    let want = reference.pop().map(|Reverse(k)| k);
    prop_assert_eq!(got, want);
    Ok(())
}

/// A 32-byte `Copy` payload — the size of the engine's `Event` — that a
/// queue moving entries by the wrong width would corrupt.
type Wide = [u64; 4];

fn wide(time: u64, seq: u64) -> Wide {
    [seq, !seq, time, seq ^ time]
}

/// Pop the wide-payload queue against the reference's head (left in place
/// for [`check_pop`]): same key, payload intact.
fn check_pop_wide(cal: &mut EventQueue<Wide>, reference: &Reference) -> Result<(), TestCaseError> {
    let got = cal.pop().map(|(t, p)| (t.as_ns(), p));
    let want = reference.peek().map(|&Reverse((t, s))| (t, wide(t, s)));
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary schedule/pop interleavings with the engine's
    /// characteristic time mix — a dense near-future cluster, a mid-range
    /// band, and sparse watchdog-scale outliers (which cross the calendar's
    /// near-window boundary and exercise the far-heap path).
    #[test]
    fn calendar_matches_reference_heap(
        ops in collection::vec((0u8..9u8, any::<u64>()), 0..400)
    ) {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut cal_wide: EventQueue<Wide> = EventQueue::new();
        let mut reference = Reference::new();
        let mut seq = 0u64;
        for &(op, raw) in &ops {
            let time = match op {
                0..=2 => raw % 5_000,                     // dense near-future
                3..=4 => raw % 500_000,                   // slice-scale band
                5 => raw % 100_000_000,                   // watchdog-scale
                _ => 0,                                   // pop
            };
            if op <= 5 {
                cal.schedule(SimTime::from_ns(time), seq);
                cal_wide.schedule(SimTime::from_ns(time), wide(time, seq));
                reference.push(Reverse((time, seq)));
                seq += 1;
            } else {
                check_pop_wide(&mut cal_wide, &reference)?;
                check_pop(&mut cal, &mut reference)?;
            }
        }
        // Drain all three to the end; lengths must agree at every step.
        while !reference.is_empty() || !cal.is_empty() {
            prop_assert_eq!(cal.len(), reference.len());
            prop_assert_eq!(cal_wide.len(), reference.len());
            check_pop_wide(&mut cal_wide, &reference)?;
            check_pop(&mut cal, &mut reference)?;
        }
        prop_assert_eq!(cal.pop(), None);
        prop_assert_eq!(cal_wide.pop(), None);
    }

    /// Pure FIFO stress: every event lands on one of a handful of instants,
    /// so correctness rests entirely on the sequence-number tie-break.
    #[test]
    fn tie_break_order_is_fifo(
        times in collection::vec(0u64..4u64, 1..200)
    ) {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut reference = Reference::new();
        for (seq, &t) in times.iter().enumerate() {
            let time = t * 1_000;
            cal.schedule(SimTime::from_ns(time), seq as u64);
            reference.push(Reverse((time, seq as u64)));
        }
        while !reference.is_empty() {
            check_pop(&mut cal, &mut reference)?;
        }
        prop_assert_eq!(cal.pop(), None);
    }

    /// Monotone self-scheduling (the engine's steady state): pop the head,
    /// schedule successors relative to the popped time. `peek_time` must
    /// always agree with the reference minimum.
    #[test]
    fn steady_state_churn_matches(
        steps in collection::vec((1u64..3u64, any::<u64>()), 1..300)
    ) {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut reference = Reference::new();
        let mut seq = 0u64;
        cal.schedule(SimTime::ZERO, seq);
        reference.push(Reverse((0, seq)));
        seq += 1;
        for &(fanout, raw) in &steps {
            prop_assert_eq!(
                cal.peek_time().map(|t| t.as_ns()),
                reference.peek().map(|Reverse(k)| k.0)
            );
            let got = cal.pop().map(|(t, s)| (t.as_ns(), s));
            let want = reference.pop().map(|Reverse(k)| k);
            prop_assert_eq!(got, want);
            let Some((now, _)) = got else { break };
            for i in 0..fanout {
                // Successors from sub-µs to multi-ms after `now`.
                let delay = 1 + (raw >> (i * 13)) % 10_000_000;
                cal.schedule(SimTime::from_ns(now + delay), seq);
                reference.push(Reverse((now + delay, seq)));
                seq += 1;
            }
        }
        while !reference.is_empty() {
            check_pop(&mut cal, &mut reference)?;
        }
    }
}
