//! Generic event-loop driver.
//!
//! A [`World`] owns all simulation state and interprets events; [`run`]
//! repeatedly pops the earliest event and hands it to the world together
//! with the queue so handlers can schedule follow-ups. Time never flows
//! backwards through a run: the loop asserts (debug builds and
//! `strict-invariants`) that each event fires no earlier than the one before
//! it. Nothing checks a `schedule` — the queue accepts a time behind its
//! cursor and delivers it next, in `(time, order)` order — so a handler that
//! schedules before `now` is caught here, at the pop.

use crate::event::EventQueue;
use crate::time::SimTime;

/// Simulation state machine: interprets events of type `Self::Event`.
pub trait World {
    /// The event alphabet of this world. `Copy`: the queue stores an
    /// event once and moves it as plain bytes.
    type Event: Copy;

    /// Handle one event at instant `now`, scheduling any follow-up events on
    /// `queue`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Drain events until the queue empties or the next event fires after
/// `until` (events at exactly `until` are executed). Returns the number of
/// events executed and the timestamp of the last executed event.
pub fn run<W: World>(
    world: &mut W,
    queue: &mut EventQueue<W::Event>,
    until: SimTime,
) -> (u64, SimTime) {
    let mut executed = 0u64;
    let mut last = SimTime::ZERO;
    while let Some((now, ev)) = queue.pop_before(until) {
        debug_assert!(now >= last, "event queue delivered time travel: {now} < {last}");
        if cfg!(feature = "strict-invariants") {
            assert!(now >= last, "event queue delivered time travel: {now} < {last}");
        }
        world.handle(now, ev, queue);
        executed += 1;
        last = now;
    }
    (executed, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that counts down: each event schedules the next one 10 ns later.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl World for Countdown {
        type Event = ();
        fn handle(&mut self, now: SimTime, _: (), q: &mut EventQueue<()>) {
            self.fired_at.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                q.schedule(now + 10, ());
            }
        }
    }

    #[test]
    fn runs_chain_to_completion() {
        let mut w = Countdown { remaining: 4, fired_at: vec![] };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        let (n, last) = run(&mut w, &mut q, SimTime::from_secs(1));
        assert_eq!(n, 5);
        assert_eq!(last, SimTime::from_ns(40));
        assert_eq!(w.fired_at.len(), 5);
    }

    #[test]
    fn horizon_is_inclusive() {
        let mut w = Countdown { remaining: 100, fired_at: vec![] };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        let (n, last) = run(&mut w, &mut q, SimTime::from_ns(30));
        assert_eq!(n, 4); // events at 0, 10, 20, 30
        assert_eq!(last, SimTime::from_ns(30));
        // The event at 40 ns remains queued.
        assert_eq!(q.pop(), Some((SimTime::from_ns(40), ())));
    }
}
