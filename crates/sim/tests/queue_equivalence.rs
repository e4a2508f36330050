//! The calendar [`EventQueue`] must be observationally equivalent to the
//! reference binary-heap queue it replaced: for any interleaving of
//! schedules and pops, both structures produce the identical pop sequence —
//! including FIFO order among events scheduled for the same instant, the
//! property that keeps seeded runs reproducible. A sequence number taken
//! early and scheduled under later orders its event exactly where the
//! number says.

use openoptics_sim::to_usize;
use openoptics_sim::{EventQueue, QueueStats, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::fmt::Debug;

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

/// The geometry the exported counts depend on, restated rather than
/// imported: a change to either moves `sim.far_scheduled` on every
/// workload and has to show up here as a reviewed diff. A far epoch is
/// `WINDOW_BUCKETS` buckets, aligned to a multiple of that.
const BUCKET_NS: u64 = 1 << 10;
const WINDOW_BUCKETS: u64 = 4096;

type Keys = BTreeSet<(u64, u64)>;

/// An independent statement of where a schedule lands and where the cursor
/// goes, over three ordered sets of `(time, seq)` keys: enough to predict
/// every delivery, `pop_before` horizons included, and every `QueueStats`
/// field.
#[derive(Default)]
struct Model {
    base: u64,
    cur: u64,
    near: Keys,
    overlay: Keys,
    far: Keys,
    stats: QueueStats,
    next_seq: u64,
    /// What `current_key` answers: the last key delivered, or `(until,
    /// u64::MAX)` once a bounded pop found nothing due by `until`.
    current: (u64, u64),
}

impl Model {
    /// Numbers start at 1.
    fn reserve(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    fn schedule(&mut self, time: u64) -> u64 {
        let seq = self.reserve();
        self.insert(time, seq);
        seq
    }

    fn insert(&mut self, time: u64, seq: u64) {
        self.stats.scheduled_total += 1;
        self.stats.len += 1;
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
        let b = time / BUCKET_NS;
        if b >= self.base + WINDOW_BUCKETS {
            self.stats.far_scheduled += 1;
            self.far.insert((time, seq));
        } else if b < self.cur {
            self.stats.overlay_scheduled += 1;
            self.overlay.insert((time, seq));
        } else {
            self.near.insert((time, seq));
        }
    }

    /// The earliest pending key. Looking for it is what moves the cursor:
    /// not at all while something waits behind it, else to the earliest
    /// ring event's bucket, and when the ring is empty the whole window
    /// jumps to the earliest far event and takes in what now fits.
    fn head(&mut self) -> Option<(u64, u64)> {
        if self.overlay.is_empty() {
            if self.near.is_empty() {
                self.base = self.far.first()?.0 / BUCKET_NS;
                let beyond = self.far.split_off(&((self.base + WINDOW_BUCKETS) * BUCKET_NS, 0));
                self.near = std::mem::replace(&mut self.far, beyond);
            }
            self.cur = self.near.first()?.0 / BUCKET_NS;
        }
        self.near.first().into_iter().chain(self.overlay.first()).min().copied()
    }

    fn pop_before(&mut self, until: u64) -> Option<(u64, u64)> {
        let Some(head) = self.head().filter(|&(time, _)| time <= until) else {
            self.current = self.current.max((until, u64::MAX));
            return None;
        };
        self.current = head;
        if !self.near.remove(&head) {
            self.overlay.remove(&head);
        }
        self.stats.len -= 1;
        self.stats.popped_total += 1;
        Some(head)
    }
}

/// One step of [`drive`]: `raw` picks the offset, the horizon or nothing.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Schedule `raw %` this many ns after the last delivery.
    Ahead(u64),
    /// Schedule up to 3 us *before* the last delivery: the cursor's bucket
    /// or one behind it.
    Behind,
    /// Schedule within 1.5 us of the window's far end: the last ring bucket
    /// or the first far one.
    WindowEdge,
    /// Schedule within 1.5 us of the start of epoch `epoch(base) + k`: the
    /// boundary between two far lists, or, for `k = 1` once `base` is past
    /// its epoch's start, one the window spans.
    EpochEdge(u64),
    /// Take a sequence number without scheduling anything.
    Reserve,
    /// Schedule, `raw %` this many ns after the last delivery, under one of
    /// the numbers reserved and not yet used — never at or behind the
    /// current key, as the engine does when a packet meets an idle link.
    ScheduleReserved(u64),
    /// `pop_before` a horizon up to 20 us past the last delivery — often
    /// short of the head, which moves the cursor and delivers nothing.
    PopBefore,
    Pop,
    /// Clone the queue; the copy takes every later step too.
    Fork,
}

fn step() -> impl Strategy<Value = (Step, u64)> {
    let kind = prop_oneof![
        Just(Step::Ahead(1)),
        Just(Step::Ahead(2_000)),
        Just(Step::Ahead(2_000)),
        Just(Step::Ahead(300_000)),
        Just(Step::Ahead(30_000_000)),
        Just(Step::Behind),
        Just(Step::WindowEdge),
        Just(Step::EpochEdge(1)),
        Just(Step::EpochEdge(2)),
        Just(Step::Reserve),
        Just(Step::Reserve),
        Just(Step::ScheduleReserved(2_000)),
        Just(Step::ScheduleReserved(30_000_000)),
        Just(Step::PopBefore),
        Just(Step::PopBefore),
        Just(Step::Pop),
        Just(Step::Fork),
    ];
    (kind, any::<u64>())
}

/// Run `steps`, then pops enough to drain whatever they left, on a queue
/// carrying `payload(time, seq)`, on every fork of it, and on the
/// [`Model`]; all must agree on every answer and, after every step, on the
/// statistics and the current key.
fn drive<P: Copy + PartialEq + Debug>(
    steps: &[(Step, u64)],
    payload: fn(u64, u64) -> P,
) -> Result<(), TestCaseError> {
    let mut queues = vec![EventQueue::<P>::new()];
    let mut model = Model::default();
    let mut reserved: Vec<u64> = vec![];
    let mut now = 0u64;
    // A step schedules at most one event, so this many pops end on `None`.
    let drain = std::iter::repeat_n((Step::Pop, 0), steps.len() + 1);
    for (step, raw) in steps.iter().copied().chain(drain) {
        let time = match step {
            Step::Ahead(span) => Some(now + raw % span),
            Step::Behind => Some(now.saturating_sub(raw % 3_000)),
            Step::WindowEdge => {
                Some((model.base + WINDOW_BUCKETS) * BUCKET_NS - 1_500 + raw % 3_000)
            }
            Step::EpochEdge(k) => {
                let epoch = model.base / WINDOW_BUCKETS + k;
                Some(epoch * WINDOW_BUCKETS * BUCKET_NS - 1_500 + raw % 3_000)
            }
            _ => None,
        };
        let until = if matches!(step, Step::PopBefore) { now + raw % 20_000 } else { u64::MAX };
        match (step, time) {
            (_, Some(time)) => {
                let seq = model.schedule(time);
                for q in &mut queues {
                    q.schedule(SimTime::from_ns(time), payload(time, seq));
                }
            }
            (Step::Reserve, _) => {
                let seq = model.reserve();
                for q in &mut queues {
                    prop_assert_eq!(q.reserve_seq(), seq);
                }
                reserved.push(seq);
            }
            (Step::ScheduleReserved(span), _) if !reserved.is_empty() => {
                let seq = reserved.swap_remove(to_usize(raw % reserved.len() as u64));
                // The first instant at which `seq` lies after the current key.
                let (at, last) = model.current;
                let earliest = if seq > last { Some(at) } else { at.checked_add(1) };
                if let Some(earliest) = earliest {
                    let time = (now + raw % span).max(earliest);
                    model.insert(time, seq);
                    for q in &mut queues {
                        q.schedule_reserved(SimTime::from_ns(time), seq, payload(time, seq));
                    }
                }
            }
            (Step::ScheduleReserved(_), _) => {}
            (Step::Fork, _) if queues.len() < 4 => queues.push(queues[0].clone()),
            (Step::Fork, _) => {}
            _ => {
                let want = model.pop_before(until);
                for q in &mut queues {
                    let got = q.pop_before(SimTime::from_ns(until));
                    let got = got.map(|(time, p)| (time.as_ns(), p));
                    prop_assert_eq!(got, want.map(|(time, seq)| (time, payload(time, seq))));
                }
                now = want.map_or(now, |(time, _)| time);
            }
        }
        for q in &queues {
            prop_assert_eq!(q.stats(), model.stats);
            let (time, seq) = q.current_key();
            prop_assert_eq!((time.as_ns(), seq), model.current);
        }
    }
    prop_assert_eq!(model.stats.len, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary schedule/pop interleavings with the engine's
    /// characteristic time mix — a dense near-future cluster, a mid-range
    /// band, and sparse watchdog-scale outliers (which cross the calendar's
    /// near-window boundary and exercise the far epochs).
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
    /// schedule successors relative to the popped time.
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

    /// Bounded pops, schedules at and behind the cursor, and forks, against
    /// the model — deliveries, the three-way classification counts and the
    /// fork contract (a clone delivers the identical remainder) — with the
    /// narrow payload and with one the size of the engine's `Event`.
    #[test]
    fn horizons_past_schedules_and_forks_match_the_model(
        steps in collection::vec(step(), 0..300)
    ) {
        drive(&steps, |_, seq| seq)?;
        drive(&steps, wide)?;
    }
}
