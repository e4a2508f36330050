//! The calendar [`EventQueue`] must be observationally equivalent to the
//! reference binary-heap queue it replaced: for any interleaving of
//! schedules and pops, both structures produce the identical pop sequence —
//! same-instant events by rank, then by key, then in scheduling order, the
//! property that keeps seeded runs reproducible. An event scheduled late
//! under a key, or under a lower rank at the instant being delivered, pops
//! exactly where its key says.

use openoptics_sim::{EventQueue, QueueStats, SimTime, Tie};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::fmt::Debug;

/// The key layout, restated rather than imported: a tie's rank in the top 5
/// bits, then a keyed tie's key, or a FIFO tie's flag (bit 58) and the
/// queue's sequence number.
const RANK_SHIFT: u32 = 59;
const FIFO: u64 = 1 << 58;

/// A tie picked by `raw`: one of four ranks, keyed (with a key made unique
/// by `n`, the count of schedules so far) or FIFO; and the order it stands
/// for, given the next sequence number `seq`.
#[expect(clippy::disallowed_methods, reason = "the reference covers the FIFO rank")]
fn tie_of(raw: u64, n: u64, seq: u64) -> (Tie, u64) {
    let rank = (raw % 4) as u8;
    let rank_bits = u64::from(rank) << RANK_SHIFT;
    if raw >> 2 & 1 == 0 {
        (Tie::fifo(rank), rank_bits | FIFO | seq)
    } else {
        let key = ((raw >> 3) % 1_000) << 32 | n;
        (Tie::key(rank, key), rank_bits | key)
    }
}

/// Reference model: a min-heap over `(time, order, payload)`.
type Reference = BinaryHeap<Reverse<(u64, u64, u64)>>;

fn check_pop(cal: &mut EventQueue<u64>, reference: &mut Reference) -> Result<(), TestCaseError> {
    let got = cal.pop().map(|(t, s)| (t.as_ns(), s));
    let want = reference.pop().map(|Reverse((t, _, p))| (t, p));
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
    let want = reference.peek().map(|&Reverse((t, _, p))| (t, wide(t, p)));
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
/// goes, over three ordered sets of `(time, order)` keys: enough to predict
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
    /// FIFO ties scheduled so far: the next one's sequence number.
    next_seq: u64,
}

impl Model {
    /// Schedule at `time` under the tie `raw` picks; return it and its order.
    fn schedule(&mut self, time: u64, raw: u64) -> (Tie, u64) {
        let (tie, order) = tie_of(raw, self.stats.scheduled_total, self.next_seq);
        self.next_seq += u64::from(order & FIFO != 0);
        self.insert(time, order);
        (tie, order)
    }

    fn insert(&mut self, time: u64, order: u64) {
        self.stats.scheduled_total += 1;
        self.stats.len += 1;
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
        let b = time / BUCKET_NS;
        if b >= self.base + WINDOW_BUCKETS {
            self.stats.far_scheduled += 1;
            self.far.insert((time, order));
        } else if b < self.cur {
            self.stats.overlay_scheduled += 1;
            self.overlay.insert((time, order));
        } else {
            self.near.insert((time, order));
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
        let head = self.head().filter(|&(time, _)| time <= until)?;
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
    /// Schedule `raw %` this many ns after the last delivery, under a tie
    /// `raw` picks.
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
    /// Schedule at the instant of the last delivery, under a tie `raw`
    /// picks: often a lower rank or key than the event just delivered, as
    /// the engine does when a handler's follow-on ranks before it.
    AtNow,
    /// Schedule `1 + raw % 64` keyed events, their ranks and keys scattered
    /// by `raw`, at one instant: the last delivery's, 1 ns or 700 ns after
    /// it (the cursor's bucket), or 5 us after it (a bucket opened later).
    /// Most link out of key order, past the walk limit.
    Burst,
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
        Just(Step::AtNow),
        Just(Step::AtNow),
        Just(Step::Burst),
        Just(Step::PopBefore),
        Just(Step::PopBefore),
        Just(Step::Pop),
        Just(Step::Fork),
    ];
    (kind, any::<u64>())
}

/// Run `steps`, then pops enough to drain whatever they left, on a queue
/// carrying `payload(time, order)`, on every fork of it, and on the
/// [`Model`]; all must agree on every answer and, after every step, on the
/// statistics.
fn drive<P: Copy + PartialEq + Debug>(
    steps: &[(Step, u64)],
    payload: fn(u64, u64) -> P,
) -> Result<(), TestCaseError> {
    let mut queues = vec![EventQueue::<P>::new()];
    let mut model = Model::default();
    let mut now = 0u64;
    let burst = |step, raw: u64| if matches!(step, Step::Burst) { 1 + raw % 64 } else { 1 };
    // A step schedules at most `burst` events, so this many pops end on `None`.
    let most: u64 = steps.iter().map(|&(step, raw)| burst(step, raw)).sum();
    let drain = std::iter::repeat_n((Step::Pop, 0), usize::try_from(most).expect("fits") + 1);
    for (step, raw) in steps.iter().copied().chain(drain) {
        let time = match step {
            Step::Ahead(span) => Some(now + raw % span),
            Step::Behind => Some(now.saturating_sub(raw % 3_000)),
            Step::AtNow => Some(now),
            Step::Burst => Some(now + [0, 1, 700, 5_000][(raw >> 8) as usize % 4]),
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
                for i in 0..burst(step, raw) {
                    // A burst's events are keyed (bit 2) under scattered keys.
                    let raw = match step {
                        Step::Burst => (raw ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 4,
                        _ => raw,
                    };
                    let (tie, order) = model.schedule(time, raw);
                    for q in &mut queues {
                        q.schedule_tied(SimTime::from_ns(time), tie, payload(time, order));
                    }
                }
            }
            (Step::Fork, _) if queues.len() < 4 => queues.push(queues[0].clone()),
            (Step::Fork, _) => {}
            _ => {
                let want = model.pop_before(until);
                for q in &mut queues {
                    let got = q.pop_before(SimTime::from_ns(until));
                    let got = got.map(|(time, p)| (time.as_ns(), p));
                    prop_assert_eq!(got, want.map(|(time, order)| (time, payload(time, order))));
                }
                now = want.map_or(now, |(time, _)| time);
            }
        }
        for q in &queues {
            prop_assert_eq!(q.stats(), model.stats);
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
        let (mut n, mut seq) = (0u64, 0u64);
        for &(op, raw) in &ops {
            let time = match op {
                0..=2 => raw % 5_000,                     // dense near-future
                3..=4 => raw % 500_000,                   // slice-scale band
                5 => raw % 100_000_000,                   // watchdog-scale
                _ => 0,                                   // pop
            };
            if op <= 5 {
                // Ties from the low bits, so that the dense band collides.
                let (tie, order) = tie_of(raw, n, seq);
                seq += u64::from(order & FIFO != 0);
                cal.schedule_tied(SimTime::from_ns(time), tie, n);
                cal_wide.schedule_tied(SimTime::from_ns(time), tie, wide(time, n));
                reference.push(Reverse((time, order, n)));
                n += 1;
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

    /// Pure tie stress: every event lands on one of a handful of instants,
    /// so correctness rests entirely on the tie-break — rank, key, and the
    /// sequence number among one rank's unkeyed events.
    #[test]
    fn tie_break_order_is_rank_key_then_fifo(
        times in collection::vec((0u64..4u64, any::<u64>()), 1..200)
    ) {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut reference = Reference::new();
        let mut seq = 0;
        for (n, &(t, raw)) in (0u64..).zip(&times) {
            let time = t * 1_000;
            let (tie, order) = tie_of(raw, n, seq);
            seq += u64::from(order & FIFO != 0);
            cal.schedule_tied(SimTime::from_ns(time), tie, n);
            reference.push(Reverse((time, order, n)));
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
        reference.push(Reverse((0, FIFO | seq, seq)));
        seq += 1;
        for &(fanout, raw) in &steps {
            let got = cal.pop().map(|(t, s)| (t.as_ns(), s));
            let want = reference.pop().map(|Reverse((t, _, p))| (t, p));
            prop_assert_eq!(got, want);
            let Some((now, _)) = got else { break };
            for i in 0..fanout {
                // Successors from sub-µs to multi-ms after `now`.
                let delay = 1 + (raw >> (i * 13)) % 10_000_000;
                cal.schedule(SimTime::from_ns(now + delay), seq);
                reference.push(Reverse((now + delay, FIFO | seq, seq)));
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
        drive(&steps, |_, order| order)?;
        drive(&steps, wide)?;
    }
}
