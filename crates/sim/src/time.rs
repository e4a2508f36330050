//! Simulation time and time-slice arithmetic.
//!
//! OpenOptics organizes time into fixed-duration *time slices* grouped into
//! an *optical cycle* (§2.1 of the paper): the OCS holds one circuit
//! configuration per slice and the schedule repeats every cycle. All
//! slice-relative reasoning in the framework (time-flow-table matching,
//! calendar-queue ranks, guardbands) reduces to the arithmetic in
//! [`SliceConfig`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// One nanosecond, the base resolution of the simulation clock.
pub const NS: u64 = 1;
/// One microsecond in nanoseconds.
pub const US: u64 = 1_000;
/// One millisecond in nanoseconds.
pub const MS: u64 = 1_000_000;
/// One second in nanoseconds.
pub const SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
///
/// `SimTime` is a transparent `u64` newtype: cheap to copy, totally ordered,
/// and impossible to confuse with a duration or a slice index at the type
/// level of call sites that name it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The time origin.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * US)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * MS)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * SEC)
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Time as fractional microseconds (for reporting).
    #[inline]
    pub(crate) fn as_us_f64(self) -> f64 {
        self.0 as f64 / US as f64
    }

    /// Time as fractional milliseconds (for reporting).
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / MS as f64
    }

    /// Time as fractional seconds (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SEC as f64
    }

    /// Saturating difference `self - earlier`, in nanoseconds.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= SEC {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= MS {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= US {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Index of a time slice within one optical cycle, `0..num_slices`.
pub type SliceIndex = u32;

/// The time-slice structure of an optical schedule.
///
/// `slice_ns` is the slice duration, `num_slices` the number of slices per
/// optical cycle, and `guard_ns` the guardband at the *start* of every slice
/// during which circuits are being reconfigured and in-flight optical data
/// would be lost (§5.3, §7). The paper's headline configuration is a 2 µs
/// slice with a 200 ns guardband (duty cycle 90%).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceConfig {
    /// Duration of one time slice, ns.
    pub slice_ns: u64,
    /// Number of slices in one optical cycle.
    pub num_slices: u32,
    /// Reconfiguration guardband at the start of each slice, ns.
    pub guard_ns: u64,
}

impl SliceConfig {
    /// Create a slice configuration, panicking on degenerate inputs.
    pub fn new(slice_ns: u64, num_slices: u32, guard_ns: u64) -> Self {
        assert!(slice_ns > 0, "slice duration must be positive");
        assert!(num_slices > 0, "cycle must contain at least one slice");
        assert!(
            guard_ns < slice_ns,
            "guardband ({guard_ns} ns) must be shorter than the slice ({slice_ns} ns)"
        );
        SliceConfig { slice_ns, num_slices, guard_ns }
    }

    /// The slice index (within the cycle) active at instant `t`.
    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "the remainder is below num_slices")]
    pub fn slice_at(&self, t: SimTime) -> SliceIndex {
        ((t.0 / self.slice_ns) % self.num_slices as u64) as SliceIndex
    }

    /// Start instant of the slice active at `t`.
    #[inline]
    pub fn slice_start(&self, t: SimTime) -> SimTime {
        SimTime(t.0 - t.0 % self.slice_ns)
    }

    /// Offset of `t` from the start of its slice, ns.
    #[inline]
    pub fn offset_in_slice(&self, t: SimTime) -> u64 {
        t.0 % self.slice_ns
    }

    /// Remaining time in the slice active at `t`, ns (exclusive of `t`).
    #[inline]
    pub fn remaining_in_slice(&self, t: SimTime) -> u64 {
        self.slice_ns - self.offset_in_slice(t)
    }

    /// Whether `t` falls inside the reconfiguration guardband of its slice.
    /// Packets crossing the optical fabric during the guardband are lost.
    #[inline]
    pub fn in_guardband(&self, t: SimTime) -> bool {
        self.offset_in_slice(t) < self.guard_ns
    }

    /// Number of whole slices a packet waits to depart in slice `dep` when it
    /// arrived in slice `arr` (the calendar-queue *rank*, §5.1). Both indices
    /// are cycle-relative; the result is in `0..num_slices`.
    #[inline]
    pub fn rank(&self, arr: SliceIndex, dep: SliceIndex) -> u32 {
        debug_assert!(arr < self.num_slices && dep < self.num_slices);
        if dep >= arr {
            dep - arr
        } else {
            self.num_slices - arr + dep
        }
    }

    /// Slice index `base + delta` wrapped around the cycle.
    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "the remainder is below num_slices")]
    pub fn advance(&self, base: SliceIndex, delta: u32) -> SliceIndex {
        ((base as u64 + delta as u64) % self.num_slices as u64) as SliceIndex
    }

    /// Fraction of each slice usable for data (duty cycle), in `[0,1)`.
    #[inline]
    pub fn duty_cycle(&self) -> f64 {
        1.0 - self.guard_ns as f64 / self.slice_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_constructors_agree() {
        assert_eq!(SimTime::from_us(3), SimTime::from_ns(3_000));
        assert_eq!(SimTime::from_ms(2), SimTime::from_us(2_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
    }

    #[test]
    fn simtime_arith() {
        let t = SimTime::from_us(5);
        assert_eq!((t + 250).as_ns(), 5_250);
        assert_eq!(t - SimTime::from_us(2), 3_000);
        assert_eq!(SimTime::from_ns(10).saturating_since(SimTime::from_ns(20)), 0);
    }

    #[test]
    fn simtime_display_units() {
        assert_eq!(format!("{}", SimTime::from_ns(512)), "512ns");
        assert_eq!(format!("{}", SimTime::from_us(3)), "3.000us");
        assert_eq!(format!("{}", SimTime::from_ms(7)), "7.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000000s");
    }

    #[test]
    fn slice_indexing_wraps_cycle() {
        let sc = SliceConfig::new(2 * US, 8, 200);
        assert_eq!(sc.slice_at(SimTime::ZERO), 0);
        assert_eq!(sc.slice_at(SimTime::from_us(2)), 1);
        assert_eq!(sc.slice_at(SimTime::from_us(15)), 7);
        assert_eq!(sc.slice_at(SimTime::from_us(16)), 0);
    }

    #[test]
    fn slice_boundaries() {
        let sc = SliceConfig::new(1_000, 4, 100);
        let t = SimTime::from_ns(2_345);
        assert_eq!(sc.slice_start(t), SimTime::from_ns(2_000));
        assert_eq!(sc.offset_in_slice(t), 345);
        assert_eq!(sc.remaining_in_slice(t), 655);
    }

    #[test]
    fn guardband_detection() {
        let sc = SliceConfig::new(1_000, 4, 100);
        assert!(sc.in_guardband(SimTime::from_ns(0)));
        assert!(sc.in_guardband(SimTime::from_ns(99)));
        assert!(!sc.in_guardband(SimTime::from_ns(100)));
        assert!(sc.in_guardband(SimTime::from_ns(1_050)));
    }

    #[test]
    fn rank_wraps() {
        let sc = SliceConfig::new(1_000, 8, 100);
        assert_eq!(sc.rank(0, 0), 0);
        assert_eq!(sc.rank(0, 3), 3);
        assert_eq!(sc.rank(6, 1), 3);
        assert_eq!(sc.rank(7, 0), 1);
    }

    #[test]
    fn advance_wraps() {
        let sc = SliceConfig::new(1_000, 8, 100);
        assert_eq!(sc.advance(6, 3), 1);
        assert_eq!(sc.advance(0, 16), 0);
    }

    #[test]
    fn duty_cycle_matches_paper() {
        // 2 us slice, 200 ns guardband -> 90% duty cycle (§7).
        let sc = SliceConfig::new(2_000, 8, 200);
        assert!((sc.duty_cycle() - 0.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "guardband")]
    fn rejects_guard_longer_than_slice() {
        SliceConfig::new(100, 4, 100);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_cfg() -> impl Strategy<Value = SliceConfig> {
        (1u64..1_000_000, 1u32..256).prop_flat_map(|(slice, n)| {
            (0..slice).prop_map(move |guard| SliceConfig {
                slice_ns: slice,
                num_slices: n,
                guard_ns: guard,
            })
        })
    }

    proptest! {
        #[test]
        fn slice_at_is_consistent_with_boundaries(cfg in arb_cfg(), t in 0u64..u64::MAX / 4) {
            let t = SimTime::from_ns(t);
            let slice = cfg.slice_at(t);
            prop_assert!(slice < cfg.num_slices);
            let start = cfg.slice_start(t);
            prop_assert!(start <= t);
            prop_assert!(t.as_ns() - start.as_ns() < cfg.slice_ns);
            prop_assert_eq!(cfg.slice_at(start), slice);
            prop_assert_eq!(cfg.offset_in_slice(t) + cfg.remaining_in_slice(t), cfg.slice_ns);
        }

        #[test]
        fn rank_and_advance_are_inverse(cfg in arb_cfg(), arr in any::<u32>(), d in any::<u32>()) {
            let arr = arr % cfg.num_slices;
            let d = d % cfg.num_slices;
            let dep = cfg.advance(arr, d);
            prop_assert_eq!(cfg.rank(arr, dep), d);
        }
    }
}
