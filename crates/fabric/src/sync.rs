//! Clock synchronization error model.
//!
//! OpenOptics synchronizes switches and NICs with the optical controller at
//! nanosecond precision using a hardware-independent protocol described in
//! a companion paper ("OpSync"); §7 reports up to **28 ns** of error in a
//! 192-ToR deployment, requiring a 2×28 = 56 ns guardband contribution for
//! clock discrepancy above and below true time.
//!
//! We model the *result* of that protocol: each node holds a bounded,
//! slowly-drifting offset from the global simulation clock. Queue-rotation
//! triggers and packet-generator ticks on a node fire at the node's local
//! rendering of the boundary, which is how sync error feeds the guardband.

use openoptics_sim::SimRng;
use openoptics_sim::SimTime;

/// Per-node clock offsets, bounded by `max_err_ns` in absolute value.
#[derive(Clone, Debug)]
pub struct ClockSync {
    offsets_ns: Vec<i64>,
    max_err_ns: u64,
}

impl ClockSync {
    /// Perfect synchronization (all offsets zero).
    pub fn perfect(num_nodes: u32) -> Self {
        ClockSync { offsets_ns: vec![0; num_nodes as usize], max_err_ns: 0 }
    }

    /// Draw a uniformly distributed offset in `[-max_err_ns, +max_err_ns]`
    /// for each node — the steady-state residual of the sync protocol.
    pub fn uniform(num_nodes: u32, max_err_ns: u64, rng: &mut SimRng) -> Self {
        let offsets_ns =
            (0..num_nodes).map(|_| rng.range(-(max_err_ns as i64)..=max_err_ns as i64)).collect();
        ClockSync { offsets_ns, max_err_ns }
    }

    /// The paper's measured bound: 28 ns in a 192-ToR network (§7).
    pub const PAPER_MAX_ERR_NS: u64 = 28;

    /// Maximum absolute offset this model was built with.
    pub fn max_err_ns(&self) -> u64 {
        self.max_err_ns
    }

    /// The node's local clock reading at global instant `t`.
    pub fn local_time(&self, node: usize, t: SimTime) -> SimTime {
        let o = self.offsets_ns[node];
        if o >= 0 {
            t + o as u64
        } else {
            SimTime::from_ns(t.as_ns().saturating_sub((-o) as u64))
        }
    }

    /// The global instant at which the node's local clock shows `local` —
    /// i.e. when a timer set for local time `local` actually fires.
    pub fn global_fire_time(&self, node: usize, local: SimTime) -> SimTime {
        let o = self.offsets_ns[node];
        if o >= 0 {
            SimTime::from_ns(local.as_ns().saturating_sub(o as u64))
        } else {
            local + (-o) as u64
        }
    }

    /// Guardband contribution of clock error: discrepancies can land above
    /// or below true time, so 2x the max error (§7).
    pub fn guardband_contribution_ns(&self) -> u64 {
        2 * self.max_err_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_sync_is_identity() {
        let cs = ClockSync::perfect(4);
        let t = SimTime::from_us(5);
        for n in 0..4 {
            assert_eq!(cs.local_time(n, t), t);
            assert_eq!(cs.global_fire_time(n, t), t);
        }
        assert_eq!(cs.guardband_contribution_ns(), 0);
    }

    #[test]
    fn offsets_bounded() {
        let mut rng = SimRng::new(1);
        let cs = ClockSync::uniform(100, 28, &mut rng);
        assert!(cs.offsets_ns.iter().all(|o| o.unsigned_abs() <= 28));
        assert_eq!(cs.guardband_contribution_ns(), 56);
    }

    #[test]
    fn local_and_fire_time_invert() {
        let mut rng = SimRng::new(2);
        let cs = ClockSync::uniform(16, 28, &mut rng);
        let t = SimTime::from_us(100);
        for n in 0..16 {
            // A timer set for the local rendering of t fires at global t.
            let local = cs.local_time(n, t);
            assert_eq!(cs.global_fire_time(n, local), t, "node {n}");
        }
    }

    #[test]
    fn fire_times_spread_within_band() {
        let mut rng = SimRng::new(3);
        let cs = ClockSync::uniform(50, 28, &mut rng);
        let boundary = SimTime::from_us(10);
        let fires: Vec<u64> = (0..50).map(|n| cs.global_fire_time(n, boundary).as_ns()).collect();
        let lo = *fires.iter().min().unwrap();
        let hi = *fires.iter().max().unwrap();
        assert!(lo >= boundary.as_ns() - 28);
        assert!(hi <= boundary.as_ns() + 28);
        assert!(hi > lo, "expected some spread across 50 nodes");
    }
}
