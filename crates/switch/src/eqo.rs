//! Estimated queue occupancy (EQO) — §5.2 and Appendix A.
//!
//! Commercial switches cannot read egress-queue occupancy from the ingress
//! pipeline before enqueueing (Tofino2's ghost thread is milliseconds
//! stale). OpenOptics therefore keeps a register array in the ingress
//! pipeline: incremented by each enqueued packet, decremented periodically
//! by the on-chip packet generator assuming line-rate dequeue of the
//! *active* queue, floored at zero when the queue has emptied.
//!
//! The hardware ticks every `interval_ns` (50 ns in the paper, 20 Mpps).
//! Simulating 20M events per millisecond per switch would swamp the event
//! queue, so the model applies the decrements *lazily*: whole elapsed
//! intervals are applied on every [`Eqo::refresh`], which the ToR calls at
//! each rotation and before each estimate read. Between refreshes the
//! active queue is constant, so lazy application is bit-equivalent to
//! per-tick updates.
//!
//! The registers are one flat array, `port * queues + queue`, as the
//! hardware's register array is: a refresh touches one register per port
//! and an enqueue one register, with no per-port allocation in between.

use openoptics_sim::Bandwidth;
use openoptics_sim::SimTime;

/// The ingress-pipeline occupancy estimator for one switch.
#[derive(Debug, Clone)]
pub struct Eqo {
    /// `regs[port * queues + queue]` — estimated occupancy in bytes.
    regs: Vec<u64>,
    /// Queues per port: the row length of `regs`.
    queues: usize,
    /// Last instant up to which decrements were applied (quantized to whole
    /// intervals).
    applied_until: SimTime,
    interval_ns: u64,
    /// Bytes drained per interval at line rate.
    drain_per_interval: u64,
}

impl Eqo {
    /// Estimator for `ports` ports of `queues` queues each, decrementing
    /// every `interval_ns` at `bandwidth` line rate.
    pub fn new(ports: usize, queues: usize, interval_ns: u64, bandwidth: Bandwidth) -> Self {
        assert!(interval_ns > 0 && queues > 0);
        Eqo {
            regs: vec![0; ports * queues],
            queues,
            applied_until: SimTime::ZERO,
            interval_ns,
            drain_per_interval: bandwidth.bytes_in_ns(interval_ns),
        }
    }

    /// Pipeline overhead of the generator stream: generated packets per
    /// second over the switch's packet-processing capacity (Tofino2:
    /// 1.5 Bpps). At 50 ns this is 1.3% (§7).
    pub fn generator_overhead(&self, switch_pps: f64) -> f64 {
        (1e9 / self.interval_ns as f64) / switch_pps
    }

    /// Apply all whole elapsed intervals of line-rate drain to the active
    /// queue of each port. `active[p]` is port `p`'s active queue index.
    pub fn refresh(&mut self, now: SimTime, active: &[usize]) {
        debug_assert_eq!(active.len() * self.queues, self.regs.len());
        self.refresh_with(now, |p| active[p]);
    }

    /// [`Eqo::refresh`] for a caller that can name each port's active queue
    /// without first collecting the indices (the switch, on every packet).
    pub(crate) fn refresh_with(&mut self, now: SimTime, active: impl Fn(usize) -> usize) {
        let elapsed = now.saturating_since(self.applied_until);
        let ticks = elapsed / self.interval_ns;
        if ticks == 0 {
            return;
        }
        let drain = if cfg!(feature = "strict-invariants") {
            self.drain_per_interval
                .checked_mul(ticks)
                .expect("EQO drain overflowed u64: interval * ticks")
        } else {
            self.drain_per_interval * ticks
        };
        for (p, regs) in self.regs.chunks_exact_mut(self.queues).enumerate() {
            let r = &mut regs[active(p)];
            *r = r.saturating_sub(drain);
        }
        self.applied_until += ticks * self.interval_ns;
        if cfg!(feature = "strict-invariants") {
            // The drain point is quantized to whole intervals, so it may lag
            // `now` by up to one interval but must never pass it or move
            // backwards (refresh with a stale `now` is a caller bug).
            assert!(
                self.applied_until <= now,
                "EQO applied_until {} overtook now {}",
                self.applied_until,
                now,
            );
        }
    }

    /// Record an enqueue of `bytes` into `(port, queue)`.
    pub fn on_enqueue(&mut self, port: usize, queue: usize, bytes: u32) {
        let r = &mut self.regs[port * self.queues + queue];
        if cfg!(feature = "strict-invariants") {
            *r = r.checked_add(u64::from(bytes)).expect("EQO register overflowed u64 on enqueue");
        } else {
            *r += u64::from(bytes);
        }
    }

    /// Current estimate for `(port, queue)`, bytes. Call [`Eqo::refresh`]
    /// first for an up-to-date value.
    pub fn estimate(&self, port: usize, queue: usize) -> u64 {
        self.regs[port * self.queues + queue]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eqo50() -> Eqo {
        Eqo::new(2, 4, 50, Bandwidth::gbps(100))
    }

    #[test]
    fn drain_per_interval_matches_paper() {
        // 100 Gbps x 50 ns = 625 B.
        assert_eq!(eqo50().drain_per_interval, 625);
    }

    #[test]
    fn generator_overhead_matches_paper() {
        // 20 Mpps over 1.5 Bpps = 1.3%.
        let o = eqo50().generator_overhead(1.5e9);
        assert!((o - 0.0133).abs() < 0.001, "overhead {o}");
    }

    #[test]
    fn enqueue_then_lazy_drain() {
        let mut e = eqo50();
        e.on_enqueue(0, 0, 10_000);
        // 8 intervals elapse: drains 8 * 625 = 5_000 from port 0's active q0.
        e.refresh(SimTime::from_ns(400), &[0, 0]);
        assert_eq!(e.estimate(0, 0), 5_000);
        // Non-active queues untouched.
        e.on_enqueue(0, 2, 700);
        e.refresh(SimTime::from_ns(800), &[0, 0]);
        assert_eq!(e.estimate(0, 2), 700);
    }

    #[test]
    fn floors_at_zero_like_hardware() {
        let mut e = eqo50();
        e.on_enqueue(1, 0, 100);
        e.refresh(SimTime::from_us(1), &[0, 0]);
        assert_eq!(e.estimate(1, 0), 0);
    }

    #[test]
    fn each_port_drains_only_its_own_active_queue() {
        let mut e = eqo50();
        for (port, queue) in [(0, 1), (0, 3), (1, 0), (1, 1)] {
            e.on_enqueue(port, queue, 1_000);
        }
        e.refresh(SimTime::from_ns(100), &[1, 0]);
        let regs = [(0, 1), (0, 3), (1, 0), (1, 1)].map(|(p, q)| e.estimate(p, q));
        assert_eq!(regs, [0, 1_000, 0, 1_000]);
    }

    #[test]
    fn partial_intervals_not_applied() {
        let mut e = eqo50();
        e.on_enqueue(0, 0, 1_000);
        e.refresh(SimTime::from_ns(49), &[0, 0]);
        assert_eq!(e.estimate(0, 0), 1_000, "sub-interval elapse must not drain");
        e.refresh(SimTime::from_ns(99), &[0, 0]);
        assert_eq!(e.estimate(0, 0), 375, "one whole interval drains 625");
    }

    #[test]
    fn lazy_equals_eager_tick_sequence() {
        // Applying refresh every interval must equal one big refresh.
        let mut lazy = eqo50();
        let mut eager = eqo50();
        lazy.on_enqueue(0, 1, 9_999);
        eager.on_enqueue(0, 1, 9_999);
        for t in 1..=20u64 {
            eager.refresh(SimTime::from_ns(t * 50), &[1, 0]);
        }
        lazy.refresh(SimTime::from_ns(1_000), &[1, 0]);
        assert_eq!(lazy.estimate(0, 1), eager.estimate(0, 1));
    }

    #[test]
    fn error_bounded_by_interval_quantum() {
        // Ground truth vs estimate in a fill/drain scenario: the estimate
        // may lag by at most one interval quantum (625 B) plus one packet.
        let mut e = eqo50();
        let mut truth: i64 = 0;
        let mut now = 0u64;
        for i in 0..100 {
            // Enqueue a 1500 B packet every 120 ns (line rate at 100G).
            e.on_enqueue(0, 0, 1500);
            truth += 1500;
            now += 120;
            // Line-rate drain of the same amount.
            truth -= 1500;
            e.refresh(SimTime::from_ns(now), &[0, 0]);
            let est = e.estimate(0, 0) as i64;
            let err = (est - truth.max(0)).abs();
            assert!(err <= 625 + 1500, "iteration {i}: error {err}");
        }
    }
}
