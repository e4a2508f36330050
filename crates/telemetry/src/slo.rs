//! Per-service SLO accounting.
//!
//! A service is a named stream of request latencies (flow completion
//! times tagged by the workload layer). Each service carries a
//! [`QuantileSketch`] of its latencies and, when an [`SloTarget`] is
//! declared, integer burn-rate accounting:
//!
//! * **Objective.** `objective_milli` per-mille of requests must complete
//!   within `latency_ns` (e.g. `999` = 99.9 %). The complement,
//!   `1000 - objective_milli`, is the error budget.
//! * **Burn rate.** `burn_milli` is the cumulative budget-consumption rate
//!   in per-mille: 1000 means the service is burning its error budget
//!   exactly as fast as the objective allows; above 1000 the SLO is being
//!   violated over the whole run.
//! * **Rolling window.** Breach detection uses tumbling sim-time windows of
//!   `window_ns`: within the current window, the service is *breached* when
//!   `bad × 1000 > budget × total`. Transitions are reported so the engine
//!   can trace them and push frames to subscribers.
//! * **Fault attribution.** Each bad sample recorded while any injected
//!   fault window was active is also counted in `bad_in_fault`, giving the
//!   degradation-under-faults view: what fraction of SLO burn happened
//!   under an active fault.
//!
//! Everything is integer arithmetic on sim-time values, so SLO state is
//! byte-identical at any worker count.

use crate::json::{ToJson, Writer};
use crate::sketch::QuantileSketch;

/// A declared latency objective for one service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloTarget {
    /// Latency threshold: a request slower than this is "bad".
    pub latency_ns: u64,
    /// Objective fraction in per-mille (999 = 99.9 % of requests fast).
    pub objective_milli: u32,
    /// Tumbling sim-time window for breach detection.
    pub window_ns: u64,
}

/// A breach-state change produced by recording a sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloTransition {
    /// The current window started violating the objective.
    Breach,
    /// The current window came back within the objective.
    Recover,
}

/// Latency statistics (and optional SLO accounting) for one service.
#[derive(Clone, Debug)]
pub struct ServiceStats {
    name: String,
    target: Option<SloTarget>,
    sketch: QuantileSketch,
    total: u64,
    bad: u64,
    bad_in_fault: u64,
    win_epoch: u64,
    win_total: u64,
    win_bad: u64,
    breached: bool,
}

impl ServiceStats {
    /// A fresh service with an optional SLO target.
    pub fn new(name: String, target: Option<SloTarget>) -> Self {
        ServiceStats {
            name,
            target,
            sketch: QuantileSketch::new(),
            total: 0,
            bad: 0,
            bad_in_fault: 0,
            win_epoch: 0,
            win_total: 0,
            win_bad: 0,
            breached: false,
        }
    }

    /// The service name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record one request latency observed at sim time `at_ns`.
    /// `fault_active` is whether any injected fault window was active, for
    /// burn attribution. Returns a breach-state transition when the rolling
    /// window crossed the objective in either direction.
    pub fn record(
        &mut self,
        at_ns: u64,
        latency_ns: u64,
        fault_active: bool,
    ) -> Option<SloTransition> {
        self.sketch.record(latency_ns);
        self.total += 1;
        let target = self.target?;
        if let Some(epoch) = at_ns.checked_div(target.window_ns) {
            if epoch != self.win_epoch {
                self.win_epoch = epoch;
                self.win_total = 0;
                self.win_bad = 0;
            }
        }
        self.win_total += 1;
        if latency_ns > target.latency_ns {
            self.bad += 1;
            self.win_bad += 1;
            if fault_active {
                self.bad_in_fault += 1;
            }
        }
        let budget = u64::from(1000 - target.objective_milli.min(1000));
        let breached_now = self.win_bad * 1000 > budget * self.win_total;
        match (self.breached, breached_now) {
            (false, true) => {
                self.breached = true;
                Some(SloTransition::Breach)
            }
            (true, false) => {
                self.breached = false;
                Some(SloTransition::Recover)
            }
            _ => None,
        }
    }

    /// Cumulative burn rate in per-mille of the error budget (1000 = the
    /// budget is being consumed exactly as fast as the objective allows;
    /// 0 when no target is declared or nothing was recorded).
    pub fn burn_milli(&self) -> u64 {
        let Some(target) = self.target else { return 0 };
        let budget = u128::from(1000 - target.objective_milli.min(1000));
        if self.total == 0 || budget == 0 {
            return 0;
        }
        let num = u128::from(self.bad) * 1_000_000;
        u64::try_from(num / (u128::from(self.total) * budget)).unwrap_or(u64::MAX)
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples slower than the target threshold.
    pub fn bad(&self) -> u64 {
        self.bad
    }

    /// Point-in-time summary for exports and sample frames.
    pub fn summary(&self) -> SloSummary {
        SloSummary {
            service: self.name.clone(),
            count: self.total,
            p50_ns: self.sketch.p50(),
            p99_ns: self.sketch.p99(),
            p999_ns: self.sketch.p999(),
            bad: self.bad,
            bad_in_fault: self.bad_in_fault,
            burn_milli: self.burn_milli(),
            breached: self.breached,
            has_target: self.target.is_some(),
        }
    }
}

/// Rendered per-service summary (integer-only; see [`ServiceStats`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloSummary {
    /// Service name.
    pub service: String,
    /// Latency samples recorded.
    pub count: u64,
    /// Median latency (sketch upper bound), ns.
    pub p50_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// 99.9th-percentile latency, ns.
    pub p999_ns: u64,
    /// Samples over the SLO threshold.
    pub bad: u64,
    /// Over-threshold samples observed during an active fault window.
    pub bad_in_fault: u64,
    /// Cumulative error-budget burn rate, per-mille.
    pub burn_milli: u64,
    /// Whether the current window is in breach.
    pub breached: bool,
    /// Whether an SLO target is declared for this service.
    pub has_target: bool,
}

impl ToJson for SloSummary {
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.field("service", &self.service);
            w.field("count", self.count);
            w.field("p50_ns", self.p50_ns);
            w.field("p99_ns", self.p99_ns);
            w.field("p999_ns", self.p999_ns);
            if self.has_target {
                w.field("bad", self.bad);
                w.field("bad_in_fault", self.bad_in_fault);
                w.field("burn_milli", self.burn_milli);
                w.field("breached", self.breached);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn target() -> SloTarget {
        SloTarget { latency_ns: 1_000, objective_milli: 900, window_ns: 1_000_000 }
    }

    #[test]
    fn breach_and_recover_transitions() {
        let mut s = ServiceStats::new("svc".into(), Some(target()));
        // Nine fast, one slow: exactly at the 90% objective — not breached
        // (strict inequality).
        for i in 0..9 {
            assert_eq!(s.record(i, 10, false), None);
        }
        assert_eq!(s.record(9, 5_000, false), None);
        // Another slow one tips the window over budget.
        assert_eq!(s.record(10, 5_000, false), Some(SloTransition::Breach));
        assert!(s.breached);
        // A new window full of fast requests recovers.
        assert_eq!(s.record(1_000_001, 10, false), Some(SloTransition::Recover));
        assert!(!s.breached);
    }

    #[test]
    fn burn_rate_is_per_mille_of_budget() {
        let mut s = ServiceStats::new("svc".into(), Some(target()));
        // 10% budget; 10% of requests bad => burn exactly 1000.
        for i in 0..90 {
            s.record(i, 10, false);
        }
        for i in 90..100 {
            s.record(i, 5_000, i % 2 == 0);
        }
        assert_eq!(s.burn_milli(), 1000);
        assert_eq!(s.bad(), 10);
        assert_eq!(s.bad_in_fault, 5);
    }

    #[test]
    fn no_target_still_tracks_latency() {
        let mut s = ServiceStats::new("svc".into(), None);
        assert_eq!(s.record(0, 123, true), None);
        assert_eq!(s.burn_milli(), 0);
        assert_eq!(s.total(), 1);
        assert_eq!(s.sketch.count(), 1);
        let json = json::render(&s.summary());
        assert!(!json.contains("burn_milli"), "{json}");
    }
}
