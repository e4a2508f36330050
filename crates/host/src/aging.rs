//! PIAS-style flow aging (§5.2, "Flow pausing").
//!
//! OpenOptics identifies elephant flows *without explicit flow-size
//! information* by aging: a flow that has already sent more than a
//! threshold is an elephant. Elephants get paused at the source and routed
//! over direct circuits; mice keep flowing immediately.

use openoptics_proto::FlowId;
use openoptics_sim::hash::FxHashMap;

/// Per-flow byte aging with an elephant threshold.
#[derive(Debug, Clone)]
pub struct FlowAging {
    sent: FxHashMap<FlowId, u64>,
    threshold: u64,
}

impl FlowAging {
    /// A tracker that promotes flows to elephants after `threshold` bytes.
    /// PIAS-style demotion thresholds in DCNs sit around 100 KB–1 MB; the
    /// default used across the benchmarks is 1 MB.
    pub fn new(threshold: u64) -> Self {
        FlowAging { sent: FxHashMap::default(), threshold }
    }

    /// Record `bytes` sent on `flow`; returns `true` if this crossing
    /// *just* promoted the flow to elephant (edge-triggered).
    pub fn record(&mut self, flow: FlowId, bytes: u64) -> bool {
        let e = self.sent.entry(flow).or_insert(0);
        let was = *e >= self.threshold;
        *e += bytes;
        !was && *e >= self.threshold
    }

    /// Whether `flow` is currently an elephant.
    pub fn is_elephant(&self, flow: FlowId) -> bool {
        self.sent.get(&flow).map(|&b| b >= self.threshold).unwrap_or(false)
    }

    /// Forget a finished flow.
    pub fn forget(&mut self, flow: FlowId) {
        self.sent.remove(&flow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotes_at_threshold_once() {
        let mut a = FlowAging::new(1_000);
        assert!(!a.record(7, 400));
        assert!(!a.is_elephant(7));
        assert!(a.record(7, 600), "crossing the threshold must edge-trigger");
        assert!(a.is_elephant(7));
        assert!(!a.record(7, 100), "already an elephant: no re-trigger");
        assert_eq!(a.sent.get(&7).copied().unwrap_or(0), 1_100);
    }

    #[test]
    fn flows_age_independently() {
        let mut a = FlowAging::new(500);
        a.record(1, 600);
        a.record(2, 100);
        assert!(a.is_elephant(1));
        assert!(!a.is_elephant(2));
        assert_eq!(a.sent.len(), 2);
    }

    #[test]
    fn forget_resets() {
        let mut a = FlowAging::new(500);
        a.record(1, 600);
        a.forget(1);
        assert!(!a.is_elephant(1));
        assert_eq!(a.sent.get(&1).copied().unwrap_or(0), 0);
        assert_eq!(a.sent.len(), 0);
    }

    #[test]
    fn unknown_flow_is_mouse() {
        let a = FlowAging::new(500);
        assert!(!a.is_elephant(99));
        assert_eq!(a.sent.get(&99).copied().unwrap_or(0), 0);
    }
}
