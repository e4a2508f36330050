//! Flow-completion-time statistics (Figs. 8 and 10).
//!
//! Records per-flow `(size, start, end)` and reports the distributions the
//! paper plots: percentiles and CDFs, split into mice and elephants by the
//! customary DCN thresholds (mice < 100 KB, elephants ≥ 1 MB).

use openoptics_proto::FlowId;
use openoptics_sim::hash::FxHashMap;
use openoptics_sim::nearest_rank;
use openoptics_sim::SimTime;

/// Mice/elephant size split, bytes.
pub const MICE_MAX_BYTES: u64 = 100_000;
/// Elephant threshold, bytes.
pub const ELEPHANT_MIN_BYTES: u64 = 1_000_000;

/// One completed flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowRecord {
    /// Flow identity.
    pub flow: FlowId,
    /// Payload bytes.
    pub bytes: u64,
    /// Start time.
    pub start: SimTime,
    /// Completion time.
    pub end: SimTime,
}

impl FlowRecord {
    /// Flow completion time, ns.
    pub fn fct_ns(&self) -> u64 {
        self.end.saturating_since(self.start)
    }
}

/// FCT collector.
#[derive(Clone, Debug, Default)]
pub struct FctStats {
    started: FxHashMap<FlowId, (u64, SimTime)>,
    completed: Vec<FlowRecord>,
}

impl FctStats {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a flow start.
    pub fn start(&mut self, flow: FlowId, bytes: u64, at: SimTime) {
        self.started.insert(flow, (bytes, at));
    }

    /// Register a flow completion, returning the record so callers can feed
    /// latency accounting (service SLOs, flow-class sketches) without a
    /// second lookup; unknown flows are ignored (e.g. flows started before
    /// the measurement window) and return `None`.
    pub fn complete(&mut self, flow: FlowId, at: SimTime) -> Option<FlowRecord> {
        let (bytes, start) = self.started.remove(&flow)?;
        let rec = FlowRecord { flow, bytes, start, end: at };
        self.completed.push(rec);
        Some(rec)
    }

    /// Make room for exactly `n` more completion records, so a run whose
    /// flow count is known up front never doubles the record list.
    pub fn reserve_exact(&mut self, n: usize) {
        self.completed.reserve_exact(n);
    }

    /// Completed flows.
    pub fn completed(&self) -> &[FlowRecord] {
        &self.completed
    }

    /// Flows still outstanding.
    pub fn outstanding(&self) -> usize {
        self.started.len()
    }

    /// FCTs (ns) of flows whose size falls in `[min_bytes, max_bytes)`.
    pub fn fcts_in_range(&self, min_bytes: u64, max_bytes: u64) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .completed
            .iter()
            .filter(|r| r.bytes >= min_bytes && r.bytes < max_bytes)
            .map(|r| r.fct_ns())
            .collect();
        v.sort_unstable();
        v
    }

    /// Mice-flow FCTs (sorted, ns).
    pub fn mice_fcts(&self) -> Vec<u64> {
        self.fcts_in_range(0, MICE_MAX_BYTES)
    }

    /// Nearest-rank percentile of a sorted sample vector, `p` in percent
    /// to a thousandth ([`nearest_rank`]).
    #[expect(clippy::cast_possible_truncation, reason = "`as` saturates; the rank is clamped")]
    pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
        let rank = nearest_rank(sorted.len(), (p * 1_000.0).round() as u64, 100_000);
        rank.checked_sub(1).map(|i| sorted[i])
    }

    /// Mean of a sample vector, ns.
    pub fn mean(samples: &[u64]) -> Option<f64> {
        if samples.is_empty() {
            return None;
        }
        Some(samples.iter().sum::<u64>() as f64 / samples.len() as f64)
    }

    /// CDF points `(fct_ns, cumulative fraction)` at `resolution` evenly
    /// spaced fractions — the series Figs. 8/10 plot.
    pub fn cdf(sorted: &[u64], resolution: usize) -> Vec<(u64, f64)> {
        if sorted.is_empty() {
            return vec![];
        }
        (1..=resolution)
            .map(|i| {
                let rank = nearest_rank(sorted.len(), i as u64, resolution as u64);
                (sorted[rank - 1], i as f64 / resolution as f64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(stats: &mut FctStats, flow: FlowId, bytes: u64, start_ns: u64, end_ns: u64) {
        stats.start(flow, bytes, SimTime::from_ns(start_ns));
        let _ = stats.complete(flow, SimTime::from_ns(end_ns));
    }

    #[test]
    fn record_lifecycle() {
        let mut s = FctStats::new();
        s.start(1, 5_000, SimTime::from_ns(100));
        assert_eq!(s.outstanding(), 1);
        assert!(s.complete(1, SimTime::from_ns(600)).is_some());
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.completed().len(), 1);
        assert_eq!(s.completed()[0].fct_ns(), 500);
    }

    #[test]
    fn unknown_completion_ignored() {
        let mut s = FctStats::new();
        assert!(s.complete(9, SimTime::from_ns(10)).is_none());
        assert!(s.completed().is_empty());
    }

    #[test]
    fn mice_elephant_split() {
        let mut s = FctStats::new();
        rec(&mut s, 1, 4_200, 0, 1_000); // mouse
        rec(&mut s, 2, 50_000, 0, 2_000); // mouse
        rec(&mut s, 3, 500_000, 0, 3_000); // medium (neither)
        rec(&mut s, 4, 20_000_000, 0, 9_000); // elephant
        assert_eq!(s.mice_fcts(), vec![1_000, 2_000]);
        assert_eq!(s.fcts_in_range(ELEPHANT_MIN_BYTES, u64::MAX), vec![9_000]);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(FctStats::percentile(&v, 50.0), Some(50));
        assert_eq!(FctStats::percentile(&v, 99.0), Some(99));
        assert_eq!(FctStats::percentile(&v, 99.9), Some(100));
        let thousand: Vec<u64> = (1..=1_000).collect();
        assert_eq!(FctStats::percentile(&thousand, 99.9), Some(999));
        assert_eq!(FctStats::percentile(&v, 100.0), Some(100));
        assert_eq!(FctStats::percentile(&[], 50.0), None);
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let v: Vec<u64> = (1..=1000).map(|i| i * 3).collect();
        let cdf = FctStats::cdf(&v, 20);
        assert_eq!(cdf.len(), 20);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn mean_helper() {
        assert_eq!(FctStats::mean(&[10, 20, 30]), Some(20.0));
        assert_eq!(FctStats::mean(&[]), None);
    }
}
