//! UDP RTT probing (Fig. 13).
//!
//! The emulation-accuracy experiment of §7 continuously sends UDP packets
//! between two hosts and measures per-packet RTT; the distribution shows
//! stepped increases corresponding to additional routing hops. This module
//! collects the samples and computes the distribution statistics.

use openoptics_sim::nearest_rank;
use openoptics_sim::time::SimTime;

/// RTT sample collector for a probe train.
#[derive(Debug, Default, Clone)]
pub struct ProbeStats {
    samples_ns: Vec<u64>,
    /// Hop count of each probe's forward path (parallel to `samples_ns`).
    hops: Vec<u8>,
    /// Probes sent.
    pub sent: u64,
    /// Probes that never returned.
    pub lost: u64,
}

impl ProbeStats {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed probe.
    pub fn record(&mut self, sent_at: SimTime, received_at: SimTime, hops: u8) {
        self.samples_ns.push(received_at.saturating_since(sent_at));
        self.hops.push(hops);
    }

    /// Number of completed probes.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// Whether no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    /// Nearest-rank RTT percentile in ns (p in [0, 100], to a thousandth):
    /// the smallest sample with at least p% of the mass at or below it.
    #[expect(clippy::cast_possible_truncation, reason = "`as` saturates; the rank is clamped")]
    pub fn percentile_ns(&self, p: f64) -> Option<u64> {
        let mut v = self.samples_ns.clone();
        v.sort_unstable();
        let rank = nearest_rank(v.len(), (p * 1_000.0).round() as u64, 100_000);
        rank.checked_sub(1).map(|i| v[i])
    }

    /// Mean RTT, ns.
    pub fn mean_ns(&self) -> Option<f64> {
        if self.samples_ns.is_empty() {
            return None;
        }
        Some(self.samples_ns.iter().sum::<u64>() as f64 / self.samples_ns.len() as f64)
    }

    /// The full sorted sample vector (for CDF plotting).
    pub fn sorted_ns(&self) -> Vec<u64> {
        let mut v = self.samples_ns.clone();
        v.sort_unstable();
        v
    }

    /// Distinct RTT "steps": cluster the sorted samples with a relative gap
    /// threshold and return the cluster means — the hop-count steps visible
    /// in Fig. 13.
    pub fn steps_ns(&self, gap_ratio: f64) -> Vec<u64> {
        let v = self.sorted_ns();
        if v.is_empty() {
            return vec![];
        }
        let mut steps = vec![];
        let mut cluster = vec![v[0]];
        for &s in &v[1..] {
            let last = *cluster.last().expect("non-empty cluster");
            if last > 0 && (s as f64 - last as f64) / last as f64 > gap_ratio {
                steps.push(cluster.iter().sum::<u64>() / cluster.len() as u64);
                cluster = vec![s];
            } else {
                cluster.push(s);
            }
        }
        steps.push(cluster.iter().sum::<u64>() / cluster.len() as u64);
        steps
    }

    /// Mean RTT per forward hop count (`(hops, mean_ns, count)` tuples).
    pub fn by_hops(&self) -> Vec<(u8, f64, usize)> {
        let mut buckets: std::collections::BTreeMap<u8, (u64, usize)> = Default::default();
        for (s, h) in self.samples_ns.iter().zip(&self.hops) {
            let e = buckets.entry(*h).or_insert((0, 0));
            e.0 += s;
            e.1 += 1;
        }
        buckets.into_iter().map(|(h, (sum, n))| (h, sum as f64 / n as f64, n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(rtts: &[(u64, u8)]) -> ProbeStats {
        let mut p = ProbeStats::new();
        for &(ns, hops) in rtts {
            p.record(SimTime::ZERO, SimTime::from_ns(ns), hops);
        }
        p
    }

    #[test]
    fn percentiles() {
        let p = fill(&(1..=100).map(|i| (i * 10, 1)).collect::<Vec<_>>());
        assert_eq!(p.percentile_ns(0.0), Some(10));
        assert_eq!(p.percentile_ns(50.0), Some(500));
        assert_eq!(p.percentile_ns(100.0), Some(1000));
        assert_eq!(p.len(), 100);
    }

    #[test]
    fn empty_stats() {
        let p = ProbeStats::new();
        assert!(p.is_empty());
        assert_eq!(p.percentile_ns(50.0), None);
        assert_eq!(p.mean_ns(), None);
        assert!(p.steps_ns(0.3).is_empty());
    }

    #[test]
    fn step_detection_finds_hop_clusters() {
        // Two clear clusters: ~5us (1 hop) and ~105us (2 hops, waited a slice).
        let mut samples = vec![];
        for i in 0..50 {
            samples.push((5_000 + i * 10, 1u8));
            samples.push((105_000 + i * 10, 2u8));
        }
        let p = fill(&samples);
        let steps = p.steps_ns(0.5);
        assert_eq!(steps.len(), 2, "steps: {steps:?}");
        assert!((4_000..7_000).contains(&steps[0]));
        assert!((100_000..110_000).contains(&steps[1]));
    }

    #[test]
    fn by_hops_groups_correctly() {
        let p = fill(&[(100, 1), (200, 1), (1_000, 2)]);
        let by = p.by_hops();
        assert_eq!(by.len(), 2);
        assert_eq!(by[0], (1, 150.0, 2));
        assert_eq!(by[1], (2, 1_000.0, 1));
    }
}
