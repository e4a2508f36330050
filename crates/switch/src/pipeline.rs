//! Switch-to-switch delay model (Fig. 11, §7).
//!
//! The paper measures the delay from queue-rotation trigger on the sender
//! to Rx-MAC arrival at the receiver, through the MEMS OCS: pipeline
//! processing + serialization + on-wire propagation. Measured bounds:
//! **1287 ns minimum, 1324 ns maximum** across packet sizes, a 34 ns
//! spread the guardband must absorb; the minimum is offset away by starting
//! rotation early.
//!
//! Model: a fixed pipeline+propagation base, a size-proportional
//! serialization term at the 400 Gbps ToR-fabric link rate, and a small
//! bounded jitter for PHY/MAC variance. Calibrated so a 64 B probe lands at
//! ~1287 ns and a 1500 B frame at up to ~1324 ns.

use openoptics_sim::Bandwidth;
use openoptics_sim::SimRng;

/// Delay model for one hop: endpoint node → optical fabric → endpoint node.
#[derive(Clone, Copy, Debug)]
pub struct PipelineModel {
    /// Fixed term: ingress+egress pipeline latency and fiber propagation, ns.
    pub base_ns: u64,
    /// Link rate used for the serialization term.
    pub link: Bandwidth,
    /// Uniform jitter bound (inclusive), ns.
    pub jitter_ns: u64,
}

impl Default for PipelineModel {
    fn default() -> Self {
        // Calibration (Fig. 11): 64 B  -> 1286 + 1 + j,  j in 0..=7  => 1287..=1294
        //                        1500 B -> 1286 + 30 + j             => 1316..=1323
        PipelineModel { base_ns: 1_286, link: Bandwidth::gbps(400), jitter_ns: 7 }
    }
}

impl PipelineModel {
    /// Delay for a packet of `size` bytes, with jitter drawn from `rng`.
    pub fn delay_ns(&self, size: u32, rng: &mut SimRng) -> u64 {
        self.base_ns
            + self.link.tx_time_ns(size as u64).max(1)
            + if self.jitter_ns > 0 { rng.range(0..=self.jitter_ns) } else { 0 }
    }

    /// Minimum possible delay (the offset applied to rotation start so the
    /// least-delayed packet meets the circuit, §7).
    pub(crate) fn min_delay_ns(&self) -> u64 {
        self.base_ns + self.link.tx_time_ns(64).max(1)
    }

    /// Maximum possible delay for `max_size`-byte packets.
    pub(crate) fn max_delay_ns(&self, max_size: u32) -> u64 {
        self.base_ns + self.link.tx_time_ns(max_size as u64).max(1) + self.jitter_ns
    }

    /// The rotation variance the guardband must cover: the spread between
    /// the most- and least-delayed packets (34 ns in the paper).
    pub fn rotation_variance_ns(&self, max_size: u32) -> u64 {
        self.max_delay_ns(max_size) - self.min_delay_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_fig11_bounds() {
        let m = PipelineModel::default();
        assert_eq!(m.min_delay_ns(), 1_287);
        assert_eq!(m.max_delay_ns(1_500), 1_323);
        // The paper reports a 34 ns window (we produce 36 with jitter, same
        // order); the guardband budget check below is the binding one.
        let var = m.rotation_variance_ns(1_500);
        assert!((30..=40).contains(&var), "variance {var}");
    }

    #[test]
    fn delays_within_bounds_for_all_sizes() {
        let m = PipelineModel::default();
        let mut rng = SimRng::new(5);
        for size in [64u32, 128, 256, 512, 1024, 1500] {
            for _ in 0..200 {
                let d = m.delay_ns(size, &mut rng);
                assert!(d >= m.min_delay_ns(), "size {size} delay {d}");
                assert!(d <= m.max_delay_ns(1_500), "size {size} delay {d}");
            }
        }
    }

    #[test]
    fn bigger_packets_take_longer_on_average() {
        let m = PipelineModel::default();
        let mut rng = SimRng::new(6);
        let avg = |size: u32, rng: &mut SimRng| -> f64 {
            (0..500).map(|_| m.delay_ns(size, rng)).sum::<u64>() as f64 / 500.0
        };
        let small = avg(64, &mut rng);
        let large = avg(1500, &mut rng);
        assert!(large > small + 20.0, "64B {small} vs 1500B {large}");
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let m = PipelineModel { jitter_ns: 0, ..Default::default() };
        let mut rng = SimRng::new(7);
        let d1 = m.delay_ns(1000, &mut rng);
        let d2 = m.delay_ns(1000, &mut rng);
        assert_eq!(d1, d2);
    }
}
