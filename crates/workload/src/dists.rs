//! Flow-size distributions for the three benchmark traces (§7).
//!
//! Synthetic empirical CDFs matching the published shape of the traces the
//! paper replays:
//!
//! * **RPC** — the Homa paper's RPC workload mix: dominated by small
//!   messages with a tail into the megabytes;
//! * **Hadoop** — Facebook's Hadoop cluster (Roy et al., SIGCOMM'15):
//!   heavier mid-range with a fat multi-megabyte tail;
//! * **KV store** — Facebook's memcached pools (Atikoglu et al.,
//!   SIGMETRICS'12): overwhelmingly tiny objects, rare large values.
//!
//! Samples are drawn by inverse-transform over a piecewise log-linear CDF.

use openoptics_sim::SimRng;

/// Which benchmark trace to synthesize.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Trace {
    /// Homa-style RPC mix.
    Rpc,
    /// Facebook Hadoop.
    Hadoop,
    /// Facebook memcached/KV.
    KvStore,
}

impl Trace {
    /// All three traces, in the order Tables 3/4 list them.
    pub const ALL: [Trace; 3] = [Trace::KvStore, Trace::Rpc, Trace::Hadoop];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Trace::Rpc => "RPC",
            Trace::Hadoop => "Hadoop",
            Trace::KvStore => "KV store",
        }
    }

    /// The trace's flow-size distribution.
    ///
    /// ```
    /// use openoptics_workload::{Trace, FlowSizeDist};
    /// use openoptics_sim::SimRng;
    ///
    /// let dist = Trace::Hadoop.dist();
    /// let mut rng = SimRng::new(1);
    /// let size = dist.sample(&mut rng);
    /// let (lo, hi) = dist.range();
    /// assert!(size >= lo && size <= hi);
    /// ```
    pub fn dist(&self) -> FlowSizeDist {
        match self {
            Trace::KvStore => FlowSizeDist::from_cdf(
                vec![
                    (64, 0.0),
                    (256, 0.40),
                    (512, 0.60),
                    (1_024, 0.75),
                    (4_096, 0.90),
                    (16_384, 0.96),
                    (65_536, 0.99),
                    (1_048_576, 1.0),
                ],
                5_713.420_3,
            ),
            Trace::Rpc => FlowSizeDist::from_cdf(
                vec![
                    (64, 0.0),
                    (256, 0.20),
                    (1_024, 0.45),
                    (4_096, 0.65),
                    (16_384, 0.78),
                    (65_536, 0.88),
                    (262_144, 0.94),
                    (1_048_576, 0.98),
                    (10_485_760, 1.0),
                ],
                118_478.135_2,
            ),
            Trace::Hadoop => FlowSizeDist::from_cdf(
                vec![
                    (256, 0.0),
                    (1_024, 0.15),
                    (10_240, 0.40),
                    (102_400, 0.62),
                    (1_048_576, 0.80),
                    (10_485_760, 0.93),
                    (104_857_600, 1.0),
                ],
                3_484_868.157_9,
            ),
        }
    }
}

/// A piecewise log-linear empirical flow-size CDF.
#[derive(Clone, Debug)]
pub struct FlowSizeDist {
    /// `(bytes, cumulative probability)`, strictly increasing in both.
    points: Vec<(u64, f64)>,
    /// `ln` of each anchor's bytes, so a quantile costs one `exp`.
    ln_sizes: Vec<f64>,
    /// Mean flow size (bytes): the trace's own constant, equal bit for bit
    /// to the 10,000-step integration of the quantile function
    /// (`FlowSizeDist::integrated_mean`, pinned by a test), so that
    /// integration runs in no generator.
    mean_bytes: f64,
}

impl FlowSizeDist {
    /// Build from CDF anchor points and the mean they integrate to. The
    /// first probability must be 0.0 and the last 1.0; both coordinates
    /// must be strictly increasing.
    fn from_cdf(points: Vec<(u64, f64)>, mean_bytes: f64) -> Self {
        assert!(points.len() >= 2, "need at least two CDF points");
        assert_eq!(points[0].1, 0.0, "CDF must start at probability 0");
        let last = points.last().expect("checked: at least two points");
        assert!((last.1 - 1.0).abs() < 1e-12, "CDF must end at 1");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "sizes must increase");
            assert!(w[0].1 < w[1].1, "probabilities must increase");
        }
        let ln_sizes = points.iter().map(|&(bytes, _)| (bytes as f64).ln()).collect();
        FlowSizeDist { points, ln_sizes, mean_bytes }
    }

    /// Inverse-transform sample: log-linear interpolation between anchors.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.f64();
        self.quantile(u)
    }

    /// The size at cumulative probability `u` in `[0, 1]`.
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        for (i, w) in self.points.windows(2).enumerate() {
            let (p0, p1) = (w[0].1, w[1].1);
            if u <= p1 {
                let f = (u - p0) / (p1 - p0);
                let (l0, l1) = (self.ln_sizes[i], self.ln_sizes[i + 1]);
                return round_half_away((l0 + f * (l1 - l0)).exp()).max(1);
            }
        }
        self.range().1
    }

    /// The quantile as first written, `ln` of both anchors taken per call:
    /// the oracle [`FlowSizeDist::quantile`] must equal bit for bit.
    #[cfg(test)]
    #[expect(clippy::cast_possible_truncation, reason = "a float-to-int `as` saturates")]
    fn quantile_reference(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        for w in self.points.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if u <= p1 {
                let f = (u - p0) / (p1 - p0);
                let ln = (s0 as f64).ln() + f * ((s1 as f64).ln() - (s0 as f64).ln());
                return ln.exp().round().max(1.0) as u64;
            }
        }
        self.points.last().expect("non-empty").0
    }

    /// Mean flow size (bytes) — the value load scaling divides by.
    pub(crate) fn mean_bytes(&self) -> f64 {
        self.mean_bytes
    }

    /// The mean by numerical integration of the quantile function over
    /// 10,000 midpoints: what each trace's `mean_bytes` constant must equal.
    #[cfg(test)]
    fn integrated_mean(&self) -> f64 {
        let steps = 10_000;
        (0..steps).map(|i| self.quantile((i as f64 + 0.5) / steps as f64) as f64).sum::<f64>()
            / steps as f64
    }

    /// Smallest and largest producible sizes.
    pub fn range(&self) -> (u64, u64) {
        (self.points[0].0, self.points.last().expect("non-empty").0)
    }
}

/// `x.round() as u64` (half away from zero, saturating) in integer
/// arithmetic: `f64::round` is a library call on baseline x86-64. Exact for
/// `x` in `[0, 2^53)`, where `x - trunc(x)` is exact; above that every
/// `f64` is already whole.
#[expect(clippy::cast_possible_truncation, reason = "a float-to-int `as` saturates")]
fn round_half_away(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_hit_anchor_points() {
        let d = Trace::KvStore.dist();
        assert_eq!(d.quantile(0.0), 64);
        assert_eq!(d.quantile(0.40), 256);
        assert_eq!(d.quantile(1.0), 1_048_576);
    }

    #[test]
    fn stored_logs_give_the_reference_quantiles_exactly() {
        const GRID: u32 = 200_000;
        for trace in Trace::ALL {
            let d = trace.dist();
            let grid = (0..=GRID).map(|i| f64::from(i) / f64::from(GRID));
            let mut rng = SimRng::new(11);
            let random = (0..GRID).map(|_| rng.f64());
            for u in grid.chain(random).chain([-0.5, 1.5]) {
                assert_eq!(d.quantile(u), d.quantile_reference(u), "{} at u = {u}", trace.name());
            }
            let steps = 10_000;
            let mean_reference = (0..steps)
                .map(|i| d.quantile_reference((i as f64 + 0.5) / steps as f64) as f64)
                .sum::<f64>()
                / steps as f64;
            assert_eq!(d.mean_bytes().to_bits(), mean_reference.to_bits(), "{}", trace.name());
        }
    }

    #[test]
    fn each_trace_mean_is_its_integration_bit_for_bit() {
        for trace in Trace::ALL {
            let d = trace.dist();
            assert_eq!(d.mean_bytes().to_bits(), d.integrated_mean().to_bits(), "{}", trace.name());
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// 2^53: below it an `f64` can hold a fraction.
        const EXACT: f64 = 9_007_199_254_740_992.0;

        proptest! {
            // Bit patterns of non-negative `f64`s ascend with their values,
            // so a range of patterns is every `f64` in a range of values.
            #[test]
            fn integer_rounding_is_f64_round(bits in 0u64..EXACT.to_bits()) {
                let x = f64::from_bits(bits);
                #[expect(clippy::cast_possible_truncation, reason = "a float-to-int `as` saturates")]
                let reference = x.round() as u64;
                prop_assert_eq!(round_half_away(x), reference);
            }

            #[test]
            fn integer_rounding_is_exact_at_halves(whole in 0u64..1 << 52) {
                let half = whole as f64 + 0.5;
                prop_assert_eq!(round_half_away(half), whole + 1);
                prop_assert_eq!(round_half_away(whole as f64), whole);
            }

            #[test]
            fn quantiles_round_as_before(
                bits in 0u64..=1f64.to_bits(),
                grid in 0u64..=1 << 53,
                trace in 0usize..3,
            ) {
                let d = Trace::ALL[trace].dist();
                for u in [f64::from_bits(bits), grid as f64 / EXACT] {
                    prop_assert_eq!(d.quantile(u), d.quantile_reference(u), "u = {}", u);
                }
            }
        }
    }

    #[test]
    fn samples_within_range_and_mass_roughly_right() {
        let d = Trace::Rpc.dist();
        let (lo, hi) = d.range();
        let mut rng = SimRng::new(42);
        let mut small = 0;
        let n = 20_000;
        for _ in 0..n {
            let s = d.sample(&mut rng);
            assert!((lo..=hi).contains(&s));
            if s <= 4_096 {
                small += 1;
            }
        }
        // CDF says 65% at or below 4 KB.
        let frac = small as f64 / n as f64;
        assert!((0.60..0.70).contains(&frac), "P(<=4KB) = {frac}");
    }

    #[test]
    fn trace_means_are_ordered() {
        // Hadoop flows are much larger on average than RPC, which exceeds KV.
        let kv = Trace::KvStore.dist().mean_bytes();
        let rpc = Trace::Rpc.dist().mean_bytes();
        let hadoop = Trace::Hadoop.dist().mean_bytes();
        assert!(kv < rpc, "kv {kv} < rpc {rpc}");
        assert!(rpc < hadoop, "rpc {rpc} < hadoop {hadoop}");
        // Sanity magnitude checks.
        assert!(kv < 50_000.0);
        assert!(hadoop > 1_000_000.0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = Trace::Hadoop.dist();
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "CDF must start")]
    fn rejects_bad_cdf() {
        FlowSizeDist::from_cdf(vec![(10, 0.5), (100, 1.0)], 50.0);
    }

    #[test]
    #[should_panic(expected = "probabilities must increase")]
    fn rejects_flat_cdf() {
        FlowSizeDist::from_cdf(vec![(10, 0.0), (50, 0.5), (100, 0.5), (200, 1.0)], 50.0);
    }
}
