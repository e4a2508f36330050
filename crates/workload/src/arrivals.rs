//! Poisson flow arrivals scaled to a target utilization (§7).
//!
//! The paper replays traces "scaled to reach 40% core link utilization as
//! in production DCNs" (and 70% for the Table 4 stress test). Given a
//! flow-size distribution, a per-host link capacity, and a target load,
//! the arrival rate per host is `load × capacity / (8 × mean_size)` flows
//! per second; inter-arrivals are exponential and destinations uniform
//! over the other hosts.

use crate::dists::FlowSizeDist;
use openoptics_proto::HostId;
use openoptics_sim::Bandwidth;
use openoptics_sim::SimRng;
use openoptics_sim::SimTime;

/// One generated flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowArrival {
    /// Arrival (start) time.
    pub at: SimTime,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Flow payload bytes.
    pub bytes: u64,
}

/// Poisson arrival generator over a host population.
#[derive(Debug)]
pub struct PoissonArrivals {
    hosts: Vec<HostId>,
    dist: FlowSizeDist,
    mean_gap_ns: f64,
    next_at: SimTime,
    rng: SimRng,
}

impl PoissonArrivals {
    /// A generator producing aggregate load `load` (fraction of each
    /// host's `link` capacity) across `hosts`.
    pub fn new(
        hosts: Vec<HostId>,
        dist: FlowSizeDist,
        link: Bandwidth,
        load: f64,
        seed: u64,
    ) -> Self {
        assert!(hosts.len() >= 2, "need at least two hosts");
        assert!(load > 0.0 && load <= 1.5, "load {load} out of range");
        let mean_size = dist.mean_bytes();
        // Flows/second across the whole population.
        let per_host_bps = link.bps() as f64 * load;
        let flows_per_sec_per_host = per_host_bps / (8.0 * mean_size);
        let total_rate = flows_per_sec_per_host * hosts.len() as f64;
        let mean_gap_ns = 1e9 / total_rate;
        PoissonArrivals { hosts, dist, mean_gap_ns, next_at: SimTime::ZERO, rng: SimRng::new(seed) }
    }

    /// Mean inter-arrival gap across the population, ns.
    pub fn mean_gap_ns(&self) -> f64 {
        self.mean_gap_ns
    }

    /// Draw the next flow.
    #[expect(clippy::should_implement_trait, reason = "an endless generator, not an Iterator")]
    pub fn next(&mut self) -> FlowArrival {
        let gap = self.rng.exp_ns(self.mean_gap_ns);
        self.next_at += gap;
        let src_i = self.rng.range(0..self.hosts.len());
        let mut dst_i = self.rng.range(0..self.hosts.len() - 1);
        if dst_i >= src_i {
            dst_i += 1;
        }
        FlowArrival {
            at: self.next_at,
            src: self.hosts[src_i],
            dst: self.hosts[dst_i],
            bytes: self.dist.sample(&mut self.rng).max(1),
        }
    }

    /// Generate every arrival up to `horizon`.
    pub fn take_until(&mut self, horizon: SimTime) -> Vec<FlowArrival> {
        let mut out = vec![];
        loop {
            let f = self.next();
            if f.at > horizon {
                break;
            }
            out.push(f);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dists::Trace;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    #[test]
    fn offered_load_matches_target() {
        let link = Bandwidth::gbps(100);
        let load = 0.4;
        let mut gen = PoissonArrivals::new(hosts(6), Trace::KvStore.dist(), link, load, 1);
        let horizon = SimTime::from_ms(200);
        let flows = gen.take_until(horizon);
        assert!(flows.len() > 100, "too few flows: {}", flows.len());
        let total_bytes: u64 = flows.iter().map(|f| f.bytes).sum();
        let offered_bps = total_bytes as f64 * 8.0 / horizon.as_secs_f64();
        let target_bps = link.bps() as f64 * load * 6.0;
        let ratio = offered_bps / target_bps;
        assert!((0.7..1.3).contains(&ratio), "offered/target = {ratio}");
    }

    #[test]
    fn no_self_flows_and_all_hosts_used() {
        let mut gen =
            PoissonArrivals::new(hosts(4), Trace::Rpc.dist(), Bandwidth::gbps(100), 0.4, 2);
        let mut srcs = openoptics_sim::hash::FxHashSet::default();
        for _ in 0..2000 {
            let f = gen.next();
            assert_ne!(f.src, f.dst);
            srcs.insert(f.src);
        }
        assert_eq!(srcs.len(), 4);
    }

    #[test]
    fn arrivals_are_monotone() {
        let mut gen =
            PoissonArrivals::new(hosts(3), Trace::Hadoop.dist(), Bandwidth::gbps(100), 0.4, 3);
        let mut last = SimTime::ZERO;
        for _ in 0..500 {
            let f = gen.next();
            assert!(f.at > last);
            last = f.at;
        }
    }

    #[test]
    fn seeded_reproducibility() {
        let mk = || PoissonArrivals::new(hosts(4), Trace::Rpc.dist(), Bandwidth::gbps(100), 0.4, 9);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..200 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn higher_load_means_denser_arrivals() {
        let lo = PoissonArrivals::new(hosts(4), Trace::Rpc.dist(), Bandwidth::gbps(100), 0.4, 1);
        let hi = PoissonArrivals::new(hosts(4), Trace::Rpc.dist(), Bandwidth::gbps(100), 0.7, 1);
        assert!(hi.mean_gap_ns() < lo.mean_gap_ns());
    }
}
