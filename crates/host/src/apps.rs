//! Application workload state machines (§6, "Traffic").
//!
//! The paper's testbed runs three applications:
//!
//! * **Memcached/Memslap** — seven clients SET 4.2 KB values to one server
//!   at millisecond intervals (latency-sensitive mice flows, Fig. 8a);
//! * **Gloo ring allreduce** — hosts exchange 800 KB–20 MB in a ring
//!   (throughput-intensive elephants, Fig. 8b);
//! * **iperf** — long-lasting bulk TCP flows, CPU-bound at ~40 Gbps on the
//!   testbed (Fig. 9).
//!
//! These are modeled as generators of flow requests plus (for allreduce) a
//! step-barrier state machine; the engine runs the flows on the simulated
//! network and feeds completions back.

use openoptics_proto::HostId;
use openoptics_sim::idx_u32;
use openoptics_sim::SimRng;

/// Memcached/Memslap SET workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct MemcachedParams {
    /// Bytes written per SET (paper: 4.2 KB).
    pub set_bytes: u32,
    /// Server response size ("STORED").
    pub response_bytes: u32,
    /// Mean interval between a client's operations, ns (paper:
    /// "milliseconds intervals").
    pub mean_interval_ns: u64,
}

impl MemcachedParams {
    /// The §6 configuration.
    pub fn paper() -> Self {
        MemcachedParams {
            set_bytes: 4_200,
            response_bytes: 100,
            mean_interval_ns: 2_000_000, // 2 ms mean
        }
    }

    /// Draw the next inter-operation gap.
    pub fn next_gap_ns(&self, rng: &mut SimRng) -> u64 {
        rng.exp_ns(self.mean_interval_ns as f64)
    }
}

/// One chunk transfer requested by the allreduce state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkSend {
    /// Sending host (by ring position).
    pub from: HostId,
    /// Receiving host (next in the ring).
    pub to: HostId,
    /// Chunk payload bytes.
    pub bytes: u64,
    /// The step this chunk belongs to.
    pub step: u32,
}

/// Ring allreduce over `n` hosts of a `data_bytes` buffer: the classic
/// 2·(n−1) steps (reduce-scatter then allgather), each host sending one
/// `data/n` chunk to its ring successor per step, with a step barrier
/// (Gloo's default algorithm).
#[derive(Debug, Clone)]
pub struct RingAllreduce {
    hosts: Vec<HostId>,
    chunk_bytes: u64,
    step: u32,
    total_steps: u32,
    received_in_step: usize,
}

impl RingAllreduce {
    /// An allreduce of `data_bytes` across `hosts` (ring order = slice
    /// order). Requires at least two hosts.
    pub fn new(hosts: Vec<HostId>, data_bytes: u64) -> Self {
        assert!(hosts.len() >= 2, "allreduce needs at least 2 participants");
        let n = hosts.len() as u64;
        let total_steps = 2 * (idx_u32(hosts.len()) - 1);
        RingAllreduce {
            chunk_bytes: data_bytes.div_ceil(n),
            hosts,
            step: 0,
            total_steps,
            received_in_step: 0,
        }
    }

    /// Whether the collective has completed.
    pub fn is_done(&self) -> bool {
        self.step >= self.total_steps
    }

    fn sends_for_step(&self, step: u32) -> Vec<ChunkSend> {
        let n = self.hosts.len();
        (0..n)
            .map(|i| ChunkSend {
                from: self.hosts[i],
                to: self.hosts[(i + 1) % n],
                bytes: self.chunk_bytes,
                step,
            })
            .collect()
    }

    /// The first step's sends.
    pub fn start(&self) -> Vec<ChunkSend> {
        assert!(!self.is_done());
        self.sends_for_step(0)
    }

    /// Notify that one chunk of the current step completed. When all `n`
    /// chunks of the step are in, the barrier releases and the next step's
    /// sends are returned (or `None` when the collective just finished).
    pub fn on_chunk_complete(&mut self) -> Option<Vec<ChunkSend>> {
        assert!(!self.is_done(), "completion after the collective finished");
        self.received_in_step += 1;
        if self.received_in_step < self.hosts.len() {
            return None;
        }
        self.received_in_step = 0;
        self.step += 1;
        if self.is_done() {
            None
        } else {
            Some(self.sends_for_step(self.step))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    #[test]
    fn memcached_paper_params() {
        let p = MemcachedParams::paper();
        assert_eq!(p.set_bytes, 4_200);
        let mut rng = SimRng::new(1);
        let gaps: Vec<u64> = (0..1000).map(|_| p.next_gap_ns(&mut rng)).collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!((mean - 2e6).abs() / 2e6 < 0.15, "mean gap {mean}");
    }

    #[test]
    fn allreduce_step_count_and_chunks() {
        let ar = RingAllreduce::new(hosts(8), 20_000_000);
        assert_eq!(ar.total_steps, 14);
        assert_eq!(ar.chunk_bytes, 2_500_000);
    }

    #[test]
    fn allreduce_ring_structure() {
        let ar = RingAllreduce::new(hosts(4), 4_000);
        let sends = ar.start();
        assert_eq!(sends.len(), 4);
        assert_eq!(sends[0], ChunkSend { from: HostId(0), to: HostId(1), bytes: 1_000, step: 0 });
        assert_eq!(sends[3].to, HostId(0), "ring wraps");
    }

    #[test]
    fn allreduce_barrier_releases_when_all_arrive() {
        let mut ar = RingAllreduce::new(hosts(3), 3_000);
        ar.start();
        assert_eq!(ar.on_chunk_complete(), None);
        assert_eq!(ar.on_chunk_complete(), None);
        let next = ar.on_chunk_complete().expect("step barrier releases");
        assert_eq!(next.len(), 3);
        assert_eq!(ar.step, 1);
    }

    #[test]
    fn allreduce_runs_to_completion() {
        let mut ar = RingAllreduce::new(hosts(4), 8_000);
        let mut outstanding = ar.start().len();
        let mut steps_run = 1;
        while !ar.is_done() {
            outstanding -= 1;
            if let Some(next) = ar.on_chunk_complete() {
                outstanding = next.len();
                steps_run += 1;
            } else if ar.is_done() {
                break;
            }
        }
        assert_eq!(steps_run, ar.total_steps);
        assert_eq!(outstanding, 0);
    }

    #[test]
    fn allreduce_uneven_division_rounds_up() {
        let ar = RingAllreduce::new(hosts(3), 1_000);
        assert_eq!(ar.chunk_bytes, 334);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn allreduce_rejects_single_host() {
        RingAllreduce::new(hosts(1), 100);
    }
}
