//! Congestion detection for calendar queues (§5.2).
//!
//! An optical circuit transmits a fixed amount of data per time slice, so a
//! calendar queue is *full* once it holds more than it can transmit in its
//! slice — a threshold that can be far below a classical ECN mark. The
//! detection condition (paper, verbatim): congestion occurs if (1) the
//! calendar queue is full — its occupancy exceeds the admissible data
//! amount for the elapsed time of the time slice (bandwidth × time) — or
//! (2) the congestion threshold is reached, whichever happens first.
//!
//! Detection is a *service*: the response is the architecture's choice
//! ([`CongestionPolicy`]) — drop (RotorNet), trim (Opera), or defer to a
//! later slice that still reaches the path's next hop (UCMP, HOHO).

use openoptics_sim::Bandwidth;
use openoptics_sim::{SimTime, SliceConfig};

/// The architecture's response to a full calendar queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CongestionPolicy {
    /// Drop the packet (tail drop).
    Drop,
    /// Trim the payload, forwarding a header-only packet the receiver can
    /// NACK (Opera-style packet trimming).
    Trim,
    /// Defer to the first later slice, at most one cycle on, whose circuit
    /// on the same port reaches the same peer and whose queue admits the
    /// packet (UCMP/HOHO-style). A packet never leaves its path: with no
    /// such slice it stays in its planned queue and waits for that
    /// circuit's next turn (the §5.2 failure mode is delay, not a detour).
    Defer,
}

/// Configuration of the congestion-detection service.
#[derive(Clone, Copy, Debug)]
pub struct CongestionConfig {
    /// Master switch: with detection off, packets are enqueued blindly and
    /// overflow manifests as slice misses and queue-capacity drops
    /// (Table 4, column 1).
    pub detection_enabled: bool,
    /// Classical congestion threshold (condition 2), bytes.
    pub threshold_bytes: u64,
    /// Response policy when congestion is detected.
    pub policy: CongestionPolicy,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig {
            detection_enabled: true,
            threshold_bytes: 200_000,
            policy: CongestionPolicy::Defer,
        }
    }
}

/// Bytes a queue for departure rank `rank` may hold and still drain within
/// its slice.
///
/// For a future slice (`rank > 0`) the admissible amount is the full data
/// window of a slice: `bandwidth × (slice − guard)`. For the *active* slice
/// (`rank == 0`) only the remaining time counts: `bandwidth × remaining`.
pub(crate) fn admissible_bytes(
    cfg: &SliceConfig,
    bandwidth: Bandwidth,
    rank: u32,
    now: SimTime,
) -> u64 {
    if cfg.num_slices <= 1 {
        // Static (TA / flow-table) mode: there is no slice deadline; only
        // the classical threshold (condition 2) applies.
        return u64::MAX;
    }
    if rank == 0 {
        bandwidth.bytes_in_ns(cfg.remaining_in_slice(now))
    } else {
        bandwidth.bytes_in_ns(cfg.slice_ns - cfg.guard_ns)
    }
}

/// The detection condition: whether a packet of `pkt_len` bytes congests a
/// queue estimated at `est_bytes` (so the policy applies), or the queue
/// admits it.
pub(crate) fn congested(
    config: &CongestionConfig,
    est_bytes: u64,
    pkt_len: u32,
    admissible: u64,
) -> bool {
    // (1) the queue is full, or (2) the classical threshold is reached.
    config.detection_enabled
        && (est_bytes + u64::from(pkt_len) > admissible || est_bytes >= config.threshold_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SliceConfig {
        SliceConfig::new(2_000, 8, 200) // the paper's 2 us / 200 ns slices
    }

    #[test]
    fn admissible_future_slice_is_full_window() {
        // 100 Gbps x (2000 - 200) ns = 22_500 B.
        let a = admissible_bytes(&cfg(), Bandwidth::gbps(100), 3, SimTime::ZERO);
        assert_eq!(a, 22_500);
    }

    #[test]
    fn admissible_active_slice_shrinks_with_time() {
        let bw = Bandwidth::gbps(100);
        let a0 = admissible_bytes(&cfg(), bw, 0, SimTime::from_ns(200));
        let a1 = admissible_bytes(&cfg(), bw, 0, SimTime::from_ns(1_500));
        assert_eq!(a0, bw.bytes_in_ns(1_800));
        assert_eq!(a1, bw.bytes_in_ns(500));
        assert!(a1 < a0);
    }

    #[test]
    fn full_queue_detected_before_threshold() {
        // Condition (1): slice capacity can be far below the CC threshold.
        let c = CongestionConfig {
            detection_enabled: true,
            threshold_bytes: 1_000_000,
            policy: CongestionPolicy::Drop,
        };
        // Admissible 22_500: a queue at 22_000 cannot take 1500 more.
        assert!(congested(&c, 22_000, 1_500, 22_500));
        assert!(!congested(&c, 20_000, 1_500, 22_500));
    }

    #[test]
    fn threshold_detected_even_when_queue_fits() {
        let c = CongestionConfig {
            detection_enabled: true,
            threshold_bytes: 10_000,
            policy: CongestionPolicy::Drop,
        };
        assert!(congested(&c, 10_000, 100, 1_000_000));
        assert!(!congested(&c, 9_999, 100, 1_000_000));
    }

    #[test]
    fn disabled_detection_admits_everything() {
        let c = CongestionConfig {
            detection_enabled: false,
            threshold_bytes: 0,
            policy: CongestionPolicy::Drop,
        };
        assert!(!congested(&c, u64::MAX / 2, 1_500, 0));
    }

    #[test]
    fn exact_fit_admits() {
        let c = CongestionConfig::default();
        assert!(!congested(&c, 21_000, 1_500, 22_500));
        assert!(congested(&c, 21_001, 1_500, 22_500));
    }
}
