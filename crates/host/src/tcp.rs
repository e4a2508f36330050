//! A compact event-driven TCP for the transport case study (Fig. 9).
//!
//! The phenomenon under study is *reordering-triggered spurious fast
//! retransmit*: VLB packet spraying and hybrid electrical/optical splitting
//! deliver segments out of order, duplicate ACKs pile up, the sender halves
//! its window for losses that never happened, and throughput collapses —
//! until the dupack threshold is raised from 3 to 5 (§6 Case II). The model
//! implements exactly the machinery that produces that behavior: cumulative
//! ACKs, a configurable dupack threshold, NewReno-style fast
//! retransmit/recovery, slow start, congestion avoidance, and an RTO
//! fallback. SACK, Nagle, and window scaling are intentionally out of scope.
//!
//! # Per-topology windows (TDTCP)
//!
//! TDTCP (SIGCOMM'22) targets exactly the pathology Fig. 9 exposes: in a
//! reconfigurable network one connection alternates between *topologies*
//! (here: the optical circuit and the electrical fabric) with very
//! different bandwidth-delay products, and a single congestion window both
//! mis-sizes each path and collapses under the reordering their latency gap
//! creates. A sender built with [`TcpSender::with_topologies`] keeps the
//! congestion state (`cwnd`/`ssthresh`/dupacks/recovery point) **per
//! topology**: it uses the state of the topology it is currently
//! transmitting into ([`TcpSender::set_topology`]), a loss signal only
//! penalizes the topology that carried it, and duplicate ACKs right after a
//! switch are read as cross-topology reordering. With one topology
//! ([`TcpSender::new`]) no switch ever happens and this is plain TCP.

use openoptics_sim::to_u32;
use openoptics_sim::SimTime;
use std::collections::BTreeMap;

/// Transport parameters.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes).
    pub mss: u32,
    /// Initial congestion window, bytes.
    pub init_cwnd: u64,
    /// Duplicate ACKs that trigger fast retransmit (3 default; 5 in the
    /// paper's tuned run).
    pub dupack_threshold: u32,
    /// Retransmission timeout, ns.
    pub rto_ns: u64,
    /// Congestion-window cap, bytes (receive window stand-in).
    pub max_cwnd: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1436,
            init_cwnd: 10 * 1436,
            dupack_threshold: 3,
            rto_ns: 5_000_000, // 5 ms
            max_cwnd: 4 * 1024 * 1024,
        }
    }
}

/// Congestion state of one topology.
#[derive(Clone, Copy, Debug)]
struct TopoState {
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    /// NewReno recovery point: in recovery until `cum_acked > recover`.
    recover: Option<u64>,
}

/// Sender-side connection state.
#[derive(Clone, Debug)]
pub struct TcpSender {
    cfg: TcpConfig,
    /// Congestion state per topology; entries past `topologies` are unused.
    states: [TopoState; TcpSender::MAX_TOPOLOGIES],
    topologies: usize,
    /// Topology currently carrying transmissions.
    active: usize,
    /// Instant of the last topology switch, if any; duplicate ACKs within
    /// [`Self::REORDER_GRACE_NS`] of it are attributed to cross-topology
    /// reordering rather than loss (TDTCP's loss disambiguation).
    last_switch: Option<SimTime>,
    /// Next byte to send: new data, or after a timeout the hole.
    next_seq: u64,
    /// One past the highest byte ever sent; a segment below it is a
    /// retransmission.
    high_seq: u64,
    /// Highest cumulatively acknowledged byte.
    cum_acked: u64,
    /// Bytes the application wants to send; `None` = unbounded (iperf).
    total: Option<u64>,
    /// Pending retransmission (one segment at a time, no SACK).
    pending_retx: Option<u64>,
    /// Last time forward progress happened (for RTO).
    last_progress: SimTime,
    /// Fast retransmits fired.
    pub fast_retransmits: u64,
    /// RTO events fired.
    pub timeouts: u64,
    /// Topology switches observed.
    pub topology_switches: u64,
    /// Total retransmitted segments.
    pub retransmitted_segments: u64,
    /// Total segments handed to the network (incl. retransmissions).
    pub segments_sent: u64,
}

impl TcpSender {
    /// Topologies a sender can keep congestion state for: the optical
    /// fabric and the electrical one.
    pub(crate) const MAX_TOPOLOGIES: usize = 2;

    /// In-flight packets from before a topology switch interleave with the
    /// new path's for about one path-alternation period; dupacks within
    /// this window of a switch are reordering, not loss.
    pub(crate) const REORDER_GRACE_NS: u64 = 200_000;

    /// A plain (one-topology) sender for `total` bytes (`None` = run
    /// forever).
    pub fn new(cfg: TcpConfig, total: Option<u64>, now: SimTime) -> Self {
        Self::with_topologies(cfg, 1, total, now)
    }

    /// A sender keeping one congestion state for each of `topologies`
    /// distinct paths (`1..=MAX_TOPOLOGIES`); see the module docs.
    pub fn with_topologies(
        cfg: TcpConfig,
        topologies: usize,
        total: Option<u64>,
        now: SimTime,
    ) -> Self {
        assert!((1..=Self::MAX_TOPOLOGIES).contains(&topologies));
        let st = TopoState {
            cwnd: cfg.init_cwnd as f64,
            ssthresh: cfg.max_cwnd as f64,
            dupacks: 0,
            recover: None,
        };
        TcpSender {
            cfg,
            states: [st; Self::MAX_TOPOLOGIES],
            topologies,
            active: 0,
            last_switch: None,
            next_seq: 0,
            high_seq: 0,
            cum_acked: 0,
            total,
            pending_retx: None,
            last_progress: now,
            fast_retransmits: 0,
            timeouts: 0,
            topology_switches: 0,
            retransmitted_segments: 0,
            segments_sent: 0,
        }
    }

    /// Tell the sender which topology currently carries its packets (the
    /// network-signaled topology id of TDTCP); ids past the sender's
    /// topology count share its last state, so a plain sender never
    /// switches. Switching resets the new topology's dupack counter and
    /// opens a reordering grace window — dupacks across the switch are
    /// expected, not a loss signal.
    pub fn set_topology(&mut self, topo: usize, now: SimTime) {
        let topo = topo.min(self.topologies - 1);
        if topo != self.active {
            self.active = topo;
            self.states[topo].dupacks = 0;
            self.last_switch = Some(now);
            self.topology_switches += 1;
        }
    }

    /// Bytes in flight.
    pub(crate) fn inflight(&self) -> u64 {
        self.next_seq - self.cum_acked
    }

    /// The active topology's congestion window, bytes.
    #[expect(clippy::cast_possible_truncation, reason = "a float-to-int `as` saturates")]
    pub(crate) fn cwnd(&self) -> u64 {
        self.states[self.active].cwnd as u64
    }

    /// Whether all application bytes are acknowledged.
    pub fn done(&self) -> bool {
        match self.total {
            Some(t) => self.cum_acked >= t,
            None => false,
        }
    }

    /// The next segment to put on the wire, `(seq, len)`, or `None` if the
    /// window is full / nothing to send. Retransmissions take priority.
    pub fn next_segment(&mut self, _now: SimTime) -> Option<(u64, u32)> {
        if let Some(seq) = self.pending_retx.take() {
            self.segments_sent += 1;
            self.retransmitted_segments += 1;
            let len = self.segment_len_at(seq);
            return Some((seq, len));
        }
        if self.done() {
            return None;
        }
        if let Some(t) = self.total {
            if self.next_seq >= t {
                return None; // everything sent, awaiting acks
            }
        }
        if self.inflight() + self.cfg.mss as u64 > self.cwnd() {
            return None;
        }
        let seq = self.next_seq;
        let len = self.segment_len_at(seq);
        self.next_seq += len as u64;
        self.segments_sent += 1;
        self.retransmitted_segments += u64::from(seq < self.high_seq);
        self.high_seq = self.high_seq.max(self.next_seq);
        Some((seq, len))
    }

    fn segment_len_at(&self, seq: u64) -> u32 {
        match self.total {
            Some(t) => to_u32((t - seq).min(self.cfg.mss as u64)),
            None => self.cfg.mss,
        }
    }

    /// Process a cumulative ACK, attributed to the active topology. Returns
    /// `true` if new data may now be sendable (the engine should pump
    /// [`Self::next_segment`]).
    pub fn on_ack(&mut self, cum_ack: u64, now: SimTime) -> bool {
        let cfg = self.cfg;
        let inflight = self.inflight();
        let st = &mut self.states[self.active];
        if cum_ack > self.cum_acked {
            let newly = cum_ack - self.cum_acked;
            self.cum_acked = cum_ack;
            // After a timeout the receiver may hold data past the hole.
            self.next_seq = self.next_seq.max(cum_ack);
            st.dupacks = 0;
            self.last_progress = now;
            match st.recover {
                Some(r) if cum_ack <= r => {
                    // Partial ACK inside recovery: retransmit the next hole.
                    self.pending_retx = Some(cum_ack);
                }
                _ => {
                    st.recover = None;
                    // Window growth.
                    if st.cwnd < st.ssthresh {
                        st.cwnd += newly as f64; // slow start
                    } else {
                        st.cwnd += (cfg.mss as f64) * (newly as f64 / st.cwnd); // CA
                    }
                    st.cwnd = st.cwnd.min(cfg.max_cwnd as f64);
                }
            }
            true
        } else if cum_ack == self.cum_acked {
            // Duplicate ACK (an ACK below cum_acked is merely stale —
            // a reordered ACK, not a loss signal). Within the post-switch
            // grace window, dupacks are cross-topology reordering.
            if let Some(sw) = self.last_switch {
                if now.saturating_since(sw) < Self::REORDER_GRACE_NS {
                    return false;
                }
            }
            if inflight > 0 {
                st.dupacks += 1;
                if st.dupacks == cfg.dupack_threshold && st.recover.is_none() {
                    // Fast retransmit + NewReno recovery. Only the topology
                    // that carried the (apparent) loss pays for it.
                    self.fast_retransmits += 1;
                    st.ssthresh = (inflight as f64 / 2.0).max(2.0 * cfg.mss as f64);
                    st.cwnd = st.ssthresh;
                    st.recover = Some(self.high_seq.saturating_sub(1));
                    self.pending_retx = Some(self.cum_acked);
                }
            }
            false
        } else {
            // Stale ACK: ignore.
            false
        }
    }

    /// RTO check: if no progress for `rto_ns`, collapse the active topology
    /// to slow start and go back to the hole: everything sent after it is
    /// sent again as the window reopens (go-back-N, as a sender without
    /// SACK does after a timeout). Returns `true` if a timeout fired.
    pub fn maybe_timeout(&mut self, now: SimTime) -> bool {
        if self.inflight() == 0 || self.done() {
            return false;
        }
        if now.saturating_since(self.last_progress) < self.cfg.rto_ns {
            return false;
        }
        self.timeouts += 1;
        let st = &mut self.states[self.active];
        st.ssthresh = (st.cwnd / 2.0).max(2.0 * self.cfg.mss as f64);
        st.cwnd = self.cfg.mss as f64;
        st.recover = None;
        st.dupacks = 0;
        self.pending_retx = None;
        self.next_seq = self.cum_acked;
        self.last_progress = now;
        true
    }

    /// The deadline by which progress must happen before an RTO.
    pub fn rto_deadline(&self) -> SimTime {
        self.last_progress + self.cfg.rto_ns
    }
}

/// Receiver-side state: in-order reassembly, cumulative ACK generation, and
/// the reordering-event counter of Fig. 9(b).
#[derive(Clone, Debug, Default)]
pub struct TcpReceiver {
    expected: u64,
    ooo: BTreeMap<u64, u32>,
    highest_seen_end: u64,
    /// Segments that arrived after a later segment had already been seen —
    /// the "packet reordering events" of Fig. 9(b).
    pub reorder_events: u64,
    /// In-order bytes delivered to the application.
    pub delivered_bytes: u64,
}

impl TcpReceiver {
    /// A fresh receiver expecting sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Process a data segment; returns the cumulative ACK to send back.
    pub fn on_data(&mut self, seq: u64, len: u32) -> u64 {
        let end = seq + len as u64;
        // A reordering event: this segment ends at or before data we have
        // already seen, yet it is not stale (it fills a live hole) — i.e.
        // it arrived later than a higher-sequence segment.
        if end <= self.highest_seen_end && seq >= self.expected {
            self.reorder_events += 1;
        }
        self.highest_seen_end = self.highest_seen_end.max(end);

        if end <= self.expected {
            // Pure duplicate.
            return self.expected;
        }
        if seq <= self.expected {
            // Extends the in-order prefix.
            self.expected = end;
        } else {
            self.ooo.insert(seq, len);
        }
        // Merge any out-of-order segments now contiguous.
        while let Some((&s, &l)) = self.ooo.iter().next() {
            if s > self.expected {
                break;
            }
            self.ooo.remove(&s);
            self.expected = self.expected.max(s + l as u64);
        }
        self.delivered_bytes = self.expected;
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    /// The congestion window of topology `t`, bytes.
    #[expect(clippy::cast_possible_truncation, reason = "a float-to-int `as` saturates")]
    fn cwnd_of(s: &TcpSender, t: usize) -> u64 {
        s.states[t].cwnd as u64
    }

    #[test]
    fn window_limits_initial_burst() {
        let mut s = TcpSender::new(cfg(), Some(1_000_000), SimTime::ZERO);
        let mut sent = 0;
        while s.next_segment(SimTime::ZERO).is_some() {
            sent += 1;
        }
        assert_eq!(sent, 10, "init cwnd of 10 MSS");
        assert_eq!(s.inflight(), 10 * 1436);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new(cfg(), Some(10_000_000), SimTime::ZERO);
        let mut out = vec![];
        while let Some(seg) = s.next_segment(SimTime::ZERO) {
            out.push(seg);
        }
        // ACK everything: cwnd grows by bytes acked (doubles).
        let acked = s.next_seq;
        s.on_ack(acked, SimTime::from_us(100));
        assert_eq!(s.cwnd(), 2 * 10 * 1436);
    }

    #[test]
    fn dupacks_trigger_fast_retransmit_at_threshold() {
        let mut s = TcpSender::new(cfg(), Some(1_000_000), SimTime::ZERO);
        while s.next_segment(SimTime::ZERO).is_some() {}
        let cwnd_before = s.cwnd();
        // First segment lost: receiver acks 0 repeatedly.
        s.on_ack(0, SimTime::from_us(10));
        s.on_ack(0, SimTime::from_us(11));
        assert_eq!(s.fast_retransmits, 0);
        s.on_ack(0, SimTime::from_us(12)); // third dupack
        assert_eq!(s.fast_retransmits, 1);
        assert!(s.cwnd() < cwnd_before, "window must halve");
        // The retransmission is offered next, at the hole.
        let (seq, _) = s.next_segment(SimTime::from_us(13)).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(s.retransmitted_segments, 1);
    }

    #[test]
    fn higher_dupack_threshold_tolerates_reordering() {
        let mut cfg5 = cfg();
        cfg5.dupack_threshold = 5;
        let mut s = TcpSender::new(cfg5, Some(1_000_000), SimTime::ZERO);
        while s.next_segment(SimTime::ZERO).is_some() {}
        for t in 0..4 {
            s.on_ack(0, SimTime::from_us(10 + t));
        }
        assert_eq!(s.fast_retransmits, 0, "4 dupacks under threshold 5");
        s.on_ack(0, SimTime::from_us(20));
        assert_eq!(s.fast_retransmits, 1);
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let mut s = TcpSender::new(cfg(), Some(100_000), SimTime::ZERO);
        while s.next_segment(SimTime::ZERO).is_some() {}
        let sent = s.next_seq;
        for t in 0..3 {
            s.on_ack(0, SimTime::from_us(10 + t));
        }
        assert_eq!(s.fast_retransmits, 1);
        // Full ACK past the recovery point ends recovery; growth resumes.
        s.on_ack(sent, SimTime::from_us(30));
        assert_eq!(s.inflight(), 0);
        assert!(s.next_segment(SimTime::from_us(31)).is_some());
        assert_eq!(s.fast_retransmits, 1, "no spurious second episode");
    }

    #[test]
    fn a_timeout_collapses_to_one_mss_and_goes_back_to_the_hole() {
        // The first window is lost: it is resent from byte 0 as the window
        // reopens, instead of one segment per timeout.
        let mut s = TcpSender::new(cfg(), Some(1_000_000), SimTime::ZERO);
        while s.next_segment(SimTime::ZERO).is_some() {}
        assert!(!s.maybe_timeout(SimTime::from_ms(1)), "before RTO");
        let t = SimTime::from_ms(6);
        assert!(s.maybe_timeout(t));
        assert_eq!(s.cwnd(), 1436);
        assert_eq!(s.next_segment(t), Some((0, 1436)));
        assert_eq!(s.next_segment(t), None, "one MSS window");
        s.on_ack(1436, t);
        let resent: Vec<_> = std::iter::from_fn(|| s.next_segment(t)).collect();
        assert_eq!(resent, [(1436, 1436), (2872, 1436)], "slow start from the hole");
        // A late ACK for data the receiver held moves the send point past it.
        s.on_ack(10 * 1436, t);
        assert_eq!(s.next_segment(t), Some((10 * 1436, 1436)));
        assert_eq!((s.retransmitted_segments, s.timeouts), (3, 1));
    }

    #[test]
    fn completes_exactly_total_bytes() {
        let total = 10_000u64;
        let mut s = TcpSender::new(cfg(), Some(total), SimTime::ZERO);
        let mut sent_bytes = 0u64;
        while let Some((_, len)) = s.next_segment(SimTime::ZERO) {
            sent_bytes += len as u64;
        }
        assert_eq!(sent_bytes, total, "short final segment");
        s.on_ack(total, SimTime::from_us(50));
        assert!(s.done());
        assert!(s.next_segment(SimTime::from_us(51)).is_none());
    }

    fn two_topologies() -> TcpSender {
        TcpSender::with_topologies(cfg(), 2, Some(10_000_000), SimTime::ZERO)
    }

    #[test]
    fn plain_sender_never_switches_topology() {
        let mut s = TcpSender::new(cfg(), Some(1_000_000), SimTime::ZERO);
        s.set_topology(1, SimTime::from_ms(1));
        assert_eq!(s.topology_switches, 0);
    }

    #[test]
    fn windows_are_per_topology() {
        let mut s = two_topologies();
        // Fill the initial window on topology 0, then suffer dupacks.
        while s.next_segment(SimTime::ZERO).is_some() {}
        for t in 0..3 {
            s.on_ack(0, SimTime::from_us(10 + t));
        }
        assert_eq!(s.fast_retransmits, 1);
        let halved = cwnd_of(&s, 0);
        assert!(halved < cfg().init_cwnd);
        // Topology 1's window is untouched.
        assert_eq!(cwnd_of(&s, 1), cfg().init_cwnd);
        // Switching to topology 1 restores full sending capacity.
        s.set_topology(1, SimTime::from_ms(1));
        assert_eq!(s.cwnd(), cfg().init_cwnd);
        assert_eq!(s.topology_switches, 1);
    }

    #[test]
    fn switch_grace_absorbs_reordering_dupacks() {
        let mut s = two_topologies();
        while s.next_segment(SimTime::ZERO).is_some() {}
        // Two dupacks on topology 0 (threshold 3 not yet reached)...
        s.on_ack(0, SimTime::from_us(1));
        s.on_ack(0, SimTime::from_us(2));
        // ...switch away and back: the count restarts and a reordering
        // grace window opens.
        s.set_topology(1, SimTime::from_ms(1));
        s.set_topology(0, SimTime::from_ms(1));
        // Dupacks inside the grace window are reordering, not loss.
        for t in 0..5 {
            s.on_ack(0, SimTime::from_ns(1_000_000 + 10_000 * t));
        }
        assert_eq!(s.fast_retransmits, 0, "in-grace dupacks must be absorbed");
        // Past the grace window, persistent dupacks mean real loss.
        let after = 1_000_000 + TcpSender::REORDER_GRACE_NS;
        for t in 0..3 {
            s.on_ack(0, SimTime::from_ns(after + 1_000 * t));
        }
        assert_eq!(s.fast_retransmits, 1);
    }

    #[test]
    fn growth_applies_to_active_topology() {
        let mut s = two_topologies();
        while s.next_segment(SimTime::ZERO).is_some() {}
        let acked = s.next_seq;
        s.set_topology(1, SimTime::from_ms(1));
        s.on_ack(acked, SimTime::from_us(50));
        assert!(cwnd_of(&s, 1) > cfg().init_cwnd, "active topo grows");
        assert_eq!(cwnd_of(&s, 0), cfg().init_cwnd, "idle topo untouched");
    }

    #[test]
    fn timeout_penalizes_only_active() {
        let mut s = two_topologies();
        while s.next_segment(SimTime::ZERO).is_some() {}
        s.set_topology(1, SimTime::from_ms(1));
        assert!(s.maybe_timeout(SimTime::from_ms(6)));
        assert_eq!(cwnd_of(&s, 1), cfg().mss as u64);
        assert_eq!(cwnd_of(&s, 0), cfg().init_cwnd);
    }

    #[test]
    fn receiver_reassembles_in_order() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_data(0, 100), 100);
        assert_eq!(r.on_data(100, 100), 200);
        assert_eq!(r.delivered_bytes, 200);
        assert_eq!(r.reorder_events, 0);
    }

    #[test]
    fn receiver_counts_reordering() {
        let mut r = TcpReceiver::new();
        r.on_data(0, 100);
        // 200..300 arrives before 100..200.
        assert_eq!(r.on_data(200, 100), 100, "dup-acks the hole");
        let ack = r.on_data(100, 100);
        assert_eq!(ack, 300, "hole filled, cumulative jump");
        assert_eq!(r.reorder_events, 1);
    }

    #[test]
    fn receiver_ignores_pure_duplicates() {
        let mut r = TcpReceiver::new();
        r.on_data(0, 100);
        assert_eq!(r.on_data(0, 100), 100);
        assert_eq!(r.delivered_bytes, 100);
    }

    #[test]
    fn receiver_merges_multiple_holes() {
        let mut r = TcpReceiver::new();
        r.on_data(100, 100);
        r.on_data(300, 100);
        assert_eq!(r.expected, 0);
        r.on_data(0, 100);
        assert_eq!(r.expected, 200);
        r.on_data(200, 100);
        assert_eq!(r.expected, 400);
        assert_eq!(r.reorder_events, 2);
    }
}
