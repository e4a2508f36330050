//! The OpenOptics-enabled ToR switch (§5).
//!
//! Composition of the whole switch backend: time-flow-table lookup on
//! ingress, calendar-queue enqueue by departure rank, EQO-based congestion
//! detection with pluggable responses, push-back generation, and buffer
//! offloading for far-future ranks. The simulation engine drives a
//! [`ToRSwitch`] with three calls: [`ToRSwitch::ingress`] when a packet
//! head arrives, [`ToRSwitch::rotate`] at each (locally clocked) slice
//! boundary, and [`ToRSwitch::pop_if_fits`] when an uplink is free to
//! transmit. Each takes the trace stream it may emit into, and `ingress`
//! the active schedule, which the `defer` response reads to keep a packet
//! on its path; the switch holds no handle into anyone else's storage.

use crate::calendar::{CalendarPort, EnqueueError};
use crate::congestion::{admissible_bytes, congested, CongestionConfig, CongestionPolicy};
use crate::eqo::Eqo;
use crate::offload::{OffloadBook, OffloadPolicy};
use crate::pushback::PushbackGen;
use crate::tft::TimeFlowTable;
use openoptics_fabric::OpticalSchedule;
use openoptics_proto::HEADER_BYTES;
use openoptics_proto::{NodeId, Packet, PktRef, PortId, PushBack};
use openoptics_routing::RouteEntry;
use openoptics_sim::idx_u32;
use openoptics_sim::time::SliceIndex;
use openoptics_sim::Bandwidth;
use openoptics_sim::{SimTime, SliceConfig};
use openoptics_telemetry::{Log2Histogram, Trace, TraceKind};

/// Static configuration of one ToR switch.
#[derive(Clone, Debug)]
pub struct TorConfig {
    /// This switch's endpoint-node identity.
    pub id: NodeId,
    /// Slice structure of the optical schedule.
    pub slice_cfg: SliceConfig,
    /// Optical uplinks.
    pub uplinks: u16,
    /// Uplink line rate (circuit bandwidth).
    pub uplink_bandwidth: Bandwidth,
    /// Calendar queues per uplink (Tofino2 exposes 32-ish usable egress
    /// queues per port).
    pub num_queues: usize,
    /// Byte capacity of each calendar queue.
    pub queue_capacity: u64,
    /// Congestion-detection service configuration.
    pub congestion: CongestionConfig,
    /// Whether the push-back service is armed.
    pub pushback_enabled: bool,
    /// Buffer offloading policy, if enabled.
    pub offload: Option<OffloadPolicy>,
    /// EQO update interval (50 ns in the paper).
    pub eqo_interval_ns: u64,
    /// Ablation switch: read ground-truth queue occupancy for congestion
    /// detection instead of the EQO estimate (impossible on hardware).
    pub use_true_occupancy: bool,
}

/// Why a packet was dropped at the switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The `drop` congestion policy dropped it.
    Congestion,
    /// Ground-truth queue capacity exceeded (EQO under-estimated).
    QueueCapacity,
    /// Departure rank beyond the calendar ring and offloading disabled.
    RankOverflow,
}

/// Outcome of one ingress pipeline pass. The switch keeps the packet's
/// handle only when it buffered or parked it; otherwise the caller still
/// holds the packet.
#[derive(Clone, Copy, Debug)]
pub enum IngressDecision {
    /// Destination is this switch: hand to the local host layer.
    DeliverLocal,
    /// Buffered in a calendar queue.
    Enqueued {
        /// Uplink the packet will leave on.
        port: PortId,
        /// Slices until departure.
        rank: u32,
    },
    /// Parked on a host by the offload service.
    Offloaded {
        /// Absolute slice ordinal the packet is parked for.
        abs_slice: u64,
        /// Uplink it will eventually leave on.
        port: PortId,
    },
    /// Payload trimmed (Opera-style); header-only packet enqueued.
    Trimmed {
        /// Uplink the trimmed header will leave on.
        port: PortId,
        /// Slices until departure.
        rank: u32,
    },
    /// Dropped.
    Dropped(DropReason),
    /// No matching time-flow entry; the caller can consult the controller
    /// (lazy table population) and retry.
    NoRoute,
}

/// Ingress outcome plus any push-back broadcast to emit.
#[derive(Clone, Copy, Debug)]
pub struct IngressResult {
    /// What happened to the packet.
    pub decision: IngressDecision,
    /// Push-back message to broadcast to local hosts, if generated.
    pub pushback: Option<PushBack>,
}

/// Packet-level counters for one switch.
#[derive(Clone, Copy, Debug, Default)]
pub struct TorCounters {
    /// Packets buffered successfully.
    pub enqueued: u64,
    /// Packets delivered to local hosts.
    pub delivered_local: u64,
    /// Packets deferred to a later slice to the same peer by the `defer`
    /// response.
    pub deferred: u64,
    /// `defer` responses that found no such slice with room and kept the
    /// planned queue, missing the slice.
    pub defer_exhausted: u64,
    /// Packets trimmed to header-only.
    pub trimmed: u64,
    /// Drops by congestion policy.
    pub dropped_congestion: u64,
    /// Drops by ground-truth queue capacity.
    pub dropped_capacity: u64,
    /// Drops by rank overflow (no offload).
    pub dropped_rank: u64,
    /// Bytes transmitted per uplink (bandwidth telemetry).
    pub tx_bytes: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Head-of-line packets that missed the tail of their slice.
    pub slice_miss: u64,
    /// Calendar rotations performed.
    pub rotations: u64,
}

impl TorCounters {
    /// Every counter as a `(metric name, value)` pair, for telemetry
    /// mirroring. The pattern has no `..`, so a counter added without a
    /// name here does not build.
    pub fn counter_pairs(&self) -> [(&'static str, u64); 12] {
        let TorCounters {
            enqueued,
            delivered_local,
            deferred,
            defer_exhausted,
            trimmed,
            dropped_congestion,
            dropped_capacity,
            dropped_rank,
            tx_bytes,
            tx_packets,
            slice_miss,
            rotations,
        } = *self;
        [
            ("tor.enqueued", enqueued),
            ("tor.delivered_local", delivered_local),
            ("tor.deferred", deferred),
            ("tor.defer_exhausted", defer_exhausted),
            ("tor.trimmed", trimmed),
            ("tor.dropped_congestion", dropped_congestion),
            ("tor.dropped_capacity", dropped_capacity),
            ("tor.dropped_rank", dropped_rank),
            ("tor.tx_bytes", tx_bytes),
            ("tor.tx_packets", tx_packets),
            ("tor.slice_miss", slice_miss),
            ("tor.rotations", rotations),
        ]
    }
}

/// The switch model.
///
/// It owns all of its state — tables, calendar ports, offload ledger,
/// counters — so a clone is an independent copy.
#[derive(Clone)]
pub struct ToRSwitch {
    /// Static configuration.
    pub cfg: TorConfig,
    tft: TimeFlowTable,
    ports: Vec<CalendarPort<PktRef>>,
    eqo: Eqo,
    pushback: PushbackGen,
    /// Offload ledger (meaningful only when `cfg.offload` is set).
    pub offload_book: OffloadBook,
    current_slice: SliceIndex,
    abs_slice: u64,
    /// Telemetry counters.
    pub counters: TorCounters,
    /// Peak total calendar occupancy observed, bytes (Table 3).
    pub peak_buffer_bytes: u64,
    /// |EQO estimate − true occupancy| at each admission, bytes; kept only
    /// with telemetry on (boxed, so a switch without it does not carry the
    /// 65 buckets inline).
    eqo_abs_err: Option<Box<Log2Histogram>>,
}

impl ToRSwitch {
    /// Build a switch from its configuration. With `telemetry` it also
    /// keeps a histogram of EQO estimation error, and traces each sample.
    pub fn new(cfg: TorConfig, telemetry: bool) -> Self {
        let ports = (0..cfg.uplinks)
            .map(|_| CalendarPort::new(cfg.num_queues, cfg.queue_capacity))
            .collect();
        let eqo = Eqo::new(
            cfg.uplinks as usize,
            cfg.num_queues,
            cfg.eqo_interval_ns,
            cfg.uplink_bandwidth,
        );
        let pushback = PushbackGen::new(cfg.pushback_enabled);
        let cycle_ns = cfg.slice_cfg.slice_ns * u64::from(cfg.slice_cfg.num_slices);
        ToRSwitch {
            cfg,
            tft: TimeFlowTable::for_cycle(cycle_ns),
            ports,
            eqo,
            pushback,
            offload_book: OffloadBook::new(),
            current_slice: 0,
            abs_slice: 0,
            counters: TorCounters::default(),
            peak_buffer_bytes: 0,
            eqo_abs_err: telemetry.then(Box::default),
        }
    }

    /// The EQO estimation-error histogram (`None` with telemetry off).
    pub fn eqo_abs_err(&self) -> Option<&Log2Histogram> {
        self.eqo_abs_err.as_deref()
    }

    /// Install compiled route entries (the `deploy_routing` endpoint).
    pub fn install_routes(&mut self, entries: impl IntoIterator<Item = RouteEntry>) {
        self.tft.install_all(entries);
    }

    /// Mutable table access (TA reconfiguration swaps routes).
    pub fn tft_mut(&mut self) -> &mut TimeFlowTable {
        &mut self.tft
    }

    /// The slice this switch currently believes is active.
    pub fn current_slice(&self) -> SliceIndex {
        self.current_slice
    }

    /// Absolute slice ordinal (not wrapped).
    pub fn abs_slice(&self) -> u64 {
        self.abs_slice
    }

    /// Total bytes currently buffered in calendar queues.
    pub fn buffer_bytes(&self) -> u64 {
        self.ports.iter().map(|p| p.total_bytes()).sum()
    }

    /// Per-port buffered bytes (the `buffer_usage()` monitoring API).
    pub fn port_buffer_bytes(&self, port: PortId) -> u64 {
        self.ports[port.index()].total_bytes()
    }

    /// `strict-invariants`: each port's running byte total equals its
    /// queues' bytes summed.
    pub fn assert_port_totals(&self) {
        for (i, p) in self.ports.iter().enumerate() {
            let summed: u64 = (0..p.num_queues()).map(|q| p.queue_bytes(q)).sum();
            assert_eq!(
                p.total_bytes(),
                summed,
                "node {} port {i}: running byte total != queue bytes summed",
                self.cfg.id,
            );
        }
    }

    /// Bring the EQO registers to `now`: drain each port's active queue.
    fn refresh_eqo(&mut self, now: SimTime) {
        let ToRSwitch { eqo, ports, .. } = self;
        eqo.refresh_with(now, |p| ports[p].active_index());
    }

    fn note_peak(&mut self) {
        let b = self.buffer_bytes();
        if b > self.peak_buffer_bytes {
            self.peak_buffer_bytes = b;
        }
    }

    /// Slice-boundary rotation: apply pending EQO drain for the old active
    /// queues, then rotate every port and bump the slice counters.
    pub fn rotate(&mut self, now: SimTime, trace: &mut Trace) {
        self.refresh_eqo(now);
        for p in &mut self.ports {
            p.rotate();
        }
        self.current_slice = self.cfg.slice_cfg.advance(self.current_slice, 1);
        self.abs_slice += 1;
        self.counters.rotations += 1;
        let min_cycle = self.abs_slice / self.cfg.slice_cfg.num_slices as u64;
        if trace.is_on() {
            let node = self.cfg.id;
            trace.emit(now, TraceKind::SliceRotate { node, slice: self.current_slice });
            for (dst, slice, cycle) in self.pushback.gc_collect(min_cycle) {
                trace.emit(now, TraceKind::PushbackDeassert { node, dst, slice, cycle });
            }
        } else {
            self.pushback.gc(min_cycle);
        }
    }

    /// Ingress pipeline for the packet named `h`, whose header `pkt` is
    /// rewritten in place (ingress timestamp, hop count, source route,
    /// trim).
    pub fn ingress(
        &mut self,
        h: PktRef,
        pkt: &mut Packet,
        schedule: &OpticalSchedule,
        now: SimTime,
        trace: &mut Trace,
    ) -> IngressResult {
        pkt.ingress_ts = now;

        if pkt.dst == self.cfg.id {
            self.counters.delivered_local += 1;
            return IngressResult { decision: IngressDecision::DeliverLocal, pushback: None };
        }
        pkt.hops = pkt.hops.saturating_add(1);

        // Resolve the egress decision: an in-flight source route wins;
        // otherwise the time-flow table (which may itself stamp a route).
        let (port, dep_slice) =
            if let Some(hop) = pkt.source_route.as_ref().and_then(|sr| sr.current()) {
                pkt.source_route.as_mut().expect("just read").advance();
                // The executed hop's header entry is popped off the wire.
                pkt.size = pkt.size.saturating_sub(4);
                (hop.port, hop.dep_slice)
            } else {
                let Some(action) = self.tft.lookup(pkt, self.current_slice) else {
                    return IngressResult { decision: IngressDecision::NoRoute, pushback: None };
                };
                let (port, dep) = (action.port, action.dep_slice);
                if let Some(mut sr) = action.source_route() {
                    // Stamping the hop stack costs wire bytes (4 per hop,
                    // Fig. 3d); the first hop is executed and popped right away.
                    pkt.size += sr.wire_bytes().saturating_sub(4);
                    sr.advance();
                    pkt.source_route = Some(sr);
                }
                (port, dep)
            };

        let rank = match dep_slice {
            Some(dep) => self.cfg.slice_cfg.rank(self.current_slice, dep),
            None => 0,
        };
        self.admit(h, pkt, (port, rank), schedule, now, trace)
    }

    /// Admission toward `port` at `rank`: offload check, congestion
    /// detection, calendar enqueue.
    ///
    /// The EQO catches up to `now` here, before any register is read or
    /// written, so first ingress and re-admission see the same estimate.
    /// `now` is the engine clock, as in [`ToRSwitch::rotate`]: the switch's
    /// local clock gates transmission only, and how many drain attempts ran
    /// before an admission cannot change what it decides.
    fn admit(
        &mut self,
        h: PktRef,
        pkt: &mut Packet,
        (port, rank): (PortId, u32),
        schedule: &OpticalSchedule,
        now: SimTime,
        trace: &mut Trace,
    ) -> IngressResult {
        self.refresh_eqo(now);
        let pidx = port.index();

        // Buffer offloading: far-future ranks are parked on hosts.
        if let Some(pol) = self.cfg.offload {
            if pol.should_offload(rank) || !self.ports[pidx].rank_fits(rank) {
                return self.park(h, pkt.size, (port, rank), None);
            }
        } else if !self.ports[pidx].rank_fits(rank) {
            self.counters.dropped_rank += 1;
            // A rank the ring cannot express is also a queue-full condition
            // for push-back purposes.
            let pb = self.queue_full_pushback(pkt, rank, now, trace);
            return IngressResult {
                decision: IngressDecision::Dropped(DropReason::RankOverflow),
                pushback: pb,
            };
        }

        // Congestion detection against the EQO estimate, sampling its error
        // once per admission.
        if !self.cfg.use_true_occupancy {
            if let Some(hist) = &mut self.eqo_abs_err {
                let qidx = self.ports[pidx].index_for_rank(rank);
                let est = self.eqo.estimate(pidx, qidx);
                let actual = self.ports[pidx].queue_bytes(qidx);
                hist.record(est.abs_diff(actual));
                trace.emit(
                    now,
                    TraceKind::EqoSample {
                        node: self.cfg.id,
                        port,
                        queue: idx_u32(qidx),
                        estimate_bytes: est,
                        actual_bytes: actual,
                    },
                );
            }
        }
        let mut chosen_rank = rank;
        let mut trimmed = false;
        let mut pushback = None;
        if self.congested(pidx, rank, pkt.size, now) {
            pushback = self.queue_full_pushback(pkt, rank, now, trace);
            match self.cfg.congestion.policy {
                CongestionPolicy::Drop => {
                    self.counters.dropped_congestion += 1;
                    return IngressResult {
                        decision: IngressDecision::Dropped(DropReason::Congestion),
                        pushback,
                    };
                }
                CongestionPolicy::Trim => {
                    pkt.size = HEADER_BYTES;
                    pkt.payload = 0;
                    pkt.trimmed = true;
                    trimmed = true;
                    self.counters.trimmed += 1;
                }
                CongestionPolicy::Defer => {
                    match self.defer_rank(schedule, port, rank, pkt.size, now) {
                        Some(r) => {
                            self.counters.deferred += 1;
                            if !self.ports[pidx].rank_fits(r) {
                                // Past the calendar's reach: parked for that slice.
                                return self.park(h, pkt.size, (port, r), pushback);
                            }
                            chosen_rank = r;
                        }
                        // No later slice reaches the same peer with room: keep
                        // the planned queue and accept the slice miss (the
                        // §5.2 failure mode is delay, not loss; actual loss
                        // only occurs when the queue capacity itself
                        // overflows below).
                        None => self.counters.defer_exhausted += 1,
                    }
                }
            }
        }

        // Ground-truth enqueue.
        let size = pkt.size;
        match self.ports[pidx].enqueue(chosen_rank, size, h) {
            Ok(qidx) => {
                self.eqo.on_enqueue(pidx, qidx, size);
                self.counters.enqueued += 1;
                self.note_peak();
                IngressResult {
                    decision: if trimmed {
                        IngressDecision::Trimmed { port, rank: chosen_rank }
                    } else {
                        IngressDecision::Enqueued { port, rank: chosen_rank }
                    },
                    pushback,
                }
            }
            Err(EnqueueError::QueueFull(_)) => {
                self.counters.dropped_capacity += 1;
                IngressResult {
                    decision: IngressDecision::Dropped(DropReason::QueueCapacity),
                    pushback,
                }
            }
            Err(EnqueueError::RankOverflow(_)) => {
                self.counters.dropped_rank += 1;
                IngressResult {
                    decision: IngressDecision::Dropped(DropReason::RankOverflow),
                    pushback,
                }
            }
        }
    }

    /// Park `h` (`size` bytes) on a host until the slice `rank` slices on,
    /// to leave on `port` then: the offload service.
    fn park(
        &mut self,
        h: PktRef,
        size: u32,
        (port, rank): (PortId, u32),
        pushback: Option<PushBack>,
    ) -> IngressResult {
        let abs = self.abs_slice + u64::from(rank);
        self.offload_book.park(abs, port, size, h);
        IngressResult { decision: IngressDecision::Offloaded { abs_slice: abs, port }, pushback }
    }

    /// Whether a packet of `size` bytes congests `port`'s queue for
    /// `rank`, read from the EQO estimate (or the ground truth, in the
    /// ablation).
    fn congested(&self, pidx: usize, rank: u32, size: u32, now: SimTime) -> bool {
        let qidx = self.ports[pidx].index_for_rank(rank);
        let est = if self.cfg.use_true_occupancy {
            self.ports[pidx].queue_bytes(qidx)
        } else {
            self.eqo.estimate(pidx, qidx)
        };
        let admissible =
            admissible_bytes(&self.cfg.slice_cfg, self.cfg.uplink_bandwidth, rank, now);
        congested(&self.cfg.congestion, est, size, admissible)
    }

    /// The `defer` response: the first rank after `rank`, at most one cycle
    /// on, whose slice connects `port` to the peer `rank`'s slice does
    /// (the path's next hop) and whose queue admits `size` bytes; past the
    /// calendar's reach, the first such slice the offload service would
    /// park for. `None` when there is none, and the packet keeps its
    /// planned queue.
    fn defer_rank(
        &self,
        schedule: &OpticalSchedule,
        port: PortId,
        rank: u32,
        size: u32,
        now: SimTime,
    ) -> Option<u32> {
        let sc = &self.cfg.slice_cfg;
        let slice = |r| sc.advance(self.current_slice, r);
        let peer = |r| schedule.peer(self.cfg.id, port, slice(r)).map(|(node, _)| node);
        let (next_hop, pidx) = (peer(rank)?, port.index());
        for r in (rank + 1..=rank + sc.num_slices).filter(|&r| peer(r) == Some(next_hop)) {
            if !self.ports[pidx].rank_fits(r) {
                return self.cfg.offload.filter(|pol| pol.should_offload(r)).map(|_| r);
            }
            if !self.congested(pidx, r, size, now) {
                return Some(r);
            }
        }
        None
    }

    fn queue_full_pushback(
        &mut self,
        pkt: &Packet,
        rank: u32,
        now: SimTime,
        trace: &mut Trace,
    ) -> Option<PushBack> {
        let slice = self.cfg.slice_cfg.advance(self.current_slice, rank);
        let cycle = (self.abs_slice + rank as u64) / self.cfg.slice_cfg.num_slices as u64;
        let msg = self.pushback.on_queue_full(pkt.dst, slice, cycle);
        if msg.is_some() {
            trace.emit(
                now,
                TraceKind::PushbackAssert { node: self.cfg.id, dst: pkt.dst, slice, cycle },
            );
        }
        msg
    }

    /// Pop the next packet from `port`'s active queue if its serialization
    /// (plus `end_margin_ns` safety) still fits in the current slice.
    /// Returns the packet's handle and its serialization time. `now` is the
    /// switch's local clock; the EQO is left alone (admission catches it up).
    pub fn pop_if_fits(
        &mut self,
        port: PortId,
        now: SimTime,
        end_margin_ns: u64,
        trace: &mut Trace,
    ) -> Option<(PktRef, u64)> {
        let cp = &mut self.ports[port.index()];
        let (len, _) = *cp.peek_active()?;
        let tx = self.cfg.uplink_bandwidth.tx_time_ns(len as u64).max(1);
        let remaining = if self.cfg.slice_cfg.num_slices > 1 {
            self.cfg.slice_cfg.remaining_in_slice(now)
        } else {
            u64::MAX // static fabric: no slice boundary to respect
        };
        if tx + end_margin_ns > remaining {
            // Distinct from an empty queue: the head exists but cannot make
            // the tail of this slice and waits a full cycle.
            self.counters.slice_miss += 1;
            trace.emit(now, TraceKind::SliceMiss { node: self.cfg.id, port });
            return None;
        }
        let (len, pkt) = cp.pop_active().expect("peeked head vanished");
        self.counters.tx_bytes += len as u64;
        self.counters.tx_packets += 1;
        Some((pkt, tx))
    }

    /// Whether `port`'s active queue has a packet waiting.
    pub fn has_active_traffic(&self, port: PortId) -> bool {
        self.ports[port.index()].active_bytes() > 0
    }

    /// The packet at the head of `port`'s active queue, if any — a
    /// non-destructive peek for observability (guardband-hold spans).
    pub fn head_packet(&self, port: PortId) -> Option<PktRef> {
        self.ports[port.index()].peek_active().map(|&(_, h)| h)
    }

    /// Packets this switch holds a handle to: every calendar queue plus the
    /// offload book.
    pub fn held_packets(&self) -> usize {
        let queues = self.ports.iter().flat_map(|p| (0..p.num_queues()).map(|i| p.queue_len(i)));
        queues.sum::<usize>() + self.offload_book.parked_packets()
    }

    /// Offload batches due for recall at `now` (engine re-injects them
    /// through [`ToRSwitch::reinject_offloaded`] after the host round trip).
    /// Returns `(target absolute slice, port, packet)` triples.
    pub fn offload_due(&mut self, now: SimTime) -> Vec<(u64, PortId, PktRef)> {
        match self.cfg.offload {
            Some(pol) => self.offload_book.due(now, &self.cfg.slice_cfg, pol.return_lead_ns),
            None => vec![],
        }
    }

    /// The next offload recall deadline, for engine scheduling.
    pub fn next_offload_recall(&self) -> Option<SimTime> {
        self.cfg
            .offload
            .and_then(|pol| self.offload_book.next_recall(&self.cfg.slice_cfg, pol.return_lead_ns))
            .map(|(_, t)| t)
    }

    /// Re-admit a returned offloaded packet toward `to`, its `(port,
    /// rank)`: it flows through the normal admission path, now with a near
    /// rank.
    pub fn reinject_offloaded(
        &mut self,
        h: PktRef,
        pkt: &mut Packet,
        to: (PortId, u32),
        schedule: &OpticalSchedule,
        now: SimTime,
        trace: &mut Trace,
    ) -> IngressResult {
        // Bypass the offload check for near ranks by construction: the
        // caller recalls with lead < keep_ranks slices.
        self.admit(h, pkt, to, schedule, now, trace)
    }

    /// The push-back generator's statistics.
    pub fn pushback_stats(&self) -> (u64, u64) {
        (self.pushback.events, self.pushback.emitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_fabric::Circuit;
    use openoptics_proto::{HostId, PacketStore};
    use openoptics_routing::{MultipathMode, RouteAction, RouteMatch};

    fn cfg(num_slices: u32) -> TorConfig {
        TorConfig {
            id: NodeId(0),
            slice_cfg: SliceConfig::new(2_000, num_slices, 200),
            uplinks: 2,
            uplink_bandwidth: Bandwidth::gbps(100),
            num_queues: 32.min(num_slices as usize).max(1),
            queue_capacity: 2 * 1024 * 1024,
            congestion: CongestionConfig::default(),
            pushback_enabled: false,
            offload: None,
            eqo_interval_ns: 50, // the paper's Fig. 12 sweet spot
            use_true_occupancy: false,
        }
    }

    fn entry(arr: Option<u32>, dst: NodeId, port: PortId, dep: Option<u32>) -> RouteEntry {
        RouteEntry {
            node: NodeId(0),
            m: RouteMatch { arr_slice: arr, dst },
            actions: vec![(RouteAction { port, dep_slice: dep, push_source_route: None }, 1)],
            multipath: MultipathMode::None,
        }
    }

    /// A schedule in `t`'s slice structure where node 0's port `p` meets
    /// node `peer(s, p)` in slice `s`, on the peer's port `p`.
    fn schedule(t: &ToRSwitch, peer: impl Fn(u32, u16) -> u32) -> OpticalSchedule {
        let n = t.cfg.slice_cfg.num_slices;
        let circuits: Vec<_> = (0..n)
            .flat_map(|s| [0, 1].map(|p| (s, PortId(p), NodeId(peer(s, p)))))
            .map(|(s, p, b)| Circuit { a: NodeId(0), a_port: p, b, b_port: p, slice: Some(s) })
            .collect();
        OpticalSchedule::build(t.cfg.slice_cfg, n + 1, 2, &circuits).unwrap()
    }

    /// Node 0's port `p` meets node `1 + (s + p) mod num_slices` in slice
    /// `s`: each peer once a cycle on each port, as on a round robin.
    fn ring(t: &ToRSwitch) -> OpticalSchedule {
        let n = t.cfg.slice_cfg.num_slices;
        schedule(t, |s, p| 1 + (s + u32::from(p)) % n)
    }

    fn pkt(id: u64, dst: NodeId) -> Packet {
        Packet::data(id, 1, NodeId(0), dst, HostId(0), HostId(9), 1000, 0, SimTime::ZERO)
    }

    /// `t`'s slice boundary at `ns`, traced nowhere.
    fn rotate(t: &mut ToRSwitch, ns: u64) {
        t.rotate(SimTime::from_ns(ns), &mut Trace::detached());
    }

    /// `t`'s transmit attempt on `port` at `ns` with no end margin, traced
    /// nowhere.
    fn pop(t: &mut ToRSwitch, port: PortId, ns: u64) -> Option<(PktRef, u64)> {
        t.pop_if_fits(port, SimTime::from_ns(ns), 0, &mut Trace::detached())
    }

    /// Store `p` and run it through `t`'s ingress pipeline, as the engine does.
    fn ingress(
        t: &mut ToRSwitch,
        store: &mut PacketStore,
        p: Packet,
        now: SimTime,
    ) -> (PktRef, IngressResult) {
        let h = store.insert(p);
        (h, t.ingress(h, &mut store[h], &ring(t), now, &mut Trace::detached()))
    }

    #[test]
    fn local_delivery_short_circuits() {
        let (mut t, mut store) = (ToRSwitch::new(cfg(8), false), PacketStore::new());
        let (_, r) = ingress(&mut t, &mut store, pkt(1, NodeId(0)), SimTime::from_ns(300));
        assert!(matches!(r.decision, IngressDecision::DeliverLocal));
        assert_eq!(t.counters.delivered_local, 1);
    }

    #[test]
    fn no_route_leaves_the_packet_with_the_caller() {
        let (mut t, mut store) = (ToRSwitch::new(cfg(8), false), PacketStore::new());
        let (h, r) = ingress(&mut t, &mut store, pkt(1, NodeId(3)), SimTime::from_ns(300));
        assert!(matches!(r.decision, IngressDecision::NoRoute), "unexpected {:?}", r.decision);
        assert_eq!((store[h].dst, t.held_packets()), (NodeId(3), 0));
    }

    #[test]
    fn enqueue_rank_matches_departure_slice() {
        let (mut t, mut store) = (ToRSwitch::new(cfg(8), false), PacketStore::new());
        // Arrive slice 0, depart slice 3 -> rank 3.
        t.install_routes([entry(Some(0), NodeId(3), PortId(1), Some(3))]);
        let (_, r) = ingress(&mut t, &mut store, pkt(1, NodeId(3)), SimTime::from_ns(300));
        match r.decision {
            IngressDecision::Enqueued { port, rank } => {
                assert_eq!(port, PortId(1));
                assert_eq!(rank, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Not transmittable now (queue paused)...
        assert!(!t.has_active_traffic(PortId(1)));
        // ...but after three rotations it is.
        for i in 1..=3u64 {
            rotate(&mut t, 2_000 * i);
        }
        assert!(t.has_active_traffic(PortId(1)));
        let (p, tx) = pop(&mut t, PortId(1), 6_300).expect("head fits the slice");
        assert_eq!(store[p].id, 1);
        assert!(tx > 0);
    }

    #[test]
    fn tail_that_misses_slice_waits() {
        let (mut t, mut store) = (ToRSwitch::new(cfg(8), false), PacketStore::new());
        t.install_routes([entry(Some(0), NodeId(3), PortId(0), Some(0))]);
        ingress(&mut t, &mut store, pkt(1, NodeId(3)), SimTime::from_ns(200));
        // 1064-byte wire packet at 100 Gbps = ~85 ns; only 50 ns left.
        assert!(pop(&mut t, PortId(0), 1_950).is_none());
        // Earlier in the slice it fits.
        assert!(pop(&mut t, PortId(0), 1_000).is_some());
    }

    #[test]
    fn source_route_overrides_table() {
        use openoptics_proto::{SourceHop, SourceRoute};
        let (mut t, mut store) = (ToRSwitch::new(cfg(8), false), PacketStore::new());
        // Table says port 0; the packet carries a source route via port 1.
        t.install_routes([entry(Some(0), NodeId(3), PortId(0), Some(0))]);
        let mut p = pkt(1, NodeId(3));
        p.source_route =
            Some(SourceRoute::new(vec![SourceHop { port: PortId(1), dep_slice: Some(2) }]));
        let (_, r) = ingress(&mut t, &mut store, p, SimTime::from_ns(300));
        match r.decision {
            IngressDecision::Enqueued { port, rank } => {
                assert_eq!(port, PortId(1));
                assert_eq!(rank, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn congestion_drop_policy() {
        let mut c = cfg(8);
        c.congestion = CongestionConfig {
            detection_enabled: true,
            threshold_bytes: 1_000_000,
            policy: CongestionPolicy::Drop,
        };
        let (mut t, mut store) = (ToRSwitch::new(c, false), PacketStore::new());
        t.install_routes([entry(Some(0), NodeId(3), PortId(0), Some(1))]);
        // Admissible for a future slice: 100 Gbps x 1800 ns = 22_500 B.
        // 21 x 1064 B = 22_344 B fit; the 22nd exceeds.
        let mut dropped = 0;
        for i in 0..25 {
            let (_, r) = ingress(&mut t, &mut store, pkt(i, NodeId(3)), SimTime::from_ns(300));
            if matches!(r.decision, IngressDecision::Dropped(DropReason::Congestion)) {
                dropped += 1;
            }
        }
        assert!(dropped >= 3, "expected tail drops, got {dropped}");
        assert_eq!(t.counters.dropped_congestion, dropped);
    }

    /// The ranks 50 packets for slice 1 on port 0, admitted at once under
    /// `defer`, were enqueued at on `schedule`.
    fn deferred_ranks(t: &mut ToRSwitch, schedule: &OpticalSchedule) -> Vec<u32> {
        let mut store = PacketStore::new();
        t.install_routes([entry(Some(0), NodeId(3), PortId(0), Some(1))]);
        let now = SimTime::from_ns(300);
        let mut ranks = vec![];
        for i in 0..50 {
            let h = store.insert(pkt(i, NodeId(3)));
            let r = t.ingress(h, &mut store[h], schedule, now, &mut Trace::detached());
            match r.decision {
                IngressDecision::Enqueued { rank, .. } => ranks.push(rank),
                other => panic!("unexpected {other:?}"),
            }
        }
        ranks
    }

    #[test]
    fn congestion_defer_moves_to_a_later_slice_to_the_same_peer() {
        // The ring, but port 0 meets node 2 in slice 2 too (slice 1's peer).
        let mut t = ToRSwitch::new(cfg(8), false);
        let repeat =
            schedule(&t, |s, p| if (s, p) == (2, 0) { 2 } else { 1 + (s + u32::from(p)) % 8 });
        let ranks = deferred_ranks(&mut t, &repeat);
        // 21 x 1064 B fill slice 1's 22_500 B and 21 more slice 2's; the
        // rest stay planned, as slice 3's circuit leads elsewhere.
        assert_eq!(ranks, [[1; 21], [2; 21], [1; 21]].concat()[..50]);
        assert_eq!((t.counters.deferred, t.counters.defer_exhausted), (21, 8));
    }

    #[test]
    fn congestion_defer_on_a_round_robin_keeps_the_planned_queue() {
        let mut t = ToRSwitch::new(cfg(8), false);
        let schedule = ring(&t);
        let ranks = deferred_ranks(&mut t, &schedule);
        assert_eq!(ranks, [1; 50]);
        assert_eq!((t.counters.deferred, t.counters.defer_exhausted), (0, 29));
        assert_eq!(t.counters.dropped_congestion, 0);
    }

    #[test]
    fn congestion_trim_keeps_header() {
        let mut c = cfg(8);
        c.congestion.policy = CongestionPolicy::Trim;
        let (mut t, mut store) = (ToRSwitch::new(c, false), PacketStore::new());
        t.install_routes([entry(Some(0), NodeId(3), PortId(0), Some(1))]);
        let mut saw_trim = false;
        for i in 0..30 {
            let (_, r) = ingress(&mut t, &mut store, pkt(i, NodeId(3)), SimTime::from_ns(300));
            if matches!(r.decision, IngressDecision::Trimmed { .. }) {
                saw_trim = true;
            }
        }
        assert!(saw_trim);
        assert!(t.counters.trimmed > 0);
    }

    #[test]
    fn pushback_emitted_once_on_full() {
        let mut c = cfg(8);
        c.pushback_enabled = true;
        c.congestion.policy = CongestionPolicy::Drop;
        let (mut t, mut store) = (ToRSwitch::new(c, false), PacketStore::new());
        t.install_routes([entry(Some(0), NodeId(3), PortId(0), Some(1))]);
        let mut msgs = 0;
        for i in 0..40 {
            let (_, r) = ingress(&mut t, &mut store, pkt(i, NodeId(3)), SimTime::from_ns(300));
            if r.pushback.is_some() {
                msgs += 1;
            }
        }
        assert_eq!(msgs, 1, "push-back must deduplicate per (dst, slice, cycle)");
    }

    #[test]
    fn rank_overflow_without_offload_drops() {
        let mut c = cfg(64); // 64 slices but only 32 queues
        c.num_queues = 32;
        let (mut t, mut store) = (ToRSwitch::new(c, false), PacketStore::new());
        t.install_routes([entry(Some(0), NodeId(3), PortId(0), Some(40))]);
        let (_, r) = ingress(&mut t, &mut store, pkt(1, NodeId(3)), SimTime::from_ns(300));
        assert!(matches!(r.decision, IngressDecision::Dropped(DropReason::RankOverflow)));
        // Exported as `tor.dropped_rank`.
        assert_eq!((t.counters.dropped_rank, t.held_packets()), (1, 0));
    }

    #[test]
    fn offload_parks_far_ranks_and_recalls() {
        let mut c = cfg(64);
        c.num_queues = 32;
        c.offload = Some(OffloadPolicy { keep_ranks: 8, return_lead_ns: 3_000 });
        let (mut t, mut store) = (ToRSwitch::new(c, false), PacketStore::new());
        t.install_routes([entry(Some(0), NodeId(3), PortId(0), Some(40))]);
        let (_, r) = ingress(&mut t, &mut store, pkt(1, NodeId(3)), SimTime::from_ns(300));
        match r.decision {
            IngressDecision::Offloaded { abs_slice, .. } => assert_eq!(abs_slice, 40),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(t.offload_book.parked_packets(), 1);
        // Recall due at slice 40 start (80_000 ns) minus 3_000 ns lead.
        let recall = t.next_offload_recall().expect("a recall is pending");
        assert_eq!(recall, SimTime::from_ns(77_000));
        let due = t.offload_due(recall);
        assert_eq!(due.len(), 1);
    }

    #[test]
    fn buffer_telemetry_tracks_peak() {
        let (mut t, mut store) = (ToRSwitch::new(cfg(8), false), PacketStore::new());
        t.install_routes([entry(Some(0), NodeId(3), PortId(0), Some(2))]);
        for i in 0..5 {
            ingress(&mut t, &mut store, pkt(i, NodeId(3)), SimTime::from_ns(300));
        }
        assert_eq!(t.buffer_bytes(), 5 * 1064);
        assert_eq!(t.peak_buffer_bytes, 5 * 1064);
        assert_eq!(t.port_buffer_bytes(PortId(0)), 5 * 1064);
        assert_eq!(t.port_buffer_bytes(PortId(1)), 0);
        // Rotations move no bytes; pops lower the total, never the peak.
        rotate(&mut t, 2_000);
        rotate(&mut t, 4_000);
        assert_eq!((t.buffer_bytes(), t.peak_buffer_bytes), (5 * 1064, 5 * 1064));
        for left in (0..5).rev() {
            assert!(pop(&mut t, PortId(0), 4_300).is_some());
            assert_eq!(t.buffer_bytes(), left * 1064);
        }
        assert_eq!(t.peak_buffer_bytes, 5 * 1064);
        t.assert_port_totals();
        // A later, smaller burst does not lower the high-water mark.
        t.install_routes([entry(Some(2), NodeId(3), PortId(0), Some(2))]);
        ingress(&mut t, &mut store, pkt(9, NodeId(3)), SimTime::from_ns(4_400));
        assert_eq!((t.buffer_bytes(), t.peak_buffer_bytes), (1064, 5 * 1064));
    }

    #[test]
    fn telemetry_observes_mechanics() {
        let (mut t, mut store) = (ToRSwitch::new(cfg(8), true), PacketStore::new());
        let mut trace = Trace::bounded(1024);
        t.install_routes([entry(Some(0), NodeId(3), PortId(0), Some(0))]);
        let h = store.insert(pkt(1, NodeId(3)));
        t.ingress(h, &mut store[h], &ring(&t), SimTime::from_ns(200), &mut trace);
        // Head misses the slice tail at 1_950 ns (needs ~85 ns, 50 left).
        assert!(t.pop_if_fits(PortId(0), SimTime::from_ns(1_950), 0, &mut trace).is_none());
        t.rotate(SimTime::from_ns(2_000), &mut trace);
        assert_eq!((t.counters.slice_miss, t.counters.rotations), (1, 1));
        let eqo = t.eqo_abs_err().expect("telemetry keeps the EQO histogram").summary();
        assert_eq!(eqo.count, 1, "one admission, one EQO sample");
        let events: Vec<&'static str> = trace.records().iter().map(|r| r.kind.name()).collect();
        assert_eq!(events, vec!["eqo_sample", "slice_miss", "slice_rotate"]);
        assert!(ToRSwitch::new(cfg(8), false).eqo_abs_err().is_none());
    }

    /// The `EqoSample` estimates `trace` recorded, in order.
    fn eqo_estimates(trace: &Trace) -> Vec<u64> {
        let estimate = |r: &openoptics_telemetry::TraceRecord| match r.kind {
            TraceKind::EqoSample { estimate_bytes, .. } => Some(estimate_bytes),
            _ => None,
        };
        trace.records().iter().filter_map(estimate).collect()
    }

    #[test]
    fn empty_drains_leave_the_next_admission_unchanged() {
        // Two identical switches admit the same packets; one also runs drain
        // attempts on an empty port in between, at local times both behind
        // and ahead of the next admission. The EQO catches up only in
        // admission and rotation, on the engine clock, so the extra drains
        // move neither the estimate the next admission reads nor its error
        // sample.
        let admit_all = |drains: &[u64]| {
            let (mut t, mut store) = (ToRSwitch::new(cfg(8), true), PacketStore::new());
            let mut trace = Trace::bounded(64);
            t.install_routes([entry(Some(0), NodeId(3), PortId(0), Some(0))]);
            for i in 0..12 {
                let h = store.insert(pkt(i, NodeId(3)));
                t.ingress(h, &mut store[h], &ring(&t), SimTime::from_ns(100), &mut trace);
            }
            for &ns in drains {
                let popped = t.pop_if_fits(PortId(1), SimTime::from_ns(ns), 0, &mut trace);
                assert!(popped.is_none(), "port 1 holds nothing");
            }
            let h = store.insert(pkt(12, NodeId(3)));
            t.ingress(h, &mut store[h], &ring(&t), SimTime::from_ns(500), &mut trace);
            (eqo_estimates(&trace), *t.eqo_abs_err().expect("telemetry on"))
        };
        let (plain, plain_err) = admit_all(&[]);
        let (drained, drained_err) = admit_all(&[400, 560, 1_333]);
        // 12 x 1064 B admitted at 100 ns; eight whole 50 ns ticks of 625 B
        // drain by 500 ns.
        assert_eq!(plain[12], 12 * 1064 - 8 * 625);
        assert_eq!((drained, drained_err), (plain, plain_err));
    }

    #[test]
    fn a_reinjected_packet_sees_a_caught_up_estimate() {
        let mut c = cfg(64);
        c.num_queues = 32;
        c.offload = Some(OffloadPolicy { keep_ranks: 8, return_lead_ns: 3_000 });
        let (mut t, mut store) = (ToRSwitch::new(c, true), PacketStore::new());
        let mut trace = Trace::bounded(64);
        t.install_routes([entry(Some(0), NodeId(3), PortId(0), Some(0))]);
        for i in 0..10 {
            let h = store.insert(pkt(i, NodeId(3)));
            t.ingress(h, &mut store[h], &ring(&t), SimTime::from_ns(100), &mut trace);
        }
        // Re-admitted into the same active queue 400 ns later: eight whole
        // ticks of 625 B have drained since the last admission.
        let h = store.insert(pkt(10, NodeId(3)));
        let now = SimTime::from_ns(500);
        let r = t.reinject_offloaded(h, &mut store[h], (PortId(0), 0), &ring(&t), now, &mut trace);
        assert!(matches!(r.decision, IngressDecision::Enqueued { rank: 0, .. }));
        assert_eq!(eqo_estimates(&trace).last(), Some(&(10 * 1064 - 8 * 625)));
    }

    #[test]
    fn static_single_slice_acts_as_flow_table() {
        // num_slices = 1: wildcard entries, immediate transmission.
        let (mut t, mut store) = (ToRSwitch::new(cfg(1), false), PacketStore::new());
        t.install_routes([entry(None, NodeId(3), PortId(0), None)]);
        let (_, r) = ingress(&mut t, &mut store, pkt(1, NodeId(3)), SimTime::from_ns(5));
        assert!(matches!(r.decision, IngressDecision::Enqueued { rank: 0, .. }));
        // pop works regardless of slice remaining (static mode).
        assert!(pop(&mut t, PortId(0), 1_999).is_some());
    }
}
