//! The packet-level network engine.
//!
//! This is the simulation stand-in for the paper's testbed (Fig. 7): hosts
//! with vma-style stacks and NICs, OpenOptics ToR switches, the optical
//! fabric (real-OCS or emulated profile), an optional parallel electrical
//! fabric, and the per-node clocking that rotates calendar queues. It is a
//! deterministic discrete-event simulation driven by [`Engine`]'s
//! implementation of [`openoptics_sim::World`].
//!
//! Traffic enters through flows (paced or TCP), application generators
//! (memcached, allreduce — §6), and probe trains (Fig. 13); everything else
//! — queue rotation, guardbands, EQO, congestion responses, push-back,
//! offloading — happens as a consequence.

use crate::config::NetConfig;
use crate::net::DeployError;
use openoptics_fabric::{ClockSync, Fabric, FabricProfile, OpticalSchedule};
use openoptics_faults::{FaultError, FaultKind, FaultPlan, FaultReport, FaultRuntime};
use openoptics_host::apps::{ChunkSend, MemcachedParams, RingAllreduce};
use openoptics_host::FlowAging;
use openoptics_host::ProbeStats;
use openoptics_host::{Segment, VmaStack};
use openoptics_host::{TcpConfig, TcpReceiver, TcpSender};
use openoptics_obs::{
    DropSite, PacketEnd, Phase, Profiler, SpanCursors, SpanTable, Spans, Stage, WellFormedError,
};
use openoptics_proto::{FlowId, HostId, NodeId, Packet, PacketStore, PktRef, PortId, PushBack};
use openoptics_proto::{PacketKind, HEADER_BYTES};
use openoptics_routing::{compile, LookupMode, MultipathMode, Path, RoutingAlgorithm};
use openoptics_sim::Bandwidth;
use openoptics_sim::ByteQueue;
use openoptics_sim::{idx_u32, to_u32, to_u8};
use openoptics_sim::{EventQueue, SimRng, Tie, World};
use openoptics_sim::{SimTime, SliceConfig};
use openoptics_switch::OffloadPolicy;
use openoptics_switch::{CongestionConfig, CongestionPolicy};
use openoptics_switch::{IngressDecision, IngressResult, PipelineModel, ToRSwitch, TorConfig};
use openoptics_telemetry::json;
use openoptics_telemetry::{
    ChunkedVec, FlightTrigger, Frame, FrameLog, Labels, QuantileSketch, Registry, RetxKind,
    ServiceStats, SloTarget, SloTransition, TimeSeries, TraceKind, CHUNK_LEN,
};
use openoptics_topo::TrafficMatrix;
use openoptics_workload::FctStats;
use openoptics_workload::{FlowRecord, ELEPHANT_MIN_BYTES, MICE_MAX_BYTES};
use std::collections::VecDeque;

/// Maximum payload per packet (MTU minus headers).
pub(crate) const MSS: u32 = 1436;
/// Host-to-ToR wire + NIC pipeline latency, ns.
const HOST_WIRE_NS: u64 = 500;
/// Safety margin kept at the end of each slice when deciding whether a
/// packet's tail still fits (§7: the 34 ns rotation variance, padded).
const SLICE_END_MARGIN_NS: u64 = 40;
/// How far ahead of a slice boundary a switch notifies its hosts of the
/// circuits about to open (§5.2), ns; a slice no longer than this is
/// notified at its start.
const NOTIFY_LEAD_NS: u64 = 200;
/// Paced-flow watchdog period, ns.
const WATCHDOG_NS: u64 = 10_000_000;
/// One-way latency across the electrical fabric (two extra switch
/// pipelines), ns.
const ELECTRICAL_CORE_NS: u64 = 3_000;
/// vma segment-queue capacity per destination (the socket buffer), bytes.
const SEGMENT_QUEUE_BYTES: u64 = 4 * 1024 * 1024;
/// Trace records kept (first-N); later ones are counted but dropped, so
/// exports stay deterministic.
pub const TRACE_CAPACITY: usize = 4_096;
/// Span edges (a begin, or an end) kept. When full, *new* lifecycle trees
/// are skipped (and counted) but already-open spans still end.
const SPAN_CAPACITY: usize = 65_536;
/// Sample rows kept by the time-series store (keep-first, like the trace).
const SAMPLE_CAPACITY: usize = 65_536;
/// Frames kept by the subscription frame log. Every row has a frame, so a
/// log no larger than the series fills no later than it: a kept sample
/// frame always finds its row.
const FRAME_CAPACITY: usize = 65_536;
const _: () = assert!(FRAME_CAPACITY <= SAMPLE_CAPACITY);
/// Flow-class labels for the per-class latency sketches, index-aligned
/// with [`Engine::class_sketches`] (mice < 100 KB ≤ medium < 1 MB ≤
/// elephants).
pub(crate) const FLOW_CLASSES: [&str; 3] = ["mice", "medium", "elephant"];

/// How hosts split traffic between the optical and electrical fabrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Everything over the optical fabric.
    OpticalOnly,
    /// Everything over the electrical fabric (Clos baseline).
    ElectricalOnly,
    /// Elephants optical, mice electrical (c-Through-style hybrid).
    MiceElectrical,
    /// Use the optical fabric whenever a direct circuit to the destination
    /// is currently up, else the electrical fabric (hybrid RotorNet /
    /// TDTCP-style, Fig. 9).
    HybridDirect,
}

/// Host-side flow-pausing behavior (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PauseMode {
    /// No pausing: packets leave as soon as the NIC frees.
    None,
    /// Hold traffic toward each destination until a direct circuit from
    /// this host's ToR is up (direct-circuit routing / c-Through elephants).
    DirectCircuit,
}

/// Transport used by a flow.
#[derive(Clone, Copy, Debug)]
pub enum TransportKind {
    /// Open-loop pacing at NIC rate with a coarse watchdog retransmit;
    /// right for FCT studies where transport dynamics are not the subject.
    Paced,
    /// The TCP model of [`openoptics_host::tcp`] (Fig. 9).
    Tcp(TcpConfig),
    /// The same model with TDTCP-style per-topology congestion state:
    /// topology 0 = optical, 1 = electrical (meaningful under
    /// [`DispatchPolicy::HybridDirect`]).
    TdTcp(TcpConfig),
}

/// Role a flow plays in an application.
#[derive(Clone, Copy, Debug)]
enum FlowKind {
    /// Standalone flow.
    Plain,
    /// Memcached-style request; completion triggers a response and the FCT
    /// clock stops when the *response* lands.
    Request {
        /// Response size the server sends back.
        response_bytes: u32,
    },
    /// The response leg of a request.
    Response {
        /// The request flow whose FCT completes with this response.
        of: FlowId,
    },
    /// One allreduce chunk.
    Chunk {
        /// Index into the engine's collectives.
        collective: usize,
    },
}

#[derive(Clone)]
enum Transport {
    Paced,
    /// Boxed: most flows are paced, and every delivered packet touches its
    /// flow's record, so the table stays dense in what paced flows need.
    Tcp(Box<TcpEndpoints>),
}

#[derive(Clone)]
struct TcpEndpoints {
    sender: TcpSender,
    receiver: TcpReceiver,
}

#[derive(Clone)]
struct FlowState {
    src_host: HostId,
    dst_host: HostId,
    bytes: u64,
    /// Bytes handed to the vma stack so far (paced).
    queued: u64,
    /// Payload bytes that reached the destination (capped at `bytes`).
    delivered: u64,
    delivered_at_last_watchdog: u64,
    transport: Transport,
    kind: FlowKind,
    /// Declared service this flow belongs to (SLO accounting), if any.
    service: Option<u16>,
    done: bool,
}

/// A `ChunkedVec` whose chunk is freed once none of its items will be read
/// again: each chunk counts the items pushed into it that have not
/// expired. The last chunk is never freed (the next push may land in it),
/// so a chunk whose count reached zero while it was last goes when the
/// next chunk opens.
#[derive(Clone)]
struct Expiring<T> {
    items: ChunkedVec<T>,
    /// The first chunk's items that have not expired; a list that never
    /// leaves its first chunk allocates nothing more than that chunk.
    first_live: u32,
    /// The same count for every later chunk.
    more_live: Vec<u32>,
}

/// A chunk [`Expiring`] freed: its index and its items.
type Freed<T> = Option<(usize, Vec<T>)>;

impl<T> Expiring<T> {
    /// Empty; the first chunk doubles like a `Vec` ([`ChunkedVec::growing`]).
    fn growing() -> Self {
        Expiring { items: ChunkedVec::growing(), first_live: 0, more_live: Vec::new() }
    }

    fn live(&mut self, k: usize) -> &mut u32 {
        match k.checked_sub(1) {
            None => &mut self.first_live,
            Some(j) => &mut self.more_live[j],
        }
    }

    /// Append `item`; returns its index, and the chunk before it if that
    /// was waiting to be freed.
    fn push(&mut self, item: T) -> (usize, Freed<T>) {
        let i = self.items.push(item);
        let k = i / CHUNK_LEN;
        let mut freed = None;
        if k > self.more_live.len() {
            self.more_live.push(0);
            if *self.live(k - 1) == 0 {
                freed = self.items.release_chunk(k - 1).map(|items| (k - 1, items));
            }
        }
        *self.live(k) += 1;
        (i, freed)
    }

    /// Item `i` will not be read again; returns its chunk if that frees it.
    fn expire(&mut self, i: usize) -> Freed<T> {
        let k = i / CHUNK_LEN;
        let live = self.live(k);
        *live -= 1;
        if *live > 0 {
            return None;
        }
        self.items.release_chunk(k).map(|items| (k, items))
    }
}

/// Every flow ever started, dense by id: ids are handed out from 1 in start
/// order, so the id is one more than the row's index. A paced flow's row
/// is read no more once the flow is done, and a chunk of rows is freed
/// when every flow in it is ([`Expiring`]). A TCP flow's row stays: its
/// receiver still ACKs late duplicates after the sender is done.
#[derive(Clone)]
struct FlowTable {
    rows: Expiring<FlowState>,
    /// Per chunk of rows freed, each flow's size, which is what it
    /// delivered ([`Engine::flow_delivered`]); empty for a chunk still held.
    freed_bytes: Vec<Box<[u64]>>,
}

const _: () = assert!(std::mem::size_of::<FlowState>() <= 80);

impl FlowTable {
    fn new() -> Self {
        FlowTable { rows: Expiring::growing(), freed_bytes: Vec::new() }
    }

    fn get(&self, id: FlowId) -> Option<&FlowState> {
        self.rows.items.get(usize::try_from(id.checked_sub(1)?).ok()?)
    }

    fn get_mut(&mut self, id: FlowId) -> Option<&mut FlowState> {
        self.rows.items.get_mut(usize::try_from(id.checked_sub(1)?).ok()?)
    }

    /// Record a new flow and hand out its id.
    fn insert(&mut self, flow: FlowState) -> FlowId {
        let (i, freed) = self.rows.push(flow);
        self.keep_sizes(freed);
        i as FlowId + 1
    }

    /// The done paced flow `id` will not be read again.
    fn finished(&mut self, id: FlowId) {
        let freed = self.rows.expire(usize::try_from(id - 1).expect("a flow id is an index"));
        self.keep_sizes(freed);
    }

    /// What a freed flow delivered, or `None` if its row is held or it never
    /// started.
    fn freed_delivered(&self, id: FlowId) -> Option<u64> {
        let i = usize::try_from(id.checked_sub(1)?).ok()?;
        self.freed_bytes.get(i / CHUNK_LEN)?.get(i % CHUNK_LEN).copied()
    }

    /// Keep the sizes of a freed chunk's flows.
    fn keep_sizes(&mut self, freed: Freed<FlowState>) {
        let Some((k, rows)) = freed else { return };
        if cfg!(feature = "strict-invariants") {
            for f in &rows {
                let paced = matches!(f.transport, Transport::Paced);
                assert!(
                    f.done && paced && f.delivered == f.bytes,
                    "a freed flow delivered its size"
                );
            }
        }
        if self.freed_bytes.len() <= k {
            self.freed_bytes.resize_with(k + 1, Box::default);
        }
        self.freed_bytes[k] = rows.iter().map(|f| f.bytes).collect();
    }
}

#[derive(Clone)]
struct HostState {
    tor: NodeId,
    /// The main (optical-side) segment stack; subject to flow pausing and
    /// push-back blocks.
    vma: VmaStack,
    /// Separate sockets for mice under the c-Through-style split: drained
    /// ahead of the elephant stack and always dispatched electrically.
    vma_mice: VmaStack,
    nic_free: SimTime,
    tx_scheduled: bool,
    /// Paced flows with bytes not yet queued into vma.
    backlog: Vec<FlowId>,
    aging: FlowAging,
}

/// Where a link's free event stands — an electrical uplink's `ElecFree`, a
/// host downlink's `DownlinkFree`, an optical port's `PortFree`. A
/// transmission that leaves nothing waiting behind it leaves its free event
/// out of the queue and keeps only when it would fire. The event's tie
/// names the link, so scheduled late, it still pops where it would have.
#[derive(Clone, Copy, Default)]
struct FreeEvent {
    /// The free event is pending.
    pending: bool,
    /// When the last transmission left out ends.
    free: SimTime,
}

impl FreeEvent {
    /// A packet waits at `now`: make sure the free event `ev` is pending —
    /// when the last transmission ends, or now if it has.
    #[inline]
    fn kick(&mut self, now: SimTime, ev: Event, q: &mut EventQueue<Event>) {
        if !self.pending {
            self.pending = true;
            post(q, self.free.max(now), ev);
        }
    }

    /// The free event fired at `now` and started a transmission of `tx` ns:
    /// the next fires when it ends, scheduled if `more` packets wait, left
    /// out otherwise.
    #[inline]
    fn sent(&mut self, now: SimTime, tx: u64, more: bool, ev: Event, q: &mut EventQueue<Event>) {
        self.pending = more;
        if more {
            post(q, now + tx, ev);
        } else {
            self.free = now + tx;
        }
    }
}

/// An electrical uplink or a host downlink: a FIFO drained at line rate by
/// its free event (`ElecFree` / `DownlinkFree`), which is pending exactly
/// while a packet waits.
#[derive(Clone)]
struct Link {
    queue: ByteQueue<PktRef>,
    free: FreeEvent,
}

impl Link {
    fn new(capacity: u64) -> Self {
        Link { queue: ByteQueue::new(capacity), free: FreeEvent::default() }
    }

    /// Queue `pkt`, `size` bytes on the wire, behind whatever the link is
    /// sending; `Err` is a tail drop. An idle link gets its free event `ev`.
    fn push(
        &mut self,
        pkt: PktRef,
        size: u32,
        now: SimTime,
        ev: Event,
        q: &mut EventQueue<Event>,
    ) -> Result<(), PktRef> {
        self.queue.push(size, pkt)?;
        self.free.kick(now, ev, q);
        Ok(())
    }

    /// The link's free event `ev` fired: start sending the head packet at
    /// rate `bw` and return it with its serialization time.
    fn pop(
        &mut self,
        now: SimTime,
        bw: Bandwidth,
        ev: Event,
        q: &mut EventQueue<Event>,
    ) -> (PktRef, u64) {
        let (len, pkt) = self.queue.pop().expect("a free event fires only with a packet waiting");
        let tx = bw.tx_time_ns(len as u64).max(1);
        self.free.sent(now, tx, !self.queue.is_empty(), ev, q);
        (pkt, tx)
    }
}

#[derive(Clone)]
struct MemcachedApp {
    params: MemcachedParams,
    server: HostId,
    clients: Vec<HostId>,
    stop_at: SimTime,
    service: Option<u16>,
}

#[derive(Clone)]
struct ProbeTrain {
    src: HostId,
    dst: HostId,
    interval_ns: u64,
    remaining: u64,
    payload: u32,
    stats: ProbeStats,
}

/// Simulation events. A packet-carrying event names its packet; the packet
/// itself stays in the engine's [`PacketStore`]. The `u64` tag puts every
/// payload at an 8-aligned offset, so the queue copies an event as whole
/// words instead of stitching it from overlapping loads.
#[derive(Clone, Copy)]
#[repr(u64)]
pub enum Event {
    /// Host NIC may transmit.
    HostTx(HostId),
    /// Packet head reaches a ToR ingress pipeline.
    TorIngress(NodeId, PktRef),
    /// Packet fully received by a host.
    HostRx(HostId, PktRef),
    /// Slice-boundary rotation at one switch (locally clocked).
    Rotate(NodeId),
    /// An optical uplink is free to transmit.
    PortFree(NodeId, PortId),
    /// An electrical uplink is free.
    ElecFree(NodeId),
    /// A host downlink is free.
    DownlinkFree(HostId),
    /// Re-admit a recalled offloaded packet.
    Reinject(NodeId, u64, PortId, PktRef),
    /// Deliver a push-back broadcast to the hosts of a sender ToR.
    HostControl(NodeId, PushBack),
    /// Application / transport timer.
    Timer(Timer),
}

// The event queue writes an event into a slab node once and reads it back
// once, near or far: a node that outgrows a cache line, or an event that
// grows past a packet handle's worth of payload, is a data-plane slowdown
// on every workload.
const _: () = assert!(std::mem::size_of::<Event>() <= 32);
const _: () = assert!(EventQueue::<Event>::ENTRY_BYTES <= 56);
// Every calendar, vma and link queue is a `ByteQueue` (20,736 calendar
// queues at 108 × 6) and every packet-hop pushes through one: a per-push
// statistic grows both the struct and the store each push pays.
const _: () = assert!(std::mem::size_of::<ByteQueue<PktRef>>() <= 56);

/// Where `ev` stands among the events due at its instant (DESIGN.md
/// "Same-instant order"): its kind's rank, lowest first, then what it
/// names. An event named by what it does not carry has key 0 here and is
/// posted under its own through [`post_keyed`]: a packet's id for a
/// packet's events (a re-admission by its ToR, then the id) and for the
/// push-back its admission raised, a move's ordinal for the move's
/// notifications.
fn tie(ev: &Event) -> Tie {
    match *ev {
        Event::Timer(Timer::FaultEnd(i)) => Tie::key(0, i as u64),
        Event::Timer(Timer::FaultStart(i)) => Tie::key(1, i as u64),
        Event::Rotate(n) => Tie::key(2, n.0.into()),
        Event::Timer(Timer::NotifyHosts(n)) => Tie::key(3, n.0.into()),
        Event::Timer(Timer::FlowWatchdog(f)) => Tie::key(4, f),
        Event::Timer(Timer::TcpRto(f)) => Tie::key(5, f),
        Event::Reinject(..) => Tie::key(6, 0),
        Event::TorIngress(..) => Tie::key(7, 0),
        Event::PortFree(n, p) => Tie::key(8, u64::from(n.0) << 16 | u64::from(p.0)),
        Event::ElecFree(n) => Tie::key(9, n.0.into()),
        Event::DownlinkFree(h) => Tie::key(10, h.0.into()),
        Event::HostRx(..) => Tie::key(11, 0),
        Event::HostControl(..) => Tie::key(12, 0),
        Event::Timer(Timer::NackRetx { .. }) => Tie::key(13, 0),
        Event::Timer(Timer::FlowStart(i)) => Tie::key(14, i as u64),
        Event::Timer(Timer::MemcachedOp { app: a, client_idx: c }) => {
            Tie::key(15, (a << 32 | c) as u64)
        }
        Event::Timer(Timer::ProbeSend(t)) => Tie::key(16, t as u64),
        Event::HostTx(h) => Tie::key(17, h.0.into()),
        Event::Timer(Timer::Sample) => Tie::key(18, 0),
    }
}

/// Schedule `ev`, an event that names its key, at `at`, in its place
/// among the events due then.
#[inline]
pub(crate) fn post(q: &mut EventQueue<Event>, at: SimTime, ev: Event) {
    q.schedule_tied(at, tie(&ev), ev);
}

/// Schedule `ev` at `at` under `key` within its kind's rank: for a
/// packet's events the packet's id, so that the packet created first goes
/// first.
#[inline]
fn post_keyed(q: &mut EventQueue<Event>, at: SimTime, key: u64, ev: Event) {
    q.schedule_tied(at, Tie::key(tie(&ev).rank(), key), ev);
}

/// Application and transport timers.
#[derive(Clone, Copy)]
pub enum Timer {
    /// Next memcached operation for `clients[client_idx]` of app `app`.
    MemcachedOp {
        /// Index into the engine's memcached apps.
        app: usize,
        /// Index into that app's client list.
        client_idx: usize,
    },
    /// Paced-flow progress watchdog.
    FlowWatchdog(FlowId),
    /// TCP retransmission-timeout poll.
    TcpRto(FlowId),
    /// Fire the next probe of a train.
    ProbeSend(usize),
    /// Start a pre-scheduled flow.
    FlowStart(usize),
    /// Circuit-notification broadcast: a switch tells its hosts which
    /// destinations the *next* slice connects, ahead of the boundary
    /// (the flow-pausing service's signal, §5.2).
    NotifyHosts(NodeId),
    /// Receiver NACK for a trimmed packet: re-queue the trimmed segment at
    /// the source (Opera-style trim-and-retransmit).
    NackRetx {
        /// Flow whose segment was trimmed.
        flow: FlowId,
        /// Stream sequence of the trimmed segment.
        seq: u64,
    },
    /// An injected fault window opens (index into the fault campaign).
    FaultStart(usize),
    /// An injected fault window closes.
    FaultEnd(usize),
    /// Telemetry sampling tick: append one time-series row / sample frame
    /// and re-arm. Never scheduled when `sample_every_ns` is 0.
    Sample,
}

/// A flow attached to start at `at` (`Timer::FlowStart` indexes these).
/// A TCP flow's configuration waits in `Engine::pending_tcp` instead of
/// here, so the paced majority does not carry one.
#[derive(Clone, Copy)]
struct PendingFlow {
    at: SimTime,
    bytes: u64,
    src: HostId,
    dst: HostId,
    /// `0` for a paced flow, else one more than the index of its transport
    /// in `Engine::pending_tcp`.
    transport: u32,
    /// Declared service the flow reports latency under, if any.
    service: Option<u16>,
}

// One record per attached flow: 44k of them wait at `rotor_load`'s peak.
const _: () = assert!(std::mem::size_of::<PendingFlow>() == 32);

/// The starts of the flows attached before the run, queued one at a time.
/// `prime` orders the flows by `(at, i)`, the order their starts' ties pop
/// in. Only the start at `next` waits in the event queue, and it queues its
/// successor when it fires. The order is dropped once the last start has
/// fired.
#[derive(Clone, Default)]
struct StartCursor {
    order: Vec<u32>,
    next: usize,
}

/// Aggregate packet counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounters {
    /// Data packets injected by hosts.
    pub host_tx_packets: u64,
    /// Data packets delivered to hosts.
    pub delivered_packets: u64,
    /// Payload bytes delivered to hosts.
    pub delivered_payload_bytes: u64,
    /// Packets lost in the optical fabric (guardband / dark circuit).
    pub fabric_drops: u64,
    /// Packets dropped at switches (congestion, capacity, rank).
    pub switch_drops: u64,
    /// Packets dropped for lack of any route.
    pub no_route_drops: u64,
    /// Packets dropped at electrical/downlink queues.
    pub link_drops: u64,
    /// Push-back broadcasts delivered to hosts.
    pub pushback_deliveries: u64,
    /// Circuit-notification messages delivered to hosts.
    pub circuit_notifications: u64,
    /// Trimmed packets received (each triggers a NACK retransmission).
    pub trimmed_received: u64,
    /// Packets held at a port because the slice guardband was open.
    pub guardband_holds: u64,
    /// Paced-flow watchdog retransmissions.
    pub watchdog_retransmits: u64,
    /// TCP retransmission timeouts that fired.
    pub rto_retransmits: u64,
    /// TCP fast retransmits (triple-duplicate ACK).
    pub fast_retransmits: u64,
    /// NACK-driven retransmissions of trimmed segments.
    pub nack_retransmits: u64,
    /// Packets destroyed by injected faults (drain-and-drop at failed
    /// ports plus transceiver-flap corruption).
    pub fault_drops: u64,
}

impl EngineCounters {
    /// Every counter as a `(metric name, value)` pair, for telemetry
    /// mirroring. The pattern has no `..`, so a counter added without a
    /// name here does not build.
    pub(crate) fn counter_pairs(&self) -> [(&'static str, u64); 16] {
        let EngineCounters {
            host_tx_packets,
            delivered_packets,
            delivered_payload_bytes,
            fabric_drops,
            switch_drops,
            no_route_drops,
            link_drops,
            pushback_deliveries,
            circuit_notifications,
            trimmed_received,
            guardband_holds,
            watchdog_retransmits,
            rto_retransmits,
            fast_retransmits,
            nack_retransmits,
            fault_drops,
        } = *self;
        [
            ("engine.host_tx_packets", host_tx_packets),
            ("engine.delivered_packets", delivered_packets),
            ("engine.delivered_payload_bytes", delivered_payload_bytes),
            ("engine.fabric_drops", fabric_drops),
            ("engine.switch_drops", switch_drops),
            ("engine.no_route_drops", no_route_drops),
            ("engine.link_drops", link_drops),
            ("engine.pushback_deliveries", pushback_deliveries),
            ("engine.circuit_notifications", circuit_notifications),
            ("engine.trimmed_received", trimmed_received),
            ("engine.guardband_holds", guardband_holds),
            ("engine.watchdog_retransmits", watchdog_retransmits),
            ("engine.rto_retransmits", rto_retransmits),
            ("engine.fast_retransmits", fast_retransmits),
            ("engine.nack_retransmits", nack_retransmits),
            ("engine.fault_drops", fault_drops),
        ]
    }
}

/// The profiler phase charged for an engine event.
fn phase_of(event: &Event) -> Phase {
    match event {
        Event::HostTx(_) => Phase::HostTx,
        Event::TorIngress(..) => Phase::TorIngress,
        Event::HostRx(..) => Phase::HostRx,
        Event::Rotate(_) => Phase::Rotate,
        Event::PortFree(..) => Phase::PortFree,
        Event::ElecFree(_) => Phase::ElecFree,
        Event::DownlinkFree(_) => Phase::DownlinkFree,
        Event::Reinject(..) => Phase::Reinject,
        Event::HostControl(..) => Phase::HostControl,
        Event::Timer(_) => Phase::Timer,
    }
}

/// The engine: all network state plus the event interpreter.
///
/// `Clone` is derived so it stays field-complete by construction (a new
/// field that cannot be cloned breaks the build, not determinism), and it
/// is the fork: the engine owns its registry, trace, spans and profiler by
/// value and no component holds a handle into another's storage, so a
/// clone and its original never write into each other's exports.
///
/// Dispatch policy and pause mode are composed through an
/// [`Architecture`](crate::arch::Architecture) descriptor at deploy time;
/// the fields are private to this crate, so assigning them from outside
/// does not build:
///
/// ```compile_fail,E0616
/// use openoptics_core::{DispatchPolicy, NetConfig, OpenOpticsNet};
/// let mut net = OpenOpticsNet::new(NetConfig::default());
/// net.engine.policy = DispatchPolicy::HybridDirect;
/// ```
///
/// ```compile_fail,E0616
/// use openoptics_core::{NetConfig, OpenOpticsNet, PauseMode};
/// let mut net = OpenOpticsNet::new(NetConfig::default());
/// net.engine.pause_mode = PauseMode::DirectCircuit;
/// ```
#[derive(Clone)]
pub struct Engine {
    /// Static configuration this engine was built from.
    pub cfg: NetConfig,
    fabric: Fabric,
    tors: Vec<ToRSwitch>,
    hosts: Vec<HostState>,
    /// Electrical uplink per ToR (if the electrical fabric is enabled).
    elec: Vec<Link>,
    elec_bw: Option<Bandwidth>,
    downlinks: Vec<Link>,
    ports: Vec<Vec<FreeEvent>>,
    /// Per-port transmitted bytes (bw_usage telemetry).
    tx_bytes_per_port: Vec<Vec<u64>>,
    router: Option<RouterSpec>,
    pipeline: PipelineModel,
    sync: ClockSync,
    flows: FlowTable,
    next_pkt_id: u64,
    /// Every packet in the network, written once when a host sends it and
    /// freed where it is delivered or dropped. Events, calendar queues,
    /// offload books and link queues hold its [`PktRef`].
    packets: PacketStore,
    /// Pending `TorIngress` / `HostRx` / `Reinject` events: the packets
    /// only the event queue names (`strict-invariants` conservation check).
    pkt_events: usize,
    /// ACKs and probes hosts received (a data packet, trimmed or not, is
    /// counted in `counters.delivered_packets`).
    control_rx: u64,
    /// Schedule moves issued; a move's notifications are keyed by its
    /// ordinal.
    moves: u64,
    /// Flow-completion-time collector.
    pub fct: FctStats,
    memcached: Vec<MemcachedApp>,
    probe_trains: Vec<ProbeTrain>,
    collectives: Vec<RingAllreduce>,
    /// Service tag of each collective's chunk flows, if any.
    collective_service: Vec<Option<u16>>,
    /// Completion time of each collective, once done.
    pub collective_done: Vec<Option<SimTime>>,
    /// Every flow attached with a start time, in attach order. A first
    /// chunk that grows with the list, so a handful of flows costs a
    /// handful of records, then fixed chunks: attaching many copies at
    /// most that first chunk. A record is read no more once its flow
    /// starts, and a chunk is freed once every flow in it has.
    pending_flows: Expiring<PendingFlow>,
    /// The transports of the attached flows that are not paced.
    pending_tcp: Vec<TransportKind>,
    starts: StartCursor,
    /// Armed paced-flow watchdogs as `(at, flow)`. Every watchdog fires
    /// exactly `WATCHDOG_NS` after it is armed, so they come due in arming
    /// order, and those armed at one instant are armed in flow-id order
    /// (re-arms first, as their watchdogs fire, then new flows), the order
    /// their ties pop in. Only the front waits in the event queue, and it
    /// queues the next one whose flow is not done when it fires. The
    /// entries of done flows behind the front are dropped there, or when
    /// the FIFO would grow.
    watchdogs: VecDeque<(SimTime, FlowId)>,
    /// Schedule every start at prime and every watchdog when armed: the
    /// reference the start cursor and the watchdog FIFO are checked
    /// against.
    #[cfg(test)]
    eager: bool,
    /// Watchdogs popped for a flow that was done or freed.
    #[cfg(test)]
    dead_watchdogs: u64,
    tm_accum: TrafficMatrix,
    rng: SimRng,
    /// Fabric dispatch policy. Crate-private: only an
    /// [`Architecture`](crate::arch::Architecture) descriptor installs it.
    pub(crate) policy: DispatchPolicy,
    /// Host pausing behavior; crate-private like `policy`.
    pub(crate) pause_mode: PauseMode,
    /// Aggregate counters.
    pub counters: EngineCounters,
    /// When `true`, per-packet one-way delays of delivered data packets are
    /// appended to [`Engine::delay_samples`] (Table 4 telemetry).
    pub record_delays: bool,
    /// When `false`, the paced-flow watchdog stops re-sending lost bytes —
    /// loss/delay measurements then observe first-transmission behavior
    /// (open-loop trace replay) instead of a retransmission storm.
    pub watchdog_retransmit: bool,
    /// One-way delays (ns) of delivered data packets, when recording.
    pub delay_samples: Vec<u64>,
    /// Metrics registry and the trace stream every component emits into
    /// (disabled: no storage, and a detached trace so hot paths pay one
    /// branch).
    telemetry: Registry,
    /// Declared services: per-service latency sketches + SLO accounting.
    services: Vec<ServiceStats>,
    /// Per-flow-class FCT sketches (mice/medium/elephant), fed on every
    /// completion while telemetry is on.
    class_sketches: [QuantileSketch; 3],
    /// Sim-time-sampled counter/gauge/service series (empty unless
    /// `sample_every_ns > 0`).
    timeseries: TimeSeries,
    /// Frames for streaming subscriptions: each sample as the index of its
    /// row in `timeseries`, SLO transitions and flight-recorder dumps as
    /// rendered lines.
    frames: FrameLog,
    /// Injected fault campaign (empty = sunny-day run).
    faults: FaultRuntime,
    /// The schedule with the circuits of every open link-down window
    /// removed — what routing compiles against while one is open, so the
    /// reroute avoids the failed link. `None` = nothing masked.
    fault_masked: Option<OpticalSchedule>,
    /// Lifecycle spans and their cursors (inert unless configured).
    cursors: SpanCursors,
    /// Per-phase profiler (inert unless telemetry is on).
    profiler: Profiler,
}

#[derive(Clone)]
struct RouterSpec {
    algo: Box<dyn RoutingAlgorithm>,
    lookup: LookupMode,
    multipath: MultipathMode,
}

/// The optical fabric `cfg` describes, running `schedule`.
fn build_fabric(cfg: &NetConfig, schedule: OpticalSchedule) -> Fabric {
    let profile = if cfg.emulated_fabric {
        FabricProfile::Emulated { propagation_ns: 100, cut_through_ns: 400 }
    } else {
        FabricProfile::RealOcs { propagation_ns: 100 }
    };
    let slice_ns = schedule.slice_config().slice_ns;
    let mut fabric = Fabric::new(schedule, profile, cfg.ocs_reconfig_ns);
    fabric.set_dead_window_ns(cfg.fabric_dead_ns.min(slice_ns / 2));
    fabric
}

/// One ToR switch per node, shaped by `slice_cfg`.
fn build_tors(cfg: &NetConfig, slice_cfg: SliceConfig) -> Vec<ToRSwitch> {
    let congestion = CongestionConfig {
        detection_enabled: cfg.congestion_detection,
        threshold_bytes: cfg.congestion_threshold,
        policy: match cfg.congestion_policy.as_str() {
            "drop" => CongestionPolicy::Drop,
            "trim" => CongestionPolicy::Trim,
            // `"wait"` is a reserved spelling of `"defer"` (DESIGN.md
            // "Reserved names").
            _ => CongestionPolicy::Defer,
        },
    };
    let offload = cfg.offload.then_some(OffloadPolicy {
        keep_ranks: cfg.offload_keep_ranks,
        return_lead_ns: cfg.offload_return_lead_ns,
    });
    (0..cfg.node_num)
        .map(|i| {
            let tor = TorConfig {
                id: NodeId(i),
                slice_cfg,
                uplinks: cfg.uplink,
                uplink_bandwidth: cfg.uplink_bandwidth(),
                num_queues: cfg.num_queues.min(slice_cfg.num_slices as usize).max(1),
                queue_capacity: cfg.queue_capacity,
                congestion,
                pushback_enabled: cfg.pushback,
                offload,
                eqo_interval_ns: cfg.eqo_interval_ns,
                use_true_occupancy: cfg.eqo_ground_truth,
            };
            ToRSwitch::new(tor, cfg.telemetry)
        })
        .collect()
}

impl Engine {
    /// Build an engine for `schedule` under `cfg`.
    pub(crate) fn new(cfg: NetConfig, schedule: OpticalSchedule) -> Self {
        let slice_cfg = schedule.slice_config();
        let n = cfg.node_num;
        let mut rng = SimRng::new(cfg.seed);
        let sync = if cfg.sync_err_ns == 0 {
            ClockSync::perfect(n)
        } else {
            ClockSync::uniform(n, cfg.sync_err_ns, &mut rng)
        };
        let telemetry = Registry::new(cfg.telemetry, TRACE_CAPACITY);
        let hosts: Vec<HostState> = (0..cfg.total_hosts())
            .map(|h| HostState {
                tor: NodeId(h / cfg.hosts_per_node),
                vma: VmaStack::new(SEGMENT_QUEUE_BYTES),
                vma_mice: VmaStack::new(SEGMENT_QUEUE_BYTES),
                nic_free: SimTime::ZERO,
                tx_scheduled: false,
                backlog: vec![],
                aging: FlowAging::new(cfg.elephant_threshold),
            })
            .collect();
        let link = Link::new(16 * 1024 * 1024);
        let spans = Spans::bounded(cfg.span_sample_every, cfg.seed, SPAN_CAPACITY);
        Engine {
            fabric: build_fabric(&cfg, schedule),
            ports: vec![vec![FreeEvent::default(); cfg.uplink as usize]; n as usize],
            tx_bytes_per_port: vec![vec![0; cfg.uplink as usize]; n as usize],
            tors: build_tors(&cfg, slice_cfg),
            hosts,
            elec: vec![link.clone(); n as usize],
            elec_bw: cfg.electrical_bandwidth(),
            downlinks: vec![link; cfg.total_hosts() as usize],
            router: None,
            pipeline: PipelineModel::default(),
            sync,
            flows: FlowTable::new(),
            next_pkt_id: 1,
            packets: PacketStore::new(),
            pkt_events: 0,
            control_rx: 0,
            moves: 0,
            fct: FctStats::new(),
            memcached: vec![],
            probe_trains: vec![],
            collectives: vec![],
            collective_service: vec![],
            collective_done: vec![],
            pending_flows: Expiring::growing(),
            pending_tcp: vec![],
            starts: StartCursor::default(),
            watchdogs: VecDeque::new(),
            #[cfg(test)]
            eager: false,
            #[cfg(test)]
            dead_watchdogs: 0,
            tm_accum: TrafficMatrix::zeros(n as usize),
            rng,
            policy: DispatchPolicy::OpticalOnly,
            pause_mode: PauseMode::None,
            counters: EngineCounters::default(),
            record_delays: false,
            watchdog_retransmit: true,
            delay_samples: vec![],
            telemetry,
            services: vec![],
            class_sketches: [QuantileSketch::new(), QuantileSketch::new(), QuantileSketch::new()],
            timeseries: TimeSeries::new(SAMPLE_CAPACITY),
            frames: FrameLog::new(FRAME_CAPACITY),
            faults: FaultRuntime::default(),
            fault_masked: None,
            cursors: SpanCursors::new(spans),
            profiler: if cfg.telemetry { Profiler::enabled() } else { Profiler::detached() },
            cfg,
        }
    }

    /// The one way a schedule reaches the engine (`deploy_topo`,
    /// `deploy_staged`, `reconfigure`). `running` is `None` until the
    /// first run, the clock and the event queue after it.
    ///
    /// Before anything has run the swap is instant and in place: only what
    /// [`Engine::new`] derives from the schedule (the fabric, the switches)
    /// is rebuilt. Everything attached so far — flows, apps, services, the
    /// fault plan, the router, policies — survives by not being touched,
    /// and neither the RNG nor the clock offsets are redrawn.
    ///
    /// On a running network the OCS starts moving: the fabric is dark for
    /// `ocs_reconfig_ns` and the old schedule stays the active one until
    /// the move lands. What the engine derived from it is refreshed then
    /// ([`Engine::on_schedule_active`]), not here. Switches re-notify their
    /// hosts of the new circuits at the same instant (drives flow pausing
    /// on static schedules, where no rotation would otherwise refresh the
    /// state). The switches' calendars were built for the slice structure
    /// the network started on, and a held instance never primed a `Rotate`,
    /// so a schedule with a different slice structure is refused instead of
    /// letting the switches drift out of step with the fabric.
    pub(crate) fn deploy_schedule(
        &mut self,
        schedule: OpticalSchedule,
        running: Option<(SimTime, &mut EventQueue<Event>)>,
    ) -> Result<(), DeployError> {
        let Some((now, q)) = running else {
            self.tors = build_tors(&self.cfg, schedule.slice_config());
            self.fabric = build_fabric(&self.cfg, schedule);
            return Ok(());
        };
        // An earlier move that finished since the last event has landed.
        self.advance_fabric(now);
        let (active, requested) = (self.slice_cfg(), schedule.slice_config());
        if active != requested {
            return Err(DeployError::SliceStructure { active, requested });
        }
        let done = self.fabric.reconfigure(schedule, now);
        self.moves += 1;
        for node in 0..self.cfg.node_num {
            // After the boundary notifications of that instant, if any (a
            // node may get both), and after an earlier move's.
            let ev = Event::Timer(Timer::NotifyHosts(NodeId(node)));
            post_keyed(q, done, self.moves << 32 | u64::from(node), ev);
        }
        // Until the move lands every optical port keeps its free event in
        // the queue, as it would with traffic waiting: those left out whose
        // transmission is still going are scheduled now.
        for node in 0..self.cfg.node_num {
            for port in 0..self.cfg.uplink {
                let free = &mut self.ports[node as usize][port as usize];
                if free.free > now {
                    free.kick(now, Event::PortFree(NodeId(node), PortId(port)), q);
                }
            }
        }
        Ok(())
    }

    /// Bring the fabric to `now`: a deployed schedule whose OCS move has
    /// finished takes effect on this call.
    #[inline]
    fn advance_fabric(&mut self, now: SimTime) {
        if self.fabric.advance(now) {
            self.on_schedule_active();
        }
    }

    /// The active schedule just changed. This is the only place that reacts
    /// to that: route tables compiled against the old schedule are dropped
    /// (the next lookup miss recompiles against the new one) and the
    /// link-down mask is rebuilt from the new circuits. Nothing else the
    /// engine uses is a copy — slice structure, TA-ness and direct-circuit
    /// lookups ask the fabric each time. A move that lands on the schedule
    /// already active does not come through here ([`Fabric::advance`]):
    /// dropping the tables anyway would be visible, because what a table
    /// holds depends on the order its misses came in.
    #[cold]
    fn on_schedule_active(&mut self) {
        self.invalidate_routes();
        self.rebuild_masked_schedule();
    }

    /// The slice structure of the active schedule.
    #[inline]
    fn slice_cfg(&self) -> SliceConfig {
        self.fabric.schedule().slice_config()
    }

    /// Packets in the network right now: sent and neither delivered nor
    /// dropped yet.
    pub fn live_packets(&self) -> usize {
        self.packets.live()
    }

    /// `strict-invariants`: every live packet is named exactly once — by a
    /// pending packet event, a calendar queue, an offload book or a link
    /// queue. A leaked handle leaves `live` above the sum; a handle freed
    /// twice, or freed while something still names it, leaves it below.
    /// And every packet ever stored (one per id handed out; ACKs, probes,
    /// trimmed headers and offloaded packets included) was delivered,
    /// counted against exactly one drop cause, or is still live.
    pub(crate) fn assert_packets_conserved(&self) {
        let links = self.elec.iter().chain(&self.downlinks).map(|l| l.queue.len());
        let held = self.tors.iter().map(ToRSwitch::held_packets).chain(links).sum::<usize>();
        let live = self.packets.live();
        assert_eq!(live, self.pkt_events + held, "packets stored != packets some holder names");
        let c = &self.counters;
        let dropped = c.fabric_drops + c.switch_drops + c.no_route_drops + c.link_drops;
        let gone = c.delivered_packets + self.control_rx + dropped + c.fault_drops;
        assert_eq!(self.next_pkt_id - 1, gone + live as u64, "sent != delivered + dropped + live");
    }

    /// `strict-invariants`: what the per-packet paths read instead of
    /// scanning agrees with a scan — every calendar port's running byte
    /// total with its queues' bytes summed, every vma stack's busy list with
    /// its non-empty destinations in ascending order.
    pub(crate) fn assert_queue_summaries(&self) {
        for t in &self.tors {
            t.assert_port_totals();
        }
        for h in &self.hosts {
            h.vma.assert_busy_list();
            h.vma_mice.assert_busy_list();
        }
    }

    /// Whether lifecycle-span recording is active for this engine.
    pub fn has_span_recording(&self) -> bool {
        self.cursors.is_on()
    }

    /// The recorded spans settled at sim time `now` (still-open spans
    /// close at `now`; parent ends cover late children): what the span
    /// exports render. Empty when spans are off.
    pub(crate) fn span_table(&self, now: SimTime) -> Result<SpanTable, WellFormedError> {
        self.cursors.spans().table(now)
    }

    /// The engine-phase profiler handle (for reports and for the bench
    /// binary to install a wall clock into).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The metrics registry this engine reports into. Disabled when the
    /// configuration said `telemetry: false`.
    pub(crate) fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Mirror engine-side plain counters into the registry so a snapshot
    /// sees them; call before snapshotting. After the first call a pass is
    /// a store per series through the handles the registry has cached.
    /// `qs` carries the event-queue statistics, which live outside the
    /// engine (the sim crate does not depend on telemetry).
    pub(crate) fn sync_telemetry(&self, qs: openoptics_sim::QueueStats) {
        let Some(ref mut m) = self.telemetry.mirror() else { return };
        for (name, v) in self.counters.counter_pairs() {
            m.counter(name, Labels::None, v);
        }
        m.counter("sim.events_scheduled", Labels::None, qs.scheduled_total);
        m.counter("sim.events_popped", Labels::None, qs.popped_total);
        m.counter("sim.events_far_scheduled", Labels::None, qs.far_scheduled);
        m.counter("sim.events_overlay_scheduled", Labels::None, qs.overlay_scheduled);
        m.gauge("sim.queue_len", Labels::None, qs.len as i64);
        m.gauge("sim.queue_peak_len", Labels::None, qs.peak_len as i64);
        for (name, v) in self.fabric.counter_pairs() {
            m.counter(name, Labels::None, v);
        }
        for t in &self.tors {
            let node = Labels::Node(t.cfg.id);
            for (name, v) in t.counters.counter_pairs() {
                m.counter(name, node, v);
            }
            let (pb_events, pb_emitted) = t.pushback_stats();
            m.counter("tor.pushback_events", node, pb_events);
            m.counter("tor.pushback_emitted", node, pb_emitted);
            m.counter("tor.offloaded_packets", node, t.offload_book.offloaded_packets);
            m.gauge("tor.buffer_bytes", node, t.buffer_bytes().min(i64::MAX as u64) as i64);
            m.gauge("tor.peak_buffer_bytes", node, t.peak_buffer_bytes.min(i64::MAX as u64) as i64);
            if let Some(h) = t.eqo_abs_err() {
                m.histogram("tor.eqo_abs_err_bytes", node, h);
            }
        }
        // Summed over both stacks of every host.
        let vmas = || self.hosts.iter().flat_map(|h| [&h.vma, &h.vma_mice]);
        let sum = |f: fn(&VmaStack) -> u64| vmas().map(f).sum::<u64>();
        m.counter("host.vma_pause_transitions", Labels::None, sum(|v| v.pause_events));
        m.counter("host.vma_resume_transitions", Labels::None, sum(|v| v.resume_events));
        m.counter("host.vma_block_extensions", Labels::None, sum(|v| v.block_events));
        m.counter("host.vma_app_pushbacks", Labels::None, sum(|v| v.app_pushback_events));
        let (queued, max_err) = (sum(VmaStack::total_queued), self.sync.max_err_ns());
        m.gauge("host.vma_queued_bytes", Labels::None, queued.min(i64::MAX as u64) as i64);
        m.gauge("fabric.sync_max_err_ns", Labels::None, max_err.min(i64::MAX as u64) as i64);
        m.counter("fct.completed_flows", Labels::None, self.fct.completed().len() as u64);
        if !self.faults.specs().is_empty() {
            for (name, v) in self.faults.totals().counter_pairs() {
                m.counter(name, Labels::None, v);
            }
        }
        self.cursors.spans().mirror_into(m);
        self.profiler.mirror_into(m);
    }

    // -- services, sampling, and the frame stream ---------------------------

    /// Declare a service: a named latency stream flows can be tagged with,
    /// with optional SLO accounting. Returns the service id used for
    /// tagging. Declaration order is the id order, so scenario-driven and
    /// programmatic declaration produce identical exports.
    pub(crate) fn declare_service(&mut self, name: &str, slo: Option<SloTarget>) -> u16 {
        self.services.push(ServiceStats::new(name.to_string(), slo));
        u16::try_from(self.services.len() - 1).expect("more than 65535 declared services")
    }

    /// Declared services, in declaration (= id) order.
    pub(crate) fn services(&self) -> &[ServiceStats] {
        &self.services
    }

    /// Per-flow-class FCT sketches, index-aligned with [`FLOW_CLASSES`].
    pub(crate) fn class_sketches(&self) -> &[QuantileSketch; 3] {
        &self.class_sketches
    }

    /// The sampled time series (empty unless `sample_every_ns > 0`).
    pub fn timeseries(&self) -> &TimeSeries {
        &self.timeseries
    }

    /// The subscription frame log.
    pub fn frames(&self) -> &FrameLog {
        &self.frames
    }

    /// Write one of [`Engine::frames`] as its JSON value: a sample from the
    /// row it indexes in this engine's time series, an event frame's stored
    /// line as it is.
    pub fn write_frame(&self, frame: &Frame, w: &mut json::Writer) {
        match frame {
            Frame::Sample(row) => {
                w.value(self.timeseries.row(*row).expect("a sample frame indexes a kept row"))
            }
            Frame::Line(line) => w.raw(line),
        }
    }

    /// Feed one completed flow into latency accounting: its class sketch
    /// always, and — when tagged — its service's sketch and SLO state. An
    /// SLO breach-state transition is traced and pushed as a frame.
    fn note_completion(&mut self, rec: FlowRecord, service: Option<u16>, now: SimTime) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let fct = rec.fct_ns();
        let class = if rec.bytes < MICE_MAX_BYTES {
            0
        } else if rec.bytes < ELEPHANT_MIN_BYTES {
            1
        } else {
            2
        };
        self.class_sketches[class].record(fct);
        let Some(sid) = service else { return };
        let fault_active = self.faults.any_active();
        let Some(svc) = self.services.get_mut(sid as usize) else { return };
        let Some(transition) = svc.record(now.as_ns(), fct, fault_active) else { return };
        let (state, kind) = match transition {
            SloTransition::Breach => ("breach", TraceKind::SloBreach { service: u32::from(sid) }),
            SloTransition::Recover => {
                ("recover", TraceKind::SloRecover { service: u32::from(sid) })
            }
        };
        let line = json::object(|w| {
            w.field("frame", "slo");
            w.field("t_ns", now.as_ns());
            w.field("service", svc.name());
            w.field("state", state);
            w.field("burn_milli", svc.burn_milli());
            w.field("bad", svc.bad());
            w.field("total", svc.total());
        });
        self.frames.push(Frame::Line(line));
        self.telemetry.trace_mut().emit(now, kind);
    }

    /// One sampling tick: mirror counters (full series or not, so what the
    /// registry shows between ticks does not depend on it), store the row,
    /// and note its index in the frame log. Nothing is rendered here: a
    /// subscriber draining the frame or a time-series export does that.
    fn take_sample(&mut self, now: SimTime, queue_stats: openoptics_sim::QueueStats) {
        self.sync_telemetry(queue_stats);
        let index = self.timeseries.len();
        let services = &self.services;
        self.timeseries.push_sample(now.as_ns(), &self.telemetry, || {
            services.iter().map(|s| s.summary()).collect()
        });
        self.frames.push_with(|| {
            assert!(index < self.timeseries.len(), "a kept sample frame has no row");
            Frame::Sample(index)
        });
    }

    /// Dump the flight recorder — the trace stream's ring of most recent
    /// records — into the frame stream, then trace the dump itself. Called
    /// on fault activation and when a strict-invariants check is about to
    /// trip; no-op when tracing is off.
    fn flight_dump(&mut self, now: SimTime, trigger: FlightTrigger) {
        if !self.telemetry.trace().is_on() {
            return;
        }
        let recent = self.telemetry.trace().recent_records();
        let line = json::object(|w| {
            w.field("frame", "flight");
            w.field("t_ns", now.as_ns());
            w.field("trigger", trigger.as_str());
            w.field("records", &recent);
        });
        self.frames.push(Frame::Line(line));
        let records = idx_u32(recent.len());
        self.telemetry.trace_mut().emit(now, TraceKind::FlightDump { trigger, records });
    }

    // -- fault injection -----------------------------------------------------

    /// Install (or extend) the fault campaign. The plan is validated
    /// against this engine's shape (`node_num`, `uplink`) and against
    /// `not_before` — window starts must not lie in the simulated past.
    /// Returns the campaign indices the new windows occupy, for
    /// [`Engine::schedule_fault_edges`].
    pub(crate) fn set_fault_plan(
        &mut self,
        plan: &FaultPlan,
        not_before: SimTime,
    ) -> Result<std::ops::Range<usize>, FaultError> {
        self.faults.extend(plan, self.cfg.node_num, u32::from(self.cfg.uplink), not_before)
    }

    /// Schedule both edges of campaign faults `which`. Each edge is an
    /// ordinary event, its tie named by its fault, so campaigns replay
    /// byte-identically.
    pub(crate) fn schedule_fault_edges(
        &self,
        which: std::ops::Range<usize>,
        q: &mut EventQueue<Event>,
    ) {
        for i in which {
            let s = self.faults.specs()[i];
            post(q, s.start, Event::Timer(Timer::FaultStart(i)));
            post(q, s.end, Event::Timer(Timer::FaultEnd(i)));
        }
    }

    /// Results of the injected fault campaign. Campaign-wide totals come
    /// from the engine counters; the per-fault breakdown is empty when no
    /// plan was installed.
    pub(crate) fn fault_report(&self) -> FaultReport {
        let c = &self.counters;
        self.faults.report(
            c.delivered_packets,
            c.rto_retransmits + c.watchdog_retransmits + c.fast_retransmits + c.nack_retransmits,
        )
    }

    /// Rebuild the link-down-masked schedule routing compiles against from
    /// the links that are down right now and the active schedule: a copy
    /// with every down `(node, port)` darkened, and its peer. Its two
    /// inputs change on link-down window edges and when a deployed schedule
    /// becomes active; those are its two callers.
    fn rebuild_masked_schedule(&mut self) {
        let mut down = self.faults.down_links().peekable();
        self.fault_masked = down.peek().is_some().then(|| {
            let mut masked = self.fabric.schedule().clone();
            for (node, port) in down {
                masked.darken(node, port);
            }
            masked
        });
    }

    /// One fault window edge: activate or clear campaign fault `idx`.
    fn on_fault_transition(
        &mut self,
        idx: usize,
        up: bool,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let Some((spec, lag)) = self.faults.flip(idx, up) else { return };
        if spec.kind == FaultKind::LinkDown {
            // Link-down edges are visible to the controller: the mask
            // follows the set of down links, and stale route tables are
            // dropped so the next lookup recompiles against the masked
            // time-expanded graph (bounded by the router's hop horizon —
            // the reroute cannot wander).
            self.rebuild_masked_schedule();
            self.invalidate_routes();
        }
        // A recovering slice-corrupted switch replays its missed rotations
        // to resynchronize its calendar with the fabric.
        for _ in 0..lag {
            self.tors[spec.node.index()].rotate(now, self.telemetry.trace_mut());
        }
        let (node, port) = (spec.node, spec.port);
        if up {
            self.telemetry.trace_mut().emit(now, TraceKind::FaultInject { node, port });
            // A fault firing is exactly the moment a subscriber wants the
            // recent trace tail: dump the flight recorder (which now ends
            // with the FaultInject record just emitted).
            self.flight_dump(now, FlightTrigger::FaultEdge);
        } else {
            // A cleared fault can unblock traffic already queued at the node.
            self.kick_all_ports(node, now, q);
            self.telemetry.trace_mut().emit(now, TraceKind::FaultClear { node, port });
        }
        self.profiler.mark(Phase::FaultRuntime);
    }

    /// Set the routing scheme (`deploy_routing`). Whether it routes over
    /// one held instance (TA, wildcard slice) or across the rotation is not
    /// stored: the active schedule says so when routes are compiled.
    pub(crate) fn set_router(
        &mut self,
        algo: Box<dyn RoutingAlgorithm>,
        lookup: LookupMode,
        multipath: MultipathMode,
    ) {
        self.router = Some(RouterSpec { algo, lookup, multipath });
        self.invalidate_routes();
    }

    /// Drop every installed route: tables compiled against the old
    /// schedule, algorithm or fault mask are stale, and the next lookup
    /// miss recompiles lazily.
    fn invalidate_routes(&mut self) {
        for t in &mut self.tors {
            t.tft_mut().clear();
        }
    }

    /// The active optical schedule.
    pub fn schedule(&self) -> &OpticalSchedule {
        self.fabric.schedule()
    }

    /// Direct access to a switch (telemetry).
    pub fn tor(&self, node: NodeId) -> &ToRSwitch {
        &self.tors[node.index()]
    }

    /// Mutable switch access (used by the `add()` API).
    pub(crate) fn tor_mut(&mut self, node: NodeId) -> &mut ToRSwitch {
        &mut self.tors[node.index()]
    }

    /// Fabric loss counters.
    pub fn fabric_stats(&self) -> (u64, u64) {
        (self.fabric.delivered, self.fabric.total_lost())
    }

    /// The hosts hanging off `node`: host `h` sits under ToR
    /// `h / hosts_per_node`, so they are one contiguous id range.
    pub(crate) fn hosts_of(&self, node: NodeId) -> std::ops::Range<u32> {
        let per = self.cfg.hosts_per_node;
        node.0 * per..(node.0 + 1) * per
    }

    /// Per-port transmitted bytes (`bw_usage`).
    pub(crate) fn port_tx_bytes(&self, node: NodeId, port: PortId) -> u64 {
        self.tx_bytes_per_port[node.index()][port.index()]
    }

    /// Aggregate the hosts' per-destination vma queue depths into a demand
    /// matrix — the c-Through-style collection mode where "hosts
    /// periodically report traffic volume per destination switch" (§5.2).
    /// Rows are the reporting hosts' ToRs.
    pub(crate) fn host_pending_demand(&self) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zeros(self.cfg.node_num as usize);
        for h in &self.hosts {
            for (dst, bytes) in h.vma.queue_snapshot() {
                tm.add(h.tor, dst, bytes as f64);
            }
        }
        tm
    }

    /// Drain and return the accumulated traffic matrix (`collect`).
    pub(crate) fn take_traffic_matrix(&mut self) -> TrafficMatrix {
        std::mem::replace(&mut self.tm_accum, TrafficMatrix::zeros(self.cfg.node_num as usize))
    }

    /// The TCP endpoints of `flow`, if it exists and runs over TCP.
    fn tcp(&self, flow: FlowId) -> Option<(&TcpSender, &TcpReceiver)> {
        match &self.flows.get(flow)?.transport {
            Transport::Tcp(tcp) => Some((&tcp.sender, &tcp.receiver)),
            Transport::Paced => None,
        }
    }

    /// Bytes delivered so far for a flow.
    pub fn flow_delivered(&self, flow: FlowId) -> u64 {
        match self.flows.get(flow) {
            Some(f) => match &f.transport {
                Transport::Tcp(tcp) => tcp.receiver.delivered_bytes,
                Transport::Paced => f.delivered,
            },
            None => self.flows.freed_delivered(flow).unwrap_or(0),
        }
    }

    /// Reordering events observed by a TCP flow's receiver (Fig. 9b).
    pub fn flow_reorder_events(&self, flow: FlowId) -> u64 {
        self.tcp(flow).map_or(0, |(_, receiver)| receiver.reorder_events)
    }

    /// TCP sender diagnostics `(fast retransmits, timeouts)`.
    pub fn flow_tcp_stats(&self, flow: FlowId) -> (u64, u64) {
        self.tcp(flow).map_or((0, 0), |(sender, _)| (sender.fast_retransmits, sender.timeouts))
    }

    /// Probe-train statistics.
    pub fn probe_stats(&self, train: usize) -> &ProbeStats {
        &self.probe_trains[train].stats
    }

    // -- workload attachment (before `prime`) ------------------------------

    /// Schedule a flow to start at `at`, tagged with `service` for SLO
    /// accounting; returns its pending-flow index (used by the API layer
    /// to arm the start timer after priming).
    pub(crate) fn add_flow_tagged(
        &mut self,
        at: SimTime,
        src: HostId,
        dst: HostId,
        bytes: u64,
        transport: TransportKind,
        service: Option<u16>,
    ) -> usize {
        let transport = match transport {
            TransportKind::Paced => 0,
            tcp => {
                self.pending_tcp.push(tcp);
                idx_u32(self.pending_tcp.len())
            }
        };
        // A chunk this frees had every flow in it started.
        self.pending_flows.push(PendingFlow { at, bytes, src, dst, transport, service }).0
    }

    fn pending_flow(&self, idx: usize) -> PendingFlow {
        *self.pending_flows.items.get(idx).expect("a FlowStart names an unstarted flow")
    }

    /// Whether what a flow no longer needs is freed: its pending record
    /// once it starts, a paced flow's row once it is done. The eager
    /// reference keeps everything.
    fn frees(&self) -> bool {
        #[cfg(test)]
        if self.eager {
            return false;
        }
        true
    }

    fn pending_transport(&self, p: &PendingFlow) -> TransportKind {
        match p.transport.checked_sub(1) {
            None => TransportKind::Paced,
            Some(k) => self.pending_tcp[k as usize],
        }
    }

    /// Attach a memcached app: `clients` SET to `server` until `stop_at`;
    /// each operation's request→response latency reports under `service`.
    pub(crate) fn add_memcached_tagged(
        &mut self,
        params: MemcachedParams,
        server: HostId,
        clients: Vec<HostId>,
        stop_at: SimTime,
        service: Option<u16>,
    ) -> usize {
        self.memcached.push(MemcachedApp { params, server, clients, stop_at, service });
        self.memcached.len() - 1
    }

    /// Attach a ring allreduce over `hosts` of `data_bytes`; every chunk
    /// flow's FCT reports under `service`.
    pub(crate) fn add_allreduce_tagged(
        &mut self,
        hosts: Vec<HostId>,
        data_bytes: u64,
        service: Option<u16>,
    ) -> usize {
        self.collectives.push(RingAllreduce::new(hosts, data_bytes));
        self.collective_service.push(service);
        self.collective_done.push(None);
        self.collectives.len() - 1
    }

    /// Attach a probe train: `count` probes of `payload` bytes from `src`
    /// to `dst` every `interval_ns`.
    pub(crate) fn add_probe_train(
        &mut self,
        src: HostId,
        dst: HostId,
        interval_ns: u64,
        count: u64,
        payload: u32,
    ) -> usize {
        self.probe_trains.push(ProbeTrain {
            src,
            dst,
            interval_ns,
            remaining: count,
            payload,
            stats: ProbeStats::new(),
        });
        self.probe_trains.len() - 1
    }

    /// Install the initial events: rotations, scheduled flows, app timers.
    /// Call once before running.
    pub(crate) fn prime(&mut self, q: &mut EventQueue<Event>) {
        // Per-node rotations (only for rotating schedules).
        let slice_cfg = self.slice_cfg();
        if slice_cfg.num_slices > 1 {
            for node in 0..self.cfg.node_num {
                let fire =
                    self.sync.global_fire_time(node as usize, SimTime::from_ns(slice_cfg.slice_ns));
                post(q, fire, Event::Rotate(NodeId(node)));
            }
        }
        // Initial pause state (slice 0 is "notified" at t=0).
        if self.pause_mode == PauseMode::DirectCircuit {
            let notify_at = SimTime::from_ns(slice_cfg.slice_ns.saturating_sub(NOTIFY_LEAD_NS));
            for node in 0..self.cfg.node_num {
                self.refresh_pause_state(NodeId(node), 0, SimTime::ZERO);
                if slice_cfg.num_slices > 1 {
                    post(q, notify_at, Event::Timer(Timer::NotifyHosts(NodeId(node))));
                }
            }
        }
        // Scheduled flows: each one's completion takes exactly the room it
        // needs.
        self.fct.reserve_exact(self.pending_flows.items.len());
        self.prime_starts(q);
        // Memcached ops.
        for (a, app) in self.memcached.iter().enumerate() {
            for c in 0..app.clients.len() {
                let gap = SimTime::from_ns(app.params.next_gap_ns(&mut self.rng));
                post(q, gap, Event::Timer(Timer::MemcachedOp { app: a, client_idx: c }));
            }
        }
        // Allreduce first steps.
        for c in 0..self.collectives.len() {
            let sends = self.collectives[c].start();
            self.start_chunks(c, sends, SimTime::ZERO, q);
        }
        // Probe trains.
        for t in 0..self.probe_trains.len() {
            post(q, SimTime::from_ns(1), Event::Timer(Timer::ProbeSend(t)));
        }
        self.schedule_fault_edges(0..self.faults.specs().len(), q);
        // Telemetry sampling cadence: the timer is simply never scheduled
        // when sampling is off, so a disabled run pays nothing.
        if self.cfg.sample_every_ns > 0 && self.telemetry.is_enabled() {
            post(q, SimTime::from_ns(self.cfg.sample_every_ns), Event::Timer(Timer::Sample));
        }
    }

    /// Order the pre-run flows' starts and queue the first (see
    /// [`StartCursor`]).
    fn prime_starts(&mut self, q: &mut EventQueue<Event>) {
        let n = self.pending_flows.items.len();
        #[cfg(test)]
        if self.eager {
            for i in 0..n {
                post(q, self.pending_flow(i).at, Event::Timer(Timer::FlowStart(i)));
            }
            return;
        }
        let mut order: Vec<u32> = (0..idx_u32(n)).collect();
        // Stable: flows that start together stay in index order.
        order.sort_by_key(|&i| self.pending_flow(i as usize).at);
        self.starts = StartCursor { order, next: 0 };
        self.queue_next_start(q);
    }

    /// Queue the pre-run start the cursor is on.
    fn queue_next_start(&self, q: &mut EventQueue<Event>) {
        if let Some(i) = self.starts.order.get(self.starts.next).map(|&i| i as usize) {
            post(q, self.pending_flow(i).at, Event::Timer(Timer::FlowStart(i)));
        }
    }

    /// Arm `fid`'s watchdog to fire `WATCHDOG_NS` after `now`.
    fn arm_watchdog(&mut self, fid: FlowId, now: SimTime, q: &mut EventQueue<Event>) {
        let at = now + WATCHDOG_NS;
        #[cfg(test)]
        if self.eager {
            post(q, at, Event::Timer(Timer::FlowWatchdog(fid)));
            return;
        }
        if self.watchdogs.is_empty() {
            post(q, at, Event::Timer(Timer::FlowWatchdog(fid)));
        } else if self.watchdogs.len() == self.watchdogs.capacity() {
            self.compact_watchdogs();
        }
        self.watchdogs.push_back((at, fid));
    }

    /// Whether `fid` has a row and is not done: a watchdog for any other
    /// flow would do nothing when it fires.
    fn flow_running(&self, fid: FlowId) -> bool {
        self.flows.get(fid).is_some_and(|f| !f.done)
    }

    /// The front watchdog is firing: queue the first one behind it whose
    /// flow is still running, dropping those before it.
    fn watchdog_fired(&mut self, q: &mut EventQueue<Event>) {
        #[cfg(test)]
        if self.eager {
            return;
        }
        self.watchdogs.pop_front();
        while let Some(&(at, fid)) = self.watchdogs.front() {
            if self.flow_running(fid) {
                post(q, at, Event::Timer(Timer::FlowWatchdog(fid)));
                return;
            }
            self.watchdogs.pop_front();
        }
    }

    /// The FIFO is full: drop the entries of flows no longer running,
    /// except the front, which waits in the event queue. When that frees
    /// less than a quarter of it, it grows anyway, so the next compaction
    /// is as many arms away as this one scanned.
    fn compact_watchdogs(&mut self) {
        let mut front = true;
        let mut watchdogs = std::mem::take(&mut self.watchdogs);
        watchdogs.retain(|&(_, fid)| std::mem::take(&mut front) || self.flow_running(fid));
        if watchdogs.len() > watchdogs.capacity() / 4 * 3 {
            watchdogs.reserve(watchdogs.len());
        }
        self.watchdogs = watchdogs;
    }

    // -- flows --------------------------------------------------------------

    /// Start a flow now; returns its id. `service` tags the flow's
    /// completion latency for SLO accounting.
    #[expect(clippy::too_many_arguments, reason = "one argument per flow attribute")]
    fn start_flow(
        &mut self,
        now: SimTime,
        src: HostId,
        dst: HostId,
        bytes: u64,
        transport: TransportKind,
        kind: FlowKind,
        service: Option<u16>,
        q: &mut EventQueue<Event>,
    ) -> FlowId {
        let sender = match transport {
            TransportKind::Paced => None,
            TransportKind::Tcp(cfg) => Some(TcpSender::new(cfg, Some(bytes), now)),
            // Two topologies: the optical fabric and the electrical one.
            TransportKind::TdTcp(cfg) => Some(TcpSender::with_topologies(cfg, 2, Some(bytes), now)),
        };
        let rto_deadline = sender.as_ref().map(TcpSender::rto_deadline);
        let transport = match sender {
            None => Transport::Paced,
            Some(sender) => {
                Transport::Tcp(Box::new(TcpEndpoints { sender, receiver: TcpReceiver::new() }))
            }
        };
        let id = self.flows.insert(FlowState {
            src_host: src,
            dst_host: dst,
            bytes,
            queued: 0,
            delivered: 0,
            delivered_at_last_watchdog: 0,
            transport,
            kind,
            service,
            done: false,
        });
        match kind {
            FlowKind::Response { .. } => {}
            _ => self.fct.start(id, bytes, now),
        }
        self.cursors.flow_begin(id, now);
        match rto_deadline {
            None => {
                self.hosts[src.index()].backlog.push(id);
                self.arm_watchdog(id, now, q);
            }
            Some(deadline) => {
                post(q, deadline, Event::Timer(Timer::TcpRto(id)));
                self.pump_tcp(id, now);
            }
        }
        self.pump_host(src, now, q);
        id
    }

    /// Start one ring step of collective `c`: a paced chunk flow per send,
    /// tagged with the collective's service.
    fn start_chunks(
        &mut self,
        c: usize,
        sends: Vec<ChunkSend>,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let (kind, service) = (FlowKind::Chunk { collective: c }, self.collective_service[c]);
        for s in sends {
            self.start_flow(now, s.from, s.to, s.bytes, TransportKind::Paced, kind, service, q);
        }
    }

    /// Queue paced-flow segments into the vma stack, respecting socket
    /// capacity (application push-back).
    fn pump_backlog(&mut self, host: HostId, now: SimTime) {
        // Take the backlog to filter it without aliasing `self`; flows with
        // bytes still unqueued keep their place (`retain` in order), and the
        // same allocation goes back as the new backlog.
        let mut backlog = std::mem::take(&mut self.hosts[host.index()].backlog);
        backlog.retain(|&fid| {
            let Some(f) = self.flows.get_mut(fid) else { return false };
            if f.done {
                return false;
            }
            let dst_tor = self.hosts[f.dst_host.index()].tor;
            let split_mice = self.policy == DispatchPolicy::MiceElectrical;
            let elephant_threshold = self.cfg.elephant_threshold;
            let h = &mut self.hosts[host.index()];
            while f.queued < f.bytes {
                let len = to_u32((f.bytes - f.queued).min(MSS as u64));
                // Elephant classification: the simulator knows flow sizes,
                // so it classifies by size directly — the steady state that
                // PIAS-style aging converges to on persistent connections.
                let use_mice = split_mice && f.bytes < elephant_threshold;
                let stack = if use_mice { &mut h.vma_mice } else { &mut h.vma };
                if !stack.would_accept(dst_tor, len) {
                    break;
                }
                stack
                    .send(
                        dst_tor,
                        Segment {
                            flow: fid,
                            dst_host: f.dst_host,
                            bytes: len,
                            seq: f.queued,
                            queued_at: now,
                        },
                    )
                    .ok();
                f.queued += len as u64;
                if split_mice {
                    // Aging has one reader: `pick_electrical` under this policy.
                    h.aging.record(fid, len as u64);
                }
            }
            f.queued < f.bytes
        });
        self.hosts[host.index()].backlog = backlog;
    }

    /// The TDTCP topology id a host currently sends to `dst_tor` through:
    /// 0 = optical (direct circuit up), 1 = electrical.
    fn topology_id(&self, src_tor: NodeId, dst_tor: NodeId) -> usize {
        let slice = self.tors[src_tor.index()].current_slice();
        if self.fabric.schedule().port_to(src_tor, dst_tor, slice).is_some() {
            0
        } else {
            1
        }
    }

    /// Pump TCP/TDTCP segments into vma as the window allows.
    fn pump_tcp(&mut self, fid: FlowId, now: SimTime) {
        let Some(f) = self.flows.get(fid) else { return };
        let (src, dst_host) = (f.src_host, f.dst_host);
        let src_tor = self.hosts[src.index()].tor;
        let dst_tor = self.hosts[dst_host.index()].tor;
        let topo = self.topology_id(src_tor, dst_tor);
        let aging = self.policy == DispatchPolicy::MiceElectrical;
        let Some(f) = self.flows.get_mut(fid) else { return };
        let Transport::Tcp(tcp) = &mut f.transport else { return };
        let sender = &mut tcp.sender;
        sender.set_topology(topo, now);
        let h = &mut self.hosts[src.index()];
        // Respect socket capacity before consuming sender state.
        while h.vma.would_accept(dst_tor, MSS) {
            let Some((seq, len)) = sender.next_segment(now) else { break };
            h.vma
                .send(dst_tor, Segment { flow: fid, dst_host, bytes: len, seq, queued_at: now })
                .ok();
            if aging {
                h.aging.record(fid, len as u64);
            }
        }
    }

    /// Make sure a HostTx event is pending for `host`.
    fn pump_host(&mut self, host: HostId, now: SimTime, q: &mut EventQueue<Event>) {
        let h = &mut self.hosts[host.index()];
        if h.tx_scheduled {
            return;
        }
        h.tx_scheduled = true;
        let at = h.nic_free.max(now);
        post(q, at, Event::HostTx(host));
    }

    fn finish_flow(&mut self, fid: FlowId, now: SimTime, q: &mut EventQueue<Event>) {
        let Some(f) = self.flows.get_mut(fid) else { return };
        if f.done {
            return;
        }
        f.done = true;
        let kind = f.kind;
        let service = f.service;
        let (src, dst) = (f.src_host, f.dst_host);
        if matches!(f.transport, Transport::Paced) && self.frees() {
            self.flows.finished(fid);
        }
        self.hosts[src.index()].aging.forget(fid);
        self.cursors.flow_end(fid, now);
        // Whose FCT clock stops here: a request's runs on until its
        // response lands.
        let measured = match kind {
            FlowKind::Plain | FlowKind::Chunk { .. } => Some(fid),
            FlowKind::Request { .. } => None,
            FlowKind::Response { of } => Some(of),
        };
        if let Some(rec) = measured.and_then(|id| self.fct.complete(id, now)) {
            self.note_completion(rec, service, now);
        }
        match kind {
            FlowKind::Plain | FlowKind::Response { .. } => {}
            FlowKind::Chunk { collective } => {
                if let Some(next) = self.collectives[collective].on_chunk_complete() {
                    self.start_chunks(collective, next, now, q);
                } else if self.collectives[collective].is_done() {
                    self.collective_done[collective] = Some(now);
                }
            }
            FlowKind::Request { response_bytes } => {
                // Server answers. The response inherits the request's
                // service tag so the full round trip reports under one SLO.
                self.start_flow(
                    now,
                    dst,
                    src,
                    response_bytes as u64,
                    TransportKind::Paced,
                    FlowKind::Response { of: fid },
                    service,
                    q,
                );
            }
        }
    }

    // -- dispatch -----------------------------------------------------------

    fn alloc_pkt_id(&mut self) -> u64 {
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        id
    }

    /// Decide which fabric carries this packet.
    fn pick_electrical(&mut self, host: HostId, pkt: &Packet) -> bool {
        if self.elec_bw.is_none() {
            return false;
        }
        match self.policy {
            DispatchPolicy::OpticalOnly => false,
            DispatchPolicy::ElectricalOnly => true,
            DispatchPolicy::MiceElectrical => {
                // Elephants optical; mice and control/ack traffic electrical.
                !(pkt.is_data() && self.hosts[host.index()].aging.is_elephant(pkt.flow))
            }
            DispatchPolicy::HybridDirect => {
                let tor = self.hosts[host.index()].tor;
                let slice = self.tors[tor.index()].current_slice();
                self.fabric.schedule().port_to(tor, pkt.dst, slice).is_none()
            }
        }
    }

    /// Send a packet from a host into the network (NIC time already spent),
    /// over the fabric the dispatch policy picks — or the electrical one
    /// regardless when `force_electrical` (mice-stack traffic).
    fn dispatch_from_host(
        &mut self,
        host: HostId,
        pkt: Packet,
        force_electrical: bool,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let src_tor = self.hosts[host.index()].tor;
        let (pid, size) = (pkt.id, pkt.size);
        if pkt.is_data() {
            self.tm_accum.add(src_tor, pkt.dst, size as f64);
            self.counters.host_tx_packets += 1;
        }
        let electrical = force_electrical || self.pick_electrical(host, &pkt);
        let pkt = self.packets.insert(pkt);
        if !electrical {
            self.cursors.enter(pid, Stage::Propagation, now);
            self.pkt_events += 1;
            post_keyed(q, now + HOST_WIRE_NS, pid, Event::TorIngress(src_tor, pkt));
            return;
        }
        match self.elec[src_tor.index()].push(pkt, size, now, Event::ElecFree(src_tor), q) {
            Err(pkt) => self.drop_packet(pkt, now, DropSite::Link),
            Ok(()) => self.cursors.enter(pid, Stage::CalendarWait, now),
        }
    }

    /// Deliver a packet to a host's downlink queue at its ToR.
    #[expect(clippy::wrong_self_convention, reason = "named for the downlink, not a conversion")]
    fn to_downlink(&mut self, host: HostId, pkt: PktRef, now: SimTime, q: &mut EventQueue<Event>) {
        let Packet { id: pid, size, .. } = self.packets[pkt];
        match self.downlinks[host.index()].push(pkt, size, now, Event::DownlinkFree(host), q) {
            Err(pkt) => self.drop_packet(pkt, now, DropSite::Link),
            Ok(()) => self.cursors.enter(pid, Stage::Rx, now),
        }
    }

    /// The one drop funnel: free the packet and count the loss.
    fn drop_packet(&mut self, pkt: PktRef, at: SimTime, site: DropSite) {
        let pid = self.packets.remove(pkt).id;
        self.count_drop(pid, at, site);
    }

    /// Count packet `pid` against the cause that names `site` and end its
    /// lifecycle span there.
    fn count_drop(&mut self, pid: u64, at: SimTime, site: DropSite) {
        let c = &mut self.counters;
        *match site {
            DropSite::Switch => &mut c.switch_drops,
            DropSite::NoRoute => &mut c.no_route_drops,
            DropSite::Fabric => &mut c.fabric_drops,
            DropSite::Link => &mut c.link_drops,
            DropSite::Trimmed => &mut c.trimmed_received,
        } += 1;
        self.cursors.end_packet(pid, at, PacketEnd::Dropped(site));
    }

    /// A retransmission fired for `flow`: counter, trace record, span mark.
    fn note_retransmit(&mut self, flow: FlowId, at: SimTime, kind: RetxKind) {
        let c = &mut self.counters;
        *match kind {
            RetxKind::Watchdog => &mut c.watchdog_retransmits,
            RetxKind::Rto => &mut c.rto_retransmits,
            RetxKind::FastRetx => &mut c.fast_retransmits,
            RetxKind::Nack => &mut c.nack_retransmits,
        } += 1;
        self.telemetry.trace_mut().emit(at, TraceKind::Retransmit { flow, kind });
        self.cursors.retransmit(flow, at, kind);
    }

    // -- routing ------------------------------------------------------------

    /// Compute and install routes for `(node, dst)` at the node's current
    /// slice. Returns whether any path was produced.
    fn install_routes_for(&mut self, node: NodeId, dst: NodeId) -> bool {
        let Some(spec) = &self.router else { return false };
        let active = self.fabric.schedule();
        // One held instance (TA) routes on the wildcard slice; a rotation
        // routes from the slice the packet arrived in.
        let ta = active.slice_config().num_slices == 1;
        let arr = if ta { None } else { Some(self.tors[node.index()].current_slice()) };
        // While a link-down fault is active, paths compile against the
        // masked time-expanded graph so the reroute avoids the failed link.
        let sched = self.fault_masked.as_ref().unwrap_or(active);
        let paths: Vec<Path> = spec.algo.paths(sched, node, dst, arr);
        if paths.is_empty() {
            return false;
        }
        let entries = compile(&paths, spec.lookup, spec.multipath);
        for e in entries {
            let n = e.node;
            self.tors[n.index()].install_routes([e]);
        }
        true
    }

    /// Make sure a `PortFree` is pending for an optical port with traffic
    /// in its active queue.
    fn kick_port(&mut self, node: NodeId, port: PortId, now: SimTime, q: &mut EventQueue<Event>) {
        self.ports[node.index()][port.index()].kick(now, Event::PortFree(node, port), q);
    }

    fn kick_all_ports(&mut self, node: NodeId, now: SimTime, q: &mut EventQueue<Event>) {
        for p in 0..self.cfg.uplink {
            if self.tors[node.index()].has_active_traffic(PortId(p)) {
                self.kick_port(node, PortId(p), now, q);
            }
        }
    }

    /// Update vma pause state of a ToR's hosts for the active slice
    /// (DirectCircuit pause mode — the flow-pausing service fed by circuit
    /// notifications).
    fn refresh_pause_state(&mut self, node: NodeId, slice: u32, now: SimTime) {
        let tracing = self.telemetry.trace().is_on();
        for h in self.hosts_of(node).map(HostId) {
            for d in (0..self.cfg.node_num).map(NodeId) {
                if d == node {
                    continue;
                }
                let open = self.fabric.schedule().port_to(node, d, slice).is_some();
                let transition = if open {
                    self.hosts[h.index()].vma.resume(d)
                } else {
                    self.hosts[h.index()].vma.pause(d)
                };
                if tracing && transition {
                    let kind = if open {
                        TraceKind::FlowResume { host: h, dst: d }
                    } else {
                        TraceKind::FlowPause { host: h, dst: d }
                    };
                    self.telemetry.trace_mut().emit(now, kind);
                }
            }
        }
    }

    // -- event handlers -------------------------------------------------------

    fn on_host_tx(&mut self, host: HostId, now: SimTime, q: &mut EventQueue<Event>) {
        self.hosts[host.index()].tx_scheduled = false;
        let tor = self.hosts[host.index()].tor;
        if let Some(resume) = self.faults.pause_until(tor) {
            // NIC pause storm: data transmission defers to the window end.
            // (ACKs bypass the NIC data queue in this model and still flow.)
            self.hosts[host.index()].tx_scheduled = true;
            post(q, resume.max(now + 1), Event::HostTx(host));
            return;
        }
        if now < self.hosts[host.index()].nic_free {
            self.pump_host(host, self.hosts[host.index()].nic_free, q);
            return;
        }
        self.pump_backlog(host, now);
        let (popped, force_electrical) = match self.hosts[host.index()].vma_mice.pop_next(now) {
            Some(x) => (Some(x), true),
            None => (self.hosts[host.index()].vma.pop_next(now), false),
        };
        match popped {
            Some((dst_tor, seg)) => {
                let src_tor = self.hosts[host.index()].tor;
                let pkt = Packet::data(
                    self.alloc_pkt_id(),
                    seg.flow,
                    src_tor,
                    dst_tor,
                    host,
                    seg.dst_host,
                    seg.bytes,
                    seg.seq,
                    now,
                );
                self.cursors.packet_begin(seg.flow, pkt.id, seg.queued_at, now);
                let tx = self.cfg.host_link_bandwidth().tx_time_ns(pkt.size as u64).max(1);
                self.hosts[host.index()].nic_free = now + tx;
                self.dispatch_from_host(host, pkt, force_electrical, now, q);
                // Keep draining.
                self.pump_host(host, now + tx, q);
            }
            None => {
                // Nothing sendable: wake at the next push-back expiry if any.
                let t = self.hosts[host.index()]
                    .vma
                    .next_unblock(now)
                    .into_iter()
                    .chain(self.hosts[host.index()].vma_mice.next_unblock(now))
                    .min();
                if let Some(t) = t {
                    self.hosts[host.index()].tx_scheduled = true;
                    post(q, t, Event::HostTx(host));
                }
            }
        }
    }

    fn on_tor_ingress(
        &mut self,
        node: NodeId,
        pkt: PktRef,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let dst = self.packets[pkt].dst;
        let mut res = self.tor_ingress(node, pkt, now);
        // Table miss (reported before admission, so it never carries a
        // push-back): compile routes for this (node, dst) lazily and retry
        // once with the fresh entries. The retry is a second pass through
        // the ingress pipeline and counts a second hop.
        if matches!(res.decision, IngressDecision::NoRoute) && self.install_routes_for(node, dst) {
            debug_assert!(res.pushback.is_none());
            res = self.tor_ingress(node, pkt, now);
        }
        self.after_admission(node, pkt, res, now, q);
    }

    /// `pkt` through `node`'s ingress pipeline, on the active schedule.
    ///
    /// `strict-invariants`: a packet's `hops` stays within twice the node
    /// count. A path that visits each ToR once counts at most two hops at
    /// each, a lazy-compile retry included, so only a loop passes that
    /// (DESIGN.md "The hop bound").
    fn tor_ingress(&mut self, node: NodeId, pkt: PktRef, now: SimTime) -> IngressResult {
        let (header, schedule) = (&mut self.packets[pkt], self.fabric.schedule());
        let trace = self.telemetry.trace_mut();
        let res = self.tors[node.index()].ingress(pkt, header, schedule, now, trace);
        if cfg!(feature = "strict-invariants") {
            let (hops, bound) = (u32::from(header.hops), self.cfg.node_num.saturating_mul(2));
            assert!(
                hops <= bound,
                "packet {} took {hops} hops at {node}, past the hop bound 2 x {} nodes: a loop",
                header.id,
                self.cfg.node_num,
            );
        }
        res
    }

    /// What the switch decided for `pkt` — on first ingress or when an
    /// offloaded packet is re-admitted — becomes the packet's next step,
    /// and a push-back the admission raised reaches the sender ToR's hosts
    /// after a control RTT. A parked packet's return is posted here, for
    /// its recall instant plus the host round trip.
    #[inline]
    fn after_admission(
        &mut self,
        node: NodeId,
        pkt: PktRef,
        res: IngressResult,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let Packet { id: pid, src, dst_host, size, .. } = self.packets[pkt];
        if let Some(msg) = res.pushback {
            post_keyed(q, now + 2_000, pid, Event::HostControl(src, msg));
        }
        match res.decision {
            IngressDecision::DeliverLocal => self.to_downlink(dst_host, pkt, now, q),
            IngressDecision::Enqueued { port, .. } | IngressDecision::Trimmed { port, .. } => {
                self.cursors.enter(pid, Stage::CalendarWait, now);
                if self.tors[node.index()].has_active_traffic(port) {
                    self.kick_port(node, port, now, q);
                }
            }
            IngressDecision::Offloaded { abs_slice, port, recall } => {
                self.cursors.enter(pid, Stage::CalendarWait, now);
                // Host round trip: recall notify + host link serialization.
                let rtt = 2_000 + self.cfg.host_link_bandwidth().tx_time_ns(u64::from(size));
                self.pkt_events += 1;
                let ev = Event::Reinject(node, abs_slice, port, pkt);
                post_keyed(q, recall + rtt, u64::from(node.0) << 42 | pid, ev);
            }
            IngressDecision::Dropped(_) => self.drop_packet(pkt, now, DropSite::Switch),
            IngressDecision::NoRoute => self.drop_packet(pkt, now, DropSite::NoRoute),
        }
    }

    fn on_port_free(
        &mut self,
        node: NodeId,
        port: PortId,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        self.ports[node.index()][port.index()].pending = false;
        let slice_cfg = self.slice_cfg();
        // All slice-relative gating below runs on the switch's LOCAL clock:
        // a badly synchronized node holds off / transmits at the wrong
        // instants, and the fabric (global truth) punishes it — which is
        // exactly what the guardband budget of §7 must absorb.
        let local = self.sync.local_time(node.index(), now);
        // Hold transmission during the (locally perceived) guardband.
        if slice_cfg.num_slices > 1 && slice_cfg.in_guardband(local) {
            let resume_local = slice_cfg.slice_start(local) + slice_cfg.guard_ns;
            let resume = self.sync.global_fire_time(node.index(), resume_local);
            self.counters.guardband_holds += 1;
            self.telemetry.trace_mut().emit(now, TraceKind::GuardbandHold { node, port });
            if self.cursors.is_on() {
                if let Some(head) = self.tors[node.index()].head_packet(port) {
                    self.cursors.hold(self.packets[head].id, now);
                }
            }
            self.kick_port(node, port, resume.max(now + 1), q);
            return;
        }
        self.profiler.enter(Phase::Drain);
        let trace = self.telemetry.trace_mut();
        let popped = self.tors[node.index()].pop_if_fits(port, local, SLICE_END_MARGIN_NS, trace);
        self.profiler.exit(Phase::Drain);
        // Counted per drain attempt, like `Drain`: the EQO itself catches up
        // in admission and rotation, on the engine clock (`Phase::EqoTick`).
        self.profiler.mark(Phase::EqoTick);
        match popped {
            Some((pkt, tx)) => {
                if cfg!(feature = "strict-invariants") && slice_cfg.num_slices > 1 {
                    // Guardband containment: the hold branch above already
                    // deferred guardband instants, and pop_if_fits only
                    // releases a packet whose serialization makes the slice
                    // tail. A transmit start inside the guardband or a tail
                    // past the slice end would be silently eaten by the
                    // fabric instead.
                    let in_guard = slice_cfg.in_guardband(local);
                    let overrun = tx + SLICE_END_MARGIN_NS > slice_cfg.remaining_in_slice(local);
                    if in_guard || overrun {
                        // Last act before dying: push the flight recorder
                        // into the frame stream so a subscriber sees the
                        // trace tail that led here.
                        self.flight_dump(now, FlightTrigger::Invariant);
                    }
                    assert!(!in_guard, "transmit started inside the guardband at local {local}");
                    assert!(
                        !overrun,
                        "transmit of {tx} ns overruns the slice: {} ns remain at local {local}",
                        slice_cfg.remaining_in_slice(local),
                    );
                }
                // The port is busy for the serialization time — also when a
                // fault eats the packet (drain-and-drop: the port still
                // cycles at line rate so the queue behind the fault drains).
                // With nothing left in the active queue the next `PortFree`
                // would find it empty: only its place in line is kept, and
                // the next kick schedules it there if it is still ahead. A
                // schedule move keeps every free event in the queue.
                let more =
                    self.tors[node.index()].has_active_traffic(port) || self.fabric.is_moving();
                let ev = Event::PortFree(node, port);
                self.ports[node.index()][port.index()].sent(now, tx, more, ev, q);
                if let Some(fault) = self.faults.on_tx(node, port, &mut self.rng) {
                    // Charged to the fault instead of reaching the fabric.
                    self.counters.fault_drops += 1;
                    self.telemetry.trace_mut().emit(now, TraceKind::FaultDrop { node, port });
                    self.profiler.mark(Phase::FaultRuntime);
                    let pid = self.packets.remove(pkt).id;
                    self.cursors.end_packet(pid, now, PacketEnd::FaultDropped(fault.code()));
                    return;
                }
                let Packet { id: pid, size, .. } = self.packets[pkt];
                self.tx_bytes_per_port[node.index()][port.index()] += size as u64;
                self.cursors.serialized(pid, now, tx);
                match self.fabric.transit(node, port, now) {
                    openoptics_fabric::Transit::Delivered { node: peer, latency_ns, .. } => {
                        let delay = self.pipeline.delay_ns(size, &mut self.rng) + latency_ns;
                        self.cursors.enter(pid, Stage::Propagation, now + tx);
                        self.pkt_events += 1;
                        post_keyed(q, now + delay.max(tx), pid, Event::TorIngress(peer, pkt));
                    }
                    lost => {
                        self.drop_packet(pkt, now + tx, DropSite::Fabric);
                        let kind = match lost {
                            openoptics_fabric::Transit::Guardband => {
                                TraceKind::GuardbandDrop { node, port }
                            }
                            _ => TraceKind::NoCircuitDrop { node, port },
                        };
                        self.telemetry.trace_mut().emit(now, kind);
                    }
                }
            }
            None => {
                if self.tors[node.index()].has_active_traffic(port) && slice_cfg.num_slices > 1 {
                    // Head doesn't fit before the slice ends: retry after
                    // the next rotation + guard (local clock).
                    let next_local =
                        slice_cfg.slice_start(local) + slice_cfg.slice_ns + slice_cfg.guard_ns;
                    let next = self.sync.global_fire_time(node.index(), next_local);
                    self.kick_port(node, port, next.max(now + 1), q);
                }
            }
        }
    }

    fn on_rotate(&mut self, node: NodeId, now: SimTime, q: &mut EventQueue<Event>) {
        if self.faults.miss_rotation(node) {
            // Schedule corruption: the switch misses the boundary and
            // stays in its stale slice while the fabric moves on, so its
            // transmissions meet dark circuits. The miss is replayed
            // (resync) when the window closes.
            self.profiler.mark(Phase::FaultRuntime);
        } else {
            self.profiler.enter(Phase::Rotation);
            self.tors[node.index()].rotate(now, self.telemetry.trace_mut());
            self.profiler.exit(Phase::Rotation);
        }
        let slice_ns = self.slice_cfg().slice_ns;
        post(q, now + slice_ns, Event::Rotate(node));
        self.kick_all_ports(node, now, q);
        if self.pause_mode == PauseMode::DirectCircuit {
            // Broadcast circuit notifications ahead of the next boundary so
            // hosts resume exactly when their circuit opens (§5.2: switches
            // notify hosts of upcoming circuit connections).
            let at = now + slice_ns.saturating_sub(NOTIFY_LEAD_NS);
            post(q, at, Event::Timer(Timer::NotifyHosts(node)));
        }
    }

    /// Pre-boundary circuit-notification broadcast for one switch: set each
    /// host's pause state for the slice about to begin and wake senders.
    fn on_notify_hosts(&mut self, node: NodeId, now: SimTime, q: &mut EventQueue<Event>) {
        if self.pause_mode != PauseMode::DirectCircuit {
            return;
        }
        let upcoming = self.slice_cfg().advance(self.tors[node.index()].current_slice(), 1);
        self.refresh_pause_state(node, upcoming, now);
        for h in self.hosts_of(node).map(HostId) {
            self.counters.circuit_notifications += 1;
            if self.hosts[h.index()].vma.has_sendable(now)
                || self.hosts[h.index()].vma_mice.has_sendable(now)
            {
                self.pump_host(h, now, q);
            }
        }
    }

    fn on_elec_free(&mut self, node: NodeId, now: SimTime, q: &mut EventQueue<Event>) {
        let bw = self.elec_bw.expect("electrical fabric enabled");
        let (pkt, tx) = self.elec[node.index()].pop(now, bw, Event::ElecFree(node), q);
        let Packet { id: pid, dst_host: host, .. } = self.packets[pkt];
        self.cursors.serialized(pid, now, tx);
        self.cursors.enter(pid, Stage::Propagation, now + tx);
        self.pkt_events += 1;
        post_keyed(q, now + tx + ELECTRICAL_CORE_NS, pid, Event::HostRx(host, pkt));
    }

    fn on_downlink_free(&mut self, host: HostId, now: SimTime, q: &mut EventQueue<Event>) {
        let bw = self.cfg.host_link_bandwidth();
        let (pkt, tx) = self.downlinks[host.index()].pop(now, bw, Event::DownlinkFree(host), q);
        self.pkt_events += 1;
        post_keyed(q, now + tx, self.packets[pkt].id, Event::HostRx(host, pkt));
    }

    fn on_host_rx(&mut self, host: HostId, pkt: PktRef, now: SimTime, q: &mut EventQueue<Event>) {
        // Delivered: the slot is free before any reply is written.
        let pkt = self.packets.remove(pkt);
        self.control_rx += u64::from(!pkt.is_data());
        match pkt.kind {
            PacketKind::Data => {
                self.counters.delivered_packets += 1;
                self.counters.delivered_payload_bytes += pkt.payload as u64;
                if self.record_delays {
                    self.delay_samples.push(pkt.age_ns(now));
                }
                if pkt.trimmed {
                    // Opera-style trimming: the header made it; NACK the
                    // payload back to the source after a reverse-path delay.
                    self.count_drop(pkt.id, now, DropSite::Trimmed);
                    let ev = Event::Timer(Timer::NackRetx { flow: pkt.flow, seq: pkt.seq });
                    post_keyed(q, now + 5_000, pkt.id, ev);
                    return;
                }
                self.cursors.end_packet(pkt.id, now, PacketEnd::Delivered);
                let fid = pkt.flow;
                let Some(f) = self.flows.get_mut(fid) else { return };
                match &mut f.transport {
                    Transport::Paced => {
                        f.delivered = (f.delivered + pkt.payload as u64).min(f.bytes);
                        if f.delivered >= f.bytes && !f.done {
                            self.finish_flow(fid, now, q);
                        }
                    }
                    Transport::Tcp(tcp) => {
                        let cum = tcp.receiver.on_data(pkt.seq, pkt.payload);
                        // Send an ACK back through the network.
                        let src_host = f.src_host;
                        let mut ack = Packet::data(
                            self.alloc_pkt_id(),
                            fid,
                            self.hosts[host.index()].tor,
                            self.hosts[src_host.index()].tor,
                            host,
                            src_host,
                            0,
                            0,
                            now,
                        );
                        ack.size = HEADER_BYTES;
                        ack.kind = PacketKind::Ack { cum_ack: cum };
                        self.dispatch_from_host(host, ack, false, now, q);
                    }
                }
            }
            PacketKind::Ack { cum_ack } => {
                let fid = pkt.flow;
                let Some(f) = self.flows.get(fid) else { return };
                let src = f.src_host;
                let topo = self
                    .topology_id(self.hosts[src.index()].tor, self.hosts[f.dst_host.index()].tor);
                let Some(f) = self.flows.get_mut(fid) else { return };
                let Transport::Tcp(tcp) = &mut f.transport else { return };
                let sender = &mut tcp.sender;
                sender.set_topology(topo, now);
                let before = sender.fast_retransmits;
                sender.on_ack(cum_ack, now);
                let fast_retx = sender.fast_retransmits > before;
                let finished = sender.done() && !f.done;
                if fast_retx {
                    self.note_retransmit(fid, now, RetxKind::FastRetx);
                }
                if finished {
                    self.finish_flow(fid, now, q);
                } else {
                    self.pump_tcp(fid, now);
                    self.pump_host(src, now, q);
                }
            }
            PacketKind::Probe { echo_of, is_reply, train } => {
                if is_reply {
                    // pkt.seq carries the forward hop count.
                    let total_hops = to_u8(pkt.seq) + pkt.hops;
                    self.probe_trains[train as usize].stats.record(echo_of, now, total_hops);
                } else {
                    let mut reply = Packet::data(
                        self.alloc_pkt_id(),
                        pkt.flow,
                        self.hosts[host.index()].tor,
                        pkt.src,
                        host,
                        pkt.src_host,
                        pkt.payload,
                        pkt.hops as u64,
                        now,
                    );
                    reply.kind = PacketKind::Probe { echo_of, is_reply: true, train };
                    self.dispatch_from_host(host, reply, false, now, q);
                }
            }
        }
    }

    /// A push-back broadcast reached the hosts of `tor`: each, in
    /// ascending order, embargoes the named destination until the named
    /// (cycle, slice) ends.
    fn on_host_control(&mut self, tor: NodeId, msg: PushBack) {
        let slice_cfg = self.slice_cfg();
        let end =
            (msg.cycle * slice_cfg.num_slices as u64 + msg.slice as u64 + 1) * slice_cfg.slice_ns;
        for h in self.hosts_of(tor).map(HostId) {
            self.counters.pushback_deliveries += 1;
            self.hosts[h.index()].vma.block_until(msg.dst, SimTime::from_ns(end));
        }
    }

    fn on_reinject(
        &mut self,
        node: NodeId,
        abs: u64,
        port: PortId,
        pkt: PktRef,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let (tor, trace) = (&mut self.tors[node.index()], self.telemetry.trace_mut());
        let (header, schedule) = (&mut self.packets[pkt], self.fabric.schedule());
        let res = tor.reinject_offloaded(pkt, header, (port, abs), schedule, now, trace);
        self.after_admission(node, pkt, res, now, q);
    }

    fn on_timer(&mut self, timer: Timer, now: SimTime, q: &mut EventQueue<Event>) {
        match timer {
            Timer::FlowStart(idx) => {
                // A pre-run start queues its successor; one attached after
                // prime was scheduled on its own.
                if idx < self.starts.order.len() {
                    self.starts.next += 1;
                    if self.starts.next == self.starts.order.len() {
                        self.starts.order = Vec::new();
                    }
                    self.queue_next_start(q);
                }
                let p = self.pending_flow(idx);
                if self.frees() {
                    // A chunk this frees had every flow in it started.
                    _ = self.pending_flows.expire(idx);
                }
                let transport = self.pending_transport(&p);
                self.start_flow(
                    now,
                    p.src,
                    p.dst,
                    p.bytes,
                    transport,
                    FlowKind::Plain,
                    p.service,
                    q,
                );
            }
            Timer::MemcachedOp { app, client_idx } => {
                let (params, server, client, stop_at, service) = {
                    let a = &self.memcached[app];
                    (a.params, a.server, a.clients[client_idx], a.stop_at, a.service)
                };
                if now >= stop_at {
                    return;
                }
                self.start_flow(
                    now,
                    client,
                    server,
                    params.set_bytes as u64,
                    TransportKind::Paced,
                    FlowKind::Request { response_bytes: params.response_bytes },
                    service,
                    q,
                );
                let gap = params.next_gap_ns(&mut self.rng);
                post(q, now + gap, Event::Timer(Timer::MemcachedOp { app, client_idx }));
            }
            Timer::FlowWatchdog(fid) => {
                self.watchdog_fired(q);
                #[cfg(test)]
                {
                    self.dead_watchdogs += u64::from(!self.flow_running(fid));
                }
                let retransmit = self.watchdog_retransmit;
                let Some(f) = self.flows.get_mut(fid) else { return };
                if f.done {
                    return;
                }
                if retransmit && f.delivered == f.delivered_at_last_watchdog && f.queued >= f.bytes
                {
                    // Stalled with everything queued: re-send the missing tail.
                    let missing = f.bytes - f.delivered;
                    f.queued = f.bytes - missing;
                    let src = f.src_host;
                    self.hosts[src.index()].backlog.push(fid);
                    self.note_retransmit(fid, now, RetxKind::Watchdog);
                    self.pump_host(src, now, q);
                }
                if let Some(f) = self.flows.get_mut(fid) {
                    f.delivered_at_last_watchdog = f.delivered;
                }
                self.arm_watchdog(fid, now, q);
            }
            Timer::TcpRto(fid) => {
                let Some(f) = self.flows.get_mut(fid) else { return };
                if f.done {
                    return;
                }
                let src = f.src_host;
                let Transport::Tcp(tcp) = &mut f.transport else { return };
                let fired = tcp.sender.maybe_timeout(now);
                let deadline = tcp.sender.rto_deadline();
                if fired {
                    self.note_retransmit(fid, now, RetxKind::Rto);
                    self.pump_tcp(fid, now);
                    self.pump_host(src, now, q);
                }
                post(q, deadline.max(now + 1), Event::Timer(Timer::TcpRto(fid)));
            }
            Timer::NotifyHosts(node) => self.on_notify_hosts(node, now, q),
            Timer::FaultStart(i) => self.on_fault_transition(i, true, now, q),
            Timer::FaultEnd(i) => self.on_fault_transition(i, false, now, q),
            Timer::NackRetx { flow, seq } => {
                let Some(f) = self.flows.get_mut(flow) else { return };
                if f.done {
                    return;
                }
                let len = to_u32((f.bytes.saturating_sub(seq)).min(MSS as u64));
                if len == 0 {
                    return;
                }
                let (src, dst_host) = (f.src_host, f.dst_host);
                let dst_tor = self.hosts[dst_host.index()].tor;
                self.hosts[src.index()]
                    .vma
                    .send(dst_tor, Segment { flow, dst_host, bytes: len, seq, queued_at: now })
                    .ok();
                self.note_retransmit(flow, now, RetxKind::Nack);
                self.pump_host(src, now, q);
            }
            Timer::ProbeSend(t) => {
                let (src, dst, payload, interval) = {
                    let tr = &mut self.probe_trains[t];
                    if tr.remaining == 0 {
                        return;
                    }
                    tr.remaining -= 1;
                    tr.stats.sent += 1;
                    (tr.src, tr.dst, tr.payload, tr.interval_ns)
                };
                let dst_tor = self.hosts[dst.index()].tor;
                let src_tor = self.hosts[src.index()].tor;
                let id = self.alloc_pkt_id();
                let mut pkt = Packet::data(id, 0, src_tor, dst_tor, src, dst, payload, 0, now);
                pkt.kind = PacketKind::Probe { echo_of: now, is_reply: false, train: idx_u32(t) };
                self.dispatch_from_host(src, pkt, false, now, q);
                post(q, now + interval, Event::Timer(Timer::ProbeSend(t)));
            }
            Timer::Sample => {
                self.take_sample(now, q.stats());
                post(q, now + self.cfg.sample_every_ns, Event::Timer(Timer::Sample));
            }
        }
    }
}

impl World for Engine {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, q: &mut EventQueue<Event>) {
        // A deployed schedule whose OCS move has finished takes effect here,
        // before the event runs, so every consumer (routing, pause state,
        // dispatch) sees the schedule that is physically active at `now`.
        self.advance_fabric(now);
        self.profiler.event(phase_of(&event), now);
        if let Event::TorIngress(..) | Event::HostRx(..) | Event::Reinject(..) = event {
            self.pkt_events -= 1;
        }
        match event {
            Event::HostTx(h) => self.on_host_tx(h, now, q),
            Event::TorIngress(n, p) => self.on_tor_ingress(n, p, now, q),
            Event::HostRx(h, p) => self.on_host_rx(h, p, now, q),
            Event::Rotate(n) => self.on_rotate(n, now, q),
            Event::PortFree(n, p) => self.on_port_free(n, p, now, q),
            Event::ElecFree(n) => self.on_elec_free(n, now, q),
            Event::DownlinkFree(h) => self.on_downlink_free(h, now, q),
            Event::Reinject(n, abs, port, pkt) => self.on_reinject(n, abs, port, pkt, now, q),
            Event::HostControl(n, m) => self.on_host_control(n, m),
            Event::Timer(t) => self.on_timer(t, now, q),
        }
    }
}

#[cfg(test)]
mod route_oracle;
#[cfg(test)]
mod tests;
