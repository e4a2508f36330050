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
use openoptics_fabric::{Circuit, ClockSync, Fabric, FabricProfile, OpticalSchedule};
use openoptics_faults::{FaultError, FaultKind, FaultPlan, FaultReport, FaultRuntime};
use openoptics_host::apps::{ChunkSend, MemcachedParams, RingAllreduce};
use openoptics_host::tcp::{TcpConfig, TcpReceiver, TcpSender};
use openoptics_host::udp::ProbeStats;
use openoptics_host::vma::{Segment, VmaStack};
use openoptics_host::FlowAging;
use openoptics_obs::{
    DropSite, PacketEnd, Phase, Profiler, SpanCursors, SpanTable, Spans, Stage, WellFormedError,
};
use openoptics_proto::packet::{PacketKind, HEADER_BYTES};
use openoptics_proto::{FlowId, HostId, NodeId, Packet, PacketStore, PktRef, PortId, PushBack};
use openoptics_routing::{compile, LookupMode, MultipathMode, Path, RoutingAlgorithm};
use openoptics_sim::bytequeue::ByteQueue;
use openoptics_sim::cast::{idx_u32, to_u32, to_u8};
use openoptics_sim::rate::Bandwidth;
use openoptics_sim::time::{SimTime, SliceConfig};
use openoptics_sim::{EventQueue, SimRng, World};
use openoptics_switch::congestion::{CongestionConfig, CongestionPolicy};
use openoptics_switch::offload::OffloadPolicy;
use openoptics_switch::{IngressDecision, PipelineModel, ToRSwitch, TorConfig};
use openoptics_telemetry::json;
use openoptics_telemetry::{
    FlightTrigger, Frame, FrameLog, Labels, QuantileSketch, Registry, RetxKind, SampleRow,
    ServiceStats, SloTarget, SloTransition, TimeSeries, TraceKind,
};
use openoptics_topo::TrafficMatrix;
use openoptics_workload::fct::{FlowRecord, ELEPHANT_MIN_BYTES, MICE_MAX_BYTES};
use openoptics_workload::FctStats;

/// Maximum payload per packet (MTU minus headers).
pub const MSS: u32 = 1436;
/// Host-to-ToR wire + NIC pipeline latency, ns.
const HOST_WIRE_NS: u64 = 500;
/// Safety margin kept at the end of each slice when deciding whether a
/// packet's tail still fits (§7: the 34 ns rotation variance, padded).
const SLICE_END_MARGIN_NS: u64 = 40;
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
pub const FLOW_CLASSES: [&str; 3] = ["mice", "medium", "elephant"];

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

/// Every flow ever started, dense by id: ids are handed out from 1 in start
/// order and a record is never removed (finished flows keep answering
/// [`Engine::flow_delivered`]), so the id is the index.
#[derive(Clone, Default)]
struct FlowTable(Vec<FlowState>);

const _: () = assert!(std::mem::size_of::<FlowState>() <= 80);

impl FlowTable {
    fn get(&self, id: FlowId) -> Option<&FlowState> {
        self.0.get(usize::try_from(id.checked_sub(1)?).ok()?)
    }

    fn get_mut(&mut self, id: FlowId) -> Option<&mut FlowState> {
        self.0.get_mut(usize::try_from(id.checked_sub(1)?).ok()?)
    }

    /// Record a new flow and hand out its id.
    fn insert(&mut self, flow: FlowState) -> FlowId {
        self.0.push(flow);
        self.0.len() as FlowId
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

/// Schedule a link's free event `ev` because a packet arrived at `now` and
/// none is pending. `free` is when the link's last transmission ends and the
/// sequence number reserved for its free event, which was left out because
/// nothing waited behind it. If that event would still be pending, it is
/// scheduled now exactly where it would have fired; otherwise it would
/// have found nothing to send, and the link is kicked at `now`.
#[inline]
fn schedule_free(free: (SimTime, u64), now: SimTime, ev: Event, q: &mut EventQueue<Event>) {
    if free > q.current_key() {
        q.schedule_reserved(free.0, free.1, ev);
    } else {
        q.schedule(now, ev);
    }
}

/// An electrical uplink or a host downlink: a FIFO drained at line rate by
/// its free event (`ElecFree` / `DownlinkFree`), which is pending exactly
/// while a packet waits.
#[derive(Clone)]
struct Link {
    queue: ByteQueue<PktRef>,
    /// When the packet on the wire ends.
    busy_until: SimTime,
    /// A free event is pending.
    draining: bool,
    /// The sequence number reserved for the free event at `busy_until`
    /// when the last transmission left the queue empty.
    free_seq: u64,
}

impl Link {
    fn new(capacity: u64) -> Self {
        Link {
            queue: ByteQueue::new(capacity),
            busy_until: SimTime::ZERO,
            draining: false,
            free_seq: 0,
        }
    }

    /// Queue `pkt`, `size` bytes on the wire, behind whatever the link is
    /// sending; `Err` is a tail drop. An idle link gets its free event `ev`
    /// ([`schedule_free`]).
    fn push(
        &mut self,
        pkt: PktRef,
        size: u32,
        now: SimTime,
        ev: Event,
        q: &mut EventQueue<Event>,
    ) -> Result<(), PktRef> {
        self.queue.push(size, pkt)?;
        if !self.draining {
            self.draining = true;
            schedule_free((self.busy_until, self.free_seq), now, ev, q);
        }
        Ok(())
    }

    /// The link's free event `ev` fired: start sending the head packet at
    /// rate `bw` and return it with its serialization time. The next free
    /// event is scheduled that far ahead if another packet waits; if none
    /// does, only its sequence number is reserved, at the same point.
    fn pop(
        &mut self,
        now: SimTime,
        bw: Bandwidth,
        ev: Event,
        q: &mut EventQueue<Event>,
    ) -> (PktRef, u64) {
        debug_assert!(now >= self.busy_until, "one free event per link, never early");
        let (len, pkt) = self.queue.pop().expect("a free event fires only with a packet waiting");
        let tx = bw.tx_time_ns(len as u64).max(1);
        self.busy_until = now + tx;
        if self.queue.is_empty() {
            self.draining = false;
            self.free_seq = q.reserve_seq();
        } else {
            q.schedule(self.busy_until, ev);
        }
        (pkt, tx)
    }
}

/// Where an optical port's `PortFree` event stands.
#[derive(Clone, Copy, Default)]
struct PortFreeState {
    /// A `PortFree` is pending.
    pending: bool,
    /// When the last transmission ends and the sequence number reserved for
    /// its `PortFree`, if it left the active queue empty outside a schedule
    /// move ([`schedule_free`]).
    free: (SimTime, u64),
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
    /// Check for due offload recalls at a switch.
    OffloadRecall(NodeId),
    /// Re-admit a recalled offloaded packet.
    Reinject(NodeId, u64, PortId, PktRef),
    /// Deliver a push-back broadcast to a host.
    HostControl(HostId, PushBack),
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

/// A flow scheduled to start at `at` (`Timer::FlowStart` indexes these).
#[derive(Clone, Copy)]
struct PendingFlow {
    at: SimTime,
    src: HostId,
    dst: HostId,
    bytes: u64,
    transport: TransportKind,
    /// Declared service the flow reports latency under, if any.
    service: Option<u16>,
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
    pub fn counter_pairs(&self) -> [(&'static str, u64); 16] {
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
        Event::OffloadRecall(_) => Phase::OffloadRecall,
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
    ports: Vec<Vec<PortFreeState>>,
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
    /// Flow-completion-time collector.
    pub fct: FctStats,
    memcached: Vec<MemcachedApp>,
    probe_trains: Vec<ProbeTrain>,
    collectives: Vec<RingAllreduce>,
    /// Service tag of each collective's chunk flows, if any.
    collective_service: Vec<Option<u16>>,
    /// Completion time of each collective, once done.
    pub collective_done: Vec<Option<SimTime>>,
    /// Pre-scheduled flows (installed before run).
    pending_flows: Vec<PendingFlow>,
    tm_accum: TrafficMatrix,
    rng: SimRng,
    /// Outstanding `OffloadRecall` firing times per node. Every offloaded
    /// packet wants a recall at its batch deadline, so without dedup a
    /// slice-rank's worth of packets schedules a storm of same-time recall
    /// events of which only the first does any work (table3's dominant
    /// cost). Scheduling goes through [`Engine::schedule_recall`], which
    /// skips exact-duplicate times; the surviving event is the
    /// first-scheduled one, so the drain happens at the same (time, order)
    /// point the first duplicate fired at before.
    recall_outstanding: Vec<Vec<SimTime>>,
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
            "wait" => CongestionPolicy::Wait,
            _ => CongestionPolicy::Defer { max_extra_slices: cfg.defer_max_extra_slices },
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
    pub fn new(cfg: NetConfig, schedule: OpticalSchedule) -> Self {
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
            ports: vec![vec![PortFreeState::default(); cfg.uplink as usize]; n as usize],
            tx_bytes_per_port: vec![vec![0; cfg.uplink as usize]; n as usize],
            tors: build_tors(&cfg, slice_cfg),
            hosts,
            elec: vec![link.clone(); n as usize],
            elec_bw: cfg.electrical_bandwidth(),
            downlinks: vec![link; cfg.total_hosts() as usize],
            router: None,
            pipeline: PipelineModel::default(),
            sync,
            flows: FlowTable::default(),
            next_pkt_id: 1,
            packets: PacketStore::new(),
            pkt_events: 0,
            fct: FctStats::new(),
            memcached: vec![],
            probe_trains: vec![],
            collectives: vec![],
            collective_service: vec![],
            collective_done: vec![],
            pending_flows: vec![],
            tm_accum: TrafficMatrix::zeros(n as usize),
            rng,
            recall_outstanding: vec![vec![]; n as usize],
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
        for node in 0..self.cfg.node_num {
            q.schedule(done, Event::Timer(Timer::NotifyHosts(NodeId(node))));
        }
        // Until the move lands every optical port keeps its free event in
        // the queue, as it would with traffic waiting: those left out are
        // scheduled now, at the key they were reserved under.
        for node in 0..self.cfg.node_num {
            for port in 0..self.cfg.uplink {
                let state = &mut self.ports[node as usize][port as usize];
                if !state.pending && state.free > q.current_key() {
                    state.pending = true;
                    let (at, seq) = state.free;
                    q.schedule_reserved(at, seq, Event::PortFree(NodeId(node), PortId(port)));
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
    pub(crate) fn assert_packets_conserved(&self) {
        let links = self.elec.iter().chain(&self.downlinks).map(|l| l.queue.len());
        let held = self.tors.iter().map(ToRSwitch::held_packets).chain(links).sum::<usize>();
        let named = self.pkt_events + held;
        assert_eq!(self.packets.live(), named, "packets stored != packets some holder names");
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
    pub fn span_table(&self, now: SimTime) -> Result<SpanTable, WellFormedError> {
        self.cursors.spans().table(now)
    }

    /// The engine-phase profiler handle (for reports and for the bench
    /// binary to install a wall clock into).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The metrics registry this engine reports into. Disabled when the
    /// configuration said `telemetry: false`.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Mirror engine-side plain counters into the registry so a snapshot
    /// sees them; call before snapshotting. After the first call a pass is
    /// a store per series through the handles the registry has cached.
    /// `qs` carries the event-queue statistics, which live outside the
    /// engine (the sim crate does not depend on telemetry).
    pub fn sync_telemetry(&self, qs: openoptics_sim::QueueStats) {
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
        let mut pauses = 0u64;
        let mut resumes = 0u64;
        let mut blocks = 0u64;
        let mut app_pushbacks = 0u64;
        let mut queued = 0u64;
        for h in &self.hosts {
            for v in [&h.vma, &h.vma_mice] {
                pauses += v.pause_events;
                resumes += v.resume_events;
                blocks += v.block_events;
                app_pushbacks += v.app_pushback_events;
                queued += v.total_queued();
            }
        }
        m.counter("host.vma_pause_transitions", Labels::None, pauses);
        m.counter("host.vma_resume_transitions", Labels::None, resumes);
        m.counter("host.vma_block_extensions", Labels::None, blocks);
        m.counter("host.vma_app_pushbacks", Labels::None, app_pushbacks);
        m.gauge("host.vma_queued_bytes", Labels::None, queued.min(i64::MAX as u64) as i64);
        m.gauge(
            "fabric.sync_max_err_ns",
            Labels::None,
            self.sync.max_err_ns().min(i64::MAX as u64) as i64,
        );
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
    pub fn services(&self) -> &[ServiceStats] {
        &self.services
    }

    /// Per-flow-class FCT sketches, index-aligned with [`FLOW_CLASSES`].
    pub fn class_sketches(&self) -> &[QuantileSketch; 3] {
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
            Frame::Sample(row) => w.value(&self.timeseries.rows()[*row]),
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
        self.timeseries.push_with(|| {
            let reg = &self.telemetry;
            let (counters, gauges) = (reg.counter_values(), reg.gauge_values());
            let services = self.services.iter().map(|s| s.summary()).collect();
            SampleRow { at_ns: now.as_ns(), counters, gauges, services }
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
    /// ordinary `(time, seq)` event, so campaigns replay byte-identically.
    pub(crate) fn schedule_fault_edges(
        &self,
        which: std::ops::Range<usize>,
        q: &mut EventQueue<Event>,
    ) {
        for i in which {
            let s = self.faults.specs()[i];
            q.schedule(s.start, Event::Timer(Timer::FaultStart(i)));
            q.schedule(s.end, Event::Timer(Timer::FaultEnd(i)));
        }
    }

    /// Results of the injected fault campaign. Campaign-wide totals come
    /// from the engine counters; the per-fault breakdown is empty when no
    /// plan was installed.
    pub fn fault_report(&self) -> FaultReport {
        let c = &self.counters;
        self.faults.report(
            c.delivered_packets,
            c.rto_retransmits + c.watchdog_retransmits + c.fast_retransmits + c.nack_retransmits,
        )
    }

    /// Rebuild the link-down-masked schedule routing compiles against from
    /// the links that are down right now and the active schedule. Its two
    /// inputs change on link-down window edges and when a deployed schedule
    /// becomes active; those are its two callers.
    fn rebuild_masked_schedule(&mut self) {
        let down: Vec<(NodeId, PortId)> = self.faults.down_links().collect();
        self.fault_masked = if down.is_empty() {
            None
        } else {
            let sched = self.fabric.schedule();
            let kept: Vec<Circuit> = sched
                .circuits()
                .iter()
                .filter(|c| !down.iter().any(|&(n, p)| c.peer_of(n, p).is_some()))
                .copied()
                .collect();
            // A subset of a valid circuit list stays valid (validation is
            // per-circuit ranges plus pairwise conflicts); if the rebuild
            // fails anyway, fall back to the unmasked schedule — the drop
            // mask alone still degrades gracefully.
            OpticalSchedule::build(sched.slice_config(), sched.num_nodes(), sched.uplinks(), &kept)
                .ok()
        };
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
    pub fn tor_mut(&mut self, node: NodeId) -> &mut ToRSwitch {
        &mut self.tors[node.index()]
    }

    /// Fabric loss counters.
    pub fn fabric_stats(&self) -> (u64, u64) {
        (self.fabric.delivered, self.fabric.total_lost())
    }

    /// The hosts hanging off `node`: host `h` sits under ToR
    /// `h / hosts_per_node`, so they are one contiguous id range.
    pub fn hosts_of(&self, node: NodeId) -> std::ops::Range<u32> {
        let per = self.cfg.hosts_per_node;
        node.0 * per..(node.0 + 1) * per
    }

    /// Per-port transmitted bytes (`bw_usage`).
    pub fn port_tx_bytes(&self, node: NodeId, port: PortId) -> u64 {
        self.tx_bytes_per_port[node.index()][port.index()]
    }

    /// Aggregate the hosts' per-destination vma queue depths into a demand
    /// matrix — the c-Through-style collection mode where "hosts
    /// periodically report traffic volume per destination switch" (§5.2).
    /// Rows are the reporting hosts' ToRs.
    pub fn host_pending_demand(&self) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zeros(self.cfg.node_num as usize);
        for h in &self.hosts {
            for (dst, bytes) in h.vma.queue_snapshot() {
                tm.add(h.tor, dst, bytes as f64);
            }
        }
        tm
    }

    /// Drain and return the accumulated traffic matrix (`collect`).
    pub fn take_traffic_matrix(&mut self) -> TrafficMatrix {
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
        self.flows.get(flow).map_or(0, |f| match &f.transport {
            Transport::Tcp(tcp) => tcp.receiver.delivered_bytes,
            Transport::Paced => f.delivered,
        })
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
        self.pending_flows.push(PendingFlow { at, src, dst, bytes, transport, service });
        self.pending_flows.len() - 1
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
                q.schedule(fire, Event::Rotate(NodeId(node)));
            }
        }
        // Initial pause state (slice 0 is "notified" at t=0).
        if self.pause_mode == PauseMode::DirectCircuit {
            for node in 0..self.cfg.node_num {
                self.refresh_pause_state(NodeId(node), 0, SimTime::ZERO);
                if slice_cfg.num_slices > 1 {
                    let lead = 200;
                    q.schedule(
                        SimTime::from_ns(slice_cfg.slice_ns - lead),
                        Event::Timer(Timer::NotifyHosts(NodeId(node))),
                    );
                }
            }
        }
        // Scheduled flows.
        for i in 0..self.pending_flows.len() {
            q.schedule(self.pending_flows[i].at, Event::Timer(Timer::FlowStart(i)));
        }
        // Memcached ops.
        for (a, app) in self.memcached.iter().enumerate() {
            for c in 0..app.clients.len() {
                let gap = app.params.next_gap_ns(&mut self.rng);
                q.schedule(
                    SimTime::from_ns(gap),
                    Event::Timer(Timer::MemcachedOp { app: a, client_idx: c }),
                );
            }
        }
        // Allreduce first steps.
        for c in 0..self.collectives.len() {
            let sends = self.collectives[c].start();
            self.start_chunks(c, sends, SimTime::ZERO, q);
        }
        // Probe trains.
        for t in 0..self.probe_trains.len() {
            q.schedule(SimTime::from_ns(1), Event::Timer(Timer::ProbeSend(t)));
        }
        self.schedule_fault_edges(0..self.faults.specs().len(), q);
        // Telemetry sampling cadence: the timer is simply never scheduled
        // when sampling is off, so a disabled run pays nothing.
        if self.cfg.sample_every_ns > 0 && self.telemetry.is_enabled() {
            q.schedule(SimTime::from_ns(self.cfg.sample_every_ns), Event::Timer(Timer::Sample));
        }
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
                q.schedule_after(now, WATCHDOG_NS, Event::Timer(Timer::FlowWatchdog(id)));
            }
            Some(deadline) => {
                q.schedule(deadline, Event::Timer(Timer::TcpRto(id)));
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
        q.schedule(at, Event::HostTx(host));
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
            q.schedule_after(now, HOST_WIRE_NS, Event::TorIngress(src_tor, pkt));
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
    /// in its active queue ([`schedule_free`]).
    fn kick_port(&mut self, node: NodeId, port: PortId, now: SimTime, q: &mut EventQueue<Event>) {
        let state = &mut self.ports[node.index()][port.index()];
        if state.pending {
            return;
        }
        state.pending = true;
        schedule_free(state.free, now, Event::PortFree(node, port), q);
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
            q.schedule(resume.max(now + 1), Event::HostTx(host));
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
                    q.schedule(t, Event::HostTx(host));
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
        let header = &mut self.packets[pkt];
        let (src_tor, dst) = (header.src, header.dst);
        let trace = self.telemetry.trace_mut();
        let mut res = self.tors[node.index()].ingress(pkt, header, now, trace);
        if matches!(res.decision, IngressDecision::NoRoute) {
            // Table miss (reported before admission, so it never carries a
            // push-back): compile routes for this (node, dst) lazily and
            // retry once with the fresh entries. The retry is a second pass
            // through the ingress pipeline and counts a second hop.
            debug_assert!(res.pushback.is_none());
            if self.install_routes_for(node, dst) {
                let header = &mut self.packets[pkt];
                let trace = self.telemetry.trace_mut();
                res = self.tors[node.index()].ingress(pkt, header, now, trace);
            }
        }
        if let Some(msg) = res.pushback {
            // Broadcast to the sender ToR's hosts after a control RTT.
            for h in self.hosts_of(src_tor).map(HostId) {
                q.schedule_after(now, 2_000, Event::HostControl(h, msg));
            }
        }
        self.after_admission(node, pkt, res.decision, now, now, q);
    }

    /// What the switch decided for `pkt` — on first ingress or when an
    /// offloaded packet is re-admitted — becomes the packet's next step.
    /// `recall_floor` is the earliest a follow-up offload recall may fire.
    #[inline]
    fn after_admission(
        &mut self,
        node: NodeId,
        pkt: PktRef,
        decision: IngressDecision,
        recall_floor: SimTime,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let Packet { id: pid, dst_host, .. } = self.packets[pkt];
        match decision {
            IngressDecision::DeliverLocal => self.to_downlink(dst_host, pkt, now, q),
            IngressDecision::Enqueued { port, .. } | IngressDecision::Trimmed { port, .. } => {
                self.cursors.enter(pid, Stage::CalendarWait, now);
                if self.tors[node.index()].has_active_traffic(port) {
                    self.kick_port(node, port, now, q);
                }
            }
            IngressDecision::Offloaded { .. } => {
                self.cursors.enter(pid, Stage::CalendarWait, now);
                if let Some(t) = self.tors[node.index()].next_offload_recall() {
                    self.schedule_recall(node, t.max(recall_floor), q);
                }
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
            self.ports[node.index()][port.index()].pending = true;
            self.counters.guardband_holds += 1;
            self.telemetry.trace_mut().emit(now, TraceKind::GuardbandHold { node, port });
            if self.cursors.is_on() {
                if let Some(head) = self.tors[node.index()].head_packet(port) {
                    self.cursors.hold(self.packets[head].id, now);
                }
            }
            q.schedule(resume.max(now + 1), Event::PortFree(node, port));
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
                let state = &mut self.ports[node.index()][port.index()];
                if self.tors[node.index()].has_active_traffic(port) || self.fabric.is_moving() {
                    state.pending = true;
                    q.schedule_after(now, tx, Event::PortFree(node, port));
                } else {
                    state.free = (now + tx, q.reserve_seq());
                }
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
                        q.schedule_after(now, delay.max(tx), Event::TorIngress(peer, pkt));
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
                    self.ports[node.index()][port.index()].pending = true;
                    q.schedule(next.max(now + 1), Event::PortFree(node, port));
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
        q.schedule(now + slice_ns, Event::Rotate(node));
        self.kick_all_ports(node, now, q);
        if self.pause_mode == PauseMode::DirectCircuit {
            // Broadcast circuit notifications ahead of the next boundary so
            // hosts resume exactly when their circuit opens (§5.2: switches
            // notify hosts of upcoming circuit connections).
            let lead = 200;
            let at = now + (slice_ns - lead);
            q.schedule(at, Event::Timer(Timer::NotifyHosts(node)));
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
        q.schedule_after(now, tx + ELECTRICAL_CORE_NS, Event::HostRx(host, pkt));
    }

    fn on_downlink_free(&mut self, host: HostId, now: SimTime, q: &mut EventQueue<Event>) {
        let bw = self.cfg.host_link_bandwidth();
        let (pkt, tx) = self.downlinks[host.index()].pop(now, bw, Event::DownlinkFree(host), q);
        self.pkt_events += 1;
        q.schedule_after(now, tx, Event::HostRx(host, pkt));
    }

    fn on_host_rx(&mut self, host: HostId, pkt: PktRef, now: SimTime, q: &mut EventQueue<Event>) {
        // Delivered: the slot is free before any reply is written.
        let pkt = self.packets.remove(pkt);
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
                    q.schedule_after(
                        now,
                        5_000,
                        Event::Timer(Timer::NackRetx { flow: pkt.flow, seq: pkt.seq }),
                    );
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
            PacketKind::Probe { echo_of, is_reply } => {
                if is_reply {
                    // pkt.seq carries the forward hop count.
                    let total_hops = to_u8(pkt.seq) + pkt.hops;
                    for t in &mut self.probe_trains {
                        if t.src == host {
                            t.stats.record(echo_of, now, total_hops);
                            break;
                        }
                    }
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
                    reply.kind = PacketKind::Probe { echo_of, is_reply: true };
                    self.dispatch_from_host(host, reply, false, now, q);
                }
            }
        }
    }

    /// A push-back broadcast reached `host`: embargo the named destination
    /// until the named (cycle, slice) ends.
    fn on_host_control(&mut self, host: HostId, msg: PushBack) {
        self.counters.pushback_deliveries += 1;
        let slice_cfg = self.slice_cfg();
        let end =
            (msg.cycle * slice_cfg.num_slices as u64 + msg.slice as u64 + 1) * slice_cfg.slice_ns;
        self.hosts[host.index()].vma.block_until(msg.dst, SimTime::from_ns(end));
    }

    /// Schedule an `OffloadRecall` for `node` at `t` unless one is already
    /// outstanding at exactly that time (see the `recall_outstanding` field
    /// docs for why exact-time dedup is output-preserving).
    fn schedule_recall(&mut self, node: NodeId, t: SimTime, q: &mut EventQueue<Event>) {
        let out = &mut self.recall_outstanding[node.index()];
        if out.contains(&t) {
            return;
        }
        out.push(t);
        q.schedule(t, Event::OffloadRecall(node));
    }

    fn on_offload_recall(&mut self, node: NodeId, now: SimTime, q: &mut EventQueue<Event>) {
        let out = &mut self.recall_outstanding[node.index()];
        if let Some(i) = out.iter().position(|&t| t == now) {
            out.swap_remove(i);
        }
        let due = self.tors[node.index()].offload_due(now);
        for (abs, port, pkt) in due {
            // Host round trip: recall notify + host link serialization.
            let size = self.packets[pkt].size;
            let rtt = 2_000 + self.cfg.host_link_bandwidth().tx_time_ns(size as u64);
            self.pkt_events += 1;
            q.schedule_after(now, rtt, Event::Reinject(node, abs, port, pkt));
        }
        if let Some(t) = self.tors[node.index()].next_offload_recall() {
            self.schedule_recall(node, t.max(now + 1), q);
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
        let cur = self.tors[node.index()].abs_slice();
        let rank = to_u32(abs.saturating_sub(cur));
        let header = &mut self.packets[pkt];
        let trace = self.telemetry.trace_mut();
        let res = self.tors[node.index()].reinject_offloaded(pkt, header, port, rank, now, trace);
        self.after_admission(node, pkt, res.decision, now + 1, now, q);
    }

    fn on_timer(&mut self, timer: Timer, now: SimTime, q: &mut EventQueue<Event>) {
        match timer {
            Timer::FlowStart(idx) => {
                let p = self.pending_flows[idx];
                self.start_flow(
                    now,
                    p.src,
                    p.dst,
                    p.bytes,
                    p.transport,
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
                q.schedule_after(now, gap, Event::Timer(Timer::MemcachedOp { app, client_idx }));
            }
            Timer::FlowWatchdog(fid) => {
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
                q.schedule_after(now, WATCHDOG_NS, Event::Timer(Timer::FlowWatchdog(fid)));
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
                q.schedule(deadline.max(now + 1), Event::Timer(Timer::TcpRto(fid)));
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
                pkt.kind = PacketKind::Probe { echo_of: now, is_reply: false };
                self.dispatch_from_host(src, pkt, false, now, q);
                q.schedule_after(now, interval, Event::Timer(Timer::ProbeSend(t)));
            }
            Timer::Sample => {
                self.take_sample(now, q.stats());
                q.schedule_after(now, self.cfg.sample_every_ns, Event::Timer(Timer::Sample));
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
            Event::OffloadRecall(n) => self.on_offload_recall(n, now, q),
            Event::Reinject(n, abs, port, pkt) => self.on_reinject(n, abs, port, pkt, now, q),
            Event::HostControl(h, m) => self.on_host_control(h, m),
            Event::Timer(t) => self.on_timer(t, now, q),
        }
    }
}
