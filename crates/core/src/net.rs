//! The OpenOptics network object and user API (Table 1).
//!
//! A user creates an [`OpenOpticsNet`] from a static configuration, then
//! calls the topology, routing, and monitoring APIs — the Rust rendering of
//! the paper's Python front end. The composed entry point pairs an
//! [`Architecture`] descriptor with any compatible routing scheme:
//!
//! ```
//! use openoptics_core::{Architecture, NetConfig, OpenOpticsNet};
//! use openoptics_routing::algos::Vlb;
//! use openoptics_routing::{LookupMode, MultipathMode};
//!
//! let cfg = NetConfig::builder().node_num(8).uplink(1).slice_ns(100_000).build().unwrap();
//! let net = OpenOpticsNet::deploy(
//!     cfg,
//!     Architecture::rotornet(),
//!     Box::new(Vlb),
//!     LookupMode::PerHop,
//!     MultipathMode::PerPacket,
//! )
//! .unwrap();
//! assert!(!net.is_ta());
//! ```
//!
//! The primitive calls (`deploy_topo`, `deploy_routing`) remain available
//! for hand-built schedules.

use crate::arch::Architecture;
use crate::config::NetConfig;
use crate::engine::{Engine, Event, TransportKind};
use crate::error::Error;
use crate::json::{self, Text, Writer};
use openoptics_fabric::{Circuit, LayoutError, OcsLayout, OpticalSchedule, ScheduleError};
use openoptics_host::apps::MemcachedParams;
use openoptics_proto::{FlowId, HostId, NodeId, PortId};
use openoptics_routing::{LookupMode, MultipathMode, RouteEntry, RoutingAlgorithm};
use openoptics_sim::time::{SimTime, SliceConfig};
use openoptics_sim::{run, EventQueue};
use openoptics_topo::TrafficMatrix;
use std::fmt::Write;

/// Why a topology deployment was rejected: the circuits are not a valid
/// schedule (port conflicts, out-of-range references), they are not
/// physically realizable on the configured OCS structure, or the network is
/// already running on a different slice structure.
#[derive(Debug)]
pub enum DeployError {
    /// Logical schedule validation failed.
    Schedule(ScheduleError),
    /// Physical OCS-structure compilation failed.
    Layout(LayoutError),
    /// The network has run, and the schedule's slice structure is not the
    /// active one. Switch calendars and rotation timers are laid out for
    /// the slice structure the network started on (a held instance never
    /// started rotating at all), so it is fixed from the first run on;
    /// redeploy circuits freely, within the same number of slices.
    SliceStructure {
        /// The slice structure the running network rotates on.
        active: SliceConfig,
        /// The slice structure of the refused schedule.
        requested: SliceConfig,
    },
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Schedule(e) => write!(f, "schedule: {e}"),
            DeployError::Layout(e) => write!(f, "layout: {e}"),
            DeployError::SliceStructure { active, requested } => write!(
                f,
                "slice structure: the running network rotates on {} slice(s), the new schedule \
                 has {}; the slice structure is fixed once a network has run",
                active.num_slices, requested.num_slices
            ),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<ScheduleError> for DeployError {
    fn from(e: ScheduleError) -> Self {
        DeployError::Schedule(e)
    }
}

impl From<LayoutError> for DeployError {
    fn from(e: LayoutError) -> Self {
        DeployError::Layout(e)
    }
}

/// The user-facing network object.
///
/// `Clone` is derived, and a clone is a warm what-if branch: an
/// independent copy of the engine, the event queue and every telemetry,
/// trace and span buffer at the current instant. Running the clone and the
/// original produces two separate histories; each, run alone, is
/// byte-identical to an uninterrupted run.
#[derive(Clone)]
pub struct OpenOpticsNet {
    /// The engine carrying all network state.
    pub engine: Engine,
    queue: EventQueue<Event>,
    now: SimTime,
    staged: Vec<Circuit>,
    layout: OcsLayout,
    primed: bool,
    /// The architecture descriptor this network was deployed from
    /// ([`OpenOpticsNet::deploy`]); `None` for hand-built networks.
    arch: Option<Architecture>,
}

impl OpenOpticsNet {
    /// Create a network with an empty optical schedule (deploy one before
    /// running traffic).
    pub fn new(cfg: NetConfig) -> Self {
        let sched = OpticalSchedule::empty(cfg.slice_config(1), cfg.node_num, cfg.uplink);
        let fibers = cfg.node_num * u32::from(cfg.uplink);
        // Devices are sized to the cabling: every fiber gets a port.
        let layout = if cfg.ocs_count == 0 {
            OcsLayout::single(cfg.node_num, cfg.uplink, fibers)
                .expect("auto-sized single OCS always fits")
        } else {
            let k = cfg.ocs_count;
            let ports = fibers.div_ceil(u32::from(k));
            OcsLayout::build(k, ports, cfg.node_num, cfg.uplink, |_, p| p.0 % k)
                .expect("rail cabling fits when ports are auto-sized")
        };
        OpenOpticsNet {
            engine: Engine::new(cfg, sched),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            staged: vec![],
            layout,
            primed: false,
            arch: None,
        }
    }

    /// The unified composition entry point: build a network from an
    /// [`Architecture`] descriptor paired with `routing`. Applies the
    /// descriptor's config fixups, generates and deploys its schedule,
    /// installs the routing scheme (rejecting incompatible pairings with
    /// [`Error::Config`] — see [`crate::arch::check_compat`]), and installs
    /// the descriptor's dispatch/pause policies. The descriptor is retained
    /// so [`reconfigure`](Self::reconfigure) can regenerate the schedule
    /// later.
    pub fn deploy(
        cfg: NetConfig,
        arch: Architecture,
        routing: Box<dyn RoutingAlgorithm>,
        lookup: LookupMode,
        multipath: MultipathMode,
    ) -> Result<OpenOpticsNet, Error> {
        let mut cfg = cfg;
        arch.apply_defaults(&mut cfg);
        let mut net = OpenOpticsNet::new(cfg);
        if let Some((circuits, slices)) = arch.generate(&net.engine.cfg, &[]) {
            net.deploy_topo(&circuits, slices)?;
        }
        net.deploy_routing_boxed(routing, lookup, multipath)?;
        arch.install_policies(&mut net.engine);
        net.arch = Some(arch);
        Ok(net)
    }

    /// [`deploy`](Self::deploy) with the architecture's canonical routing
    /// pairing ([`Architecture::default_routing`]).
    pub fn deploy_preset(cfg: NetConfig, arch: Architecture) -> Result<OpenOpticsNet, Error> {
        let (algo, lookup, multipath) = arch.default_routing();
        OpenOpticsNet::deploy(cfg, arch, algo, lookup, multipath)
    }

    /// The single reconfigure hook: retarget the stored architecture's
    /// schedule generator at `tm` and redeploy the regenerated schedule
    /// through [`deploy_topo`](Self::deploy_topo) — instant before the
    /// first run, an OCS move on a running network, with the same rules.
    /// Before or after traffic is attached: the installed routing scheme
    /// and everything attached to the network are preserved. Errors with
    /// [`Error::Config`] on networks not built via [`deploy`](Self::deploy).
    pub fn reconfigure(&mut self, tm: &TrafficMatrix) -> Result<(), Error> {
        let mut arch = self.arch.take().ok_or_else(|| {
            Error::Config(crate::config::ConfigError {
                field: "architecture",
                reason: "reconfigure() needs a network built by OpenOpticsNet::deploy \
                         (hand-built networks redeploy via deploy_topo)"
                    .to_string(),
            })
        })?;
        arch.schedule_mut().retarget(tm);
        let result = self.redeploy_schedule(&arch);
        self.arch = Some(arch);
        result
    }

    /// The architecture descriptor this network was deployed from, if any.
    pub fn arch(&self) -> Option<&Architecture> {
        self.arch.as_ref()
    }

    /// Mutable access to the stored architecture descriptor (reconfigure
    /// wrappers adjust generator parameters before regenerating).
    pub fn arch_mut(&mut self) -> Option<&mut Architecture> {
        self.arch.as_mut()
    }

    fn redeploy_schedule(&mut self, arch: &Architecture) -> Result<(), Error> {
        let prev = self.engine.schedule().circuits().to_vec();
        if let Some((circuits, slices)) = arch.generate(&self.engine.cfg, &prev) {
            self.deploy_topo(&circuits, slices)?;
        }
        Ok(())
    }

    /// The physical OCS cabling this network was configured with.
    pub fn layout(&self) -> &OcsLayout {
        &self.layout
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The primitive `connect()` call: stage one circuit. Loopback circuits
    /// (a node to itself) are immediately invalid.
    pub fn connect(&mut self, circuit: Circuit) -> Result<(), Error> {
        if circuit.is_loopback() {
            return Err(Error::LoopbackCircuit(circuit));
        }
        self.staged.push(circuit);
        Ok(())
    }

    /// Circuits staged via [`OpenOpticsNet::connect`].
    pub fn staged_circuits(&self) -> &[Circuit] {
        &self.staged
    }

    /// `deploy_topo()`: validate `circuits` for a `num_slices`-slice cycle
    /// and install them. Either way only the schedule changes: flows, apps,
    /// services, fault plans, routing and policies already attached stay
    /// attached.
    ///
    /// Before the first run the swap is instant. On a network that has run
    /// the OCS has to move: the whole fabric is dark for `ocs_reconfig_ns`,
    /// the old schedule stays the active one until the move lands, and at
    /// that instant routes and the link-down mask switch to the new
    /// circuits and switches re-notify their hosts. The slice structure is
    /// fixed once running — a schedule with a different slice count is
    /// refused with [`DeployError::SliceStructure`] and changes nothing.
    pub fn deploy_topo(
        &mut self,
        circuits: &[Circuit],
        num_slices: u32,
    ) -> Result<(), DeployError> {
        let cfg = &self.engine.cfg;
        let slices = cfg.slice_config(num_slices);
        let sched = OpticalSchedule::build(slices, cfg.node_num, cfg.uplink, circuits)?;
        // Physical feasibility: every circuit must compile onto one OCS of
        // the configured structure (§4.2's controller sanity check).
        self.layout.compile(circuits)?;
        let running = self.primed.then_some((self.now, &mut self.queue));
        self.engine.deploy_schedule(sched, running)
    }

    /// Deploy the staged circuits (then clear the staging area).
    pub fn deploy_staged(&mut self, num_slices: u32) -> Result<(), DeployError> {
        let staged = std::mem::take(&mut self.staged);
        self.deploy_topo(&staged, num_slices)
    }

    /// `deploy_routing()`: install a routing scheme. Entries are compiled
    /// lazily per (node, destination, arrival slice) as traffic needs them —
    /// equivalent to the paper's offline precomputation, evaluated on
    /// demand. `LookupMode::SourceRouting` is forced for schemes that
    /// require it.
    ///
    /// The scheme's declared capabilities are checked against the deployed
    /// schedule first ([`crate::arch::check_compat`]); an incompatible
    /// pairing — a TO scheme on a held instance, source routing on a
    /// real-OCS fabric, a within-instance search over sparse matchings —
    /// returns [`Error::Config`] instead of compiling silently-wrong
    /// tables. Deploy the topology **before** the routing scheme.
    pub fn deploy_routing<A: RoutingAlgorithm + 'static>(
        &mut self,
        algo: A,
        lookup: LookupMode,
        multipath: MultipathMode,
    ) -> Result<(), Error> {
        self.deploy_routing_boxed(Box::new(algo), lookup, multipath)
    }

    /// [`deploy_routing`](Self::deploy_routing) for an already-boxed scheme
    /// (the sweep harness composes pairings dynamically).
    pub fn deploy_routing_boxed(
        &mut self,
        algo: Box<dyn RoutingAlgorithm>,
        lookup: LookupMode,
        multipath: MultipathMode,
    ) -> Result<(), Error> {
        crate::arch::check_compat(
            algo.as_ref(),
            self.engine.schedule(),
            self.engine.cfg.emulated_fabric,
        )?;
        let lookup =
            if algo.requires_source_routing() { LookupMode::SourceRouting } else { lookup };
        self.engine.set_router(algo, lookup, multipath);
        Ok(())
    }

    /// Whether the deployed schedule is a single topology instance (TA) as
    /// opposed to a rotating TO schedule.
    pub fn is_ta(&self) -> bool {
        self.engine.schedule().slice_config().num_slices == 1
    }

    /// `add()`: install one time-flow table entry directly (debugging).
    pub fn add(&mut self, entry: RouteEntry) -> Result<(), Error> {
        let node = entry.node;
        if node.0 >= self.engine.cfg.node_num {
            return Err(Error::NodeOutOfRange { node, node_num: self.engine.cfg.node_num });
        }
        self.engine.tor_mut(node).install_routes([entry]);
        Ok(())
    }

    /// `collect(interval)`: run the network for `interval` and return the
    /// traffic matrix observed in that window.
    pub fn collect(&mut self, interval: SimTime) -> TrafficMatrix {
        self.engine.take_traffic_matrix(); // reset window
        self.run_for(interval);
        self.engine.take_traffic_matrix()
    }

    /// The c-Through-style collection mode: hosts report their pending
    /// per-destination demand (vma queue depths) instead of historical
    /// volume — what a TA controller sizes circuits against (§5.2).
    pub fn collect_pending(&self) -> TrafficMatrix {
        self.engine.host_pending_demand()
    }

    /// `buffer_usage(node, port)`: bytes buffered in the port's calendar
    /// queues right now.
    pub fn buffer_usage(&self, node: NodeId, port: PortId) -> u64 {
        self.engine.tor(node).port_buffer_bytes(port)
    }

    /// `bw_usage(node, port)`: bytes transmitted by the port so far.
    pub fn bw_usage(&self, node: NodeId, port: PortId) -> u64 {
        self.engine.port_tx_bytes(node, port)
    }

    // -- workload & execution ----------------------------------------------

    /// Declare a service: a named latency stream flows can be tagged with,
    /// with optional SLO accounting. Returns the service id used for
    /// tagging; declaration order is the id order. Declare services before
    /// the first run so scenario-driven and programmatic setups assign
    /// identical ids.
    pub fn declare_service(
        &mut self,
        name: &str,
        slo: Option<openoptics_telemetry::SloTarget>,
    ) -> u16 {
        assert!(!self.primed, "declare services before the first run");
        self.engine.declare_service(name, slo)
    }

    /// Schedule a flow (before or during the run). `at` must not be in the
    /// simulated past once the network is running.
    pub fn add_flow(
        &mut self,
        at: SimTime,
        src: HostId,
        dst: HostId,
        bytes: u64,
        transport: TransportKind,
    ) {
        self.add_flow_tagged(at, src, dst, bytes, transport, None);
    }

    /// [`OpenOpticsNet::add_flow`] with a service tag: the flow's FCT
    /// reports into the service's latency sketch and SLO accounting.
    pub fn add_flow_tagged(
        &mut self,
        at: SimTime,
        src: HostId,
        dst: HostId,
        bytes: u64,
        transport: TransportKind,
        service: Option<u16>,
    ) {
        let idx = self.engine.add_flow_tagged(at, src, dst, bytes, transport, service);
        if self.primed {
            assert!(at >= self.now, "cannot start a flow in the simulated past");
            self.queue.schedule(at, Event::Timer(crate::engine::Timer::FlowStart(idx)));
        }
    }

    /// Inject a fault campaign (before or during the run). The plan is
    /// validated against this network's shape first; window starts must not
    /// lie in the simulated past. Each window edge becomes an ordinary
    /// `(time, seq)` event on the calendar queue, so the same plan + seed
    /// reproduces identical [`fault_report`](Self::fault_report) counters
    /// on every run. May be called repeatedly; new windows extend the
    /// campaign.
    pub fn inject_faults(&mut self, plan: &openoptics_faults::FaultPlan) -> Result<(), Error> {
        let not_before = if self.primed { self.now } else { SimTime::ZERO };
        let range = self.engine.set_fault_plan(plan, not_before).map_err(Error::from)?;
        if self.primed {
            // Mirror add_flow: post-prime campaigns schedule their own
            // window edges (prime() handles the pre-run case).
            self.engine.schedule_fault_edges(range, &mut self.queue);
        }
        Ok(())
    }

    /// Results of the injected fault campaign so far: campaign-wide
    /// delivery/retransmission totals plus per-fault counters (empty when
    /// no plan was injected). Deterministic for a given plan + seed.
    pub fn fault_report(&self) -> openoptics_faults::FaultReport {
        self.engine.fault_report()
    }

    /// Attach a memcached app: `clients` SET to `server` until `stop_at`.
    pub fn add_memcached(
        &mut self,
        params: MemcachedParams,
        server: HostId,
        clients: Vec<HostId>,
        stop_at: SimTime,
    ) -> usize {
        self.add_memcached_tagged(params, server, clients, stop_at, None)
    }

    /// [`OpenOpticsNet::add_memcached`] with a service tag: each op's
    /// request→response latency reports under the service's SLO.
    pub fn add_memcached_tagged(
        &mut self,
        params: MemcachedParams,
        server: HostId,
        clients: Vec<HostId>,
        stop_at: SimTime,
        service: Option<u16>,
    ) -> usize {
        assert!(!self.primed, "attach apps before the first run");
        self.engine.add_memcached_tagged(params, server, clients, stop_at, service)
    }

    /// Attach a ring allreduce over `hosts` of `data_bytes`.
    pub fn add_allreduce(&mut self, hosts: Vec<HostId>, data_bytes: u64) -> usize {
        self.add_allreduce_tagged(hosts, data_bytes, None)
    }

    /// [`OpenOpticsNet::add_allreduce`] with a service tag: every chunk
    /// flow's FCT reports under the service's SLO.
    pub fn add_allreduce_tagged(
        &mut self,
        hosts: Vec<HostId>,
        data_bytes: u64,
        service: Option<u16>,
    ) -> usize {
        assert!(!self.primed, "attach apps before the first run");
        self.engine.add_allreduce_tagged(hosts, data_bytes, service)
    }

    /// Attach a UDP probe train: `count` probes of `payload` bytes from
    /// `src` to `dst` every `interval_ns`.
    pub fn add_probe_train(
        &mut self,
        src: HostId,
        dst: HostId,
        interval_ns: u64,
        count: u64,
        payload: u32,
    ) -> usize {
        assert!(!self.primed, "attach apps before the first run");
        self.engine.add_probe_train(src, dst, interval_ns, count, payload)
    }

    // -- telemetry ---------------------------------------------------------

    /// The metrics registry the network reports into. Disabled (no
    /// storage, zero hot-path cost) when the configuration said
    /// `telemetry: false`.
    pub fn telemetry(&self) -> &openoptics_telemetry::Registry {
        self.engine.telemetry()
    }

    /// A deterministic snapshot of every metric at the current simulation
    /// time: engine-side plain counters are mirrored into the registry
    /// first, so the snapshot is complete. Stamped in sim time only —
    /// byte-identical across runs.
    pub fn telemetry_snapshot(&self) -> openoptics_telemetry::Snapshot {
        self.engine.sync_telemetry(self.queue.stats());
        self.engine.telemetry().snapshot(self.now)
    }

    /// Export the current telemetry snapshot as `"json"` or `"csv"`.
    /// Errors if telemetry is disabled or the format is unknown.
    pub fn export_telemetry(&self, format: &str) -> Result<String, Error> {
        self.telemetry_on()?;
        let snap = self.telemetry_snapshot();
        match format {
            "json" => Ok(snap.to_json()),
            "csv" => Ok(snap.to_csv()),
            other => {
                Err(openoptics_telemetry::TelemetryError::UnknownFormat(other.to_string()).into())
            }
        }
    }

    fn telemetry_on(&self) -> Result<(), Error> {
        if !self.engine.telemetry().is_enabled() {
            return Err(openoptics_telemetry::TelemetryError::Disabled.into());
        }
        Ok(())
    }

    /// The trace-event stream captured so far, one JSON object per line
    /// (first [`crate::engine::TRACE_CAPACITY`] events; later ones are
    /// counted as dropped).
    pub fn export_trace(&self) -> Result<String, Error> {
        to_text(|t| self.write_trace(t))
    }

    /// [`OpenOpticsNet::export_trace`] into a text sink; on an error
    /// nothing is written (so for every `write_*` export here).
    pub fn write_trace(&self, t: &mut Text<'_>) -> Result<(), Error> {
        self.telemetry_on()?;
        self.engine.telemetry().trace().write_json_lines(t);
        Ok(())
    }

    /// The sampled time series as JSON lines, one [`SampleRow`] per line
    /// (see [`openoptics_telemetry::SampleRow::to_json`]). Errors when
    /// telemetry is disabled or sampling was never configured
    /// (`sample_every_ns == 0`). Byte-identical across runs.
    ///
    /// [`SampleRow`]: openoptics_telemetry::SampleRow
    pub fn export_timeseries(&self) -> Result<String, Error> {
        to_text(|t| self.write_timeseries(t))
    }

    /// [`OpenOpticsNet::export_timeseries`] into a text sink.
    pub fn write_timeseries(&self, t: &mut Text<'_>) -> Result<(), Error> {
        self.telemetry_on()?;
        if self.engine.cfg.sample_every_ns == 0 {
            return Err(openoptics_telemetry::TelemetryError::Disabled.into());
        }
        json::write_lines(t, self.engine.timeseries().rows());
        Ok(())
    }

    /// A deterministic plain-text SLO report: per-flow-class latency
    /// quantiles followed by one row per declared service (count,
    /// p50/p99/p999, SLO burn and fault attribution). Errors when telemetry
    /// is disabled.
    pub fn export_slo_report(&self) -> Result<String, Error> {
        to_text(|t| self.write_slo_report(t))
    }

    /// [`OpenOpticsNet::export_slo_report`] into a text sink.
    pub fn write_slo_report(&self, out: &mut impl Write) -> Result<(), Error> {
        self.telemetry_on()?;
        let _ = writeln!(out, "== openoptics slo report @ {} ns ==", self.now.as_ns());
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>12} {:>12} {:>12}",
            "class", "count", "p50_ns", "p99_ns", "p999_ns"
        );
        for (name, sk) in crate::engine::FLOW_CLASSES.iter().zip(self.engine.class_sketches()) {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>12} {:>12} {:>12}",
                name,
                sk.count(),
                sk.p50(),
                sk.p99(),
                sk.p999()
            );
        }
        let services = self.slo_summaries();
        if !services.is_empty() {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>12} {:>12} {:>12} {:>8} {:>12} {:>10} {:>8}",
                "service",
                "count",
                "p50_ns",
                "p99_ns",
                "p999_ns",
                "bad",
                "bad_fault",
                "burn_mil",
                "breach"
            );
            for s in &services {
                let (bad, bad_fault, burn, breach) = if s.has_target {
                    (
                        s.bad.to_string(),
                        s.bad_in_fault.to_string(),
                        s.burn_milli.to_string(),
                        if s.breached { "yes" } else { "no" }.to_string(),
                    )
                } else {
                    ("-".into(), "-".into(), "-".into(), "-".into())
                };
                let _ = writeln!(
                    out,
                    "{:<12} {:>8} {:>12} {:>12} {:>12} {:>8} {:>12} {:>10} {:>8}",
                    s.service, s.count, s.p50_ns, s.p99_ns, s.p999_ns, bad, bad_fault, burn, breach
                );
            }
        }
        Ok(())
    }

    /// Per-service SLO summaries (empty when no services were declared).
    pub fn slo_summaries(&self) -> Vec<openoptics_telemetry::SloSummary> {
        self.engine.services().iter().map(|s| s.summary()).collect()
    }

    /// The subscription frame stream captured so far: sample rows, SLO
    /// state transitions, and flight-recorder dumps, in emission order.
    /// [`Engine::write_frame`] turns one into its JSON value.
    pub fn frames(&self) -> &openoptics_telemetry::FrameLog {
        self.engine.frames()
    }

    /// The recorded spans, one settled row per span: what every span
    /// export renders, and the programmatic view of the span trees
    /// ([`openoptics_obs::SpanTable::spans`]). Errors when span recording
    /// is off.
    pub fn span_table(&self) -> Result<openoptics_obs::SpanTable, Error> {
        if !self.engine.has_span_recording() {
            return Err(openoptics_obs::ObsError::Disabled.into());
        }
        self.engine.span_table(self.now).map_err(|e| openoptics_obs::ObsError::from(e).into())
    }

    /// The recorded lifecycle spans as Chrome trace-event JSON (loadable
    /// in Perfetto / `chrome://tracing`). Requires `span_sample_every > 0`
    /// in the configuration; errors when span recording is off. Stamped in
    /// sim time only — byte-identical across runs.
    pub fn export_spans_chrome_trace(&self) -> Result<String, Error> {
        Ok(json::render(&self.span_table()?))
    }

    /// [`OpenOpticsNet::export_spans_chrome_trace`] into a writer.
    pub fn write_spans_chrome_trace(&self, w: &mut Writer) -> Result<(), Error> {
        w.value(&self.span_table()?);
        Ok(())
    }

    /// The recorded lifecycle spans as a deterministic plain-text report:
    /// stage totals plus per-flow lifecycle trees. Errors when span
    /// recording is off.
    pub fn export_span_report(&self) -> Result<String, Error> {
        to_text(|t| self.write_span_report(t))
    }

    /// [`OpenOpticsNet::export_span_report`] into a text sink.
    pub fn write_span_report(&self, t: &mut Text<'_>) -> Result<(), Error> {
        self.span_table()?.write_report(t);
        Ok(())
    }

    /// The deterministic sim-time profiler report: per engine phase, the
    /// event count and the simulated time attributed to it. Requires
    /// telemetry; errors when disabled.
    pub fn profiler_report(&self) -> Result<String, Error> {
        if !self.engine.profiler().is_on() {
            return Err(openoptics_obs::ObsError::Disabled.into());
        }
        Ok(self.engine.profiler().report())
    }

    /// Install a wall-clock source for profiler self-timing (the simulator
    /// never reads host time itself — callers inject an `Instant`-based
    /// closure). No-op when telemetry is disabled.
    pub fn set_profiler_clock(&self, clock: impl Fn() -> u64 + 'static) {
        self.engine.profiler().set_clock(clock);
    }

    /// Run for `total` simulated time, taking a telemetry snapshot every
    /// `every` (and a final one at the end). The periodic-snapshot loop of
    /// a monitoring study: snapshots land at deterministic sim times.
    pub fn run_with_snapshots(
        &mut self,
        total: SimTime,
        every: SimTime,
    ) -> Vec<openoptics_telemetry::Snapshot> {
        let step = every.as_ns().max(1);
        let mut snaps = vec![];
        let end = self.now + total.as_ns();
        while self.now < end {
            let chunk = step.min(end.as_ns() - self.now.as_ns());
            self.run_for(SimTime::from_ns(chunk));
            snaps.push(self.telemetry_snapshot());
        }
        snaps
    }

    /// Run the simulation for `dur` more simulated time. Where a driver
    /// pauses never changes the result: `run_for(a)` then `run_for(b)` is
    /// `run_for(a + b)`.
    pub fn run_for(&mut self, dur: SimTime) {
        if !self.primed {
            self.engine.prime(&mut self.queue);
            self.primed = true;
        }
        let until = self.now + dur.as_ns();
        run(&mut self.engine, &mut self.queue, until);
        self.now = until;
        if cfg!(feature = "strict-invariants") {
            self.engine.assert_packets_conserved();
            self.engine.assert_queue_summaries();
        }
    }

    /// Completed-flow FCT statistics.
    pub fn fct(&self) -> &openoptics_workload::FctStats {
        &self.engine.fct
    }

    /// Total events scheduled on this network's event queue so far — the
    /// natural unit of simulation work (events/second is the engine's
    /// throughput metric).
    pub fn events_scheduled(&self) -> u64 {
        self.queue.scheduled_total()
    }

    /// Bytes delivered for a flow so far.
    pub fn flow_delivered(&self, flow: FlowId) -> u64 {
        self.engine.flow_delivered(flow)
    }

    /// Point-in-time event-queue statistics (pending/peak/far/overlay
    /// counters).
    pub fn queue_stats(&self) -> openoptics_sim::QueueStats {
        self.queue.stats()
    }
}

/// A text export as a `String`: what `write` puts into an unescaped sink.
fn to_text(write: impl FnOnce(&mut Text<'_>) -> Result<(), Error>) -> Result<String, Error> {
    let mut result = Ok(());
    let text = json::text(|t| result = write(t));
    result.map(|()| text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_routing::algos::{Direct, Vlb};
    use openoptics_topo::round_robin;

    fn small_cfg() -> NetConfig {
        NetConfig {
            node_num: 4,
            uplink: 1,
            hosts_per_node: 1,
            slice_ns: 10_000,
            guard_ns: 200,
            sync_err_ns: 0,
            ..Default::default()
        }
    }

    fn rotor_net(cfg: &NetConfig) -> OpenOpticsNet {
        let mut net = OpenOpticsNet::new(cfg.clone());
        let (circuits, slices) = round_robin(cfg.node_num, cfg.uplink);
        net.deploy_topo(&circuits, slices).expect("test circuits are well-formed");
        net
    }

    #[test]
    fn sampling_and_slo_accounting_are_live() {
        let cfg = NetConfig { sample_every_ns: 100_000, ..small_cfg() };
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("VLB deploys on the test topology");
        let svc = net.declare_service(
            "bulk",
            Some(openoptics_telemetry::SloTarget {
                latency_ns: 1,
                objective_milli: 999,
                window_ns: 1_000_000,
            }),
        );
        net.add_flow_tagged(
            SimTime::from_ns(100),
            HostId(0),
            HostId(3),
            50_000,
            TransportKind::Paced,
            Some(svc),
        );
        net.run_for(SimTime::from_ms(2));
        // Sampling ticked: rows recorded and mirrored into the frame log.
        let ts = net.export_timeseries().expect("sampling is on");
        assert!(ts.lines().count() >= 2, "expected multiple sample rows, got:\n{ts}");
        assert!(!net.frames().is_empty());
        // The tagged flow completed against an unmeetable SLO target.
        let report = net.export_slo_report().expect("telemetry is on");
        assert!(report.contains("bulk"), "service row missing:\n{report}");
        let s = &net.slo_summaries()[svc as usize];
        assert_eq!(s.count, 1);
        assert_eq!(s.bad, 1);
        assert!(s.breached);
        // Disabled sampling errors out.
        let mut off = rotor_net(&small_cfg());
        off.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("testbed routing deploys");
        off.run_for(SimTime::from_ms(1));
        assert!(off.export_timeseries().is_err());
    }

    /// The handles `sync_telemetry` writes through were bound against one
    /// registry. A clone binds its own: running it moves the series it
    /// mirrors and no cell of the parent. A fault plan installed after
    /// the first tick lengthens the sequence, and its series still export.
    #[test]
    fn a_fork_mirrors_into_its_own_registry_and_late_faults_export(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let cfg = NetConfig { sample_every_ns: 100_000, ..small_cfg() };
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)?;
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(3), 4 << 20, TransportKind::Paced);
        net.run_for(SimTime::from_us(250));
        assert_eq!(net.engine.timeseries().len(), 2, "two ticks bound the handles");
        let exported = net.export_telemetry("json")?;
        let raw = net.telemetry().snapshot(net.now());
        assert!(!exported.contains("faults."), "no plan yet:\n{exported}");

        let mut fork = net.clone();
        assert_eq!(fork.export_telemetry("json")?, exported);
        let plan = openoptics_faults::FaultPlan::builder()
            .link_down(NodeId(0), PortId(0), 300_000, 400_000)
            .build()?;
        fork.inject_faults(&plan)?;
        fork.run_for(SimTime::from_us(500));
        let moved = fork.telemetry_snapshot();
        assert!(moved.counter("sim.events_popped") > raw.counter("sim.events_popped"));
        assert!(
            moved.counter("engine.delivered_packets") > raw.counter("engine.delivered_packets")
        );
        assert!(moved.counters.iter().any(|(name, _)| name.starts_with("faults.")));
        let last = fork.engine.timeseries().rows().last().ok_or("no rows")?;
        assert!(last.counters.iter().any(|(name, _)| name.starts_with("faults.")));

        // Read without mirroring first: what the fork's ticks would have
        // overwritten had they kept the parent's handles.
        assert_eq!(net.telemetry().snapshot(net.now()), raw, "the fork wrote the parent's cells");
        assert_eq!(net.export_telemetry("json")?, exported);
        Ok(())
    }

    #[test]
    fn single_flow_completes_over_rotor() {
        let cfg = small_cfg();
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("VLB deploys on the test topology");
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(3), 50_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(5));
        assert_eq!(net.fct().completed().len(), 1, "flow must complete");
        let rec = net.fct().completed()[0];
        assert_eq!(rec.bytes, 50_000);
        assert!(rec.fct_ns() > 0);
    }

    #[test]
    fn direct_routing_waits_for_circuits() {
        let cfg = small_cfg();
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Direct, LookupMode::PerHop, MultipathMode::None)
            .expect("direct routing deploys on the test topology");
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(2), 10_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(5));
        assert_eq!(net.fct().completed().len(), 1);
    }

    #[test]
    fn connect_rejects_loopback() {
        let cfg = small_cfg();
        let mut net = OpenOpticsNet::new(cfg);
        let e = net.connect(Circuit::held(NodeId(1), PortId(0), NodeId(1), PortId(0)));
        assert!(matches!(e, Err(Error::LoopbackCircuit(_))));
        assert!(net.connect(Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0))).is_ok());
        assert_eq!(net.staged_circuits().len(), 1);
    }

    #[test]
    fn deploy_topo_rejects_conflicts() {
        let cfg = small_cfg();
        let mut net = OpenOpticsNet::new(cfg);
        let bad = vec![
            Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0)),
            Circuit::held(NodeId(0), PortId(0), NodeId(2), PortId(0)),
        ];
        assert!(net.deploy_topo(&bad, 1).is_err());
    }

    #[test]
    fn collect_sees_traffic() {
        let cfg = small_cfg();
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("VLB deploys on the test topology");
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(3), 100_000, TransportKind::Paced);
        let tm = net.collect(SimTime::from_ms(5));
        assert!(tm.get(NodeId(0), NodeId(3)) > 0.0, "TM must record the flow");
    }

    #[test]
    fn missing_router_counts_no_route_drops() {
        // Topology deployed but no routing scheme: packets die at the first
        // lookup and the drop is attributed correctly.
        let cfg = small_cfg();
        let mut net = rotor_net(&cfg);
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(3), 20_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(2));
        assert_eq!(net.fct().completed().len(), 0);
        assert!(net.engine.counters.no_route_drops > 0);
    }

    #[test]
    fn electrical_uplink_overflow_counts_link_drops() {
        // Three hosts flood one 1 Gbps electrical fabric far beyond its
        // 16 MB uplink queue.
        let mut cfg = small_cfg();
        cfg.electrical_gbps = 1;
        cfg.hosts_per_node = 3;
        let mut net = OpenOpticsNet::deploy_preset(cfg, Architecture::clos())
            .expect("clos deploys on the test config");
        net.engine.watchdog_retransmit = false;
        for h in [0u32, 1, 2] {
            net.add_flow(
                SimTime::from_ns(100),
                HostId(h),
                HostId(9),
                30_000_000,
                TransportKind::Paced,
            );
        }
        net.run_for(SimTime::from_ms(10));
        assert!(
            net.engine.counters.link_drops > 0,
            "overflowing the electrical uplink must surface as link drops"
        );
    }

    #[test]
    fn tdtcp_flow_completes_end_to_end() {
        use openoptics_host::tcp::TcpConfig;
        let cfg = small_cfg();
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("VLB deploys on the test topology");
        net.add_flow(
            SimTime::from_ns(100),
            HostId(0),
            HostId(3),
            500_000,
            TransportKind::TdTcp(TcpConfig::default()),
        );
        net.run_for(SimTime::from_ms(100));
        assert_eq!(net.fct().completed().len(), 1, "TDTCP flow must finish");
    }

    #[test]
    fn bw_usage_accumulates() {
        let cfg = small_cfg();
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("VLB deploys on the test topology");
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(3), 100_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(5));
        assert!(net.bw_usage(NodeId(0), PortId(0)) > 0);
    }

    /// Events the engine dispatched (or entered, for a sub-phase) in
    /// `phase` so far; telemetry must be on.
    fn phase_events(net: &OpenOpticsNet, phase: openoptics_obs::Phase) -> u64 {
        let stats = net.engine.profiler().stats();
        stats.iter().find(|(p, _)| *p == phase).expect("telemetry is on").1.events
    }

    /// When each packet started to serialize, in order, for every recorded
    /// packet (span recording must sample every flow).
    fn departures(net: &OpenOpticsNet) -> Vec<(u64, SimTime)> {
        let table = net.span_table().expect("span recording is on");
        let serialized =
            table.spans().filter(|(_, r)| r.stage == openoptics_obs::Stage::Serialization);
        serialized.map(|(_, r)| (r.packet, r.begin)).collect()
    }

    #[test]
    fn an_idle_link_costs_no_event() {
        // One packet across a 2-ToR rotornet: one optical hop, then the
        // destination host's downlink. Each transmission leaves its queue
        // empty, so neither link runs a free event after it; each runs
        // only the one that sends the packet.
        let cfg = NetConfig { node_num: 2, ..small_cfg() };
        let mut net = OpenOpticsNet::new(cfg);
        let circuit = |s| Circuit::in_slice(NodeId(0), PortId(0), NodeId(1), PortId(0), s);
        net.deploy_topo(&[circuit(0), circuit(1)], 2).expect("a two-slice rotation deploys");
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("VLB deploys on the test topology");
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(1), 1_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(1));
        assert_eq!(net.fct().completed().len(), 1, "the packet arrives");
        use openoptics_obs::Phase;
        let frees = (phase_events(&net, Phase::PortFree), phase_events(&net, Phase::DownlinkFree));
        assert_eq!(frees, (1, 1));
    }

    /// A 1 Gbps uplink serializes ToR 0's first packet for ~8.5 us, and the
    /// schedule is redeployed while it does: the same rotation one slice
    /// later (a real move, same slice structure) whose OCS move lands long
    /// before the port frees. Returns the network just after the redeploy,
    /// its configuration, the first packet's id and when it left, and the
    /// events pending just before the redeploy.
    fn move_during_an_idle_gap() -> (OpenOpticsNet, NetConfig, u64, SimTime, usize) {
        let cfg = NetConfig {
            slice_ns: 20_000,
            guard_ns: 1_000,
            uplink_gbps: 1,
            ocs_reconfig_ns: 1_000,
            span_sample_every: 1,
            ..small_cfg()
        };
        let mut net = rotor_net(&cfg);
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
            .expect("VLB deploys on the test topology");
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(1), 1_000, TransportKind::Paced);
        net.run_for(SimTime::from_ns(2_000));
        let [(first, left)] = departures(&net)[..] else { panic!("one packet has left") };
        let free_at = left + cfg.uplink_bandwidth().tx_time_ns(1_000 + 64);
        assert!(free_at > SimTime::from_ns(2_000 + cfg.ocs_reconfig_ns), "the move lands first");
        let (mut circuits, slices) = round_robin(cfg.node_num, cfg.uplink);
        for c in &mut circuits {
            c.slice = c.slice.map(|s| (s + 1) % slices);
        }
        let pending = net.queue_stats().len;
        net.deploy_topo(&circuits, slices).expect("same slice structure");
        (net, cfg, first, left, pending)
    }

    #[test]
    fn a_move_during_an_idle_gap_holds_the_next_packet_to_the_new_guardband() {
        let (mut net, cfg, first, left, _) = move_during_an_idle_gap();
        // The next packet on ToR 0's port reaches the switch 500 ns after
        // leaving its host, 200 ns into slice 1 — after the port freed, and
        // inside a guardband of the new schedule. It leaves when that closes.
        net.add_flow(SimTime::from_ns(19_700), HostId(0), HostId(2), 1_000, TransportKind::Paced);
        net.run_for(SimTime::from_ns(40_000));
        let sc = net.engine.schedule().slice_config();
        let arrival = SimTime::from_ns(20_200);
        let free_at = left + cfg.uplink_bandwidth().tx_time_ns(1_000 + 64);
        assert!(sc.in_guardband(arrival) && free_at < arrival);
        let next = departures(&net).into_iter().find(|&(pkt, _)| pkt != first).map(|(_, at)| at);
        assert_eq!(next, Some(sc.slice_start(arrival) + sc.guard_ns));
    }

    #[test]
    fn a_move_schedules_an_idle_ports_free_event_at_once() {
        // One host notification per switch, and the free event ToR 0's port
        // left out, scheduled under the sequence number it reserved: until
        // the move lands, every port runs exactly the events it would if
        // none were ever left out.
        let (net, cfg, _, _, pending) = move_during_an_idle_gap();
        assert_eq!(net.queue_stats().len, pending + cfg.node_num as usize + 1);
    }
}
