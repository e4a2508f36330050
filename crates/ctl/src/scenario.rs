//! The versioned scenario-file format.
//!
//! A scenario is one declarative JSON document describing a whole run:
//! topology/engine configuration ([`NetConfig`](openoptics_core::NetConfig)),
//! an architecture × routing
//! pairing, a workload list, a fault campaign, and a stop time. Parsing is
//! strict about *types* and *names* (a misspelled architecture or a string
//! where a number belongs is a [`ScenarioError`] pointing at the offending
//! field) while unknown keys are ignored, so files stay forward-compatible
//! and keys starting with `#` work as comments.
//!
//! [`Scenario::to_json`] renders a normalized form with a fixed key order
//! and deterministic number formatting; `parse → to_json` is a fixed point
//! (re-parsing the normalized form and rendering again is byte-identical),
//! which is what lets checkpoints embed their scenario by value.

use std::fmt;

use openoptics_core::json::{self, Json, Reader, ToJson, Writer};
use openoptics_core::{
    Architecture, FaultKind, FaultPlan, FaultSpec, NetConfig, OpenOpticsNet, PresetShape,
    TransportKind,
};
use openoptics_host::apps::MemcachedParams;
use openoptics_host::TcpConfig;
use openoptics_proto::{HostId, NodeId, PortId};
use openoptics_routing::algos;
use openoptics_routing::{LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics_sim::SimTime;
use openoptics_topo::TrafficMatrix;

/// The scenario file format version this crate reads and writes.
pub const SCENARIO_VERSION: u64 = 1;

// Shape bounds. One server process hosts every session, so a document must
// not be able to ask for more memory than the process has: each bound caps
// one allocation that grows with a number the document controls. The
// largest configuration in the repository is 128 nodes; paper scale is
// 108 nodes x 6 uplinks x 32 queues.

/// The largest `config.node_num`. Parsing alone builds an `n x n` `f64` traffic
/// matrix: 8 MiB at this bound (at `u32::MAX` it would be 147 EB).
pub const MAX_NODES: u32 = 1 << 10;
/// The largest `node_num x uplink x num_queues`: the calendar queues a deploy
/// allocates, each at most 56 bytes before a packet is queued, so 112 MiB
/// at this bound. Paper scale is 20,736.
pub const MAX_CALENDAR_QUEUES: u64 = 1 << 21;
/// The largest `node_num x hosts_per_node`: the hosts a deploy builds, each with
/// its own transport and segment-queue state. It also keeps every host id
/// inside `u32`.
pub const MAX_HOSTS: u64 = 1 << 16;
/// The largest `architecture.num_slices` and `architecture.extra_slices`: each
/// slice is one `node x uplink` row of the optical schedule.
pub const MAX_SLICES: u32 = 1 << 16;

/// A typed validation error: which field is wrong and why.
///
/// `field` is a JSON-path-like locator (`"workloads[2].bytes"`,
/// `"architecture.name"`) so a failing scenario can be fixed without
/// guessing. It is the JSON layer's field error: most of them are raised
/// by the [`Reader`] the document is read through.
pub use openoptics_core::json::FieldError as ScenarioError;

/// `map_err` adapter: any displayable failure becomes a [`ScenarioError`]
/// at `field` (for steps with no document position, such as deploy).
pub(crate) fn at<E: fmt::Display>(field: &str) -> impl Fn(E) -> ScenarioError + '_ {
    move |e| ScenarioError::new(field, e.to_string())
}

/// Traffic-matrix specification for architectures that are demand-aware
/// (C-Through, Mordia, semi-oblivious RotorNet).
#[derive(Clone, Debug, PartialEq)]
pub enum TmSpec {
    /// Uniform all-to-all demand of 1.0 with a zero diagonal — the mesh
    /// matrix the built-in sweeps use.
    Mesh,
    /// Uniform all-to-all demand of the given value, zero diagonal.
    Uniform(f64),
    /// Explicit `(src_node, dst_node, demand)` records; unlisted pairs are
    /// zero.
    Records(Vec<(u32, u32, f64)>),
}

impl TmSpec {
    /// Materialize the matrix for an `n`-node network.
    pub(crate) fn matrix(&self, n: u32) -> TrafficMatrix {
        match self {
            TmSpec::Mesh => mesh(n, 1.0),
            TmSpec::Uniform(v) => mesh(n, *v),
            TmSpec::Records(recs) => {
                let recs: Vec<(NodeId, NodeId, f64)> =
                    recs.iter().map(|&(s, d, v)| (NodeId(s), NodeId(d), v)).collect();
                TrafficMatrix::from_records(n as usize, &recs)
            }
        }
    }

    pub(crate) fn from_json(r: Reader<'_>) -> Result<TmSpec, ScenarioError> {
        match r.json() {
            Json::Str(s) if s == "mesh" => Ok(TmSpec::Mesh),
            Json::Str(s) => Err(r.err(format!(
                "unknown traffic matrix `{s}` (want \"mesh\", a number, or a record list)"
            ))),
            Json::Int(_) | Json::Num(_) => Ok(TmSpec::Uniform(r.f64()?)),
            Json::Arr(_) => {
                let mut recs = Vec::new();
                for rec in r.items()? {
                    let parts: Vec<Reader<'_>> = rec.items()?.collect();
                    let [src, dst, demand] = parts.as_slice() else {
                        return Err(rec.err("want a [src, dst, demand] triple"));
                    };
                    recs.push((src.uint()?, dst.uint()?, demand.f64()?));
                }
                Ok(TmSpec::Records(recs))
            }
            _ => Err(r.err("want \"mesh\", a number, or a record list")),
        }
    }
}

impl ToJson for TmSpec {
    fn write_json(&self, w: &mut Writer) {
        match self {
            TmSpec::Mesh => w.str("mesh"),
            TmSpec::Uniform(v) => w.float(*v),
            TmSpec::Records(recs) => w.arr(|w| {
                for &(src, dst, demand) in recs {
                    w.arr(|w| {
                        w.value(src);
                        w.value(dst);
                        w.value(demand);
                    });
                }
            }),
        }
    }
}

/// Refuse a configuration whose shape exceeds a memory bound (see
/// [`MAX_NODES`] and the bounds after it), before anything is built.
fn check_shape(cfg: &NetConfig) -> Result<(), ScenarioError> {
    let too_big = |field: &str, what: String, most: u64| {
        Err(ScenarioError::new(field, format!("{what}; a scenario may ask for at most {most}")))
    };
    let nodes = u64::from(cfg.node_num);
    if cfg.node_num > MAX_NODES {
        return too_big("config.node_num", format!("{nodes} nodes"), MAX_NODES.into());
    }
    let queues = nodes * u64::from(cfg.uplink) * cfg.num_queues as u64;
    if queues > MAX_CALENDAR_QUEUES {
        let what = format!("node_num x uplink x num_queues is {queues} calendar queues");
        return too_big("config", what, MAX_CALENDAR_QUEUES);
    }
    let hosts = nodes * u64::from(cfg.hosts_per_node);
    if hosts > MAX_HOSTS {
        return too_big("config", format!("node_num x hosts_per_node is {hosts} hosts"), MAX_HOSTS);
    }
    Ok(())
}

fn mesh(n: u32, v: f64) -> TrafficMatrix {
    let mut tm = TrafficMatrix::uniform(n as usize, v);
    for i in 0..n {
        tm.set(NodeId(i), NodeId(i), 0.0);
    }
    tm
}

/// Which preset architecture to deploy, plus its shape parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchSpec {
    /// Preset name: `clos`, `cthrough`, `jupiter`, `mordia`, `rotornet`,
    /// `opera`, `shale` or `semi_oblivious`.
    pub name: String,
    /// Torus dimensionality for `shale` (default 3; ignored elsewhere).
    pub dim: u32,
    /// Schedule length for `mordia`; 0 (the default) means one slice per
    /// node. Ignored elsewhere.
    pub num_slices: u32,
    /// Extra demand-aware slices for `semi_oblivious` (default 3; ignored
    /// elsewhere).
    pub extra_slices: u32,
    /// Demand matrix for the demand-aware presets (default [`TmSpec::Mesh`]).
    pub tm: TmSpec,
}

fn unknown_arch(name: &str) -> ScenarioError {
    ScenarioError::new(
        "architecture.name",
        format!("unknown architecture `{name}` (want one of {:?})", Architecture::PRESET_NAMES),
    )
}

impl ArchSpec {
    /// A spec with default shape parameters for the given preset name.
    pub(crate) fn named(name: &str) -> ArchSpec {
        ArchSpec {
            name: name.to_string(),
            dim: 3,
            num_slices: 0,
            extra_slices: 3,
            tm: TmSpec::Mesh,
        }
    }

    /// Instantiate the [`Architecture`] this spec names.
    pub(crate) fn build(&self, cfg: &NetConfig) -> Result<Architecture, ScenarioError> {
        let shape = PresetShape {
            tm: &self.tm.matrix(cfg.node_num),
            mordia_slices: if self.num_slices == 0 { cfg.node_num } else { self.num_slices },
            shale_dim: self.dim,
            extra_slices: self.extra_slices,
        };
        Architecture::by_name(&self.name, &shape).ok_or_else(|| unknown_arch(&self.name))
    }

    /// Parse the `architecture` object of a scenario whose network has
    /// `node_num` nodes.
    fn from_json(r: Reader<'_>, node_num: u32) -> Result<ArchSpec, ScenarioError> {
        let r = r.obj()?;
        let name = r.req("name")?.str()?;
        if !Architecture::PRESET_NAMES.contains(&name) {
            return Err(unknown_arch(name));
        }
        let mut spec = ArchSpec::named(name);
        spec.dim = r.uint_or("dim", spec.dim)?;
        spec.num_slices = r.uint_or("num_slices", spec.num_slices)?;
        spec.extra_slices = r.uint_or("extra_slices", spec.extra_slices)?;
        let slices = [("num_slices", spec.num_slices), ("extra_slices", spec.extra_slices)];
        if let Some(&(key, n)) = slices.iter().find(|&&(_, n)| n > MAX_SLICES) {
            let reason = format!("{n} slices; a scenario may ask for at most {MAX_SLICES}");
            return Err(r.req(key)?.err(reason));
        }
        if name == "shale" && !is_grid(node_num, spec.dim) {
            let reason = format!(
                "shale needs node_num to be a perfect dim-th power of at least 2; \
                 {node_num} nodes do not form a {}-dimensional grid",
                spec.dim
            );
            return Err(ScenarioError::new("architecture.dim", reason));
        }
        if let Some(tm) = r.opt("tm") {
            spec.tm = TmSpec::from_json(tm)?;
        }
        Ok(spec)
    }
}

/// Whether `n` nodes form a `dim`-dimensional grid with equal sides of at
/// least 2: the shape Shale's multi-dimensional round robin builds on.
fn is_grid(n: u32, dim: u32) -> bool {
    dim >= 1 && (2..=n).map_while(|side| side.checked_pow(dim).filter(|&p| p <= n)).any(|p| p == n)
}

impl ToJson for ArchSpec {
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.field("name", &self.name);
            match self.name.as_str() {
                "shale" => w.field("dim", self.dim),
                "mordia" => {
                    w.field("num_slices", self.num_slices);
                    w.field("tm", &self.tm);
                }
                "semi_oblivious" => {
                    w.field("extra_slices", self.extra_slices);
                    w.field("tm", &self.tm);
                }
                "cthrough" => w.field("tm", &self.tm),
                _ => {}
            }
        });
    }
}

/// An explicit routing choice overriding the architecture's default.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutingSpec {
    /// Algorithm name: `direct`, `ecmp`, `wcmp`, `ksp`, `vlb`, `ucmp`,
    /// `opera` or `hoho`.
    pub algo: String,
    /// Table lookup mode: `per_hop` or `source_routing`.
    pub lookup: String,
    /// Multipath spreading: `none`, `per_flow` or `per_packet`.
    pub multipath: String,
}

fn unknown_routing(algo: &str) -> ScenarioError {
    ScenarioError::new(
        "routing.algo",
        format!("unknown routing `{algo}` (want one of {:?})", algos::NAMES),
    )
}

impl RoutingSpec {
    /// A spec with the idiomatic lookup/multipath pairing for `algo` — the
    /// same pairing the built-in sweeps use.
    pub(crate) fn named(algo: &str) -> RoutingSpec {
        let (lookup, multipath) = algos::by_name(algo)
            .map_or((LookupMode::PerHop, MultipathMode::None), |(_, l, m)| (l, m));
        RoutingSpec {
            algo: algo.to_string(),
            lookup: match lookup {
                LookupMode::PerHop => "per_hop",
                LookupMode::SourceRouting => "source_routing",
            }
            .to_string(),
            multipath: match multipath {
                MultipathMode::None => "none",
                MultipathMode::PerFlow => "per_flow",
                MultipathMode::PerPacket => "per_packet",
            }
            .to_string(),
        }
    }

    /// Instantiate the routing choice this spec names.
    pub(crate) fn build(
        &self,
    ) -> Result<(Box<dyn RoutingAlgorithm>, LookupMode, MultipathMode), ScenarioError> {
        let (algo, _, _) = algos::by_name(&self.algo).ok_or_else(|| unknown_routing(&self.algo))?;
        let lookup = match self.lookup.as_str() {
            "per_hop" => LookupMode::PerHop,
            "source_routing" => LookupMode::SourceRouting,
            other => {
                return Err(ScenarioError::new(
                    "routing.lookup",
                    format!("unknown lookup mode `{other}` (want per_hop or source_routing)"),
                ))
            }
        };
        let multipath = match self.multipath.as_str() {
            "none" => MultipathMode::None,
            "per_flow" => MultipathMode::PerFlow,
            "per_packet" => MultipathMode::PerPacket,
            other => {
                return Err(ScenarioError::new(
                    "routing.multipath",
                    format!("unknown multipath mode `{other}` (want none, per_flow or per_packet)"),
                ))
            }
        };
        Ok((algo, lookup, multipath))
    }

    fn from_json(r: Reader<'_>) -> Result<RoutingSpec, ScenarioError> {
        let r = r.obj()?;
        let algo = r.req("algo")?.str()?;
        if !algos::NAMES.contains(&algo) {
            return Err(unknown_routing(algo));
        }
        let mut spec = RoutingSpec::named(algo);
        if let Some(l) = r.opt("lookup") {
            spec.lookup = l.str()?.to_string();
        }
        if let Some(m) = r.opt("multipath") {
            spec.multipath = m.str()?.to_string();
        }
        spec.build()?; // reject bad lookup/multipath spellings at parse time
        Ok(spec)
    }
}

impl ToJson for RoutingSpec {
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.field("algo", &self.algo);
            w.field("lookup", &self.lookup);
            w.field("multipath", &self.multipath);
        });
    }
}

/// Transport model for a point-to-point flow.
#[derive(Clone, Copy, Debug)]
pub struct TransportSpec {
    kind: TransportKind,
}

impl Default for TransportSpec {
    /// Paced at NIC rate — the transport scenario files get when a flow
    /// names none.
    fn default() -> TransportSpec {
        TransportSpec { kind: TransportKind::Paced }
    }
}

impl PartialEq for TransportSpec {
    fn eq(&self, other: &Self) -> bool {
        // TcpConfig has no PartialEq; the normalized JSON form is the
        // canonical identity anyway.
        json::render(self) == json::render(other)
    }
}

impl TransportSpec {
    /// The engine-level transport this spec resolves to.
    pub(crate) fn kind(&self) -> TransportKind {
        self.kind
    }

    pub(crate) fn from_json(r: Option<Reader<'_>>) -> Result<TransportSpec, ScenarioError> {
        let Some(r) = r else { return Ok(TransportSpec::default()) };
        let r = r.obj()?;
        let make: fn(TcpConfig) -> TransportKind = match r.opt("kind") {
            None => |_| TransportKind::Paced,
            Some(kind) => match kind.str()? {
                "paced" => |_| TransportKind::Paced,
                "tcp" => TransportKind::Tcp,
                "tdtcp" => TransportKind::TdTcp,
                other => {
                    return Err(
                        kind.err(format!("unknown transport `{other}` (want paced, tcp or tdtcp)"))
                    )
                }
            },
        };
        let d = TcpConfig::default();
        Ok(TransportSpec {
            kind: make(TcpConfig {
                mss: r.uint_or("mss", d.mss)?,
                init_cwnd: r.uint_or("init_cwnd", d.init_cwnd)?,
                dupack_threshold: r.uint_or("dupack_threshold", d.dupack_threshold)?,
                rto_ns: r.uint_or("rto_ns", d.rto_ns)?,
                max_cwnd: r.uint_or("max_cwnd", d.max_cwnd)?,
            }),
        })
    }
}

impl ToJson for TransportSpec {
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            let (name, tcp) = match &self.kind {
                TransportKind::Paced => return w.field("kind", "paced"),
                TransportKind::Tcp(c) => ("tcp", c),
                TransportKind::TdTcp(c) => ("tdtcp", c),
            };
            w.field("kind", name);
            w.field("mss", tcp.mss);
            w.field("init_cwnd", tcp.init_cwnd);
            w.field("dupack_threshold", tcp.dupack_threshold);
            w.field("rto_ns", tcp.rto_ns);
            w.field("max_cwnd", tcp.max_cwnd);
        });
    }
}

/// One per-service SLO target, scenario-file form of an
/// [`SloTarget`](openoptics_core::SloTarget) plus the service name it
/// binds to. Workloads referencing the name report their latencies under
/// this objective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloEntry {
    /// Service name workloads reference via their `service` key.
    pub service: String,
    /// Latency threshold, ns: a completion slower than this is a bad event.
    pub latency_ns: u64,
    /// Objective in per-mille (999 = 99.9% of completions under threshold).
    pub objective_milli: u32,
    /// Rolling burn-rate window, ns.
    pub window_ns: u64,
}

impl SloEntry {
    pub(crate) fn from_json(r: Reader<'_>) -> Result<SloEntry, ScenarioError> {
        let r = r.obj()?;
        let service = r.req("service")?.str()?.to_string();
        let objective = r.req("objective_milli")?;
        let objective_milli: u32 = objective.uint()?;
        if objective_milli >= 1000 {
            return Err(objective.err(format!(
                "objective {objective_milli}‰ leaves no error budget (want < 1000)"
            )));
        }
        let window = r.req("window_ns")?;
        let window_ns = window.u64()?;
        if window_ns == 0 {
            return Err(window.err("burn-rate window must be positive"));
        }
        Ok(SloEntry {
            service,
            latency_ns: r.req("latency_ns")?.u64()?,
            objective_milli,
            window_ns,
        })
    }

    /// The engine-level target this entry declares.
    pub(crate) fn target(&self) -> openoptics_core::SloTarget {
        openoptics_core::SloTarget {
            latency_ns: self.latency_ns,
            objective_milli: self.objective_milli,
            window_ns: self.window_ns,
        }
    }
}

impl ToJson for SloEntry {
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.field("service", &self.service);
            w.field("latency_ns", self.latency_ns);
            w.field("objective_milli", self.objective_milli);
            w.field("window_ns", self.window_ns);
        });
    }
}

/// One workload attached to the network before (or, for flows, during) the
/// run.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// A single point-to-point transfer.
    Flow {
        /// Start time, ns.
        at_ns: u64,
        /// Source host.
        src: u32,
        /// Destination host.
        dst: u32,
        /// Transfer size in bytes.
        bytes: u64,
        /// Transport model.
        transport: TransportSpec,
        /// Service this flow's FCT reports under, for SLO accounting.
        service: Option<String>,
    },
    /// A closed-loop memcached service (paper §6.2 figure 9 style).
    Memcached {
        /// Host running the server.
        server: u32,
        /// Client hosts issuing SETs.
        clients: Vec<u32>,
        /// When clients stop issuing new operations, ns.
        stop_ns: u64,
        /// Bytes per SET.
        set_bytes: u32,
        /// Server response size.
        response_bytes: u32,
        /// Mean inter-operation interval per client, ns.
        mean_interval_ns: u64,
        /// Service each op's request→response latency reports under.
        service: Option<String>,
    },
    /// A ring allreduce across the listed hosts.
    Allreduce {
        /// Participating hosts, in ring order.
        hosts: Vec<u32>,
        /// Bytes of gradient data per host.
        data_bytes: u64,
        /// Service every chunk flow's FCT reports under.
        service: Option<String>,
    },
    /// A fixed-rate probe train for latency measurement.
    ProbeTrain {
        /// Probing host.
        src: u32,
        /// Probed host.
        dst: u32,
        /// Inter-probe interval, ns.
        interval_ns: u64,
        /// Number of probes.
        count: u64,
        /// Probe payload bytes.
        payload: u32,
    },
}

impl WorkloadSpec {
    /// Read one workload; host ids are checked against the `total_hosts`
    /// the scenario's configuration provides.
    fn from_json(r: Reader<'_>, total_hosts: u32) -> Result<WorkloadSpec, ScenarioError> {
        let r = r.obj()?;
        let host = |h: Reader<'_>| -> Result<u32, ScenarioError> {
            let id: u32 = h.uint()?;
            if id >= total_hosts {
                let reason = format!("host {id} out of range (network has {total_hosts} hosts)");
                return Err(h.err(reason));
            }
            Ok(id)
        };
        let hosts = |key: &str| -> Result<Vec<u32>, ScenarioError> {
            r.req(key)?.items()?.map(host).collect()
        };
        let service = || r.opt("service").map(|s| s.str().map(str::to_string)).transpose();
        let kind = r.req("kind")?;
        match kind.str()? {
            "flow" => Ok(WorkloadSpec::Flow {
                at_ns: r.uint_or("at_ns", 0)?,
                src: host(r.req("src")?)?,
                dst: host(r.req("dst")?)?,
                bytes: r.req("bytes")?.u64()?,
                transport: TransportSpec::from_json(r.opt("transport"))?,
                service: service()?,
            }),
            "memcached" => {
                let p = MemcachedParams::paper();
                Ok(WorkloadSpec::Memcached {
                    server: host(r.req("server")?)?,
                    clients: hosts("clients")?,
                    stop_ns: r.req("stop_ns")?.u64()?,
                    set_bytes: r.uint_or("set_bytes", p.set_bytes)?,
                    response_bytes: r.uint_or("response_bytes", p.response_bytes)?,
                    mean_interval_ns: r.uint_or("mean_interval_ns", p.mean_interval_ns)?,
                    service: service()?,
                })
            }
            "allreduce" => Ok(WorkloadSpec::Allreduce {
                hosts: hosts("hosts")?,
                data_bytes: r.req("data_bytes")?.u64()?,
                service: service()?,
            }),
            "probe_train" => Ok(WorkloadSpec::ProbeTrain {
                src: host(r.req("src")?)?,
                dst: host(r.req("dst")?)?,
                interval_ns: r.req("interval_ns")?.u64()?,
                count: r.req("count")?.u64()?,
                payload: r.uint_or("payload", 64)?,
            }),
            other => Err(kind.err(format!(
                "unknown workload `{other}` (want flow, memcached, allreduce or probe_train)"
            ))),
        }
    }

    /// The service name this workload tags its latencies with, if any.
    pub(crate) fn service(&self) -> Option<&str> {
        match self {
            WorkloadSpec::Flow { service, .. }
            | WorkloadSpec::Memcached { service, .. }
            | WorkloadSpec::Allreduce { service, .. } => service.as_deref(),
            WorkloadSpec::ProbeTrain { .. } => None,
        }
    }
}

impl ToJson for WorkloadSpec {
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            match self {
                WorkloadSpec::Flow { at_ns, src, dst, bytes, transport, .. } => {
                    w.field("kind", "flow");
                    w.field("at_ns", at_ns);
                    w.field("src", src);
                    w.field("dst", dst);
                    w.field("bytes", bytes);
                    w.field("transport", transport);
                }
                WorkloadSpec::Memcached {
                    server,
                    clients,
                    stop_ns,
                    set_bytes,
                    response_bytes,
                    mean_interval_ns,
                    ..
                } => {
                    w.field("kind", "memcached");
                    w.field("server", server);
                    w.field("clients", clients);
                    w.field("stop_ns", stop_ns);
                    w.field("set_bytes", set_bytes);
                    w.field("response_bytes", response_bytes);
                    w.field("mean_interval_ns", mean_interval_ns);
                }
                WorkloadSpec::Allreduce { hosts, data_bytes, .. } => {
                    w.field("kind", "allreduce");
                    w.field("hosts", hosts);
                    w.field("data_bytes", data_bytes);
                }
                WorkloadSpec::ProbeTrain { src, dst, interval_ns, count, payload } => {
                    w.field("kind", "probe_train");
                    w.field("src", src);
                    w.field("dst", dst);
                    w.field("interval_ns", interval_ns);
                    w.field("count", count);
                    w.field("payload", payload);
                }
            }
            if let Some(s) = self.service() {
                w.field("service", s);
            }
        });
    }
}

/// One fault window, scenario-file form of a [`FaultSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEntry {
    /// What to inject; `transceiver_flap` carries its corruption percentage
    /// (the `corrupt_pct` key, 1–100).
    pub kind: FaultKind,
    /// Node the fault hits.
    pub node: u32,
    /// Port on that node (only meaningful for the per-port kinds).
    pub port: u16,
    /// Fault activation time, ns.
    pub start_ns: u64,
    /// Fault clear time, ns (must be after `start_ns`).
    pub end_ns: u64,
}

impl FaultEntry {
    pub(crate) fn from_json(r: Reader<'_>) -> Result<FaultEntry, ScenarioError> {
        let r = r.obj()?;
        let kind_at = r.req("kind")?;
        let name = kind_at.str()?;
        let mut kind = FaultKind::from_name(name).ok_or_else(|| {
            let names = FaultKind::ALL.map(|k| k.name());
            kind_at.err(format!("unknown fault kind `{name}` (want one of {names:?})"))
        })?;
        let node = r.req("node")?.uint()?;
        let port = r.uint_or("port", 0)?;
        let pct = r.uint_or("corrupt_pct", 0)?;
        if let FaultKind::TransceiverFlap { corrupt_pct } = &mut kind {
            *corrupt_pct = pct;
        }
        Ok(FaultEntry {
            kind,
            node,
            port,
            start_ns: r.req("start_ns")?.u64()?,
            end_ns: r.req("end_ns")?.u64()?,
        })
    }
}

impl ToJson for FaultEntry {
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.field("kind", self.kind.name());
            w.field("node", self.node);
            if self.kind.is_port_scoped() {
                w.field("port", self.port);
            }
            if let FaultKind::TransceiverFlap { corrupt_pct } = self.kind {
                w.field("corrupt_pct", corrupt_pct);
            }
            w.field("start_ns", self.start_ns);
            w.field("end_ns", self.end_ns);
        });
    }
}

/// Build a [`FaultPlan`] from a batch of entries; `field` locates the batch
/// in error messages.
pub(crate) fn build_fault_plan(
    entries: &[FaultEntry],
    field: &str,
) -> Result<FaultPlan, ScenarioError> {
    let mut b = FaultPlan::builder();
    for e in entries {
        b = b.fault(FaultSpec {
            kind: e.kind,
            node: NodeId(e.node),
            // Node-scoped kinds ignore the port; the plan carries 0 for them.
            port: PortId(if e.kind.is_port_scoped() { e.port } else { 0 }),
            start: SimTime::from_ns(e.start_ns),
            end: SimTime::from_ns(e.end_ns),
        });
    }
    b.build().map_err(at(field))
}

/// A fully validated scenario: everything needed to deploy and drive one
/// run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Free-text description carried through normalization.
    pub description: String,
    /// The `config` object exactly as written (comment keys included); fed
    /// to [`NetConfig::from_value`] so unknown keys are ignored and defaults
    /// fill in missing ones.
    config_raw: Json,
    /// The validated engine configuration built from `config_raw`.
    pub config: NetConfig,
    /// Architecture to deploy.
    pub architecture: ArchSpec,
    /// Routing override; `None` means the architecture's default pairing.
    pub routing: Option<RoutingSpec>,
    /// Workloads to attach before the run starts.
    pub workloads: Vec<WorkloadSpec>,
    /// Per-service SLO targets declared before the run starts.
    pub slos: Vec<SloEntry>,
    /// Fault campaign to inject before the run starts.
    pub faults: Vec<FaultEntry>,
    /// Default run horizon, ns.
    pub stop_ns: u64,
}

impl Scenario {
    /// Parse and validate a scenario document.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = json::parse(text).map_err(|e| ScenarioError::new("scenario", e.to_string()))?;
        Scenario::from_json(&doc)
    }

    /// Validate an already-parsed scenario document.
    pub(crate) fn from_json(doc: &Json) -> Result<Scenario, ScenarioError> {
        doc.as_obj().map_err(at("scenario"))?;
        let r = Reader::new(doc, "");
        let version = r.req("version")?.u64()?;
        if version != SCENARIO_VERSION {
            return Err(ScenarioError::new(
                "version",
                format!("unsupported scenario version {version} (this build reads version {SCENARIO_VERSION})"),
            ));
        }
        let description = match r.opt("description") {
            Some(d) => d.str()?.to_string(),
            None => String::new(),
        };
        let (config_raw, config) = match r.opt("config") {
            None => (Json::Obj(vec![]), NetConfig::default()),
            Some(c) => {
                let c = c.obj()?;
                (c.json().clone(), c.ctx(NetConfig::from_value(c.json()))?)
            }
        };
        config.validate().map_err(at("config"))?;
        check_shape(&config)?;
        let architecture = ArchSpec::from_json(r.req("architecture")?, config.node_num)?;
        let routing = r.opt("routing").map(RoutingSpec::from_json).transpose()?;
        let total_hosts = config.total_hosts();
        let workloads = list(r.opt("workloads"), |w| WorkloadSpec::from_json(w, total_hosts))?;
        let mut slos: Vec<SloEntry> = Vec::new();
        list(r.opt("slos"), |e| {
            let entry = SloEntry::from_json(e)?;
            if slos.iter().any(|s| s.service == entry.service) {
                let reason = format!("duplicate SLO for service `{}`", entry.service);
                return Err(e.req("service")?.err(reason));
            }
            slos.push(entry);
            Ok(())
        })?;
        let faults = list(r.opt("faults"), FaultEntry::from_json)?;
        let stop_ns = r.req("stop_ns")?.u64()?;
        let scenario = Scenario {
            description,
            config_raw,
            config,
            architecture,
            routing,
            workloads,
            slos,
            faults,
            stop_ns,
        };
        build_fault_plan(&scenario.faults, "faults")?;
        scenario.architecture.build(&scenario.config)?;
        Ok(scenario)
    }

    /// Render the normalized document, pretty-printed.
    ///
    /// `parse(to_json()) → to_json()` is byte-identical: the normalized
    /// form is a fixed point of the parse/render cycle.
    pub fn to_json(&self) -> String {
        json::pretty(self)
    }

    /// Deploy the scenario: build the network, attach every workload and
    /// inject the fault campaign. The returned network has not simulated
    /// anything yet.
    pub fn build(&self) -> Result<OpenOpticsNet, ScenarioError> {
        let cfg = self.config.clone();
        let arch = self.architecture.build(&cfg)?;
        let (algo, lookup, multipath) = match &self.routing {
            Some(r) => r.build()?,
            None => arch.default_routing(),
        };
        let mut net = OpenOpticsNet::deploy(cfg, arch, algo, lookup, multipath)
            .map_err(at("architecture"))?;
        // Declare SLO-bearing services first (in document order), then any
        // service a workload names without an SLO — so ids depend only on
        // the document, never on attach timing.
        let mut service_ids: Vec<(String, u16)> = Vec::new();
        for e in &self.slos {
            let id = net.declare_service(&e.service, Some(e.target()));
            service_ids.push((e.service.clone(), id));
        }
        for w in &self.workloads {
            if let Some(name) = w.service() {
                if !service_ids.iter().any(|(n, _)| n == name) {
                    let id = net.declare_service(name, None);
                    service_ids.push((name.to_string(), id));
                }
            }
        }
        for w in &self.workloads {
            let service = w
                .service()
                .and_then(|name| service_ids.iter().find(|(n, _)| n == name))
                .map(|&(_, id)| id);
            attach_workload(&mut net, w, service);
        }
        if !self.faults.is_empty() {
            let plan = build_fault_plan(&self.faults, "faults")?;
            net.inject_faults(&plan).map_err(at("faults"))?;
        }
        Ok(net)
    }
}

/// Attach one workload to a freshly deployed network (sim time 0, so every
/// flow start is in the future), tagging it with a declared service id when
/// the spec names one.
fn attach_workload(net: &mut OpenOpticsNet, w: &WorkloadSpec, service: Option<u16>) {
    match w {
        WorkloadSpec::Flow { at_ns, src, dst, bytes, transport, .. } => {
            net.add_flow_tagged(
                SimTime(*at_ns),
                HostId(*src),
                HostId(*dst),
                *bytes,
                transport.kind(),
                service,
            );
        }
        WorkloadSpec::Memcached {
            server,
            clients,
            stop_ns,
            set_bytes,
            response_bytes,
            mean_interval_ns,
            ..
        } => {
            let params = MemcachedParams {
                set_bytes: *set_bytes,
                response_bytes: *response_bytes,
                mean_interval_ns: *mean_interval_ns,
            };
            let clients = clients.iter().map(|&c| HostId(c)).collect();
            net.add_memcached_tagged(params, HostId(*server), clients, SimTime(*stop_ns), service);
        }
        WorkloadSpec::Allreduce { hosts, data_bytes, .. } => {
            let hosts = hosts.iter().map(|&h| HostId(h)).collect();
            net.add_allreduce_tagged(hosts, *data_bytes, service);
        }
        WorkloadSpec::ProbeTrain { src, dst, interval_ns, count, payload } => {
            net.add_probe_train(HostId(*src), HostId(*dst), *interval_ns, *count, *payload);
        }
    }
}

/// Read every element of an optional array member (absent means empty).
pub(crate) fn list<'a, T>(
    arr: Option<Reader<'a>>,
    mut read: impl FnMut(Reader<'_>) -> Result<T, ScenarioError>,
) -> Result<Vec<T>, ScenarioError> {
    let Some(arr) = arr else { return Ok(Vec::new()) };
    let mut out = Vec::new();
    for item in arr.items()? {
        out.push(read(item)?);
    }
    Ok(out)
}

impl ToJson for Scenario {
    /// The normalized document, with a fixed key order.
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.field("version", SCENARIO_VERSION);
            if !self.description.is_empty() {
                w.field("description", &self.description);
            }
            w.field("config", &self.config_raw);
            w.field("architecture", &self.architecture);
            if let Some(r) = &self.routing {
                w.field("routing", r);
            }
            w.field("workloads", &self.workloads);
            if !self.slos.is_empty() {
                w.field("slos", &self.slos);
            }
            w.field("faults", &self.faults);
            w.field("stop_ns", self.stop_ns);
        });
    }
}
