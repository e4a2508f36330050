//! # OpenOptics (facade crate)
//!
//! Umbrella crate re-exporting the whole OpenOptics workspace under one
//! dependency. Reproduction of *"OpenOptics: An Open Research Framework for
//! Optical Data Center Networks"* (SIGCOMM 2024) as a deterministic
//! packet-level simulation.
//!
//! Start with [`core`] — the programming model ([`core::OpenOpticsNet`],
//! architecture presets) — and see the `examples/` directory for runnable
//! scenarios.

/// The programming model: `NetConfig`, `OpenOpticsNet` (Table-1 API), the
/// packet-level engine, and the `Architecture` descriptors with their presets.
pub use openoptics_core as core;
/// Control plane: scenario files, the JSON-RPC server, and deterministic
/// checkpoint/restore (see GUIDE.md).
pub use openoptics_ctl as ctl;
/// OCS device catalog, circuits, optical schedules, clock-sync error model.
pub use openoptics_fabric as fabric;
/// Deterministic fault-injection plans (`FaultPlan`) and campaign reports.
pub use openoptics_faults as faults;
/// Host-side stack: vma segment queues, TCP/TDTCP transports, apps.
pub use openoptics_host as host;
/// Causal lifecycle spans, the sim-time profiler, and Chrome/Perfetto
/// trace export.
pub use openoptics_obs as obs;
/// Packet and control-message formats shared by every component.
pub use openoptics_proto as proto;
/// Time-expanded routing algorithms and route compilation.
pub use openoptics_routing as routing;
/// Discrete-event substrate: `SimTime`, event queue, seeded RNG.
pub use openoptics_sim as sim;
/// ToR switch model: time-flow tables, calendar queues, EQO, push-back.
pub use openoptics_switch as switch;
/// Zero-cost-when-disabled metrics registry and sim-time trace stream.
pub use openoptics_telemetry as telemetry;
/// Topology generators and traffic matrices.
pub use openoptics_topo as topo;
/// Flow-size distributions, load scaling, and FCT statistics.
pub use openoptics_workload as workload;

/// One-line import of the Table-1 API surface.
///
/// ```
/// use openoptics::prelude::*;
///
/// let cfg = NetConfig::builder().node_num(4).build().unwrap();
/// let mut net = OpenOpticsNet::deploy(
///     cfg,
///     Architecture::rotornet(),
///     Box::new(Vlb),
///     LookupMode::PerHop,
///     MultipathMode::PerPacket,
/// )
/// .unwrap();
/// net.add_flow(SimTime::from_ns(100), HostId(0), HostId(3), 50_000, TransportKind::Paced);
/// net.run_for(SimTime::from_ms(5));
/// assert_eq!(net.fct().completed().len(), 1);
/// ```
pub mod prelude {
    pub use openoptics_core::{
        check_compat, Architecture, ConfigError, DeployError, DispatchPolicy, Error, FaultCounters,
        FaultError, FaultKind, FaultPlan, FaultPlanBuilder, FaultReport, FaultSpec, NetConfig,
        NetConfigBuilder, OpenOpticsNet, PauseMode, PresetShape, RoutingChoice, ScheduleGen,
        TransportKind,
    };
    pub use openoptics_fabric::Circuit;
    pub use openoptics_host::apps::MemcachedParams;
    pub use openoptics_host::TcpConfig;
    pub use openoptics_proto::{FlowId, HostId, NodeId, PortId};
    pub use openoptics_routing::algos::{Direct, Ucmp, Vlb};
    pub use openoptics_routing::{LookupMode, MultipathMode, RoutingAlgorithm};
    pub use openoptics_sim::SimTime;
    pub use openoptics_telemetry::{
        Labels, QuantileSketch, Registry, SloSummary, SloTarget, Snapshot, TraceKind,
    };
    pub use openoptics_topo::{round_robin, TrafficMatrix};
    pub use openoptics_workload::FctStats;
}

/// Doc-tests every `rust` code block in the README (the quickstart in
/// particular), so the documented programs cannot rot.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

/// Doc-tests every `rust` code block in the user guide, so the documented
/// workflows cannot rot either.
#[doc = include_str!("../GUIDE.md")]
#[cfg(doctest)]
pub struct GuideDoctests;
