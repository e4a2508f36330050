//! # openoptics-core
//!
//! The OpenOptics programming model — the paper's primary contribution.
//!
//! * `config` — the static configuration (a JSON file in the paper, §4.1)
//!   describing hardware: node/uplink counts, slice duration, link rates,
//!   OCS characteristics, service knobs;
//! * `engine` — the packet-level network engine that stands in for the
//!   testbed: hosts (vma stacks + NICs), ToR switches (time-flow tables +
//!   calendar queues), the optical fabric, an optional parallel electrical
//!   fabric, and the optical controller's clocking;
//! * `net` — [`OpenOpticsNet`], the user-facing object exposing the
//!   Table-1 API: `connect` / `deploy_topo` / `add` / `deploy_routing` /
//!   `collect` / `buffer_usage` / `bw_usage`, plus workload attachment;
//! * `arch` — [`Architecture`] descriptors, with presets mirroring
//!   Fig. 5: Clos, c-Through, Jupiter, Mordia, RotorNet, Opera, Shale, and
//!   the semi-oblivious TA+TO hybrid (the hierarchical design is
//!   `examples/hierarchical.rs`);
//! * `workflow` — the unified TA control loop
//!   (`while TM = collect(): reconfigure`).

/// Architecture descriptors: schedule generators, dispatch/pause
/// defaults, and the routing compatibility contract.
mod arch;
mod config;
mod engine;
mod error;
/// The workspace's one JSON layer, re-exported from
/// [`openoptics_telemetry::json`] under the path callers have always used.
pub use openoptics_telemetry::json;
mod net;
mod workflow;

pub use arch::{check_compat, Architecture, PresetShape, RoutingChoice, ScheduleGen};
pub use config::{ConfigError, NetConfig, NetConfigBuilder};
pub use engine::{
    DispatchPolicy, Engine, EngineCounters, Event, PauseMode, Timer, TransportKind, TRACE_CAPACITY,
};
pub use error::Error;
pub use net::{DeployError, OpenOpticsNet};
pub use openoptics_faults::{
    FaultCounters, FaultError, FaultKind, FaultPlan, FaultPlanBuilder, FaultReport, FaultSpec,
};
pub use openoptics_telemetry::{
    Frame, FrameLog, QuantileSketch, SampleRow, SloSummary, SloTarget, TimeSeries,
};
pub use workflow::{run_ta_loop, LoopObservation};
