//! # openoptics-switch
//!
//! The programmable-switch backend of OpenOptics (§5): the system that
//! makes the time-flow table executable on real hardware. The paper
//! implements it in P4 on Intel Tofino2; this crate is a behavioral model
//! of that data plane at packet granularity:
//!
//! * `tft` — the time-flow table: arrival-slice + destination match,
//!   egress port + departure-slice action, wildcard reduction to a plain
//!   flow table, per-flow / per-packet multipath groups (§3);
//! * `calendar` — per-egress-port calendar queues with pause/resume and
//!   per-slice rotation (§5.1);
//! * `eqo` — ingress-register queue-occupancy estimation with periodic
//!   line-rate decrements (§5.2, Appendix A);
//! * `congestion` — slice-capacity congestion detection with pluggable
//!   responses (drop / trim / defer);
//! * `pushback` — last-resort traffic push-back message generation;
//! * `offload` — buffer offloading of far-future calendar queues to hosts;
//! * `pipeline` — the switch-to-switch delay model (Fig. 11);
//! * `resources` — the Tofino2 resource-usage model (Table 2);
//! * `tor` — [`ToRSwitch`], the composition the engine drives.

mod calendar;
mod congestion;
mod eqo;
mod offload;
mod pipeline;
mod pushback;
mod resources;
mod tft;
mod tor;

pub use calendar::{CalendarPort, EnqueueError};
pub use congestion::{CongestionConfig, CongestionPolicy};
pub use eqo::Eqo;
pub use offload::OffloadPolicy;
pub use pipeline::PipelineModel;
pub use resources::{ResourceUsage, SwitchResourceModel};
pub use tft::TimeFlowTable;
pub use tor::{DropReason, IngressDecision, IngressResult, ToRSwitch, TorConfig, TorCounters};
