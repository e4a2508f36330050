//! # openoptics-fabric
//!
//! The optical substrate of OpenOptics: circuits, optical schedules, OCS
//! device models, the optical-controller state machine, and the clock-sync
//! error model.
//!
//! An optical circuit switch is a bufferless physical-layer device — "a
//! waveguide with the additional capability of circuit reconfiguration"
//! (§2.1). Consequently the whole fabric model reduces to a *function from
//! (node, port, time) to (peer node, peer port) or loss*: [`Fabric::transit`].
//! Everything else here exists to construct, validate, and evolve that
//! function — the exact role the paper's optical controller plays.
//!
//! The paper offers two physical realizations: real OCSes (a Polatis MEMS
//! switch) and an *emulated* optical fabric on a Tofino2 (§5.3). Both are
//! represented by the same [`Fabric`] with different [`FabricProfile`]s; the
//! emulated profile adds the cut-through forwarding latency of the emulating
//! switch, mirroring the paper's realism argument in Fig. 13.

mod catalog;
mod circuit;
mod fabric;
mod layout;
mod schedule;
mod sync;

pub use catalog::{OcsProfile, OCS_CATALOG};
pub use circuit::{Circuit, CircuitSink};
pub use fabric::{Fabric, FabricProfile, Transit};
pub use layout::{CrossConnect, LayoutError, OcsLayout};
pub use schedule::{OpticalSchedule, ScheduleError};
pub use sync::ClockSync;
