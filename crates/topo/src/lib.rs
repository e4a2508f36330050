//! # openoptics-topo
//!
//! Circuit-scheduling algorithms — the materializations of the abstract
//! `topo()` API function (Table 1 of the paper):
//!
//! * [`round_robin()`](round_robin::round_robin) — the TO optical schedules of RotorNet (1-D, u uplinks),
//!   Opera (1-D, N uplinks), and Shale (multi-dimensional, 1 uplink);
//! * [`matching`] — Edmonds/Hungarian-style max-weight matchings used by
//!   c-Through-class TA architectures;
//! * [`bvn`] — Birkhoff–von-Neumann decomposition used by Mordia;
//! * `jupiter` — Google Jupiter's gradually-evolving mesh;
//! * `sorn` — the semi-oblivious skewed round-robin (TA+TO hybrid, §4.3);
//! * `expander` — Opera-style per-slice connected expander schedules;
//! * `matrix` — the traffic-matrix type all TA algorithms consume.
//!
//! A generator returns a plain [`openoptics_fabric::Circuit`] list that
//! `deploy_topo()` validates and installs. The 1-factorization generators
//! (round robin, multi-dimensional round robin, uniform mesh, Opera, SORN)
//! also write their cycle into an [`openoptics_fabric::CircuitSink`]
//! (`round_robin_into` and kin), which is how an architecture lights its
//! schedule in place without a list in between; the list form collects
//! from the same sink. Nothing here touches the data plane.

pub mod bvn;
mod expander;
mod jupiter;
pub mod matching;
mod matrix;
pub mod round_robin;
mod sorn;

pub use expander::{opera_schedule, opera_schedule_into};
pub use jupiter::{evolve, uniform_mesh, uniform_mesh_into};
pub use matrix::TrafficMatrix;
pub use round_robin::{
    round_robin, round_robin_into, round_robin_multidim, round_robin_multidim_into,
};
pub use sorn::{pair_time_share, sorn, sorn_into};
