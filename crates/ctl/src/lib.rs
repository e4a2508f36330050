//! Control plane for the OpenOptics simulator: declarative scenario files,
//! a long-running JSON-RPC server, and deterministic checkpoint/restore.
//!
//! The rest of the workspace is a library you *call*; this crate is the
//! layer you *operate*. It adds three things:
//!
//! - **Scenario files** ([`Scenario`]): one versioned JSON document
//!   describing a whole run — engine configuration, architecture × routing
//!   pairing, workloads, fault campaign, stop time — with typed validation
//!   errors that name the offending field.
//! - **Sessions and the server** ([`Session`], `server`): load a
//!   scenario, step simulated time on demand, mutate the run live (inject
//!   faults, add flows, swap routing), and export telemetry — over a
//!   line-delimited JSON-RPC TCP protocol or directly in-process.
//! - **Checkpoint/restore** ([`Checkpoint`]): snapshot a run as scenario +
//!   operation journal, restore it by replay, byte-identical to an
//!   uninterrupted run; or branch a warm run in memory with
//!   [`Session::fork`].
//!
//! The crate never reads wall-clock time and the server never touches the
//! filesystem (documents travel inline); only the `openoptics-ctl` binary's
//! command layer does file I/O.
//!
//! See GUIDE.md at the repository root for a task-oriented walkthrough.

/// Checkpoint documents: journaled operations and replay-based restore.
mod checkpoint;
/// The versioned scenario-file format and its typed validation.
mod scenario;
/// The line-delimited JSON-RPC protocol layer and TCP server loop.
mod server;
/// Live runs: stepping, mutation, forking, and the export bundle.
mod session;

pub use checkpoint::{Checkpoint, Op, CHECKPOINT_VERSION};
pub use scenario::{
    ArchSpec, FaultEntry, RoutingSpec, Scenario, ScenarioError, SloEntry, TmSpec, TransportSpec,
    WorkloadSpec, MAX_CALENDAR_QUEUES, MAX_HOSTS, MAX_NODES, MAX_SLICES, SCENARIO_VERSION,
};
pub use server::{serve, serve_on, ControlPlane, Subscriptions, MAX_FRAMES_PER_TURN};
pub use session::Session;
