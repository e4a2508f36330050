//! # openoptics-telemetry
//!
//! Deterministic observability for the OpenOptics simulation: a metrics
//! registry (counters, gauges, log₂-bucketed histograms of sim-time values)
//! and a structured trace-event stream covering the paper's optical
//! mechanics — slice rotation, guardband holds and drops, slice misses,
//! EQO estimation error, push-back assert/deassert, and retransmissions.
//!
//! ## Design rules
//!
//! * **Zero cost when disabled.** Components count in plain fields and a
//!   [`MirrorPass`] copies them into the registry at snapshot points; a
//!   disabled [`Registry`] has no storage and no pass. Records reach the
//!   one [`Trace`], which the registry owns, through `&mut`; a detached
//!   trace, like a detached [`Counter`], costs a single `None` branch — no
//!   allocation, no hashing, no atomics. The benchmark's
//!   `telemetry.counter_off_ns` row prices that branch.
//! * **One owner.** The registry owns its series and its trace by value,
//!   so a clone is an independent copy. The one shared cell left is the
//!   one a [`Counter`] or [`Gauge`] handle points into.
//! * **Sim time only.** Snapshots and trace records are stamped with
//!   [`SimTime`](openoptics_sim::time::SimTime), never the wall clock, so a
//!   seeded run exports byte-identical telemetry at any `--jobs` count.
//! * **Deterministic export.** The registry stores series in a `BTreeMap`
//!   keyed by `(static name, typed labels)`; JSON/CSV renderings iterate in
//!   that order and contain no floats, pointers, or wall-clock residue.
//!
//! The crate also hosts [`json`], the workspace's one JSON layer (parser,
//! streaming writer, path-carrying field reader): it is the lowest crate
//! that renders JSON, and every crate above it reads and writes through it.
//!
//! Instruments are single-threaded by construction (`Cell`), matching the
//! one-engine-per-worker execution model of the deterministic parallel
//! runner.

pub mod error;
pub mod instruments;
/// The workspace's one JSON layer: parser, streaming writer, path-carrying
/// field reader.
pub mod json;
/// The one bounded keep-first store behind the trace buffer, the time
/// series and the frame log.
pub mod keep_first;
pub mod labels;
/// Handles bound once for routines that copy plain fields into the
/// registry before every snapshot.
pub mod mirror;
pub mod registry;
/// Deterministic fixed-bucket quantile sketch (p50/p99/p999 with a
/// documented ≤ 1/16 relative overestimate).
pub mod sketch;
/// Per-service SLO targets, rolling burn-rate windows, and fault-window
/// attribution of bad completions.
pub mod slo;
/// Sim-time-sampled series of every instrument plus the bounded frame log
/// that feeds streaming subscriptions.
pub mod timeseries;
pub mod trace;

pub use error::TelemetryError;
pub use instruments::{Counter, Gauge, HistogramSummary, Log2Histogram};
pub use keep_first::KeepFirst;
pub use labels::Labels;
pub use mirror::MirrorPass;
pub use registry::{Registry, SeriesName, Snapshot};
pub use sketch::QuantileSketch;
pub use slo::{ServiceStats, SloSummary, SloTarget, SloTransition};
pub use timeseries::{Frame, FrameLog, SampleRow, TimeSeries};
pub use trace::{FlightTrigger, RetxKind, Trace, TraceKind, TraceRecord};
