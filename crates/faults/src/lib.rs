//! # openoptics-faults
//!
//! Deterministic, seed-driven fault injection for the OpenOptics
//! simulation: the plan, the runtime state machine, and the report.
//!
//! A [`FaultPlan`] schedules typed fault windows on the simulation clock:
//! optical link down/up, transceiver flap with BER-style packet corruption,
//! an OCS port stuck dark, calendar-slice schedule corruption (a switch
//! misses rotations), and host NIC pause storms. Plans are *data*; a
//! [`FaultRuntime`] is what a running campaign looks like — which windows
//! are open, what that does to a transmission, a rotation or a host, and
//! what each fault has cost so far. The core engine holds one, injects each
//! window edge as an ordinary `(time, order)` event through the calendar
//! event queue, and asks the runtime at the three places a fault can bite,
//! so campaigns replay byte-identically at any `--jobs` count.
//!
//! Plans are built like `NetConfig` — through a validating builder:
//!
//! ```
//! use openoptics_faults::FaultPlan;
//! use openoptics_proto::{NodeId, PortId};
//!
//! let plan = FaultPlan::builder()
//!     .link_down(NodeId(2), PortId(0), 50_000, 250_000)
//!     .transceiver_flap(NodeId(5), PortId(1), 25, 100_000, 200_000)
//!     .build()
//!     .expect("windows are well-formed");
//! assert_eq!(plan.len(), 2);
//! ```
//!
//! Campaign results come back as a [`FaultReport`]: per-fault counters
//! ([`FaultCounters`]) plus campaign-wide delivery/retransmission totals,
//! mirrored into the telemetry registry under `faults.*` names.

mod runtime;

pub use runtime::FaultRuntime;

use openoptics_proto::{NodeId, PortId};
use openoptics_sim::SimTime;
use std::fmt;

/// The kind of fault a [`FaultSpec`] injects while its window is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Optical link down: every packet released onto the failed `(node,
    /// port)` is dropped (`TraceKind::FaultDrop`), and routing masks the
    /// link out of the time-expanded graph — paths recompile around it.
    LinkDown,
    /// Transceiver flap: packets transmitted on the port are corrupted
    /// (and therefore lost) with probability `corrupt_pct` percent, drawn
    /// from the engine's seeded RNG. Routing is *not* informed — transports
    /// recover through their retransmission paths (RTO, watchdog).
    TransceiverFlap {
        /// Corruption probability in percent, `1..=100`.
        corrupt_pct: u8,
    },
    /// OCS port stuck: the circuit never establishes on the affected port,
    /// silently — unlike [`FaultKind::LinkDown`] the controller does not
    /// learn of it, so no reroute happens and traffic scheduled onto the
    /// port drains and drops until the window closes.
    OcsPortStuck,
    /// Calendar-slice schedule corruption: the node misses every rotation
    /// while the window is active, desynchronizing its local slice from the
    /// fabric's; transmissions meet dark circuits. Missed rotations are
    /// replayed when the window closes (watchdog-style resync). `port` is
    /// ignored.
    SliceCorruption,
    /// Host NIC pause storm: data transmission from every host under the
    /// node is deferred until the window closes (acknowledgements, which
    /// bypass the NIC data queue in this model, still flow). `port` is
    /// ignored.
    NicPauseStorm,
}

impl FaultKind {
    /// One of each kind, in [`FaultKind::code`] order (the flap carries a
    /// placeholder percentage for the caller to fill in).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::LinkDown,
        FaultKind::TransceiverFlap { corrupt_pct: 0 },
        FaultKind::OcsPortStuck,
        FaultKind::SliceCorruption,
        FaultKind::NicPauseStorm,
    ];

    /// The kind spelled `name` (inverse of [`FaultKind::name`]), if any.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Short stable identifier used in traces, reports and scenario files.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkDown => "link_down",
            FaultKind::TransceiverFlap { .. } => "transceiver_flap",
            FaultKind::OcsPortStuck => "ocs_port_stuck",
            FaultKind::SliceCorruption => "slice_corruption",
            FaultKind::NicPauseStorm => "nic_pause_storm",
        }
    }

    /// Stable numeric code for trace annotations (lifecycle-span `arg`
    /// fields, which carry only integers).
    pub fn code(&self) -> u64 {
        match self {
            FaultKind::LinkDown => 1,
            FaultKind::TransceiverFlap { .. } => 2,
            FaultKind::OcsPortStuck => 3,
            FaultKind::SliceCorruption => 4,
            FaultKind::NicPauseStorm => 5,
        }
    }

    /// Whether the fault is scoped to a specific uplink port (`true`) or to
    /// the whole node (`false`, `port` ignored).
    pub fn is_port_scoped(&self) -> bool {
        !matches!(self, FaultKind::SliceCorruption | FaultKind::NicPauseStorm)
    }
}

/// One scheduled fault window: a [`FaultKind`] applied to a target from
/// `start` (inclusive) to `end` (exclusive) on the simulation clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Target node.
    pub node: NodeId,
    /// Target uplink port; ignored for node-scoped kinds (see
    /// [`FaultKind::is_port_scoped`]).
    pub port: PortId,
    /// Window start (fault becomes active).
    pub start: SimTime,
    /// Window end (fault clears). Must be strictly after `start`.
    pub end: SimTime,
}

/// A fault plan was rejected by validation. Mirrors the shape of
/// `ConfigError` in the core crate: the offending field plus a
/// human-readable reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultError {
    /// Which part of the plan was invalid (e.g. `"end"`, `"node"`).
    pub field: &'static str,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for FaultError {}

fn err(field: &'static str, reason: impl Into<String>) -> FaultError {
    FaultError { field, reason: reason.into() }
}

/// A validated, ordered set of fault windows to inject into one simulation.
///
/// Build with [`FaultPlan::builder`]. The plan is inert data; injection
/// order on the sim clock is fixed by each spec's window, and the engine
/// schedules the window edges as ordinary events, so a given plan + seed
/// reproduces identical [`FaultReport`] counters on every run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Start building a plan.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder::default()
    }

    /// The scheduled fault windows, in insertion order. Indices into this
    /// slice identify faults in [`FaultReport::per_fault`].
    pub(crate) fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Number of fault windows in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Validate the plan against a concrete network shape: `node_num`
    /// switches with `uplinks` optical ports each, injected no earlier than
    /// `not_before` (the current sim time for a running network).
    pub(crate) fn validate_against(
        &self,
        node_num: u32,
        uplinks: u32,
        not_before: SimTime,
    ) -> Result<(), FaultError> {
        for (i, s) in self.faults.iter().enumerate() {
            if s.node.0 >= node_num {
                return Err(err(
                    "node",
                    format!("fault {i}: node {} out of range (node_num {node_num})", s.node),
                ));
            }
            if s.kind.is_port_scoped() && u32::from(s.port.0) >= uplinks {
                return Err(err(
                    "port",
                    format!("fault {i}: port {} out of range (uplinks {uplinks})", s.port),
                ));
            }
            if s.start < not_before {
                return Err(err(
                    "start",
                    format!(
                        "fault {i}: window starts at {} but the network is already at {}",
                        s.start, not_before
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Builder for [`FaultPlan`] — the same validate-on-build idiom as
/// `NetConfig::builder()`. Window shape errors (empty or inverted windows,
/// out-of-range corruption percentages) are caught by
/// [`FaultPlanBuilder::build`]; network-shape errors (node/port ranges) are
/// caught at injection time, when the plan meets a concrete network.
#[derive(Clone, Debug, Default)]
pub struct FaultPlanBuilder {
    faults: Vec<FaultSpec>,
}

impl FaultPlanBuilder {
    /// Add an arbitrary fault window.
    pub fn fault(mut self, spec: FaultSpec) -> Self {
        self.faults.push(spec);
        self
    }

    /// Take an optical link down on `(node, port)` from `start_ns` to
    /// `end_ns`: drops at the port, masked out of routing.
    pub fn link_down(self, node: NodeId, port: PortId, start_ns: u64, end_ns: u64) -> Self {
        self.window(FaultKind::LinkDown, node, port, start_ns, end_ns)
    }

    /// Flap the transceiver on `(node, port)`: corrupt (lose) `corrupt_pct`
    /// percent of transmitted packets during the window.
    pub fn transceiver_flap(
        self,
        node: NodeId,
        port: PortId,
        corrupt_pct: u8,
        start_ns: u64,
        end_ns: u64,
    ) -> Self {
        self.window(FaultKind::TransceiverFlap { corrupt_pct }, node, port, start_ns, end_ns)
    }

    /// Stick the OCS port dark on `(node, port)`: circuits never establish,
    /// silently (no reroute) during the window.
    pub fn ocs_port_stuck(self, node: NodeId, port: PortId, start_ns: u64, end_ns: u64) -> Self {
        self.window(FaultKind::OcsPortStuck, node, port, start_ns, end_ns)
    }

    /// Corrupt `node`'s slice schedule: it misses every rotation during the
    /// window and resynchronizes when the window closes.
    pub fn slice_corruption(self, node: NodeId, start_ns: u64, end_ns: u64) -> Self {
        self.window(FaultKind::SliceCorruption, node, PortId(0), start_ns, end_ns)
    }

    /// Storm `node`'s hosts with NIC pause frames: their data transmission
    /// stalls until the window closes.
    pub fn nic_pause_storm(self, node: NodeId, start_ns: u64, end_ns: u64) -> Self {
        self.window(FaultKind::NicPauseStorm, node, PortId(0), start_ns, end_ns)
    }

    fn window(
        self,
        kind: FaultKind,
        node: NodeId,
        port: PortId,
        start_ns: u64,
        end_ns: u64,
    ) -> Self {
        self.fault(FaultSpec {
            kind,
            node,
            port,
            start: SimTime::from_ns(start_ns),
            end: SimTime::from_ns(end_ns),
        })
    }

    /// Validate window shapes and produce the plan.
    pub fn build(self) -> Result<FaultPlan, FaultError> {
        for (i, s) in self.faults.iter().enumerate() {
            if s.end <= s.start {
                return Err(err(
                    "end",
                    format!(
                        "fault {i} ({}): window [{}, {}) is empty or inverted",
                        s.kind.name(),
                        s.start,
                        s.end
                    ),
                ));
            }
            if let FaultKind::TransceiverFlap { corrupt_pct } = s.kind {
                if corrupt_pct == 0 || corrupt_pct > 100 {
                    return Err(err(
                        "corrupt_pct",
                        format!("fault {i}: corrupt_pct {corrupt_pct} not in 1..=100"),
                    ));
                }
            }
        }
        Ok(FaultPlan { faults: self.faults })
    }
}

/// Per-fault outcome counters, indexed like the plan's faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Times the fault window became active (1 per window unless re-armed).
    pub activations: u64,
    /// Packets dropped at the faulted port (link down / stuck OCS port).
    pub dropped: u64,
    /// Packets corrupted (and lost) by transceiver flap.
    pub corrupted: u64,
    /// Slice rotations the faulted node missed.
    pub missed_rotations: u64,
    /// Host transmission attempts deferred by the NIC pause storm.
    pub paused_tx: u64,
    /// Route-table recompilations this fault's transitions triggered.
    pub reroutes: u64,
}

impl FaultCounters {
    /// Every counter as a `(metric name, value)` pair, for telemetry
    /// mirroring. The pattern has no `..`, so a counter added without a
    /// name here does not build.
    pub fn counter_pairs(&self) -> [(&'static str, u64); 6] {
        let FaultCounters {
            activations,
            dropped,
            corrupted,
            missed_rotations,
            paused_tx,
            reroutes,
        } = *self;
        [
            ("faults.activations", activations),
            ("faults.dropped", dropped),
            ("faults.corrupted", corrupted),
            ("faults.missed_rotations", missed_rotations),
            ("faults.paused_tx", paused_tx),
            ("faults.reroutes", reroutes),
        ]
    }
}

/// Results of a fault campaign: campaign-wide delivery totals plus the
/// per-fault breakdown. Deterministic for a given plan + seed at any
/// `--jobs` count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Data packets delivered to hosts over the whole run.
    pub delivered: u64,
    /// Packets destroyed by faults (sum of per-fault `dropped`).
    pub dropped: u64,
    /// Packets destroyed by flap corruption (sum of per-fault `corrupted`).
    pub corrupted: u64,
    /// Transport-layer retransmissions over the whole run (RTO + watchdog +
    /// fast retransmit + NACK) — the recovery work the faults induced.
    pub retransmitted: u64,
    /// Route-table recompilations triggered by fault transitions.
    pub rerouted: u64,
    /// Slice rotations missed due to schedule corruption.
    pub missed_rotations: u64,
    /// Host transmissions deferred by pause storms.
    pub paused_tx: u64,
    /// Per-fault counters, indexed like the plan's faults.
    pub per_fault: Vec<FaultCounters>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accepts_well_formed_windows() {
        let plan = FaultPlan::builder()
            .link_down(NodeId(0), PortId(0), 10, 20)
            .transceiver_flap(NodeId(1), PortId(1), 50, 5, 500)
            .ocs_port_stuck(NodeId(2), PortId(0), 0, 1)
            .slice_corruption(NodeId(3), 100, 200)
            .nic_pause_storm(NodeId(4), 1_000, 2_000)
            .build()
            .expect("all windows are well-formed");
        assert_eq!(plan.len(), 5);
        assert!(!plan.is_empty());
        assert_eq!(plan.faults()[0].kind, FaultKind::LinkDown);
        assert_eq!(plan.faults()[3].kind, FaultKind::SliceCorruption);
    }

    #[test]
    fn empty_window_rejected() {
        let e = FaultPlan::builder()
            .link_down(NodeId(0), PortId(0), 20, 20)
            .build()
            .expect_err("empty window must be rejected");
        assert_eq!(e.field, "end");
    }

    #[test]
    fn inverted_window_rejected() {
        let e = FaultPlan::builder()
            .nic_pause_storm(NodeId(0), 30, 10)
            .build()
            .expect_err("inverted window must be rejected");
        assert_eq!(e.field, "end");
    }

    #[test]
    fn flap_percentage_bounds() {
        for pct in [0u8, 101, 255] {
            let e = FaultPlan::builder()
                .transceiver_flap(NodeId(0), PortId(0), pct, 0, 10)
                .build()
                .expect_err("out-of-range corrupt_pct must be rejected");
            assert_eq!(e.field, "corrupt_pct", "pct={pct}");
        }
        FaultPlan::builder()
            .transceiver_flap(NodeId(0), PortId(0), 100, 0, 10)
            .build()
            .expect("100% corruption is a legal (total) flap");
    }

    #[test]
    fn shape_validation_checks_ranges() {
        let plan = FaultPlan::builder()
            .link_down(NodeId(7), PortId(0), 0, 10)
            .build()
            .expect("window is well-formed");
        assert_eq!(
            plan.validate_against(8, 1, SimTime::ZERO),
            Ok(()),
            "node 7 fits an 8-node network"
        );
        let e = plan
            .validate_against(7, 1, SimTime::ZERO)
            .expect_err("node 7 must not fit a 7-node network");
        assert_eq!(e.field, "node");

        let plan = FaultPlan::builder()
            .link_down(NodeId(0), PortId(2), 0, 10)
            .build()
            .expect("window is well-formed");
        let e = plan
            .validate_against(8, 2, SimTime::ZERO)
            .expect_err("port 2 must not fit a 2-uplink network");
        assert_eq!(e.field, "port");
    }

    #[test]
    fn node_scoped_faults_ignore_port_range() {
        let plan = FaultPlan::builder()
            .slice_corruption(NodeId(0), 0, 10)
            .nic_pause_storm(NodeId(1), 0, 10)
            .build()
            .expect("windows are well-formed");
        assert_eq!(plan.validate_against(2, 1, SimTime::ZERO), Ok(()));
        assert!(!FaultKind::SliceCorruption.is_port_scoped());
        assert!(FaultKind::LinkDown.is_port_scoped());
    }

    #[test]
    fn late_injection_rejected() {
        let plan = FaultPlan::builder()
            .link_down(NodeId(0), PortId(0), 100, 200)
            .build()
            .expect("window is well-formed");
        let e = plan
            .validate_against(8, 1, SimTime::from_ns(150))
            .expect_err("window starting in the past must be rejected");
        assert_eq!(e.field, "start");
        assert_eq!(plan.validate_against(8, 1, SimTime::from_ns(100)), Ok(()));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            FaultKind::ALL.map(|k| k.name()),
            [
                "link_down",
                "transceiver_flap",
                "ocs_port_stuck",
                "slice_corruption",
                "nic_pause_storm"
            ]
        );
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(k.name()), Some(k));
        }
        assert_eq!(FaultKind::from_name("gamma_ray"), None);
    }

    #[test]
    fn counters_lost_sums_destroyed_packets() {
        let c = FaultCounters { dropped: 3, corrupted: 4, ..Default::default() };
        assert_eq!(c.dropped + c.corrupted, 7);
    }
}
