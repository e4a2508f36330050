//! `faults` — the fault-injection scenario sweep.
//!
//! One fault kind per row on the Fig. 7 testbed (8 ToRs, 2 uplinks,
//! slowed to 25 Gbps uplinks so queues actually build behind a failed
//! port), against a no-fault baseline. Two 4 MB paced transfers are
//! mid-flight when each fault window opens; the row records what the
//! fault cost and how the network degraded.
//!
//! Shape targets: the baseline and the *silent* faults deliver everything
//! eventually (watchdog recovery), `link_down` shows reroutes plus
//! drain-and-drop losses, `transceiver_flap` converts a share of
//! transmissions into corruptions, `slice_corruption` shows missed
//! rotations with no packet loss, and `nic_pause_storm` shows deferred
//! host transmissions stretching the FCT without loss.

use crate::par;
use crate::util::{self, Table};
use openoptics_core::{Architecture, FaultPlan, OpenOpticsNet, TransportKind};
use openoptics_proto::{HostId, NodeId, PortId};
use openoptics_sim::SimTime;

/// One fault scenario's outcome.
#[derive(Clone, Debug)]
pub(crate) struct FaultsRow {
    /// Scenario name (the fault kind injected).
    pub scenario: &'static str,
    /// Flows that completed within the window.
    pub completed: usize,
    /// Slowest flow completion, µs (0 if nothing completed).
    pub worst_fct_us: u64,
    /// Packets destroyed at faulted ports (drain-and-drop).
    pub dropped: u64,
    /// Packets corrupted by a flapping transceiver.
    pub corrupted: u64,
    /// Slice rotations the corrupted switch missed.
    pub missed_rotations: u64,
    /// Host transmissions deferred by the pause storm.
    pub paused_tx: u64,
    /// Route recompilations triggered by fault transitions.
    pub reroutes: u64,
    /// Retransmissions (watchdog + RTO + fast + NACK) spent recovering.
    pub retransmitted: u64,
}

/// The faulted testbed: Fig. 7 geometry, two uplinks, 25 Gbps uplink rate
/// so the host link outruns the fabric and queues build behind faults.
fn faults_cfg() -> openoptics_core::NetConfig {
    let mut cfg = util::testbed(10_000, 2);
    cfg.uplink_gbps = 25;
    cfg.sync_err_ns = 0;
    cfg
}

/// The fault campaign injected for scenario `i` (1-based; 0 is baseline).
fn plan_for(i: usize) -> FaultPlan {
    let b = FaultPlan::builder();
    let plan = match i {
        1 => b.link_down(NodeId(0), PortId(0), 50_000, 5_000_000),
        2 => b.transceiver_flap(NodeId(0), PortId(0), 40, 50_000, 5_000_000),
        3 => b.ocs_port_stuck(NodeId(0), PortId(1), 50_000, 5_000_000),
        4 => b.slice_corruption(NodeId(2), 50_000, 2_000_000),
        _ => b.nic_pause_storm(NodeId(0), 50_000, 2_000_000),
    };
    plan.build().expect("scenario windows are well-formed")
}

const SCENARIOS: [&str; 6] = [
    "baseline",
    "link_down",
    "transceiver_flap",
    "ocs_port_stuck",
    "slice_corruption",
    "nic_pause_storm",
];

/// Run the six scenarios at `seed` (the committed table's is 7); each is
/// an independent parallel point.
pub(crate) fn run(ms: u64, seed: u64) -> Vec<FaultsRow> {
    par::par_map(SCENARIOS.len(), |i| {
        let cfg = openoptics_core::NetConfig { seed, ..faults_cfg() };
        let mut net =
            OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet()).expect("rotornet deploys");
        if i > 0 {
            net.inject_faults(&plan_for(i)).expect("plans target the testbed");
        }
        // Two transfers mid-flight when the window opens at 50 µs: one
        // from the faulted ToR 0, one crossing the fabric from ToR 2.
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 4_000_000, TransportKind::Paced);
        net.add_flow(SimTime::from_ns(100), HostId(2), HostId(6), 4_000_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(ms));
        par::note_net(&net);
        let report = net.fault_report();
        let done = net.fct().completed();
        FaultsRow {
            scenario: SCENARIOS[i],
            completed: done.len(),
            worst_fct_us: done.iter().map(|r| r.fct_ns() / 1_000).max().unwrap_or(0),
            dropped: report.dropped,
            corrupted: report.corrupted,
            missed_rotations: report.missed_rotations,
            paused_tx: report.paused_tx,
            reroutes: report.rerouted,
            retransmitted: report.retransmitted,
        }
    })
}

/// The scenarios as a table.
pub(crate) fn table(rows: &[FaultsRow]) -> Table {
    let mut t = Table::new(&[
        "scenario",
        "completed",
        "worst fct",
        "dropped",
        "corrupted",
        "missed rot",
        "paused tx",
        "reroutes",
        "retx",
    ]);
    for r in rows {
        t.row(vec![
            r.scenario.to_string(),
            format!("{}/2", r.completed),
            format!("{} us", r.worst_fct_us),
            r.dropped.to_string(),
            r.corrupted.to_string(),
            r.missed_rotations.to_string(),
            r.paused_tx.to_string(),
            r.reroutes.to_string(),
            r.retransmitted.to_string(),
        ]);
    }
    t
}
