//! Integration tests of the infrastructure services added on top of the
//! data plane (§5.2): circuit notifications, trim-NACK recovery, pending-
//! demand collection, and the Shale preset.

use openoptics::core::{Architecture, NetConfig, OpenOpticsNet, PauseMode, TransportKind};
use openoptics::proto::{HostId, NodeId};
use openoptics::routing::algos::Direct;
use openoptics::routing::{LookupMode, MultipathMode};
use openoptics::sim::SimTime;

fn cfg(n: u32, slice_us: u64) -> NetConfig {
    NetConfig {
        node_num: n,
        uplink: 1,
        slice_ns: slice_us * 1_000,
        guard_ns: 500,
        sync_err_ns: 0,
        ..Default::default()
    }
}

#[test]
fn circuit_notifications_drive_flow_pausing() {
    // Direct-circuit pausing is driven by pre-boundary notification
    // broadcasts; the counter proves the evented path runs, and the flow
    // still completes with minimal switch buffering.
    let mut net = OpenOpticsNet::deploy(
        cfg(8, 50),
        Architecture::rotornet().with_pause(PauseMode::DirectCircuit),
        Box::new(Direct),
        LookupMode::PerHop,
        MultipathMode::None,
    )
    .expect("rotornet-direct deploys");
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 150_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(30));
    assert_eq!(net.fct().completed().len(), 1);
    assert!(net.engine.counters.circuit_notifications > 0, "notification broadcasts must fire");
    assert!(net.engine.tor(NodeId(0)).peak_buffer_bytes <= 64 * 1500);
}

#[test]
fn trim_nack_recovers_without_watchdog() {
    // Force trimming: tiny queues + trim policy; the NACK path (not the
    // 10 ms watchdog) must recover the payload quickly.
    let mut c = cfg(8, 50);
    c.congestion_policy = "trim".to_string();
    c.congestion_threshold = 64 * 1024;
    let mut net = OpenOpticsNet::deploy(
        c,
        Architecture::rotornet(),
        Box::new(Direct),
        LookupMode::PerHop,
        MultipathMode::None,
    )
    .expect("rotornet deploys");
    net.engine.watchdog_retransmit = false; // isolate the NACK path
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 2_000_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(60));
    assert!(net.engine.counters.trimmed_received > 0, "test must exercise trimming");
    assert_eq!(net.fct().completed().len(), 1, "NACK retransmission alone must complete the flow");
}

#[test]
fn pending_demand_report_sees_paused_elephants() {
    // c-Through collection: a paused elephant's bytes sit in the vma queue
    // and must appear in the host-side demand report.
    let tm0 = {
        let mut t = openoptics::topo::TrafficMatrix::zeros(8);
        // Initial circuits serve a pair the elephant does NOT use.
        t.set(NodeId(2), NodeId(3), 10.0);
        t
    };
    let mut c = cfg(8, 100);
    c.elephant_threshold = 10_000;
    let mut net =
        OpenOpticsNet::deploy_preset(c, Architecture::cthrough(&tm0)).expect("cthrough deploys");
    // Elephant 0 -> 5: pair (0,5) has no circuit, so it pauses.
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 3_000_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(2));
    let pending = net.collect_pending();
    assert!(
        pending.get(NodeId(0), NodeId(5)) > 0.0,
        "paused elephant demand must be visible to the controller"
    );
    // Reconfigure from the pending report — the c-Through loop — and the
    // elephant drains.
    net.reconfigure(&pending).expect("pending demand yields a valid schedule");
    net.run_for(SimTime::from_ms(80));
    assert_eq!(net.fct().completed().len(), 1, "elephant completes after reconfiguration");
}

#[test]
fn shale_preset_runs_grid_traffic() {
    // 27 nodes = 3^3 grid, the paper's "three-dimensional round-robin".
    let mut net =
        OpenOpticsNet::deploy_preset(cfg(27, 50), Architecture::shale(3)).expect("shale deploys");
    // A pair differing in all three coordinates (0 vs 26) needs 3 hops.
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(26), 60_000, TransportKind::Paced);
    net.add_flow(SimTime::from_ns(200), HostId(3), HostId(4), 60_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(40));
    assert_eq!(net.fct().completed().len(), 2, "grid routing must deliver both flows");
}

#[test]
fn ocs_structure_feasibility_is_enforced() {
    use openoptics::core::DeployError;
    use openoptics::fabric::{Circuit, LayoutError};
    use openoptics::proto::PortId;
    use openoptics::topo::round_robin;

    // Two parallel rails: uplink 0 -> OCS 0, uplink 1 -> OCS 1.
    let mut c = cfg(8, 100);
    c.uplink = 2;
    c.ocs_count = 2;
    let mut net = openoptics::core::OpenOpticsNet::new(c);
    assert_eq!(net.layout().num_devices(), 2);

    // Round robin keeps each circuit on one rail: deploys fine.
    let (circuits, slices) = round_robin(8, 2);
    net.deploy_topo(&circuits, slices).expect("rail-aligned schedule is physical");

    // A circuit joining port 0 of one node to port 1 of another would need
    // a waveguide between the two devices: rejected with a layout error.
    let cross = vec![Circuit::held(NodeId(0), PortId(0), NodeId(3), PortId(1))];
    match net.deploy_topo(&cross, 1) {
        Err(DeployError::Layout(LayoutError::SplitAcrossDevices { .. })) => {}
        other => panic!("expected a split-across-devices rejection, got {other:?}"),
    }
}
