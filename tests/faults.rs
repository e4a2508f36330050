//! Fault-injection integration tests: campaign replay determinism (the
//! telemetry export of a faulted run is byte-identical across runs and
//! threads), reroute-mask correctness, and transport recovery under
//! injected loss.

use std::thread;

use openoptics::prelude::*;
use proptest::prelude::*;

fn testbed(uplink: u16, seed: u64) -> OpenOpticsNet {
    let cfg = NetConfig::builder()
        .node_num(8)
        .uplink(uplink)
        .slice_ns(10_000)
        .guard_ns(200)
        .sync_err_ns(0)
        .seed(seed)
        .build()
        .expect("valid test config");
    let mut net = OpenOpticsNet::new(cfg.clone());
    let (circuits, slices) = round_robin(cfg.node_num, cfg.uplink);
    net.deploy_topo(&circuits, slices).expect("round robin deploys");
    net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
        .expect("routing pairs with this schedule");
    net
}

/// A link failure mid-run triggers a reroute, traffic through the failed
/// node is recompiled around it, and the source whose only uplink died
/// recovers after the window closes.
#[test]
fn link_down_reroutes_and_recovers() {
    let mut net = testbed(1, 7);
    let plan = FaultPlan::builder()
        .link_down(NodeId(2), PortId(0), 50_000, 5_000_000)
        .build()
        .expect("valid plan");
    net.inject_faults(&plan).expect("plan accepted");
    // Both flows are mid-transfer when the link dies at 300 µs: (a)
    // crosses the fabric while node 2 is dark — must route around it;
    // (b) originates at node 2 — its queued packets drain-and-drop and the
    // rest is black-holed until recovery.
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 1_000_000, TransportKind::Paced);
    net.add_flow(SimTime::from_ns(100), HostId(2), HostId(6), 1_000_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(80));

    let report = net.fault_report();
    assert!(report.rerouted >= 1, "link-down must recompile routes: {report:?}");
    assert!(report.dropped > 0, "the dark uplink must drain-and-drop: {report:?}");
    assert_eq!(net.fct().completed().len(), 2, "both flows recover: {report:?}");
    assert_eq!(net.engine.counters.fault_drops, report.dropped + report.corrupted);
}

/// With a spare uplink, masked route compilation avoids the failed link
/// entirely: the flow completes and *nothing* is ever transmitted into the
/// dead port.
#[test]
fn masked_routing_avoids_failed_link() {
    let mut net = testbed(2, 7);
    let plan = FaultPlan::builder()
        .link_down(NodeId(0), PortId(0), 0, 80_000_000)
        .build()
        .expect("valid plan");
    net.inject_faults(&plan).expect("plan accepted");
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(4), 100_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(80));

    let report = net.fault_report();
    assert_eq!(net.fct().completed().len(), 1, "flow completes on the spare uplink");
    assert_eq!(report.dropped, 0, "masked routing never offers the dead port: {report:?}");
}

/// A stuck OCS port is *silent*: the controller never learns of it, so no
/// reroute happens and per-packet multipath keeps losing a share of the
/// traffic into the stuck port until the window closes.
#[test]
fn ocs_port_stuck_is_silent() {
    let mut net = testbed(2, 7);
    let plan = FaultPlan::builder()
        .ocs_port_stuck(NodeId(3), PortId(1), 100_000, 10_000_000)
        .build()
        .expect("valid plan");
    net.inject_faults(&plan).expect("plan accepted");
    net.add_flow(SimTime::from_ns(200_000), HostId(3), HostId(7), 200_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(80));

    let report = net.fault_report();
    assert!(report.dropped > 0, "stuck port black-holes its share: {report:?}");
    assert_eq!(report.rerouted, 0, "a silent fault must not trigger reroutes: {report:?}");
    assert_eq!(net.fct().completed().len(), 1, "watchdog recovers the lost share");
}

/// 100% BER on a flapping transceiver corrupts every segment the TCP
/// sender puts on the wire, so the retransmission timeout must fire; once
/// the flap clears the flow completes.
#[test]
fn rto_fires_under_injected_loss() {
    let mut net = testbed(1, 7);
    let plan = FaultPlan::builder()
        .transceiver_flap(NodeId(0), PortId(0), 100, 100_000, 3_000_000)
        .build()
        .expect("valid plan");
    net.inject_faults(&plan).expect("plan accepted");
    let tcp = TcpConfig { rto_ns: 1_000_000, ..TcpConfig::default() };
    net.add_flow(SimTime::from_ns(200_000), HostId(0), HostId(3), 200_000, TransportKind::Tcp(tcp));
    net.run_for(SimTime::from_ms(80));

    let report = net.fault_report();
    assert!(report.corrupted > 0, "the flap must corrupt in-window segments: {report:?}");
    assert!(net.engine.counters.rto_retransmits > 0, "RTO must fire under total loss");
    assert!(report.retransmitted > 0, "report mirrors the retransmit counters");
    assert_eq!(net.fct().completed().len(), 1, "TCP recovers after the flap clears");
}

/// Slice-schedule corruption makes a node miss rotations (tracked), then
/// resynchronize when the window closes; traffic through it still
/// completes.
#[test]
fn slice_corruption_desyncs_then_resyncs() {
    let mut net = testbed(1, 7);
    let plan = FaultPlan::builder()
        .slice_corruption(NodeId(2), 1_000_000, 2_000_000)
        .build()
        .expect("valid plan");
    net.inject_faults(&plan).expect("plan accepted");
    net.add_flow(SimTime::from_ms(1), HostId(2), HostId(6), 100_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(80));

    let report = net.fault_report();
    assert!(report.missed_rotations > 0, "rotations must be skipped in-window: {report:?}");
    assert_eq!(net.fct().completed().len(), 1, "the node resyncs and traffic drains");
}

/// A NIC pause storm defers every host transmission to the end of the
/// window: the flow cannot finish before the storm clears.
#[test]
fn nic_pause_storm_defers_tx() {
    let mut net = testbed(1, 7);
    let plan =
        FaultPlan::builder().nic_pause_storm(NodeId(0), 0, 2_000_000).build().expect("valid plan");
    net.inject_faults(&plan).expect("plan accepted");
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(4), 50_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(80));

    let report = net.fault_report();
    assert!(report.paused_tx > 0, "the storm must defer transmissions: {report:?}");
    let done = net.fct().completed();
    assert_eq!(done.len(), 1, "flow completes after the storm: {report:?}");
    assert!(done[0].fct_ns() > 1_000_000, "completion waits out the storm window");
}

/// Malformed plans and out-of-network targets are rejected through
/// `openoptics::core::Error`, never silently accepted.
#[test]
fn invalid_plans_are_rejected() {
    // Inverted window and zero/overflowing corruption rates die at build().
    assert!(FaultPlan::builder().link_down(NodeId(0), PortId(0), 500, 500).build().is_err());
    assert!(FaultPlan::builder()
        .transceiver_flap(NodeId(0), PortId(0), 0, 0, 1_000)
        .build()
        .is_err());
    assert!(FaultPlan::builder()
        .transceiver_flap(NodeId(0), PortId(0), 101, 0, 1_000)
        .build()
        .is_err());

    // Targets outside the configured network die at inject_faults().
    let mut net = testbed(1, 7);
    let bad_node =
        FaultPlan::builder().link_down(NodeId(99), PortId(0), 0, 1_000).build().expect("builds");
    assert!(matches!(net.inject_faults(&bad_node), Err(Error::Fault(_))));
    let bad_port =
        FaultPlan::builder().link_down(NodeId(0), PortId(9), 0, 1_000).build().expect("builds");
    assert!(matches!(net.inject_faults(&bad_port), Err(Error::Fault(_))));

    // Windows opening in the simulated past are rejected once running.
    net.run_for(SimTime::from_ms(1));
    let stale =
        FaultPlan::builder().link_down(NodeId(0), PortId(0), 0, 2_000_000).build().expect("builds");
    assert!(matches!(net.inject_faults(&stale), Err(Error::Fault(_))));
}

/// One faulted run, summarized: the full telemetry export, the fault
/// report, and every completed-flow record.
fn run_campaign(seed: u64, plan: &FaultPlan) -> (String, FaultReport, String) {
    let mut net = testbed(2, seed);
    net.inject_faults(plan).expect("plan accepted");
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 80_000, TransportKind::Paced);
    net.add_flow(
        SimTime::from_ms(1),
        HostId(2),
        HostId(6),
        120_000,
        TransportKind::Tcp(TcpConfig::default()),
    );
    net.run_for(SimTime::from_ms(40));
    let telemetry = net.export_telemetry("json").expect("telemetry enabled");
    (telemetry, net.fault_report(), format!("{:?}", net.fct().completed()))
}

fn mixed_plan() -> FaultPlan {
    FaultPlan::builder()
        .link_down(NodeId(1), PortId(0), 1_000_000, 4_000_000)
        .transceiver_flap(NodeId(2), PortId(1), 40, 2_000_000, 6_000_000)
        .ocs_port_stuck(NodeId(5), PortId(0), 500_000, 3_000_000)
        .slice_corruption(NodeId(6), 1_500_000, 2_500_000)
        .nic_pause_storm(NodeId(0), 2_000_000, 5_000_000)
        .build()
        .expect("valid plan")
}

/// Replaying the same campaign yields byte-identical telemetry, an equal
/// fault report, and identical flow records — including across threads
/// (the `--jobs N` byte-identity contract).
#[test]
fn campaign_replay_is_byte_identical() {
    let plan = mixed_plan();
    let first = run_campaign(7, &plan);
    let second = run_campaign(7, &plan);
    assert_eq!(first, second, "serial replay must be byte-identical");

    let parallel: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(|| run_campaign(7, &mixed_plan()))).collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    for run in &parallel {
        assert_eq!(*run, first, "threaded replay must be byte-identical");
    }
}

type ArbFault = ((u8, u32, u16), (u8, u64, u64));

fn arb_fault() -> impl Strategy<Value = ArbFault> {
    ((0u8..5, 0u32..8, 0u16..2), (1u8..=100, 100_000u64..2_000_000, 50_000u64..1_500_000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any valid fault plan replays deterministically: two runs of the
    /// same seeded testbed under the same campaign export byte-identical
    /// telemetry and equal fault reports.
    #[test]
    fn any_plan_replays_identically(
        faults in proptest::collection::vec(arb_fault(), 1..4),
        seed in 1u64..64,
    ) {
        let mut b = FaultPlan::builder();
        for &((kind, node, port), (pct, start, dur)) in &faults {
            let (n, p, end) = (NodeId(node), PortId(port), start + dur);
            b = match kind {
                0 => b.link_down(n, p, start, end),
                1 => b.transceiver_flap(n, p, pct, start, end),
                2 => b.ocs_port_stuck(n, p, start, end),
                3 => b.slice_corruption(n, start, end),
                _ => b.nic_pause_storm(n, start, end),
            };
        }
        let plan = b.build().expect("windows are well-formed by construction");
        prop_assert_eq!(run_campaign(seed, &plan), run_campaign(seed, &plan));
    }
}

/// Packet conservation through the engine's one drop funnel: every data
/// packet a host transmits is delivered or counted against exactly one
/// cause, and nothing is left inside a switch once the network has drained.
/// (`strict-invariants` checks the same law for every packet kind at the
/// end of every `run_for`; this run pins that three causes are exercised.)
#[test]
fn every_transmitted_packet_is_delivered_or_counted_against_one_cause() -> Result<(), Error> {
    let cfg = NetConfig::builder()
        .node_num(8)
        .uplink(1)
        .slice_ns(10_000)
        .guard_ns(200)
        .sync_err_ns(0)
        .congestion_policy("drop")
        .queue_capacity(24_000)
        .seed(11)
        .build()?;
    let mut net = OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet())?;
    assert!(net.engine.watchdog_retransmit, "the watchdog recovers what the faults destroy");
    let plan = FaultPlan::builder()
        .link_down(NodeId(2), PortId(0), 50_000, 3_000_000)
        .transceiver_flap(NodeId(5), PortId(0), 30, 20_000, 4_000_000)
        .build()?;
    net.inject_faults(&plan)?;
    // Paced flows only: no ACKs, no probes — every packet is a data packet.
    let flows = 8;
    for h in 0..flows {
        let (src, dst) = (HostId(h), HostId((h + 3) % 8));
        net.add_flow(SimTime::from_ns(100), src, dst, 400_000, TransportKind::Paced);
    }
    for _ in 0..400 {
        if net.fct().completed().len() == flows as usize {
            break;
        }
        net.run_for(SimTime::from_ms(1));
    }
    assert_eq!(net.fct().completed().len(), flows as usize, "every flow completes");
    net.run_for(SimTime::from_ms(5));

    let c = net.engine.counters;
    let causes = [c.fabric_drops, c.switch_drops, c.no_route_drops, c.link_drops, c.fault_drops];
    assert_eq!(
        c.host_tx_packets,
        c.delivered_packets + causes.iter().sum::<u64>(),
        "residual by cause [fabric, switch, no_route, link, fault] = {causes:?}, \
         delivered {}, transmitted {}",
        c.delivered_packets,
        c.host_tx_packets,
    );
    assert!(causes.iter().filter(|&&n| n > 0).count() >= 3, "{causes:?}");
    for node in (0..8).map(NodeId) {
        let tor = net.engine.tor(node);
        assert_eq!(tor.buffer_bytes(), 0, "{node} still buffers packets");
        assert!(tor.offload_book.is_empty(), "{node} still has packets parked on hosts");
    }
    // Every drop site freed its packet: a leaked handle would still be live.
    assert_eq!(net.engine.live_packets(), 0, "the drained network still stores packets");
    Ok(())
}

/// A link-down window open across a mid-run redeploy: once the OCS move
/// lands, the mask routing compiles against is the *new* schedule minus the
/// circuit on the downed port — not the old schedule's leftovers. Ring
/// 0-1-3-2 becomes ring 0-2-1-3 with `(N0, p0)` down throughout: 0 -> 1 runs
/// 0.p1 -> 2 -> 3 -> 1 before the move and 0.p1 -> 3 -> 1 after it, over two
/// circuits only the new schedule has.
#[test]
fn link_down_mask_follows_a_redeploy() -> Result<(), Error> {
    use openoptics::routing::algos::Ecmp;
    let (n0, n1, n2, n3) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    let (p0, p1) = (PortId(0), PortId(1));
    let cfg = NetConfig::builder()
        .node_num(4)
        .uplink(2)
        .sync_err_ns(0)
        .ocs_reconfig_ns(200_000)
        .build()?;
    let mut net = OpenOpticsNet::new(cfg);
    let a = [
        Circuit::held(n0, p0, n1, p0),
        Circuit::held(n0, p1, n2, p0),
        Circuit::held(n2, p1, n3, p0),
        Circuit::held(n3, p1, n1, p1),
    ];
    let b = [
        Circuit::held(n0, p0, n2, p0),
        Circuit::held(n0, p1, n3, p1),
        Circuit::held(n3, p0, n1, p1),
        Circuit::held(n2, p1, n1, p0),
    ];
    net.deploy_topo(&a, 1)?;
    net.deploy_routing(Ecmp::default(), LookupMode::PerHop, MultipathMode::PerFlow)?;
    net.inject_faults(&FaultPlan::builder().link_down(n0, p0, 100_000, 50_000_000).build()?)?;
    net.add_flow(SimTime::from_ns(50), HostId(0), HostId(1), 20_000_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(1));
    assert_eq!(net.bw_usage(n3, p0), 0, "3.p0 leads back to 2 on the old ring: never used");
    net.deploy_topo(&b, 1)?;
    // The move lands at 1.2 ms; whatever the dead port still held when the
    // window opened has long drained into the fault by then.
    net.run_for(SimTime::from_us(200));
    let (into_dead_port, dropped) = (net.bw_usage(n0, p0), net.fault_report().dropped);
    assert!(into_dead_port > 0, "the flow was on the port until it died");
    net.run_for(SimTime::from_ms(40));

    assert_eq!(net.fct().completed().len(), 1, "{:?}", net.engine.counters);
    assert_eq!(net.engine.counters.no_route_drops, 0, "a route led where no circuit goes");
    let report = net.fault_report();
    assert_eq!(
        (net.bw_usage(n0, p0), report.dropped),
        (into_dead_port, dropped),
        "the new schedule's masked routes never offer the dead port: {report:?}"
    );
    assert_eq!(net.bw_usage(n2, p0), 0, "0.p0 <-> 2.p0 is the masked circuit of the new ring");
    assert!(net.bw_usage(n3, p0) > 0, "3.p0 <-> 1.p1 exists only in the new schedule");
    Ok(())
}
