//! Extended integration coverage: multi-host racks, Shale-style
//! multi-dimensional schedules, reconfiguration loss accounting, EQO-driven
//! congestion under the minimum slice, and monitoring consistency under
//! load.

use openoptics::core::{Architecture, NetConfig, OpenOpticsNet, TransportKind};
use openoptics::proto::{HostId, NodeId, PortId};
use openoptics::routing::algos::Hoho;
use openoptics::routing::{LookupMode, MultipathMode};
use openoptics::sim::SimTime;
use openoptics::topo::round_robin_multidim;

fn base_cfg() -> NetConfig {
    NetConfig {
        node_num: 4,
        uplink: 1,
        hosts_per_node: 1,
        slice_ns: 50_000,
        guard_ns: 500,
        sync_err_ns: 0,
        ..Default::default()
    }
}

#[test]
fn multi_host_racks_route_inter_and_intra() {
    // 4 ToRs x 3 hosts: intra-rack flows never touch the optical fabric;
    // inter-rack flows do. Both complete.
    let mut cfg = base_cfg();
    cfg.hosts_per_node = 3;
    let mut net =
        OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet()).expect("rotornet deploys");
    // Intra-rack: host 0 -> host 2 (both under ToR 0).
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(2), 50_000, TransportKind::Paced);
    // Inter-rack: host 1 (ToR 0) -> host 10 (ToR 3).
    net.add_flow(SimTime::from_ns(200), HostId(1), HostId(10), 50_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(20));
    assert_eq!(net.fct().completed().len(), 2);
    // The intra-rack flow is ToR-local: its ToR delivered packets locally.
    assert!(net.engine.tor(NodeId(0)).counters.delivered_local > 0);
}

#[test]
fn shale_multidim_schedule_carries_traffic() {
    // 9 nodes in a 3x3 grid (Shale-style, one uplink). Grid neighbors are
    // direct; others need multi-hop (HOHO finds the tour).
    let (circuits, slices) = round_robin_multidim(9, 2);
    let mut cfg = base_cfg();
    cfg.node_num = 9;
    let mut net = OpenOpticsNet::new(cfg);
    net.deploy_topo(&circuits, slices).unwrap();
    net.deploy_routing(Hoho::default(), LookupMode::PerHop, MultipathMode::None)
        .expect("HOHO pairs with a grid schedule");
    // 0 -> 4 has no direct circuit ever (different row and column).
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(4), 40_000, TransportKind::Paced);
    net.add_flow(SimTime::from_ns(200), HostId(0), HostId(1), 40_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(30));
    assert_eq!(net.fct().completed().len(), 2, "grid routing must deliver both");
}

#[test]
fn reconfiguration_losses_are_accounted() {
    // Keep transmitting while a TA reconfiguration is in flight: packets
    // caught in the dark window are counted as fabric losses, and traffic
    // recovers afterwards.
    use openoptics::fabric::Circuit;
    let mut cfg = base_cfg();
    cfg.ocs_reconfig_ns = 2_000_000; // 2 ms window
    let mut net = OpenOpticsNet::new(cfg);
    let a = vec![Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0))];
    net.deploy_topo(&a, 1).unwrap();
    net.deploy_routing(openoptics::routing::algos::Direct, LookupMode::PerHop, MultipathMode::None)
        .expect("Direct has no schedule requirements");
    // A long flow spanning the reconfiguration.
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(1), 60_000_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(1));
    // Redeploy the same topology: the fabric still goes dark for 2 ms.
    net.deploy_topo(&a, 1).unwrap();
    net.run_for(SimTime::from_ms(30));
    let (_, lost) = net.engine.fabric_stats();
    assert!(lost > 0, "packets in flight during reconfiguration must be lost");
    assert_eq!(net.fct().completed().len(), 1, "the flow still completes (watchdog)");
}

#[test]
fn min_slice_sustains_continuous_load() {
    // The paper's 2 us / 200 ns configuration under a sustained multi-flow
    // load: no fabric loss, bounded switch buffers.
    let mut cfg = base_cfg();
    cfg.node_num = 8;
    cfg.slice_ns = 2_000;
    cfg.guard_ns = 200;
    cfg.sync_err_ns = 28;
    let mut net =
        OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet()).expect("rotornet deploys");
    for i in 0..8u32 {
        net.add_flow(
            SimTime::from_ns(100 + i as u64 * 777),
            HostId(i),
            HostId((i + 3) % 8),
            300_000,
            TransportKind::Paced,
        );
    }
    net.run_for(SimTime::from_ms(30));
    assert_eq!(net.fct().completed().len(), 8);
    let (_, lost) = net.engine.fabric_stats();
    assert_eq!(lost, 0, "guardband must absorb sync error and rotation variance");
    for n in 0..8 {
        assert!(
            net.engine.tor(NodeId(n)).peak_buffer_bytes < 2 * 1024 * 1024,
            "ToR {n} buffer ran away"
        );
    }
}

#[test]
fn buffer_usage_monitoring_tracks_load() {
    // buffer_usage() must be non-zero while a VLB burst is waiting and
    // return to zero after it drains.
    let mut cfg = base_cfg();
    cfg.node_num = 8;
    let mut net =
        OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet()).expect("rotornet deploys");
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 500_000, TransportKind::Paced);
    // Run just past the burst injection: relays still hold packets.
    net.run_for(SimTime::from_us(120));
    let held: u64 = (0..8).map(|n| net.buffer_usage(NodeId(n), PortId(0))).sum();
    assert!(held > 0, "mid-flight VLB burst must occupy calendar queues");
    net.run_for(SimTime::from_ms(30));
    let after: u64 = (0..8).map(|n| net.buffer_usage(NodeId(n), PortId(0))).sum();
    assert_eq!(after, 0, "queues must drain");
    assert_eq!(net.fct().completed().len(), 1);
}

#[test]
fn seeds_change_stochastic_outcomes() {
    // Different seeds must change per-packet timing (anti-test for an
    // ignored seed). Flow completion itself is quantized to slice
    // boundaries — the guardband absorbs sync offsets by design — so the
    // seed shows up in the per-packet delay samples (pipeline jitter and
    // clock offsets), not the FCT.
    let run = |seed: u64| {
        let mut cfg = base_cfg();
        cfg.node_num = 8;
        cfg.seed = seed;
        cfg.sync_err_ns = 28;
        let mut net =
            OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet()).expect("rotornet deploys");
        net.engine.record_delays = true;
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 200_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(20));
        assert_eq!(net.fct().completed().len(), 1);
        std::mem::take(&mut net.engine.delay_samples)
    };
    let (a, b) = (run(1), run(2));
    assert!(a != b, "per-packet delays must depend on the seed");
}
