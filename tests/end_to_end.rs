//! End-to-end integration tests spanning the whole stack: schedules built
//! by `openoptics-topo`, routed by `openoptics-routing`, executed by the
//! switch/host models inside the core engine.

use openoptics::core::{
    Architecture, DispatchPolicy, NetConfig, OpenOpticsNet, PauseMode, TransportKind,
};
use openoptics::proto::{HostId, NodeId};
use openoptics::routing::algos::{Direct, Hoho, Ucmp, Vlb};
use openoptics::routing::{LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics::sim::SimTime;
use openoptics::workload::{PoissonArrivals, Trace};
use openoptics_host::TcpConfig;

fn cfg(n: u32, uplinks: u16, slice_us: u64) -> NetConfig {
    NetConfig {
        node_num: n,
        uplink: uplinks,
        hosts_per_node: 1,
        slice_ns: slice_us * 1_000,
        guard_ns: (slice_us * 100).clamp(200, 1_000),
        sync_err_ns: 28,
        ..Default::default()
    }
}

fn run_flows(net: &mut OpenOpticsNet, flows: &[(u32, u32, u64)], ms: u64) {
    for (i, &(s, d, bytes)) in flows.iter().enumerate() {
        net.add_flow(
            SimTime::from_ns(100 + i as u64 * 5_000),
            HostId(s),
            HostId(d),
            bytes,
            TransportKind::Paced,
        );
    }
    net.run_for(SimTime::from_ms(ms));
}

#[test]
fn every_architecture_delivers_every_pair() {
    // All-pairs mini-mesh traffic over every preset architecture.
    let flows: Vec<(u32, u32, u64)> =
        (0..8).flat_map(|s| (0..8).filter(move |&d| d != s).map(move |d| (s, d, 30_000))).collect();
    let tm = {
        let mut tm = openoptics::topo::TrafficMatrix::uniform(8, 100.0);
        tm.set(NodeId(0), NodeId(0), 0.0);
        tm
    };
    let presets = [
        ("clos", 1, Architecture::clos()),
        ("cthrough", 2, Architecture::cthrough(&tm)),
        ("jupiter", 2, Architecture::jupiter()),
        ("mordia", 1, Architecture::mordia(&tm, 8)),
        ("rotornet", 1, Architecture::rotornet()),
        ("opera", 2, Architecture::opera()),
        ("semi-oblivious", 1, Architecture::semi_oblivious(&tm, 3)),
    ];
    for (name, uplinks, arch) in presets {
        let mut net = OpenOpticsNet::deploy_preset(cfg(8, uplinks, 100), arch).expect(name);
        run_flows(&mut net, &flows, 80);
        assert_eq!(
            net.fct().completed().len(),
            flows.len(),
            "{name}: {} of {} flows completed ({} outstanding)",
            net.fct().completed().len(),
            flows.len(),
            net.fct().outstanding(),
        );
    }
}

#[test]
fn to_routings_deliver_on_shared_schedule() {
    let routings: [(&str, Box<dyn RoutingAlgorithm>, MultipathMode); 4] = [
        ("vlb", Box::new(Vlb), MultipathMode::PerPacket),
        ("direct", Box::new(Direct), MultipathMode::None),
        ("ucmp", Box::new(Ucmp::default()), MultipathMode::PerPacket),
        ("hoho", Box::new(Hoho::default()), MultipathMode::None),
    ];
    for (name, algo, multipath) in routings {
        let mut net = OpenOpticsNet::deploy(
            cfg(8, 1, 50),
            Architecture::rotornet(),
            algo,
            LookupMode::PerHop,
            multipath,
        )
        .expect(name);
        run_flows(&mut net, &[(0, 5, 200_000), (3, 1, 80_000), (7, 2, 40_000)], 60);
        assert_eq!(net.fct().completed().len(), 3, "{name} left flows incomplete");
    }
}

#[test]
fn paper_scale_ucmp_and_hoho_complete_every_flow() -> Result<(), openoptics::core::Error> {
    // The size of the paper's Tables 3-4: 108 ToRs x 6 uplinks, RPC trace at
    // 20 % host load for one 300 us slice, then drain. Both schemes route
    // every miss through the earliest-arrival sweep.
    let routings: [(&str, Box<dyn RoutingAlgorithm>, MultipathMode); 2] = [
        ("ucmp", Box::new(Ucmp::default()), MultipathMode::PerPacket),
        ("hoho", Box::new(Hoho::default()), MultipathMode::None),
    ];
    for (name, algo, multipath) in routings {
        let mut net = OpenOpticsNet::deploy(
            cfg(108, 6, 300),
            Architecture::rotornet(),
            algo,
            LookupMode::PerHop,
            multipath,
        )?;
        let hosts = (0..108).map(HostId).collect();
        let link = net.engine.cfg.host_link_bandwidth();
        let mut arrivals = PoissonArrivals::new(hosts, Trace::Rpc.dist(), link, 0.2, 1);
        let mut want: Vec<u64> = vec![];
        for f in arrivals.take_until(SimTime::from_ns(300_000)) {
            let bytes = f.bytes.min(256 * 1024);
            net.add_flow(f.at, f.src, f.dst, bytes, TransportKind::Paced);
            want.push(bytes);
        }
        assert!(want.len() > 100, "{name}: only {} flows offered", want.len());
        net.run_for(SimTime::from_ms(40));

        let fct = net.fct();
        assert_eq!(fct.outstanding(), 0, "{name} left flows incomplete");
        for r in fct.completed() {
            assert_eq!(net.flow_delivered(r.flow), r.bytes, "{name}: flow {}", r.flow);
        }
        let mut got: Vec<u64> = fct.completed().iter().map(|r| r.bytes).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{name}: completed sizes differ from the requested sizes");
        assert_eq!(net.engine.counters.no_route_drops, 0, "{name}");
    }
    Ok(())
}

#[test]
fn no_loss_with_guardband_at_paper_min_slice() {
    // The 2 us / 200 ns headline configuration must deliver without fabric
    // loss ("we observe no packet loss in all the experiments with this
    // guardband value", §7).
    let mut net = OpenOpticsNet::deploy_preset(cfg(8, 1, 2), Architecture::rotornet())
        .expect("rotornet deploys");
    run_flows(&mut net, &[(0, 4, 100_000), (2, 6, 100_000)], 40);
    assert_eq!(net.fct().completed().len(), 2);
    let (delivered, lost) = net.engine.fabric_stats();
    assert!(delivered > 0);
    assert_eq!(lost, 0, "guardband must prevent fabric loss");
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut net = OpenOpticsNet::deploy_preset(cfg(8, 1, 20), Architecture::rotornet())
            .expect("rotornet deploys");
        run_flows(&mut net, &[(0, 5, 150_000), (1, 6, 90_000)], 40);
        let mut fcts: Vec<u64> = net.fct().completed().iter().map(|r| r.fct_ns()).collect();
        fcts.sort_unstable();
        (fcts, net.engine.counters.host_tx_packets)
    };
    assert_eq!(run(), run(), "same seed must reproduce bit-identical results");
}

#[test]
fn tcp_over_rotornet_completes_and_reorders_under_vlb() {
    let mut net = OpenOpticsNet::deploy(
        cfg(8, 2, 50),
        Architecture::rotornet(),
        Box::new(Vlb),
        LookupMode::PerHop,
        MultipathMode::PerPacket,
    )
    .expect("rotornet deploys");
    net.add_flow(
        SimTime::from_ns(100),
        HostId(0),
        HostId(5),
        2_000_000,
        TransportKind::Tcp(TcpConfig::default()),
    );
    net.run_for(SimTime::from_ms(200));
    assert_eq!(net.fct().completed().len(), 1, "TCP flow must finish");
    assert!(net.engine.flow_reorder_events(1) > 0, "VLB spraying must reorder TCP segments");
}

#[test]
fn pushback_protects_against_overload() {
    // Two hosts blast the same destination ToR far beyond a slice's
    // capacity; push-back must engage and reduce loss versus no protection.
    let mk = |pushback: bool| {
        let mut c = cfg(8, 1, 50);
        c.pushback = pushback;
        c.congestion_policy = "drop".to_string();
        c.congestion_threshold = 256 * 1024;
        let mut net = OpenOpticsNet::deploy(
            c,
            Architecture::rotornet(),
            Box::new(Direct),
            LookupMode::PerHop,
            MultipathMode::None,
        )
        .expect("rotornet deploys");
        net.engine.watchdog_retransmit = false;
        for s in [1u32, 2, 3] {
            net.add_flow(
                SimTime::from_ns(100),
                HostId(s),
                HostId(0),
                3_000_000,
                TransportKind::Paced,
            );
        }
        net.run_for(SimTime::from_ms(30));
        let c = net.engine.counters;
        (c.switch_drops, c.pushback_deliveries)
    };
    let (drops_off, pb_off) = mk(false);
    let (drops_on, pb_on) = mk(true);
    assert_eq!(pb_off, 0);
    assert!(pb_on > 0, "push-back messages must reach hosts");
    assert!(drops_on < drops_off, "push-back should reduce drops: {drops_on} vs {drops_off}");
}

#[test]
fn a_re_admission_s_push_back_reaches_every_host_of_its_sender() {
    // Offloaded packets come back into queues that three senders keep
    // congested, so re-admissions raise push-backs as first ingress does.
    let mut c = cfg(12, 1, 100);
    c.hosts_per_node = 2;
    c.num_queues = 4;
    c.offload = true;
    c.offload_keep_ranks = 3;
    c.offload_return_lead_ns = 30_000;
    c.pushback = true;
    c.congestion_policy = "drop".to_string();
    c.congestion_threshold = 64 * 1024;
    let mut net =
        OpenOpticsNet::deploy_preset(c, Architecture::rotornet()).expect("rotornet deploys");
    net.engine.watchdog_retransmit = false;
    run_flows(&mut net, &[(2, 0, 2_000_000), (4, 0, 2_000_000), (6, 0, 2_000_000)], 60);
    let tors: Vec<_> = (0..12).map(|n| net.engine.tor(NodeId(n))).collect();
    let returned: u64 = tors.iter().map(|t| t.offload_book.returned_packets).sum();
    let emitted: u64 = tors.iter().map(|t| t.pushback_stats().1).sum();
    assert!(returned > 0 && emitted > 0, "re-admitted {returned}, push-backs {emitted}");
    assert_eq!(net.engine.live_packets(), 0, "the network drained");
    assert_eq!(net.engine.counters.pushback_deliveries, 2 * emitted);
}

#[test]
fn offload_round_trips_bytes_intact() {
    // Long slices + tiny ring force offloading; all bytes must still land.
    let mut c = cfg(12, 1, 100);
    c.num_queues = 4;
    c.offload = true;
    c.offload_keep_ranks = 3;
    c.offload_return_lead_ns = 30_000;
    let mut net =
        OpenOpticsNet::deploy_preset(c, Architecture::rotornet()).expect("rotornet deploys");
    run_flows(&mut net, &[(0, 7, 400_000), (3, 9, 200_000)], 80);
    assert_eq!(net.fct().completed().len(), 2, "offloaded flows must complete");
    let offloaded: u64 =
        (0..12).map(|n| net.engine.tor(NodeId(n)).offload_book.offloaded_packets).sum();
    assert!(offloaded > 0, "test must actually exercise offloading");
    let returned: u64 =
        (0..12).map(|n| net.engine.tor(NodeId(n)).offload_book.returned_packets).sum();
    assert_eq!(offloaded, returned, "every parked packet must be recalled");
}

#[test]
fn hybrid_direct_uses_both_fabrics() {
    let mut c = cfg(8, 1, 50);
    c.electrical_gbps = 10;
    let mut net = OpenOpticsNet::deploy(
        c,
        Architecture::rotornet().with_dispatch(DispatchPolicy::HybridDirect),
        Box::new(Direct),
        LookupMode::PerHop,
        MultipathMode::None,
    )
    .expect("rotornet-hybrid deploys");
    // Big enough that the NIC's drain spans several slices, so the host
    // sees both circuit-up (optical) and circuit-down (electrical) periods.
    run_flows(&mut net, &[(0, 5, 5_000_000)], 120);
    assert_eq!(net.fct().completed().len(), 1);
    let (optical, _) = net.engine.fabric_stats();
    assert!(optical > 0, "some packets should take the optical path");
}

#[test]
fn direct_circuit_pausing_gates_hosts() {
    let mut net = OpenOpticsNet::deploy(
        cfg(8, 1, 50),
        Architecture::rotornet().with_pause(PauseMode::DirectCircuit),
        Box::new(Direct),
        LookupMode::PerHop,
        MultipathMode::None,
    )
    .expect("rotornet-direct deploys");
    run_flows(&mut net, &[(0, 5, 120_000)], 50);
    assert_eq!(net.fct().completed().len(), 1);
    // With pausing, hosts transmit only into open circuits, so the switch
    // should never buffer more than a handful of packets for that flow.
    assert!(
        net.engine.tor(NodeId(0)).peak_buffer_bytes <= 64 * 1500,
        "pausing should keep switch buffering minimal, saw {}",
        net.engine.tor(NodeId(0)).peak_buffer_bytes
    );
}

#[test]
fn a_slice_no_longer_than_the_notification_lead_still_notifies_hosts() {
    // 150 ns slices are shorter than the 200 ns circuit-notification lead:
    // each slice's hosts are notified at its start instead of the lead
    // ahead of its end.
    let cfg = NetConfig { slice_ns: 150, guard_ns: 10, ..cfg(8, 1, 1) };
    let mut net = OpenOpticsNet::deploy_preset(
        cfg,
        Architecture::rotornet().with_pause(PauseMode::DirectCircuit),
    )
    .expect("rotornet-direct deploys");
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 100_000, TransportKind::Paced);
    net.run_for(SimTime::from_ns(15_000));
    // One broadcast per node and slice boundary, to its one host.
    let notified = net.engine.counters.circuit_notifications;
    assert!(notified >= 8 * 90, "hosts were notified {notified} times in 100 slices");
}

#[test]
fn memcached_and_allreduce_coexist() {
    use openoptics_host::apps::MemcachedParams;
    let mut net =
        OpenOpticsNet::deploy_preset(cfg(8, 2, 100), Architecture::opera()).expect("opera deploys");
    let clients = (1..8).map(HostId).collect();
    net.add_memcached(MemcachedParams::paper(), HostId(0), clients, SimTime::from_ms(20));
    let ar = net.add_allreduce((0..8).map(HostId).collect(), 1_600_000);
    net.run_for(SimTime::from_ms(60));
    assert!(net.engine.collective_done[ar].is_some(), "allreduce must finish");
    assert!(!net.fct().mice_fcts().is_empty(), "memcached ops must complete");
}

#[test]
fn probe_train_measures_stepped_rtts() {
    let mut net = OpenOpticsNet::deploy_preset(cfg(8, 1, 100), Architecture::rotornet())
        .expect("rotornet deploys");
    let t = net.add_probe_train(HostId(0), HostId(5), 50_000, 200, 100);
    net.run_for(SimTime::from_ms(30));
    let stats = net.engine.probe_stats(t);
    assert!(stats.len() >= 150, "most probes should complete, got {}", stats.len());
    let steps = stats.steps_ns(0.4);
    assert!(!steps.is_empty());
    // Per-hop means must increase with hop count.
    let by_hops = stats.by_hops();
    for w in by_hops.windows(2) {
        assert!(w[1].1 > w[0].1, "RTT must grow with hops: {by_hops:?}");
    }
}

#[test]
fn two_probe_trains_from_one_host_keep_their_own_replies() {
    let mut net = OpenOpticsNet::deploy_preset(cfg(8, 1, 100), Architecture::rotornet())
        .expect("rotornet deploys");
    let near = net.add_probe_train(HostId(0), HostId(1), 50_000, 20, 100);
    let far = net.add_probe_train(HostId(0), HostId(5), 70_000, 10, 100);
    net.run_for(SimTime::from_ms(30));
    for (t, sent) in [(near, 20usize), (far, 10)] {
        let stats = net.engine.probe_stats(t);
        assert_eq!(stats.sent, sent as u64);
        assert_eq!(stats.len(), sent, "train {t} recorded another train's replies");
    }
}

#[test]
fn ta_reconfiguration_switches_traffic() {
    // Start Jupiter on a uniform mesh, collect, evolve toward a hotspot,
    // and confirm traffic continues end to end across the reconfiguration.
    let mut net = OpenOpticsNet::deploy_preset(cfg(8, 2, 100), Architecture::jupiter())
        .expect("jupiter deploys");
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 300_000, TransportKind::Paced);
    let tm = net.collect(SimTime::from_ms(10));
    assert!(tm.total() > 0.0);
    net.reconfigure(&tm).expect("collected matrix stays deployable");
    net.add_flow(net.now() + 1_000_000, HostId(0), HostId(5), 300_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(60));
    assert_eq!(net.fct().completed().len(), 2, "flows before and after reconfig complete");
}
