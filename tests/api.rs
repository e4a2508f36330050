//! Integration tests of the Table-1 user API surface: the topology,
//! routing, and monitoring calls behave as the paper documents them.

use openoptics::core::{
    Architecture, DeployError, Error, NetConfig, OpenOpticsNet, ScheduleGen, TransportKind,
};
use openoptics::fabric::Circuit;
use openoptics::proto::{HostId, NodeId, PortId};
use openoptics::routing::algos::{Direct, Vlb};
use openoptics::routing::{LookupMode, MultipathMode, RouteAction, RouteEntry, RouteMatch};
use openoptics::sim::SimTime;
use openoptics::topo::{round_robin, TrafficMatrix};

fn cfg() -> NetConfig {
    NetConfig::builder()
        .node_num(4)
        .uplink(1)
        .slice_ns(20_000)
        .guard_ns(200)
        .sync_err_ns(0)
        .build()
        .expect("valid test config")
}

#[test]
fn json_config_drives_the_network() {
    // The paper's workflow: a JSON static configuration plus API calls.
    let cfg = NetConfig::from_json(
        r#"{"node":"rack","node_num":4,"uplink":1,"slice_ns":20000,"uplink_gbps":100}"#,
    )
    .unwrap();
    let mut net = OpenOpticsNet::new(cfg.clone());
    let (circuits, slices) = round_robin(cfg.node_num, cfg.uplink);
    net.deploy_topo(&circuits, slices).unwrap();
    net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
        .expect("routing pairs with this schedule");
    net.add_flow(SimTime::from_ns(50), HostId(0), HostId(3), 20_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(5));
    assert_eq!(net.fct().completed().len(), 1);
}

#[test]
fn connect_then_deploy_staged() {
    let mut net = OpenOpticsNet::new(cfg());
    net.connect(Circuit::in_slice(NodeId(0), PortId(0), NodeId(1), PortId(0), 0)).unwrap();
    net.connect(Circuit::in_slice(NodeId(2), PortId(0), NodeId(3), PortId(0), 0)).unwrap();
    net.connect(Circuit::in_slice(NodeId(0), PortId(0), NodeId(2), PortId(0), 1)).unwrap();
    net.connect(Circuit::in_slice(NodeId(1), PortId(0), NodeId(3), PortId(0), 1)).unwrap();
    let loopback = net.connect(Circuit::held(NodeId(1), PortId(0), NodeId(1), PortId(0)));
    assert!(matches!(loopback, Err(Error::LoopbackCircuit(_))), "loopback");
    net.deploy_staged(2).expect("staged circuits are feasible");
    assert!(net.staged_circuits().is_empty(), "staging area drained");
    // The deployed schedule answers queries.
    assert_eq!(net.engine.schedule().port_to(NodeId(0), NodeId(1), 0), Some(PortId(0)));
    assert_eq!(net.engine.schedule().port_to(NodeId(0), NodeId(2), 1), Some(PortId(0)));
}

#[test]
fn add_installs_manual_entries() {
    // `add()` is the debugging entry point: wire a static route by hand
    // (arr/dep = null -> flow-table reduction) and push traffic over it.
    let mut net = OpenOpticsNet::new(cfg());
    let circuits = vec![Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0))];
    net.deploy_topo(&circuits, 1).unwrap();
    // No routing algorithm deployed: install the entry manually.
    net.add(RouteEntry {
        node: NodeId(0),
        m: RouteMatch { arr_slice: None, dst: NodeId(1) },
        actions: vec![(
            RouteAction { port: PortId(0), dep_slice: None, push_source_route: None },
            1,
        )],
        multipath: MultipathMode::None,
    })
    .unwrap();
    // Out-of-range node rejected.
    let out_of_range = net.add(RouteEntry {
        node: NodeId(99),
        m: RouteMatch { arr_slice: None, dst: NodeId(1) },
        actions: vec![],
        multipath: MultipathMode::None,
    });
    assert!(matches!(out_of_range, Err(Error::NodeOutOfRange { node_num: 4, .. })));
    net.add_flow(SimTime::from_ns(50), HostId(0), HostId(1), 10_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(2));
    assert_eq!(net.fct().completed().len(), 1, "manual entry must carry traffic");
}

/// Two ToRs that each send node 2's traffic to the other, by entries
/// installed through `add()`, loop a packet between them. Under
/// `strict-invariants` the hop bound (twice the node count) stops the run;
/// the plain build has no TTL, so the packet circles for as long as the
/// network runs and nothing counts a drop.
#[test]
#[cfg_attr(feature = "strict-invariants", should_panic(expected = "past the hop bound"))]
fn a_two_tor_routing_loop_trips_the_hop_bound() {
    let mut net = OpenOpticsNet::new(cfg());
    let circuits = vec![Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0))];
    net.deploy_topo(&circuits, 1).unwrap();
    for node in [NodeId(0), NodeId(1)] {
        net.add(RouteEntry {
            node,
            m: RouteMatch { arr_slice: None, dst: NodeId(2) },
            actions: vec![(
                RouteAction { port: PortId(0), dep_slice: None, push_source_route: None },
                1,
            )],
            multipath: MultipathMode::None,
        })
        .unwrap();
    }
    net.add_flow(SimTime::from_ns(50), HostId(0), HostId(2), 1_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(1));
    let tx: u64 = [0, 1].map(|n| net.engine.tor(NodeId(n)).counters.tx_packets).iter().sum();
    assert_eq!(net.engine.live_packets(), 1, "the looping packet is still in the network");
    // Past 255 hops its `u8` hop count has saturated.
    assert!(tx > 500, "{tx} transmissions of one packet in 1 ms");
    assert_eq!(net.engine.counters.switch_drops + net.engine.counters.no_route_drops, 0);
}

#[test]
fn monitoring_apis_report_consistent_telemetry() {
    let mut net = OpenOpticsNet::new(cfg());
    let (circuits, slices) = round_robin(4, 1);
    net.deploy_topo(&circuits, slices).unwrap();
    net.deploy_routing(Direct, LookupMode::PerHop, MultipathMode::None)
        .expect("routing pairs with this schedule");
    net.add_flow(SimTime::from_ns(50), HostId(0), HostId(2), 100_000, TransportKind::Paced);

    // collect() returns the traffic matrix of exactly the window run.
    let tm = net.collect(SimTime::from_ms(10));
    assert!(tm.get(NodeId(0), NodeId(2)) >= 100_000.0, "TM must cover the flow's bytes");
    assert_eq!(tm.get(NodeId(1), NodeId(3)), 0.0);

    // bw_usage() counts transmitted wire bytes on the uplink.
    let tx = net.bw_usage(NodeId(0), PortId(0));
    assert!(tx >= 100_000, "uplink carried the flow, saw {tx}");
    // buffer_usage() is a point-in-time reading; after the flow drained it
    // should be empty.
    assert_eq!(net.buffer_usage(NodeId(0), PortId(0)), 0);

    // A second collect window with no traffic is empty.
    let tm2 = net.collect(SimTime::from_ms(2));
    assert_eq!(tm2.total(), 0.0);
}

#[test]
fn source_routing_forced_for_schemes_that_need_it() {
    use openoptics::routing::algos::Ucmp;
    use openoptics::routing::RoutingAlgorithm;
    assert!(Ucmp::default().requires_source_routing());
    // Deploying UCMP with PerHop silently upgrades to source routing; the
    // network still delivers.
    let mut net = OpenOpticsNet::new(cfg());
    let (circuits, slices) = round_robin(4, 1);
    net.deploy_topo(&circuits, slices).unwrap();
    net.deploy_routing(Ucmp::default(), LookupMode::PerHop, MultipathMode::PerPacket)
        .expect("routing pairs with this schedule");
    net.add_flow(SimTime::from_ns(50), HostId(0), HostId(3), 30_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(5));
    assert_eq!(net.fct().completed().len(), 1);
}

#[test]
fn ta_reconfiguration_honors_ocs_delay() {
    // Deploy a topology on a running network: the swap completes only
    // after the OCS reconfiguration delay, during which circuits are dark.
    let mut c = cfg();
    c.ocs_reconfig_ns = 5_000_000; // 5 ms MEMS-style
    let mut net = OpenOpticsNet::new(c);
    let a = vec![Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0))];
    let b = vec![Circuit::held(NodeId(0), PortId(0), NodeId(2), PortId(0))];
    net.deploy_topo(&a, 1).unwrap();
    net.deploy_routing(Direct, LookupMode::PerHop, MultipathMode::None)
        .expect("routing pairs with this schedule");
    net.run_for(SimTime::from_ms(1)); // primes the engine
    net.deploy_topo(&b, 1).unwrap(); // reconfiguration begins at t=1ms
                                     // Immediately after: still the old schedule's circuits resolve (the
                                     // fabric is dark during the move; the new one lands at 6 ms).
    net.run_for(SimTime::from_ms(1));
    net.add_flow(net.now() + 1, HostId(0), HostId(2), 10_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(30));
    assert_eq!(net.fct().completed().len(), 1, "flow completes on the new topology");
}

#[test]
fn deploy_topo_before_the_first_run_keeps_what_was_attached() -> Result<(), Error> {
    // Hand-built attach-then-adapt: a topology deployed after the traffic
    // (here a different schedule first, then the real one) swaps only the
    // schedule. The flow, the fault plan and the routing scheme stay, so the
    // run equals one that deployed the real schedule up front.
    let run = |redeploy: bool| -> Result<_, Error> {
        let mut net = OpenOpticsNet::new(cfg());
        let (rotor, slices) = round_robin(4, 1);
        let held = vec![Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0))];
        if redeploy {
            net.deploy_topo(&held, 1)?;
        } else {
            net.deploy_topo(&rotor, slices)?;
        }
        net.deploy_routing(Direct, LookupMode::PerHop, MultipathMode::None)?;
        net.add_flow(SimTime::from_ns(50), HostId(0), HostId(3), 60_000, TransportKind::Paced);
        let plan = openoptics::faults::FaultPlan::builder()
            .transceiver_flap(NodeId(0), PortId(0), 30, 0, 400_000)
            .build()?;
        net.inject_faults(&plan)?;
        if redeploy {
            net.deploy_topo(&rotor, slices)?;
        }
        net.run_for(SimTime::from_ms(25));
        assert_eq!(net.fct().completed().len(), 1, "the attached flow ran (redeploy: {redeploy})");
        assert!(net.fault_report().corrupted > 0, "the attached fault plan ran");
        Ok((
            net.export_telemetry("json")?,
            net.export_trace()?,
            format!("{:?} {:?}", net.fault_report(), net.fct().completed()),
        ))
    };
    assert_eq!(run(true)?, run(false)?);
    Ok(())
}

#[test]
fn routes_compiled_during_the_ocs_move_do_not_outlive_it() -> Result<(), Error> {
    // A flow in flight across a redeploy that moves its circuit to the
    // other port. While the OCS moves the old schedule is still the active
    // one, so lookups made in the dark window compile against it; when the
    // move lands those routes must go, or the flow keeps asking for a port
    // that no longer reaches its destination. (It used to: 0 of 1 flows,
    // 158,917 no-route drops by 61 ms.)
    let (n0, n1, n2, n3) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    let (p0, p1) = (PortId(0), PortId(1));
    let mut c = cfg();
    c.uplink = 2;
    c.ocs_reconfig_ns = 2_000_000;
    let mut net = OpenOpticsNet::new(c);
    let ring = |to_1, to_2| {
        [
            Circuit::held(n0, to_1, n1, p0),
            Circuit::held(n0, to_2, n2, p0),
            Circuit::held(n1, p1, n3, p0),
            Circuit::held(n2, p1, n3, p1),
        ]
    };
    // B swaps node 0's two ports: 0 <-> 1 is still a direct circuit.
    let (a, b) = (ring(p0, p1), ring(p1, p0));
    net.deploy_topo(&a, 1)?;
    net.deploy_routing(Direct, LookupMode::PerHop, MultipathMode::None)?;
    net.add_flow(SimTime::from_ns(50), HostId(0), HostId(1), 60_000_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(1));
    net.deploy_topo(&b, 1)?;
    // The old schedule stays the active one until the move lands at 3 ms.
    net.run_for(SimTime::from_ms(1));
    assert_eq!(net.engine.schedule().port_to(n0, n1, 0), Some(p0));
    net.run_for(SimTime::from_ms(59));
    assert_eq!(net.engine.schedule().port_to(n0, n1, 0), Some(p1));
    let c = net.engine.counters;
    assert!(c.fabric_drops > 0, "the flow was in flight while the fabric was dark");
    assert_eq!(c.no_route_drops, 0, "a stale route outlived the move: {c:?}");
    assert_eq!(net.fct().completed().len(), 1, "the flow completes on the moved circuit: {c:?}");
    Ok(())
}

#[test]
fn a_running_network_refuses_a_different_slice_structure() -> Result<(), Error> {
    // The Fig. 5c loop — raise SORN's extra-slice budget, redeploy — on a
    // network that has run. The switches' calendars and rotation timers are
    // laid out for the 9 slices it started on; a 12-slice fabric under them
    // would rotate out of step (it used to: 1,373 fabric drops against 42,
    // 35 of 40 flows by 41 ms). The redeploy is refused, nothing changes,
    // and the run goes on as if it had not been asked.
    let mut tm = TrafficMatrix::zeros(8);
    tm.set(NodeId(0), NodeId(5), 500.0);
    let build = || -> Result<OpenOpticsNet, Error> {
        let cfg = NetConfig::builder().node_num(8).slice_ns(10_000).sync_err_ns(0).build()?;
        let mut net = OpenOpticsNet::deploy_preset(cfg, Architecture::semi_oblivious(&tm, 2))?;
        for h in 0..8 {
            for k in 1..=5 {
                let (src, dst) = (HostId(h), HostId((h + k) % 8));
                net.add_flow(SimTime::from_ns(100), src, dst, 100_000, TransportKind::Paced);
            }
        }
        net.run_for(SimTime::from_ms(1));
        Ok(net)
    };
    let finish = |mut net: OpenOpticsNet| -> Result<_, Error> {
        net.run_for(SimTime::from_ms(40));
        assert_eq!(net.fct().completed().len(), 40, "{:?}", net.engine.counters);
        Ok((net.export_telemetry("json")?, format!("{:?}", net.fct().completed())))
    };
    let untouched = finish(build()?)?;

    let mut net = build()?;
    let before = net.engine.schedule().slice_config().num_slices;
    if let Some(ScheduleGen::Sorn { extra_slices, .. }) =
        net.arch_mut().map(Architecture::schedule_mut)
    {
        *extra_slices = 5;
    }
    let refused = net.reconfigure(&tm);
    assert!(
        matches!(&refused, Err(Error::Deploy(DeployError::SliceStructure { active, requested }))
            if (active.num_slices, requested.num_slices) == (before, before + 3)),
        "a typed slice-structure refusal expected, got {refused:?}"
    );
    let said = refused.map_err(|e| e.to_string());
    assert!(
        matches!(&said, Err(m) if m.contains("9 slice(s)") && m.contains("has 12")),
        "the refusal names both slice counts: {said:?}"
    );
    assert_eq!(net.engine.schedule().slice_config().num_slices, before);
    assert_eq!(finish(net)?, untouched, "a refused redeploy must leave no trace");
    Ok(())
}

#[test]
fn held_and_rotating_do_not_swap_once_running() -> Result<(), Error> {
    // 1 <-> N slices is the same refusal: a held instance never primed a
    // `Rotate`, and a rotation cannot be stopped into one. Before the first
    // run either direction is a plain redeploy.
    let (rotor, slices) = round_robin(4, 1);
    let held = vec![Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0))];
    for (first, then) in [((&held, 1), (&rotor, slices)), ((&rotor, slices), (&held, 1))] {
        let mut net = OpenOpticsNet::new(cfg());
        net.deploy_topo(then.0, then.1)?;
        net.deploy_topo(first.0, first.1)?;
        net.run_for(SimTime::from_us(50));
        let refused = net.deploy_topo(then.0, then.1);
        assert!(
            matches!(refused, Err(DeployError::SliceStructure { active, requested })
                if (active.num_slices, requested.num_slices) == (first.1, then.1)),
            "{refused:?}"
        );
        net.connect(then.0[0])?;
        assert!(matches!(net.deploy_staged(then.1), Err(DeployError::SliceStructure { .. })));
        assert_eq!(net.engine.schedule().slice_config().num_slices, first.1);
    }
    Ok(())
}

/// The four exports a run leaves behind: telemetry snapshot, trace, profiler
/// report and span report.
fn exports(net: &OpenOpticsNet) -> Result<[String; 4], Error> {
    let telemetry = net.export_telemetry("json")?;
    Ok([telemetry, net.export_trace()?, net.profiler_report()?, net.export_span_report()?])
}

/// Clone `original`, take the clone through `branch`, and check that the
/// clone's exports moved while none of the original's did.
fn a_clone_moves_only_itself<T: Clone>(
    original: &T,
    net: impl Fn(&T) -> &OpenOpticsNet,
    branch: impl FnOnce(&mut T) -> Result<(), Box<dyn std::error::Error>>,
) -> Result<(), Box<dyn std::error::Error>> {
    let before = exports(net(original))?;
    let mut copy = original.clone();
    branch(&mut copy)?;
    let (after, moved) = (exports(net(original))?, exports(net(&copy))?);
    for (i, what) in ["telemetry", "trace", "profiler report", "span report"].iter().enumerate() {
        assert_ne!(moved[i], before[i], "the clone's {what} did not move");
        assert_eq!(after[i], before[i], "running the clone moved its original's {what}");
    }
    Ok(())
}

/// A clone owns everything it writes to: running it 2 ms on, with a flow
/// of its own so that spans move too, leaves every byte its original
/// exports as it was. Checked on a network and on a control-plane session.
#[test]
fn a_clone_shares_nothing_with_its_original() -> Result<(), Box<dyn std::error::Error>> {
    use openoptics::ctl::{Op, Scenario, Session, TransportSpec};
    let cfg = NetConfig::builder().node_num(4).slice_ns(10_000).span_sample_every(1).build()?;
    let mut net = OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet())?;
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(3), 200_000, TransportKind::Paced);
    net.run_for(SimTime::from_us(100));
    a_clone_moves_only_itself(
        &net,
        |net| net,
        |copy| {
            copy.add_flow(copy.now(), HostId(1), HostId(2), 200_000, TransportKind::Paced);
            copy.run_for(SimTime::from_ms(2));
            Ok(())
        },
    )?;

    let mut session = Session::new(Scenario::parse(
        r#"{"version": 1,
            "config": {"node_num": 4, "slice_ns": 10000, "span_sample_every": 1},
            "architecture": {"name": "rotornet"},
            "workloads": [{"kind": "flow", "at_ns": 100, "src": 0, "dst": 3, "bytes": 200000}],
            "stop_ns": 2100000}"#,
    )?)?;
    session.run_until(100_000);
    a_clone_moves_only_itself(&session, Session::net, |copy| {
        let transport = TransportSpec::default();
        copy.apply(Op::AddFlow { at_ns: 100_000, src: 1, dst: 2, bytes: 200_000, transport })?;
        copy.run_for(2_000_000);
        Ok(())
    })
}
