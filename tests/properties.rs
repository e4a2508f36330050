//! Cross-crate property tests: schedule/routing/data-plane invariants that
//! must hold for arbitrary configurations, not just the curated examples.

use openoptics::fabric::OpticalSchedule;
use openoptics::proto::NodeId;
use openoptics::routing::algos::{Direct, Hoho, Ucmp, Vlb};
use openoptics::routing::{compile, LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics::sim::to_usize;
use openoptics::sim::SliceConfig;
use openoptics::topo::round_robin;
use proptest::prelude::*;

mod drain;

fn rr_schedule(n: u32, uplinks: u16) -> OpticalSchedule {
    let (circuits, slices) = round_robin(n, uplinks);
    OpticalSchedule::build(SliceConfig::new(10_000, slices, 500), n, uplinks, &circuits)
        .expect("round robin always deploys")
}

/// Run length of `run_for_is_pause_invariant`, ns.
const HORIZON_NS: u64 = 3_000_000;

/// The OCS reconfiguration delay `NetConfig` defaults to, ns.
const OCS_DEFAULT_NS: u64 = 25_000_000;

/// When `inert_faults_are_inert` starts its first flow, ns: later than
/// every fault window it samples closes.
const FIRST_FLOW_NS: u64 = 400_000;

/// What a sampled network observes: `(telemetry, span_sample_every,
/// sample_every_ns)`.
type Observation = (bool, u64, u64);

/// Telemetry on (the default), spans on every 4th flow, no time series.
const SPANS_EVERY_4TH: Observation = (true, 4, 0);

/// The randomized quick-mode network behind `run_for_is_pause_invariant`,
/// `observation_never_perturbs`, `inert_faults_are_inert` and the two
/// reconfigure-to-the-deployed-demand properties: sampled config x
/// architecture x fault plan, deployed, with the plan injected.
fn sampled_net(
    n: u32,
    slice_us: u64,
    seed: u64,
    arch: openoptics::core::Architecture,
    fault_pick: u8,
    ocs_reconfig_ns: u64,
    (telemetry, span_sample_every, sample_every_ns): Observation,
) -> openoptics::core::OpenOpticsNet {
    use openoptics::prelude::*;
    let cfg = NetConfig::builder()
        .node_num(n)
        .uplink(1)
        .hosts_per_node(1)
        .slice_ns(slice_us * 50_000)
        .guard_ns(1_000)
        .telemetry(telemetry)
        .span_sample_every(span_sample_every)
        .sample_every_ns(sample_every_ns)
        .ocs_reconfig_ns(ocs_reconfig_ns)
        .seed(seed)
        .build()
        .expect("sampled config is valid");
    let mut net = OpenOpticsNet::deploy_preset(cfg, arch).expect("sampled architecture deploys");
    if let Some(p) = sampled_plan(fault_pick, 0) {
        net.inject_faults(&p).expect("plan validates against this net");
    }
    net
}

/// `sampled_net`'s fault plan for `fault_pick`, every window `shift_ns`
/// later.
fn sampled_plan(fault_pick: u8, shift_ns: u64) -> Option<openoptics::faults::FaultPlan> {
    use openoptics::faults::FaultPlan;
    use openoptics::prelude::PortId;
    let b = FaultPlan::builder();
    let at = |ns: u64| ns + shift_ns;
    match fault_pick {
        0 => None,
        1 => Some(b.link_down(NodeId(1), PortId(0), at(200_000), at(900_000))),
        2 => Some(b.transceiver_flap(NodeId(2), PortId(0), 40, at(100_000), at(900_000))),
        _ => Some(b.nic_pause_storm(NodeId(0), at(300_000), at(1_200_000))),
    }
    .map(|b| b.build().expect("sampled plan is valid"))
}

/// The demand both reconfigure-to-the-deployed-demand properties deploy
/// c-Through for and reconfigure to: every node sends to node 0.
fn incast_demand(n: u32) -> openoptics::topo::TrafficMatrix {
    let mut tm = openoptics::topo::TrafficMatrix::zeros(n as usize);
    for src in 1..n {
        tm.set(NodeId(src), NodeId(0), f64::from(100 * src));
    }
    tm
}

/// A `mixed_run` network: `(n, slice_us, seed, arch_pick, fault_pick)`.
type MixedCase = (u32, u64, u64, u8, u8);

/// A sampled network (telemetry off) under a TCP flow, a paced flow from
/// every host at one instant and a memcached load, run for `HORIZON_NS`
/// and then drained (`drain::drain`): the flows it completed by
/// `HORIZON_NS`, and what it held once drained.
fn mixed_run((n, slice_us, seed, arch_pick, fault_pick): MixedCase) -> (usize, drain::Drained) {
    use openoptics::prelude::*;
    let arch = match arch_pick {
        0 => Architecture::clos(),
        1 => Architecture::rotornet(),
        _ => Architecture::opera(),
    };
    let mut net = sampled_net(n, slice_us, seed, arch, 0, OCS_DEFAULT_NS, (false, 0, 0));
    if let Some(p) = sampled_plan(fault_pick, 0) {
        net.inject_faults(&p).expect("plan validates against this net");
    }
    let tcp = TransportKind::Tcp(Default::default());
    net.add_flow(SimTime::from_ns(500), HostId(1), HostId(0), 300_000, tcp);
    for src in 1..n {
        let dst = HostId((src + 1) % n);
        net.add_flow(SimTime::from_ns(1_000), HostId(src), dst, 40_000, TransportKind::Paced);
    }
    let clients = (1..n).map(HostId).collect();
    let last_start = SimTime::from_ms(2);
    net.add_memcached(MemcachedParams::paper(), HostId(0), clients, last_start);
    net.run_for(SimTime::from_ns(HORIZON_NS));
    let completed = net.fct().completed().len();
    (completed, drain::drain(&mut net, last_start, SimTime::from_ms(100), 4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every round-robin schedule is a valid matching per slice and covers
    /// all pairs over the cycle.
    #[test]
    fn round_robin_schedules_always_valid(n in 3u32..24, u in 1u16..4) {
        let s = rr_schedule(n, u);
        prop_assert!(s.cycle_covers_all_pairs());
        for ts in 0..s.slice_config().num_slices {
            for node in 0..n {
                // Degree never exceeds the uplink count.
                prop_assert!(s.neighbors(NodeId(node), ts).count() <= u as usize);
            }
        }
    }

    /// Paths produced by every TO routing scheme validate against the
    /// schedule they were computed for, at any (src, dst, arrival slice).
    #[test]
    fn to_routing_paths_always_validate(
        n in 4u32..16,
        u in 1u16..3,
        src in 0u32..16,
        dst in 0u32..16,
        arr_seed in 0u32..64,
    ) {
        let src = src % n;
        let dst = dst % n;
        prop_assume!(src != dst);
        let s = rr_schedule(n, u);
        let arr = arr_seed % s.slice_config().num_slices;
        let algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
            Box::new(Direct),
            Box::new(Vlb),
            Box::new(Ucmp::default()),
            Box::new(Hoho::default()),
        ];
        for algo in &algos {
            let paths = algo.paths(&s, NodeId(src), NodeId(dst), Some(arr));
            prop_assert!(!paths.is_empty(), "{} found no path", algo.name());
            for p in &paths {
                prop_assert!(
                    p.validate(&s).is_ok(),
                    "{}: invalid path {:?}", algo.name(), p
                );
            }
        }
    }

    /// HOHO (the earliest-arrival optimum) never waits longer than the
    /// direct path, which never waits longer than a full cycle.
    #[test]
    fn hoho_dominates_direct(
        n in 4u32..16,
        src in 0u32..16,
        dst in 0u32..16,
        arr_seed in 0u32..64,
    ) {
        let src = src % n;
        let dst = dst % n;
        prop_assume!(src != dst);
        let s = rr_schedule(n, 1);
        let arr = arr_seed % s.slice_config().num_slices;
        let d = Direct.paths(&s, NodeId(src), NodeId(dst), Some(arr));
        let h = Hoho::default().paths(&s, NodeId(src), NodeId(dst), Some(arr));
        let dw = d[0].slices_waited(&s);
        let hw = h[0].slices_waited(&s);
        prop_assert!(hw <= dw, "hoho waited {hw} > direct {dw}");
        prop_assert!(dw < s.slice_config().num_slices);
    }

    /// Per-hop compilation and source-route compilation of the same path
    /// replay to the same hop sequence.
    #[test]
    fn compile_modes_agree(
        n in 4u32..12,
        src in 0u32..12,
        dst in 0u32..12,
        arr_seed in 0u32..32,
    ) {
        let src = src % n;
        let dst = dst % n;
        prop_assume!(src != dst);
        let s = rr_schedule(n, 1);
        let arr = arr_seed % s.slice_config().num_slices;
        let paths = Hoho::default().paths(&s, NodeId(src), NodeId(dst), Some(arr));
        let hop_entries = compile(&paths, LookupMode::PerHop, MultipathMode::None);
        let sr_entries = compile(&paths, LookupMode::SourceRouting, MultipathMode::None);
        // Source routing: exactly one entry at the source.
        prop_assert_eq!(sr_entries.len(), 1);
        prop_assert_eq!(sr_entries[0].node, NodeId(src));
        let stack = sr_entries[0].actions[0].0.push_source_route.as_ref().unwrap();
        prop_assert_eq!(stack.len(), paths[0].hops.len());
        // The per-hop entries, walked in path order, match the stack.
        let mut at = NodeId(src);
        let mut arr_here = Some(arr);
        for (i, hop) in stack.iter().enumerate() {
            let e = hop_entries
                .iter()
                .find(|e| e.node == at && e.m.arr_slice == arr_here && e.m.dst == NodeId(dst))
                .unwrap_or_else(|| panic!("no per-hop entry at hop {i}"));
            let a = &e.actions[0].0;
            prop_assert_eq!(a.port, hop.port);
            prop_assert_eq!(a.dep_slice, hop.dep_slice);
            let (peer, _) = s
                .peer(at, hop.port, hop.dep_slice.expect("TO hop"))
                .expect("validated path hop rides a lit circuit");
            at = peer;
            arr_here = hop.dep_slice;
        }
        prop_assert_eq!(at, NodeId(dst));
    }

    /// Randomized quick-mode end-to-end runs. The assertion payload lives
    /// inside the engine: under `--features strict-invariants` every pop,
    /// rotation, and transmit re-checks the queue-conservation, pause-ring,
    /// and guardband-containment invariants, so merely completing the run
    /// proves none fired across the sampled configurations.
    #[test]
    fn random_quick_configs_run_clean(
        n in 4u32..9,
        slice_us in 1u64..4,
        guard_ns in 1u64..3,
        seed in 0u64..1_000,
        arch_pick in 0u8..3,
    ) {
        use openoptics::prelude::*;
        let cfg = NetConfig::builder()
            .node_num(n)
            .uplink(1)
            .hosts_per_node(1)
            .slice_ns(slice_us * 50_000)
            .guard_ns(guard_ns * 500)
            .seed(seed)
            .build()
            .expect("sampled config is valid");
        let mut net = match arch_pick {
            0 => OpenOpticsNet::deploy_preset(cfg, Architecture::clos()),
            1 => OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet()),
            _ => OpenOpticsNet::deploy_preset(cfg, Architecture::opera()),
        }
        .expect("sampled architecture deploys");
        let stop = SimTime::from_ms(2);
        let clients = (1..n).map(HostId).collect();
        net.add_memcached(MemcachedParams::paper(), HostId(0), clients, stop);
        net.run_for(SimTime::from_ms(3));
        prop_assert!(net.events_scheduled() > 0);
    }

    /// Where the driver pauses never changes the result — the assumption
    /// `Op::RunUntil` journal merging in `openoptics-ctl` rests on. One
    /// `run_for(3 ms)` and the same horizon split at arbitrary instants, on
    /// the same randomized quick-mode configuration (including a randomized
    /// fault plan), must produce byte-identical telemetry, lifecycle spans,
    /// and fault reports.
    #[test]
    fn run_for_is_pause_invariant(
        n in 4u32..9,
        slice_us in 1u64..4,
        seed in 0u64..1_000,
        arch_pick in 0u8..3,
        fault_pick in 0u8..4,
        pauses in proptest::collection::vec(1u64..HORIZON_NS, 1..6),
    ) {
        use openoptics::prelude::*;
        let run = |pauses: &[u64]| -> (String, String, String) {
            let arch = match arch_pick {
                0 => Architecture::clos(),
                1 => Architecture::rotornet(),
                _ => Architecture::opera(),
            };
            let mut net =
                sampled_net(n, slice_us, seed, arch, fault_pick, OCS_DEFAULT_NS, SPANS_EVERY_4TH);
            let stop = SimTime::from_ms(2);
            let clients = (1..n).map(HostId).collect();
            net.add_memcached(MemcachedParams::paper(), HostId(0), clients, stop);
            let mut now = 0;
            for &at in pauses.iter().chain([&HORIZON_NS]) {
                net.run_for(SimTime::from_ns(at - now));
                now = at;
            }
            (
                net.export_telemetry("json").expect("telemetry is on"),
                net.export_spans_chrome_trace().expect("spans are on"),
                format!("{:?}", net.fault_report()),
            )
        };
        let mut pauses = pauses;
        pauses.sort_unstable();
        let straight = run(&[]);
        let paused = run(&pauses);
        prop_assert_eq!(&paused.0, &straight.0, "telemetry diverged pausing at {:?}", pauses);
        prop_assert_eq!(&paused.1, &straight.1, "spans diverged pausing at {:?}", pauses);
        prop_assert_eq!(&paused.2, &straight.2, "fault report diverged pausing at {:?}", pauses);
    }

    /// Observing a run never changes it. Telemetry (which also arms the
    /// engine-phase profiler), lifecycle spans and time-series sampling,
    /// each on or off, must leave the FCT records, the engine counters and
    /// the fault report exactly as a run with all three off has them.
    #[test]
    fn observation_never_perturbs(
        n in 4u32..9,
        slice_us in 1u64..4,
        seed in 0u64..1_000,
        arch_pick in 0u8..3,
        fault_pick in 0u8..4,
    ) {
        use openoptics::prelude::*;
        let run = |observation: Observation| -> [String; 3] {
            let arch = match arch_pick {
                0 => Architecture::clos(),
                1 => Architecture::rotornet(),
                _ => Architecture::opera(),
            };
            let mut net =
                sampled_net(n, slice_us, seed, arch, fault_pick, OCS_DEFAULT_NS, observation);
            let tcp = TransportKind::Tcp(Default::default());
            net.add_flow(SimTime::from_ns(500), HostId(1), HostId(0), 300_000, tcp);
            let clients = (1..n).map(HostId).collect();
            net.add_memcached(MemcachedParams::paper(), HostId(0), clients, SimTime::from_ms(2));
            net.run_for(SimTime::from_ns(HORIZON_NS));
            [
                format!("{:?}", net.fct().completed()),
                format!("{:?}", net.engine.counters),
                format!("{:?}", net.fault_report()),
            ]
        };
        let bare = run((false, 0, 0));
        prop_assert!(bare[0] != "[]", "the workload completes flows");
        // Every on/off combination but all-off: bit 0 telemetry, bit 1
        // spans on every 4th flow, bit 2 a sample every 100 us.
        for on in 1..8u8 {
            let pick = |bit: u8, value: u64| if on & bit != 0 { value } else { 0 };
            let observation = (on & 1 != 0, pick(2, 4), pick(4, 100_000));
            let observed = run(observation);
            let names = ["fct records", "counters", "fault report"];
            for ((name, a), b) in names.iter().zip(&bare).zip(&observed) {
                prop_assert_eq!(a, b, "{} moved observing with {:?}", name, observation);
            }
        }
    }

    /// Inert faults (metamorphic relation (d)): a fault plan whose window
    /// closes before the first flow starts changes nothing. Each of the
    /// five fault kinds, on a sampled clos, rotornet or opera network with
    /// telemetry and spans on, must leave the FCT records and the engine
    /// counters exactly as the same run without the plan has them.
    #[test]
    fn inert_faults_are_inert(
        n in 4u32..9,
        slice_us in 1u64..4,
        seed in 0u64..1_000,
        arch_pick in 0u8..3,
        kind in 0u8..5,
        node in 0u32..8,
        start_ns in 1_000u64..=200_000,
        len_ns in 1_000u64..=199_000,
    ) {
        use openoptics::prelude::*;
        let (node, end_ns) = (NodeId(node % n), start_ns + len_ns);
        prop_assert!(end_ns < FIRST_FLOW_NS);
        let b = FaultPlan::builder();
        let plan = match kind {
            0 => b.link_down(node, PortId(0), start_ns, end_ns),
            1 => b.transceiver_flap(node, PortId(0), 100, start_ns, end_ns),
            2 => b.ocs_port_stuck(node, PortId(0), start_ns, end_ns),
            3 => b.slice_corruption(node, start_ns, end_ns),
            _ => b.nic_pause_storm(node, start_ns, end_ns),
        }
        .build()
        .expect("sampled plan is valid");
        let run = |plan: Option<&FaultPlan>| -> [String; 2] {
            let arch = match arch_pick {
                0 => Architecture::clos(),
                1 => Architecture::rotornet(),
                _ => Architecture::opera(),
            };
            let mut net = sampled_net(n, slice_us, seed, arch, 0, OCS_DEFAULT_NS, SPANS_EVERY_4TH);
            if let Some(p) = plan {
                net.inject_faults(p).expect("plan validates against this net");
            }
            for src in 1..n {
                let at = SimTime::from_ns(FIRST_FLOW_NS + 10_000 * u64::from(src));
                let transport = if src % 2 == 0 {
                    TransportKind::Paced
                } else {
                    TransportKind::Tcp(Default::default())
                };
                net.add_flow(at, HostId(src), HostId(src - 1), 60_000, transport);
            }
            net.run_for(SimTime::from_ns(HORIZON_NS));
            [format!("{:?}", net.fct().completed()), format!("{:?}", net.engine.counters)]
        };
        let bare = run(None);
        prop_assert!(bare[0] != "[]", "the workload completes flows");
        let faulted = run(Some(&plan));
        prop_assert_eq!(&faulted[0], &bare[0], "fct records moved under {:?}", plan);
        prop_assert_eq!(&faulted[1], &bare[1], "counters moved under {:?}", plan);
    }

    /// Attach-then-adapt (Table 1, Fig. 5): a `reconfigure` issued *before*
    /// the first run, after every kind of workload, a service and a fault
    /// plan are attached, must touch nothing but the schedule. RotorNet and
    /// c-Through regenerate the deployed schedule from the deployed demand,
    /// so the reconfigured network must run exactly like the untouched one.
    /// (It used to run empty: the redeploy built a fresh engine.)
    #[test]
    fn pre_run_reconfigure_to_the_deployed_demand_is_a_no_op(
        n in 4u32..9,
        slice_us in 1u64..4,
        seed in 0u64..1_000,
        arch_pick in 0u8..2,
        fault_pick in 0u8..4,
    ) {
        use openoptics::prelude::*;
        let tm = incast_demand(n);
        let run = |reconfigure: bool| -> Result<[String; 6], Error> {
            let arch =
                if arch_pick == 0 { Architecture::rotornet() } else { Architecture::cthrough(&tm) };
            let mut net =
                sampled_net(n, slice_us, seed, arch, fault_pick, OCS_DEFAULT_NS, SPANS_EVERY_4TH);
            let slo = SloTarget { latency_ns: 200_000, objective_milli: 990, window_ns: 500_000 };
            let svc = net.declare_service("cache", Some(slo));
            net.add_flow_tagged(
                SimTime::from_ns(500),
                HostId(1),
                HostId(0),
                300_000,
                TransportKind::Tcp(Default::default()),
                Some(svc),
            );
            let clients = (1..n).map(HostId).collect();
            net.add_memcached(MemcachedParams::paper(), HostId(0), clients, SimTime::from_ms(1));
            net.add_allreduce((0..n).map(HostId).collect(), 40_000);
            net.add_probe_train(HostId(2), HostId(0), 50_000, 10, 64);
            if reconfigure {
                net.reconfigure(&tm)?;
            }
            net.run_for(SimTime::from_ns(HORIZON_NS));
            Ok([
                net.export_telemetry("json")?,
                net.export_trace()?,
                net.export_slo_report()?,
                net.export_spans_chrome_trace()?,
                format!("{:?}", net.fault_report()),
                format!("{:?}", net.fct().completed()),
            ])
        };
        let (plain, reconfigured) = (run(false)?, run(true)?);
        let names = ["telemetry", "trace", "slo report", "spans", "fault report", "fct records"];
        for ((name, a), b) in names.iter().zip(&plain).zip(&reconfigured) {
            prop_assert_eq!(a, b, "{} diverged after a pre-run reconfigure", name);
        }
        prop_assert!(plain[0].contains("\"engine.host_tx_packets\":"), "telemetry exports counters");
        prop_assert!(!plain[5].is_empty() && plain[5] != "[]", "the workload completes flows");
    }

    /// The same redeploy on a *running* network, with an OCS that moves in
    /// no time: the fabric swaps to an identical schedule at the next event,
    /// routes recompile against it and hosts are re-notified — and no flow,
    /// delivered byte or drop may tell the difference. RotorNet and
    /// c-Through ignore the previous circuits when they regenerate, so the
    /// redeployed schedule is the deployed one.
    #[test]
    fn mid_run_reconfigure_to_the_deployed_demand_moves_no_packet(
        n in 4u32..9,
        slice_us in 1u64..4,
        seed in 0u64..1_000,
        arch_pick in 0u8..2,
        fault_pick in 0u8..4,
        at in 1u64..HORIZON_NS,
    ) {
        use openoptics::prelude::*;
        let tm = incast_demand(n);
        let run = |reconfigure: bool| -> Result<_, Error> {
            let arch =
                if arch_pick == 0 { Architecture::rotornet() } else { Architecture::cthrough(&tm) };
            let mut net = sampled_net(n, slice_us, seed, arch, fault_pick, 0, SPANS_EVERY_4TH);
            let tcp = TransportKind::Tcp(Default::default());
            net.add_flow(SimTime::from_ns(500), HostId(1), HostId(0), 300_000, tcp);
            let clients = (1..n).map(HostId).collect();
            net.add_memcached(MemcachedParams::paper(), HostId(0), clients, SimTime::from_ms(1));
            net.add_allreduce((0..n).map(HostId).collect(), 40_000);
            net.run_for(SimTime::from_ns(at));
            if reconfigure {
                net.reconfigure(&tm)?;
            }
            net.run_for(SimTime::from_ns(HORIZON_NS - at));
            // What the redeploy itself adds — the `NotifyHosts` events and
            // the notifications they deliver — is the allowed difference.
            let counters = openoptics::core::EngineCounters {
                circuit_notifications: 0,
                ..net.engine.counters
            };
            Ok((format!("{:?}", net.fct().completed()), format!("{counters:?}")))
        };
        let (plain, reconfigured) = (run(false)?, run(true)?);
        prop_assert_eq!(&plain.1, &reconfigured.1, "counters moved reconfiguring at {} ns", at);
        prop_assert_eq!(&plain.0, &reconfigured.0, "FCT records moved reconfiguring at {} ns", at);
        prop_assert!(plain.0 != "[]", "the workload completes flows");
    }

    /// Metamorphic relation (a), cycle shift: the schedule repeats every
    /// cycle C, so shifting every flow start, fault window and
    /// `reconfigure` call by k cycles must shift every FCT record by
    /// exactly k·C and leave the counters and the fault report as they
    /// were. Clos runs its preset routing; rotornet and opera run Direct,
    /// HOHO, or VLB or UCMP per flow or per packet, paced and TCP. A
    /// per-packet spray hashes the ingress time within the cycle plus the
    /// packet id (`TimeFlowTable::lookup`), so a shift by whole cycles
    /// sprays every packet the same way.
    #[test]
    fn a_cycle_shift_shifts_every_fct_by_k_cycles(
        n in 4u32..9,
        slice_us in 1u64..4,
        seed in 0u64..1_000,
        arch_pick in 0u8..3,
        routing_pick in 0u8..6,
        fault_pick in 0u8..4,
        k in prop_oneof![Just(1u64), Just(3)],
        reconfigure in any::<bool>(),
        reconfigure_at in 1u64..HORIZON_NS,
        flows in proptest::collection::vec(
            (0u64..1_000_000, 0u32..8, 0u32..8, 1u64..30, any::<bool>()),
            1..10,
        ),
    ) {
        use openoptics::prelude::*;
        let tm = incast_demand(n);
        let arch = || match arch_pick {
            0 => Architecture::clos(),
            1 => Architecture::rotornet(),
            _ => Architecture::opera(),
        };
        let run = |shift_ns: u64| -> Result<[String; 3], Error> {
            let mut net = sampled_net(n, slice_us, seed, arch(), 0, 0, (false, 0, 0));
            let hop = LookupMode::PerHop;
            match (arch_pick, routing_pick) {
                (0, _) => Ok(()),
                (_, 0) => net.deploy_routing(Direct, hop, MultipathMode::None),
                (_, 1) => net.deploy_routing(Vlb, hop, MultipathMode::PerFlow),
                (_, 2) => net.deploy_routing(Hoho::default(), hop, MultipathMode::None),
                (_, 3) => net.deploy_routing(Ucmp::default(), hop, MultipathMode::PerFlow),
                (_, 4) => net.deploy_routing(Vlb, hop, MultipathMode::PerPacket),
                _ => net.deploy_routing(Ucmp::default(), hop, MultipathMode::PerPacket),
            }?;
            if let Some(p) = sampled_plan(fault_pick, shift_ns) {
                net.inject_faults(&p)?;
            }
            for &(at, src, dst, size, tcp) in &flows {
                let (src, dst) = (src % n, dst % n);
                let dst = if src == dst { (dst + 1) % n } else { dst };
                let transport =
                    if tcp { TransportKind::Tcp(Default::default()) } else { TransportKind::Paced };
                let at = SimTime::from_ns(at + shift_ns);
                net.add_flow(at, HostId(src), HostId(dst), size * 10_000, transport);
            }
            if reconfigure {
                net.run_for(SimTime::from_ns(reconfigure_at + shift_ns));
                net.reconfigure(&tm)?;
            }
            net.run_for(SimTime::from_ns(HORIZON_NS + shift_ns - net.now().as_ns()));
            let unshifted: Vec<_> = net
                .fct()
                .completed()
                .iter()
                .map(|r| (r.flow, r.bytes, r.start.as_ns() - shift_ns, r.end.as_ns() - shift_ns))
                .collect();
            Ok([
                format!("{unshifted:?}"),
                format!("{:?}", net.engine.counters),
                format!("{:?}", net.fault_report()),
            ])
        };
        let net = sampled_net(n, slice_us, seed, arch(), 0, 0, (false, 0, 0));
        let slice_cfg = net.engine.schedule().slice_config();
        let cycle_ns = u64::from(slice_cfg.num_slices) * slice_cfg.slice_ns;
        let base = run(0)?;
        // Direct routing around a downed link may complete nothing.
        prop_assume!(base[0] != "[]");
        let shifted = run(k * cycle_ns)?;
        let names = ["fct records less k cycles", "counters", "fault report"];
        for ((name, a), b) in names.iter().zip(&base).zip(&shifted) {
            prop_assert_eq!(a, b, "{} moved shifting by {} cycles", name, k);
        }
    }

    /// A sampled network under a mixed workload (`mixed_run`) completes
    /// flows, and once every flow is done it holds no packet and its ToRs
    /// transmit nothing. `every_mixed_run_on_a_grid_drains` runs a fixed
    /// grid.
    #[test]
    fn a_mixed_run_completes_flows_and_drains(
        n in 4u32..9,
        slice_us in 1u64..4,
        seed in 0u64..1_000,
        arch_pick in 0u8..3,
        fault_pick in 0u8..4,
    ) {
        let case = (n, slice_us, seed, arch_pick, fault_pick);
        let (completed, drained) = mixed_run(case);
        prop_assert!(completed > 0, "the workload completes flows");
        prop_assert_eq!(drained, drain::QUIET, "{:?}", case);
    }

    /// The wildcard reduction: a schedule of held circuits routes
    /// identically from every arrival slice.
    #[test]
    fn held_circuits_are_slice_invariant(n in 4u32..12, seed in 0u32..8) {
        use openoptics::fabric::Circuit;
        use openoptics::proto::PortId;
        // A held ring.
        let circuits: Vec<Circuit> = (0..n)
            .map(|i| Circuit::held(NodeId(i), PortId(1), NodeId((i + 1) % n), PortId(0)))
            .collect();
        let s = OpticalSchedule::build(SliceConfig::new(10_000, 4, 500), n, 2, &circuits)
            .expect("ring deploys");
        let src = NodeId(seed % n);
        let dst = NodeId((seed + 1 + seed % (n - 1)) % n);
        prop_assume!(src != dst);
        for ts in 0..4 {
            let a = s.port_to(src, dst, ts);
            let b = s.port_to(src, dst, 0);
            prop_assert_eq!(a, b, "held circuits must not vary by slice");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The quantile sketch's documented error bound holds for arbitrary
    /// streams: every reported quantile is >= the exact nearest-rank value
    /// and overestimates it by at most 1/16 (6.25%).
    #[test]
    fn sketch_quantiles_stay_within_the_documented_bound(
        values in proptest::collection::vec(0u64..(1u64 << 40), 1..400),
    ) {
        use openoptics::telemetry::QuantileSketch;
        let mut sk = QuantileSketch::new();
        for &v in &values {
            sk.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (numer, denom) in [(1u64, 2u64), (99, 100), (999, 1000)] {
            let rank = to_usize((sorted.len() as u64 * numer).div_ceil(denom).max(1));
            let exact = sorted[rank.min(sorted.len()) - 1];
            let got = sk.quantile(numer, denom);
            prop_assert!(got >= exact, "q{numer}/{denom}: {got} < exact {exact}");
            prop_assert!(
                (got as u128 - exact as u128) * 16 <= exact as u128,
                "q{numer}/{denom}: {got} overestimates exact {exact} by more than 1/16"
            );
        }
    }

    /// Merging per-shard sketches is exactly ingestion order-independence:
    /// however a stream is split across shards, the element-wise merge
    /// equals the single-stream sketch.
    #[test]
    fn sketch_merge_of_shards_equals_single_stream(
        values in proptest::collection::vec(0u64..u64::MAX, 0..300),
        shards in 1usize..6,
    ) {
        use openoptics::telemetry::QuantileSketch;
        let mut single = QuantileSketch::new();
        let mut parts = vec![QuantileSketch::new(); shards];
        for (i, &v) in values.iter().enumerate() {
            single.record(v);
            parts[i % shards].record(v);
        }
        let mut merged = QuantileSketch::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &single);
        prop_assert_eq!(merged.p50(), single.p50());
        prop_assert_eq!(merged.p999(), single.p999());
    }
}

/// `mixed_run` over 144 sampled networks: 3 architectures x 4 fault plans
/// x 3 sizes x 2 seeds x 2 slice lengths (see
/// `a_mixed_run_completes_flows_and_drains`); each network drains. That
/// includes RotorNet with one uplink under the `link_down` plan (node 1's
/// only port dark from 200 to 900 us), whose 300 kB TCP flow finishes
/// only if a retransmission timeout resends everything after the hole.
#[test]
fn every_mixed_run_on_a_grid_drains() {
    let mut stalled = vec![];
    let mut cases = 0;
    for arch_pick in 0..3 {
        for fault_pick in 0..4 {
            for n in [4, 6, 8] {
                for seed in [1, 2] {
                    for slice_us in [1, 3] {
                        let case = (n, slice_us, seed, arch_pick, fault_pick);
                        let (_, drained) = mixed_run(case);
                        if drained != drain::QUIET {
                            stalled.push((case, drained));
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 144);
    assert!(stalled.is_empty(), "{stalled:?}");
}
