//! The start cursor and the watchdog FIFO against the eager reference:
//! scheduling every pre-run start at prime and every watchdog when it is
//! armed. Both keep each event's `(time, seq)`, so a run must not tell
//! them apart.

use super::TransportKind;
use crate::{Architecture, NetConfig, OpenOpticsNet};
use openoptics_faults::FaultPlan;
use openoptics_host::TcpConfig;
use openoptics_proto::{HostId, NodeId, PortId};
use openoptics_sim::SimTime;
use proptest::prelude::*;

/// Long enough that every watchdog armed by a start fires twice.
const HORIZON_NS: u64 = 25_000_000;

/// One flow: `(start slot, src, dst, size slot, transport pick)`. Start
/// slots are 50 us apart from t = 0, so a handful of flows share a start.
type FlowPick = (u64, u32, u32, u64, u8);

fn flow_picks() -> impl Strategy<Value = Vec<FlowPick>> {
    proptest::collection::vec((0u64..6, 0u32..8, 0u32..8, 1u64..40, 0u8..4), 1..20)
}

struct Case {
    n: u32,
    arch_pick: u8,
    seed: u64,
    fault_pick: u8,
    pre_run: Vec<FlowPick>,
    pause_ns: u64,
    post_prime: Vec<FlowPick>,
}

fn add(net: &mut OpenOpticsNet, n: u32, from: SimTime, (slot, src, dst, size, tp): FlowPick) {
    let (src, dst) = (src % n, dst % n);
    let dst = if src == dst { (dst + 1) % n } else { dst };
    let transport = match tp {
        0 => TransportKind::Tcp(TcpConfig::default()),
        1 => TransportKind::TdTcp(TcpConfig::default()),
        _ => TransportKind::Paced,
    };
    let at = from + slot * 50_000;
    net.add_flow_tagged(at, HostId(src), HostId(dst), size * 7_000, transport, None);
}

/// FCT records, counters, pops, per-phase event counts and the fault
/// report of one run, eager or not.
fn run(case: &Case, eager: bool) -> [String; 5] {
    let cfg = NetConfig::builder()
        .node_num(case.n)
        .uplink(1)
        .hosts_per_node(1)
        .slice_ns(50_000)
        .guard_ns(1_000)
        .seed(case.seed)
        .build()
        .expect("sampled config is valid");
    let arch = match case.arch_pick {
        0 => Architecture::clos(),
        1 => Architecture::rotornet(),
        _ => Architecture::opera(),
    };
    let mut net = OpenOpticsNet::deploy_preset(cfg, arch).expect("sampled architecture deploys");
    net.engine.eager = eager;
    let b = FaultPlan::builder();
    let plan = match case.fault_pick {
        0 => None,
        1 => Some(b.link_down(NodeId(1), PortId(0), 100_000, 3_000_000)),
        _ => Some(b.transceiver_flap(NodeId(0), PortId(0), 20, 0, 2_000_000)),
    };
    if let Some(p) = plan {
        net.inject_faults(&p.build().expect("sampled plan is valid")).expect("plan fits");
    }
    for &f in &case.pre_run {
        add(&mut net, case.n, SimTime::ZERO, f);
    }
    net.run_for(SimTime::from_ns(case.pause_ns));
    let now = net.now();
    for &f in &case.post_prime {
        add(&mut net, case.n, now, f);
    }
    net.run_for(SimTime::from_ns(HORIZON_NS - case.pause_ns));
    let phases: Vec<_> =
        net.engine.profiler().stats().into_iter().map(|(p, s)| (p, s.events, s.sim_ns)).collect();
    [
        format!("{:?}", net.fct().completed()),
        format!("{:?}", net.engine.counters),
        format!("{}", net.queue_stats().popped_total),
        format!("{phases:?}"),
        format!("{:?}", net.fault_report()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pre-run flows in shuffled attach order with tied starts and starts
    /// at t = 0, paced and TCP, plus flows attached after a pause, on
    /// clos, rotornet and opera with and without faults: the lazy starts
    /// and watchdogs reproduce the eager run exactly.
    #[test]
    fn lazy_starts_and_watchdogs_match_eager_scheduling(
        n in 4u32..9,
        arch_pick in 0u8..3,
        seed in 0u64..1_000,
        fault_pick in 0u8..3,
        pre_run in flow_picks(),
        pause_ns in 1u64..HORIZON_NS / 2,
        post_prime in flow_picks(),
    ) {
        let case = Case { n, arch_pick, seed, fault_pick, pre_run, pause_ns, post_prime };
        let (eager, lazy) = (run(&case, true), run(&case, false));
        prop_assert!(eager[0] != "[]", "the workload completes flows");
        let names = ["fct records", "counters", "events popped", "phase counts", "fault report"];
        for ((name, a), b) in names.iter().zip(&eager).zip(&lazy) {
            prop_assert_eq!(a, b, "{} moved", name);
        }
    }
}

/// On clos nothing is scheduled before the starts, so a flow 0 leading at
/// t = 0 takes the queue's first key, `(ZERO, 1)`: just after the current
/// key before the first pop, `(ZERO, 0)`, which no event has.
#[test]
fn a_leading_flow_0_at_t_0_on_an_empty_queue_starts_first() {
    let case = Case {
        n: 4,
        arch_pick: 0,
        seed: 1,
        fault_pick: 0,
        pre_run: vec![(0, 0, 1, 5, 2), (0, 2, 3, 5, 0), (1, 1, 0, 5, 2)],
        pause_ns: 1,
        post_prime: vec![(0, 3, 2, 5, 2)],
    };
    let (eager, lazy) = (run(&case, true), run(&case, false));
    let first = "[FlowRecord { flow: 1, bytes: 35000, start: 0ns,";
    assert!(eager[0].starts_with(first), "{}", eager[0]);
    assert_eq!(eager, lazy);
}
