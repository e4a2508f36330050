//! The start cursor, the watchdog FIFO and the freeing of finished flows
//! against the eager reference: scheduling every pre-run start at prime
//! and every watchdog when it is armed, and keeping every pending record
//! and flow row. Both schedule each event under the key its tie gives, so
//! a run must not tell them apart, except that the lazy path never pops a
//! watchdog whose flow was done before it came to the front.

use super::{TransportKind, WATCHDOG_NS};
use crate::{Architecture, NetConfig, OpenOpticsNet};
use openoptics_faults::FaultPlan;
use openoptics_host::apps::MemcachedParams;
use openoptics_host::TcpConfig;
use openoptics_obs::Phase;
use openoptics_proto::{HostId, NodeId, PortId};
use openoptics_sim::{to_u32, SimTime};
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
    /// Bit 0: a memcached app (requests and responses); bit 1: an
    /// allreduce (chunk flows).
    app_pick: u8,
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

/// What one run, eager or not, leaves behind.
#[derive(Debug)]
struct Outcome {
    /// FCT records, counters and fault report: equal for both paths.
    same: [String; 3],
    /// `flow_delivered` of every flow id, from 0 to one past the last.
    delivered: Vec<u64>,
    popped: u64,
    /// Events per phase.
    phases: Vec<(Phase, u64)>,
    /// Watchdogs popped for a flow that was done or freed.
    dead_watchdogs: u64,
}

impl Outcome {
    /// Pops and per-phase event counts without the dead watchdogs: the
    /// eager path pops every watchdog, the lazy one only a front whose
    /// flow finished while it waited in the queue.
    fn live_counts(&self) -> (u64, Vec<(Phase, u64)>) {
        let dead = |p: Phase| if p == Phase::Timer { self.dead_watchdogs } else { 0 };
        let phases = self.phases.iter().map(|&(p, e)| (p, e - dead(p))).collect();
        (self.popped - self.dead_watchdogs, phases)
    }
}

fn network(case: &Case, eager: bool) -> OpenOpticsNet {
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
    if case.app_pick & 1 != 0 {
        let params =
            MemcachedParams { set_bytes: 4_200, response_bytes: 100, mean_interval_ns: 400_000 };
        let clients = (1..case.n).map(HostId).collect();
        net.add_memcached(params, HostId(0), clients, SimTime::from_ns(HORIZON_NS / 2));
    }
    if case.app_pick & 2 != 0 {
        net.add_allreduce((0..case.n).map(HostId).collect(), 48_000);
    }
    net
}

fn run(case: &Case, eager: bool) -> Outcome {
    let mut net = network(case, eager);
    for &f in &case.pre_run {
        add(&mut net, case.n, SimTime::ZERO, f);
    }
    net.run_for(SimTime::from_ns(case.pause_ns));
    let now = net.now();
    for &f in &case.post_prime {
        add(&mut net, case.n, now, f);
    }
    net.run_for(SimTime::from_ns(HORIZON_NS - case.pause_ns));
    outcome(&net)
}

fn outcome(net: &OpenOpticsNet) -> Outcome {
    let flows = net.engine.flows.rows.items.len() as u64;
    Outcome {
        same: [
            format!("{:?}", net.fct().completed()),
            format!("{:?}", net.engine.counters),
            format!("{:?}", net.fault_report()),
        ],
        delivered: (0..=flows + 1).map(|id| net.flow_delivered(id)).collect(),
        popped: net.queue_stats().popped_total,
        phases: net.engine.profiler().stats().into_iter().map(|(p, s)| (p, s.events)).collect(),
        dead_watchdogs: net.engine.dead_watchdogs,
    }
}

/// The lazy run reproduces the eager one: records, counters, fault report
/// and every flow's delivered bytes, and every pop but the dead watchdogs
/// the lazy path skipped.
fn same_run(eager: &Outcome, lazy: &Outcome) -> Result<(), String> {
    let names = ["fct records", "counters", "fault report"];
    for ((name, a), b) in names.iter().zip(&eager.same).zip(&lazy.same) {
        if a != b {
            return Err(format!("{name} moved:\n{a}\n{b}"));
        }
    }
    if eager.delivered != lazy.delivered {
        return Err(format!("delivered bytes moved:\n{:?}\n{:?}", eager.delivered, lazy.delivered));
    }
    if eager.live_counts() != lazy.live_counts() {
        return Err(format!("live pops moved:\n{eager:?}\n{lazy:?}"));
    }
    if lazy.dead_watchdogs > eager.dead_watchdogs {
        return Err(format!("the lazy path popped more dead watchdogs:\n{eager:?}\n{lazy:?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pre-run flows in shuffled attach order with tied starts and starts
    /// at t = 0, paced and TCP, plus flows attached after a pause and
    /// memcached and allreduce flows, on clos, rotornet and opera with and
    /// without faults: the lazy starts and watchdogs reproduce the eager
    /// run exactly, up to the dead watchdogs.
    #[test]
    fn lazy_starts_and_watchdogs_match_eager_scheduling(
        n in 4u32..9,
        arch_pick in 0u8..3,
        seed in 0u64..1_000,
        fault_pick in 0u8..3,
        app_pick in 0u8..4,
        pre_run in flow_picks(),
        pause_ns in 1u64..HORIZON_NS / 2,
        post_prime in flow_picks(),
    ) {
        let case = Case { n, arch_pick, seed, fault_pick, app_pick, pre_run, pause_ns, post_prime };
        let (eager, lazy) = (run(&case, true), run(&case, false));
        prop_assert!(eager.same[0] != "[]", "the workload completes flows");
        if let Err(e) = same_run(&eager, &lazy) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// On clos nothing is scheduled before the starts, so a flow 0 leading at
/// t = 0, whose start has the lowest key of the instant, starts first.
#[test]
fn a_leading_flow_0_at_t_0_on_an_empty_queue_starts_first() {
    let case = Case {
        n: 4,
        arch_pick: 0,
        seed: 1,
        fault_pick: 0,
        app_pick: 0,
        pre_run: vec![(0, 0, 1, 5, 2), (0, 2, 3, 5, 0), (1, 1, 0, 5, 2)],
        pause_ns: 1,
        post_prime: vec![(0, 3, 2, 5, 2)],
    };
    let (eager, lazy) = (run(&case, true), run(&case, false));
    let first = "[FlowRecord { flow: 1, bytes: 35000, start: 0ns,";
    assert!(eager.same[0].starts_with(first), "{}", eager.same[0]);
    same_run(&eager, &lazy).unwrap();
}

/// A flow's watchdog fires at the instant a later flow starts: the re-arm
/// comes first (watchdogs rank before starts), so the FIFO holds the two
/// in flow-id order, the order their ties pop in, and the lazy run still
/// matches the eager one.
#[test]
fn watchdogs_armed_at_one_instant_wait_in_flow_id_order() {
    let run = |eager: bool| {
        let cfg = NetConfig::builder().node_num(4).hosts_per_node(1).host_link_gbps(1).build();
        let arch = Architecture::clos();
        let mut net = OpenOpticsNet::deploy_preset(cfg.unwrap(), arch).unwrap();
        net.engine.eager = eager;
        // 16 ms at 1 Gbps: still sending when its first watchdog fires.
        let second = SimTime::from_ns(WATCHDOG_NS);
        net.add_flow(SimTime::ZERO, HostId(0), HostId(1), 2_000_000, TransportKind::Paced);
        net.add_flow(second, HostId(0), HostId(2), 2_000_000, TransportKind::Paced);
        net.run_for(SimTime::from_ns(WATCHDOG_NS + 1));
        let fifo: Vec<_> = net.engine.watchdogs.iter().map(|&(at, id)| (at.as_ns(), id)).collect();
        net.run_for(SimTime::from_ns(HORIZON_NS - WATCHDOG_NS - 1));
        (fifo, outcome(&net))
    };
    let ((_, eager), (fifo, lazy)) = (run(true), run(false));
    assert_eq!(fifo, [(2 * WATCHDOG_NS, 1), (2 * WATCHDOG_NS, 2)]);
    assert!(lazy.same[0] != "[]", "the first flow completes");
    same_run(&eager, &lazy).unwrap();
}

/// Enough flows to fill several chunks: 9,000 one-packet flows attached
/// before the run (the first four TCP, whose rows keep the first chunk), a
/// memcached app, then 3,000 more paced flows attached mid-run. The lazy path frees pending chunks
/// and flow-row chunks and skips dead watchdogs; every flow still answers
/// `flow_delivered` as the eager path's kept row does.
#[test]
fn freed_chunks_answer_as_the_kept_rows_do() {
    let case = Case {
        n: 8,
        arch_pick: 1,
        seed: 7,
        fault_pick: 0,
        app_pick: 1,
        pre_run: Vec::new(),
        pause_ns: 8_000_000,
        post_prime: Vec::new(),
    };
    let load = |net: &mut OpenOpticsNet, from: u64, flows: u64| {
        for i in 0..flows {
            let (src, hop) = (i % 8, 1 + (i / 8) % 7);
            let (src, dst) = (to_u32(src), to_u32((src + hop) % 8));
            let at = SimTime::from_ns(from + i * 700);
            // TCP flows pin the first chunk of rows only.
            let transport = if from == 0 && i < 4 {
                TransportKind::Tcp(TcpConfig::default())
            } else {
                TransportKind::Paced
            };
            net.add_flow(at, HostId(src), HostId(dst), 1_436, transport);
        }
    };
    let run = |eager: bool| {
        let mut net = network(&case, eager);
        load(&mut net, 0, 9_000);
        net.run_for(SimTime::from_ns(case.pause_ns));
        load(&mut net, case.pause_ns, 3_000);
        net.run_for(SimTime::from_ns(HORIZON_NS - case.pause_ns));
        let freed = |chunks: &[Box<[u64]>]| chunks.iter().filter(|c| !c.is_empty()).count();
        let pending_held = (0..12_000).filter(|&i| net.engine.pending_flows.items.get(i).is_some());
        // A TCP row stays, done or not: its receiver still ACKs duplicates.
        assert!((1..=4).all(|id| net.engine.tcp(id).is_some()), "a TCP row was freed");
        (outcome(&net), freed(&net.engine.flows.freed_bytes), pending_held.count())
    };
    let ((eager, eager_freed, eager_pending), (lazy, lazy_freed, lazy_pending)) =
        (run(true), run(false));
    assert!(eager.delivered.len() > 12_000, "{} flows", eager.delivered.len());
    assert_eq!((eager_freed, eager_pending), (0, 12_000), "the eager path keeps everything");
    assert!(lazy_freed >= 2, "{lazy_freed} flow-row chunks freed");
    assert!(lazy_pending <= 12_000 - 2 * 4_096, "{lazy_pending} pending records held");
    assert!(lazy.dead_watchdogs < eager.dead_watchdogs);
    same_run(&eager, &lazy).unwrap();
}
