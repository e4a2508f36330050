//! `testbed_apps`: the 8-ToR testbed (Fig. 7) running applications over
//! real transport.
//!
//! Bounded TCP transfers (4 x 16 MB) at dupack 3 and 5 over clos / rotornet-direct
//! (flow pausing) / rotornet-VLB / hybrid, a ring allreduce on c-Through
//! with a mid-run `reconfigure(&tm)`, closed-loop memcached mice tagged
//! with an SLO, and one cell under a fault plan — with telemetry on, spans
//! sampled every 4th flow and time-series sampling on. Few long flows
//! instead of many mice: host transport, faults, telemetry, obs and the TA
//! path do most of the work and routing at 8 ToRs does none. It is the
//! "telemetry on" half of the contrast with `rotor_load`.

use openoptics_core::{
    Architecture, DispatchPolicy, FaultPlan, NetConfig, OpenOpticsNet, PauseMode, SloTarget,
    TransportKind,
};
use openoptics_host::apps::MemcachedParams;
use openoptics_host::tcp::TcpConfig;
use openoptics_proto::{HostId, NodeId, PortId};
use openoptics_routing::algos::{Direct, Vlb};
use openoptics_routing::{LookupMode, MultipathMode};
use openoptics_sim::time::SimTime;
use openoptics_topo::TrafficMatrix;

use crate::sim::{run_cell, Ctx, FlowReq, Load, Memcached, Mix, Pass, Scale};

/// Sizes of one pass, from measurement on this box (see the README): the
/// eleven cells together take about 1.4 s of host time.
struct Sizes {
    tcp_bytes: u64,
    allreduce_bytes: u64,
    memcached_stop_ns: u64,
    faulted_bytes: u64,
}

const FULL: Sizes = Sizes {
    tcp_bytes: 16 * 1024 * 1024,
    allreduce_bytes: 20 * 1024 * 1024,
    memcached_stop_ns: 40_000_000,
    faulted_bytes: 2_000_000,
};

const SMOKE: Sizes = Sizes {
    tcp_bytes: 256 * 1024,
    allreduce_bytes: 256 * 1024,
    memcached_stop_ns: 1_000_000,
    faulted_bytes: 100_000,
};

/// Simulated-time cap per cell; every cell finishes well inside it at the
/// baseline (slowest: VLB at dupack 3).
const CAP_NS: u64 = 2_000_000_000;

/// The Fig. 7 testbed with this workload's observability switched on.
fn testbed(seed: u64, slice_ns: u64, uplinks: u16) -> NetConfig {
    NetConfig {
        node_num: 8,
        uplink: uplinks,
        hosts_per_node: 1,
        slice_ns,
        guard_ns: (slice_ns / 10).clamp(200, 1_000),
        uplink_gbps: 100,
        host_link_gbps: 100,
        sync_err_ns: 28,
        queue_capacity: 8 * 1024 * 1024,
        telemetry: true,
        span_sample_every: 4,
        sample_every_ns: 100_000,
        workers: 1,
        seed,
        ..NetConfig::default()
    }
}

/// The iperf testbed: 4 uplinks, so a direct circuit to a given destination
/// is up about half the time, and a 40 Gbps host link standing in for the
/// testbed's CPU bound.
fn iperf_cfg(seed: u64) -> NetConfig {
    NetConfig { host_link_gbps: 40, ..testbed(seed, 100_000, 4) }
}

fn ring_tm(n: u32, weight: f64) -> TrafficMatrix {
    let mut tm = TrafficMatrix::zeros(n as usize);
    for i in 0..n {
        tm.set(NodeId(i), NodeId((i + 1) % n), weight);
    }
    tm
}

/// One pass over the eleven cells.
pub fn pass(ctx: &Ctx) -> Pass {
    let mut pass = Pass::default();
    let sz = if ctx.scale == Scale::Full { &FULL } else { &SMOKE };
    let seed = ctx.seed;
    let mut mix = Mix(seed ^ 0x7e57_bed0);

    // -- bounded TCP transfers: 4 fabrics x dupack {3, 5} -------------------
    type Deploy = fn(u64) -> Result<OpenOpticsNet, openoptics_core::Error>;
    let fabrics: [(&str, Deploy); 4] = [
        ("tcp/clos", |seed| OpenOpticsNet::deploy_preset(iperf_cfg(seed), Architecture::clos())),
        ("tcp/rotornet-direct", |seed| {
            // Direct-circuit traffic waits for its own circuit rather than
            // deferring onto another pair's slice.
            let cfg = NetConfig { congestion_policy: "wait".to_string(), ..iperf_cfg(seed) };
            OpenOpticsNet::deploy(
                cfg,
                Architecture::rotornet().with_pause(PauseMode::DirectCircuit),
                Box::new(Direct),
                LookupMode::PerHop,
                MultipathMode::None,
            )
        }),
        ("tcp/rotornet-vlb", |seed| {
            OpenOpticsNet::deploy(
                iperf_cfg(seed),
                Architecture::rotornet(),
                Box::new(Vlb),
                LookupMode::PerHop,
                MultipathMode::PerPacket,
            )
        }),
        ("tcp/hybrid", |seed| {
            let cfg = NetConfig {
                electrical_gbps: 10,
                congestion_policy: "wait".to_string(),
                ..iperf_cfg(seed)
            };
            OpenOpticsNet::deploy(
                cfg,
                Architecture::rotornet().with_dispatch(DispatchPolicy::HybridDirect),
                Box::new(Direct),
                LookupMode::PerHop,
                MultipathMode::None,
            )
        }),
    ];
    // Four concurrent transfers to the host four racks on: every seed sees
    // the same rotation-symmetric pattern from a different starting rack,
    // and exactly one of the four falls in the span sample.
    let first = mix.below(8) as u32;
    for dupack in [3u32, 5] {
        for (label, deploy) in fabrics {
            let tcp = TcpConfig { dupack_threshold: dupack, ..TcpConfig::default() };
            run_cell(
                ctx,
                &mut pass,
                &format!("{label}/dupack{dupack}"),
                || deploy(seed),
                |_| Load {
                    flows: (0..4)
                        .map(|i| FlowReq {
                            at: SimTime::from_ns(100),
                            src: HostId((first + i) % 8),
                            dst: HostId((first + i + 4) % 8),
                            bytes: sz.tcp_bytes,
                            transport: TransportKind::Tcp(tcp),
                            service: None,
                        })
                        .collect(),
                    cap_ns: CAP_NS,
                    ..Load::default()
                },
            );
        }
    }

    // -- ring allreduce on c-Through with a mid-run reconfigure -------------
    let weight = 1_000.0 + mix.below(1_000) as f64;
    run_cell(
        ctx,
        &mut pass,
        "allreduce/cthrough",
        || {
            // Two uplinks so the matching can realise the full ring.
            let cfg = NetConfig { elephant_threshold: 100_000, ..testbed(seed, 100_000, 2) };
            OpenOpticsNet::deploy_preset(cfg, Architecture::cthrough(&ring_tm(8, weight)))
        },
        |_| Load {
            allreduce: Some(((0..8).map(HostId).collect(), sz.allreduce_bytes)),
            // The controller re-solves the matching for a re-weighted ring
            // demand while the collective is in flight.
            reconfigure: Some((1_000_000, ring_tm(8, 2.0 * weight))),
            cap_ns: CAP_NS,
            ..Load::default()
        },
    );

    // -- closed-loop memcached mice under an SLO ----------------------------
    let server = mix.below(8) as u32;
    run_cell(
        ctx,
        &mut pass,
        "memcached/rotornet-vlb",
        || OpenOpticsNet::deploy_preset(testbed(seed, 100_000, 2), Architecture::rotornet()),
        |_| Load {
            services: vec![(
                "cache",
                Some(SloTarget { latency_ns: 400_000, objective_milli: 990, window_ns: 1_000_000 }),
            )],
            memcached: Some(Memcached {
                params: MemcachedParams { mean_interval_ns: 50_000, ..MemcachedParams::paper() },
                server: HostId(server),
                clients: (0..8).filter(|&h| h != server).map(HostId).collect(),
                stop: SimTime::from_ns(sz.memcached_stop_ns),
                service: Some(0),
            }),
            horizon_ns: sz.memcached_stop_ns,
            cap_ns: CAP_NS,
            ..Load::default()
        },
    );

    // -- four paced elephants under link_down + transceiver flap ------------
    let down_end = 1_000_000 + mix.below(1_000_000);
    let flap_node = 2 * (1 + mix.below(3) as u32);
    run_cell(
        ctx,
        &mut pass,
        "faulted/rotornet-vlb",
        || {
            // 25 Gbps uplinks so the host link outruns the fabric and
            // queues build behind the faults.
            let cfg = NetConfig { uplink_gbps: 25, sync_err_ns: 0, ..testbed(seed, 10_000, 2) };
            OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet())
        },
        |_| Load {
            // One transfer from each faulted rack and two bystanders.
            flows: [0, flap_node, 1, 7]
                .into_iter()
                .map(|src| FlowReq {
                    at: SimTime::from_ns(100),
                    src: HostId(src),
                    dst: HostId((src + 3) % 8),
                    bytes: sz.faulted_bytes,
                    transport: TransportKind::Paced,
                    service: None,
                })
                .collect(),
            faults: Some(
                FaultPlan::builder()
                    .link_down(NodeId(0), PortId(0), 50_000, down_end)
                    .transceiver_flap(NodeId(flap_node), PortId(1), 40, 50_000, down_end / 2)
                    .build()
                    .expect("generated fault windows are well-formed"),
            ),
            cap_ns: CAP_NS,
            ..Load::default()
        },
    );
    pass
}
