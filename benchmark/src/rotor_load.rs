//! `rotor_load`: the many-mice packet-forwarding hot path.
//!
//! 12 ToRs x 2 uplinks RotorNet, 300 us slices, open-loop Poisson arrivals
//! from the KV-store and RPC traces at 20 % host load, four routing cells
//! back to back, `Paced` transport, telemetry, spans and sampling off.
//! Event queue, calendar ports, TFT lookup, EQO and engine dispatch do
//! nearly all the work; it is also the "telemetry off" half of the
//! zero-cost-when-disabled contrast with `testbed_apps`.

use openoptics_core::{Architecture, NetConfig, OpenOpticsNet};
use openoptics_routing::algos::{Hoho, Ucmp, Vlb};
use openoptics_routing::{LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics_workload::Trace;

use crate::sim::{poisson_load, run_cell, Ctx, Load, Pass, Scale};

/// Offered-load window per cell. Sized from measurement: the four cells
/// together take ~2 s of host time on this box, so a 20 s run holds 8-9
/// passes.
const HORIZON_NS: u64 = 16_000_000;
const SMOKE_HORIZON_NS: u64 = 300_000;
/// Three control steps per 300 us slice. Under 20 % load no 100 us step is
/// idle, and a pass yields ~640 step latencies instead of ~210, so the 99th
/// percentile is the 7th slowest step rather than the 3rd and moves less
/// from seed to seed (18-20 % spread at one step per slice).
const STEP_NS: u64 = 100_000;
/// Drain allowance after the window; every flow of a lossless cell
/// completes well inside it (longest seen: 4 ms).
const DRAIN_NS: u64 = 40_000_000;

fn cfg(seed: u64, offload: bool, telemetry: bool) -> NetConfig {
    NetConfig {
        node_num: 12,
        uplink: 2,
        hosts_per_node: 1,
        slice_ns: 300_000,
        guard_ns: 1_000,
        sync_err_ns: 28,
        queue_capacity: 16 * 1024 * 1024,
        // Lets the congestion service spread HOHO/UCMP bursts over nearby
        // slices, as deployed.
        congestion_threshold: 1024 * 1024,
        offload,
        offload_keep_ranks: 2,
        offload_return_lead_ns: 50_000,
        telemetry,
        workers: 1,
        seed,
        ..NetConfig::default()
    }
}

/// One pass: VLB / VLB+offload / HOHO / UCMP on the same offered load.
pub fn pass(ctx: &Ctx) -> Pass {
    let mut pass = Pass::default();
    let horizon = if ctx.scale == Scale::Full { HORIZON_NS } else { SMOKE_HORIZON_NS };
    type Algo = fn() -> (Box<dyn RoutingAlgorithm>, MultipathMode);
    let cells: [(&str, bool, Algo); 4] = [
        ("vlb", false, || (Box::new(Vlb), MultipathMode::PerPacket)),
        ("vlb+offload", true, || (Box::new(Vlb), MultipathMode::PerPacket)),
        ("hoho", false, || (Box::new(Hoho::default()), MultipathMode::None)),
        ("ucmp", false, || (Box::new(Ucmp::default()), MultipathMode::PerPacket)),
    ];
    for (label, offload, algo) in cells {
        run_cell(
            ctx,
            &mut pass,
            label,
            || {
                let (algo, multipath) = algo();
                OpenOpticsNet::deploy(
                    cfg(ctx.seed, offload, ctx.traced),
                    Architecture::rotornet(),
                    algo,
                    LookupMode::PerHop,
                    multipath,
                )
            },
            |net| Load {
                step_ns: STEP_NS,
                ..poisson_load(
                    net,
                    &[(Trace::KvStore, 0.1), (Trace::Rpc, 0.1)],
                    horizon,
                    DRAIN_NS,
                    ctx.seed,
                )
            },
        );
    }
    pass
}
