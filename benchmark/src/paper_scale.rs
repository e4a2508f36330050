//! `paper_scale`: the paper's Tables 3-4 scale, which the repository does
//! not otherwise run.
//!
//! 108 ToRs x 6 uplinks, 300 us slices (18-slice cycle), RPC trace at 20 %
//! host load, cells VLB / UCMP / HOHO. Lazy per-(src, dst, arrival-slice)
//! path computation over the time-expanded graph, large time-flow tables
//! and cache footprint dominate; the per-packet switch path does
//! comparatively little. It is the configuration a routing-compile or
//! memory optimisation shows on, and the only one on which the ROADMAP
//! `--workers` decision can be measured.

use openoptics_core::{Architecture, NetConfig, OpenOpticsNet};
use openoptics_routing::algos::{Hoho, Ucmp, Vlb};
use openoptics_routing::{LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics_workload::Trace;

use crate::sim::{poisson_load, run_cell, Ctx, Load, Pass, Scale};

/// Offered-load window per cell. Sized from measurement: at 1 ms the three
/// cells took 0.7 + 2.9 + 2.2 s of host time here (route computation keeps
/// going through the drain); 0.6 ms keeps one pass near 1.6 s and a 20 s
/// run at about ten passes.
const HORIZON_NS: u64 = 600_000;
const SMOKE_HORIZON_NS: u64 = 20_000;
/// Twelve control steps across the two-slice window: with only two, the
/// median step of a pass would sit between two cells' costs.
const STEP_NS: u64 = 50_000;
/// Drain allowance: UCMP at this scale needed 30 ms to finish every flow.
const DRAIN_NS: u64 = 120_000_000;

fn cfg(seed: u64, telemetry: bool) -> NetConfig {
    NetConfig {
        node_num: 108,
        uplink: 6,
        hosts_per_node: 1,
        slice_ns: 300_000,
        guard_ns: 1_000,
        sync_err_ns: 28,
        queue_capacity: 16 * 1024 * 1024,
        congestion_threshold: 1024 * 1024,
        telemetry,
        workers: 1,
        seed,
        ..NetConfig::default()
    }
}

/// One pass: VLB / UCMP / HOHO on the same offered load.
pub fn pass(ctx: &Ctx) -> Pass {
    let mut pass = Pass::default();
    let horizon = if ctx.scale == Scale::Full { HORIZON_NS } else { SMOKE_HORIZON_NS };
    type Algo = fn() -> (Box<dyn RoutingAlgorithm>, MultipathMode);
    let cells: [(&str, Algo); 3] = [
        ("vlb", || (Box::new(Vlb), MultipathMode::PerPacket)),
        ("ucmp", || (Box::new(Ucmp::default()), MultipathMode::PerPacket)),
        ("hoho", || (Box::new(Hoho::default()), MultipathMode::None)),
    ];
    for (label, algo) in cells {
        run_cell(
            ctx,
            &mut pass,
            label,
            || {
                let (algo, multipath) = algo();
                OpenOpticsNet::deploy(
                    cfg(ctx.seed, ctx.traced),
                    Architecture::rotornet(),
                    algo,
                    LookupMode::PerHop,
                    multipath,
                )
            },
            |net| Load {
                step_ns: STEP_NS,
                ..poisson_load(net, &[(Trace::Rpc, 0.2)], horizon, DRAIN_NS, ctx.seed)
            },
        );
    }
    pass
}
