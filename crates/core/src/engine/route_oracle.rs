//! A lone packet against the route oracle: one paced one-packet flow into
//! an idle fabric with no clock-sync error and no pipeline jitter must be
//! delivered exactly when the oracle's path says, timed by a reference
//! written here from the model's rules and not from the engine's code.
//!
//! The oracle is the routing scheme's own `paths` answer for the source
//! ToR and the slice the packet arrives in (with no multipath, the first
//! path wins). Along it, each hop leaves at the first instant its
//! departure slice allows: not before the packet is there, not inside the
//! slice's guardband, and only if its serialisation ends at least
//! `SLICE_END_MARGIN_NS` before the slice does (else the same slice of the
//! next cycle). The packet then reaches the next ToR after its
//! serialisation, the switch pipeline and the fabric's propagation; the
//! destination ToR hands it to the host's downlink, which serialises it.
//!
//! Two findings are pinned, each where it shows:
//! - The engine overlaps a hop's uplink serialisation with the pipeline
//!   and propagation (the next ingress is `max` of the two, not their
//!   sum), so the reference charges `max` ([`OVERLAPPED_SERIALISATION`]).
//! - A hop that leaves late in its slice lands in the next one; the next
//!   ToR then looks up an arrival slice the compiled path did not plan
//!   for (compilation assumes a sub-slice transit), misses, and routes it
//!   anew from there.
//!
//! A packet that reaches a ToR in its departure slice too late to make the
//! slice's tail looks congested (the check counts only the tail's time),
//! and `defer` keeps it on its path: on a round robin no later slice of
//! the cycle reaches the same peer, so it waits for its own slice's next
//! turn, as the reference does.
//!
//! Every other case agrees exactly; the cases of the last finding are
//! counted and the count pinned.

use super::{TransportKind, HOST_WIRE_NS, MSS, SLICE_END_MARGIN_NS};
use crate::{NetConfig, OpenOpticsNet};
use openoptics_fabric::{Circuit, OpticalSchedule};
use openoptics_proto::{HostId, NodeId, PortId, HEADER_BYTES};
use openoptics_routing::algos::{Direct, Hoho, Ucmp, Vlb};
use openoptics_routing::{LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics_sim::{to_u32, Bandwidth, SimTime};
use openoptics_switch::PipelineModel;
use openoptics_topo::round_robin::round_robin;

const SLICE_NS: u64 = 20_000;
/// The emulated fabric's propagation plus its cut-through delay, ns.
const FABRIC_NS: u64 = 100 + 400;
const GUARD_NS: u64 = 1_000;
/// Bytes a source-route hop entry adds on the wire (Fig. 3d).
const SOURCE_HOP_BYTES: u32 = 4;
/// A hop reaches the next ToR `max(serialisation, pipeline + propagation)`
/// after it leaves, not their sum: the first finding above.
const OVERLAPPED_SERIALISATION: bool = true;

/// The cabling cases: the full round robin, a partial one (every third
/// circuit left out, so some pairs have no direct circuit in a cycle), and
/// the round robin with one link (node 0's port 0 in slice 1) masked.
fn schedules(n: u32, uplinks: u16) -> Vec<(&'static str, Vec<Circuit>, u32)> {
    let (all, slices) = round_robin(n, uplinks);
    let partial = all.iter().enumerate().filter(|(i, _)| i % 3 != 2).map(|(_, c)| *c).collect();
    let masked = all
        .iter()
        .filter(|c| {
            let ends_at =
                |node, port| (c.a, c.a_port) == (node, port) || (c.b, c.b_port) == (node, port);
            !(c.slice == Some(1) && ends_at(NodeId(0), PortId(0)))
        })
        .copied()
        .collect();
    vec![("round robin", all, slices), ("partial", partial, slices), ("masked", masked, slices)]
}

fn algorithms() -> Vec<Box<dyn RoutingAlgorithm>> {
    vec![Box::new(Direct), Box::new(Vlb), Box::new(Hoho::default()), Box::new(Ucmp::default())]
}

/// The reference's walk along the oracle's path.
#[derive(Debug, Default)]
struct Walk {
    /// When the host at `dst` receives the packet; `None` when the oracle
    /// offers no path.
    delivered: Option<u64>,
    /// Some hop's transit ends in a later slice than it left in, so the
    /// next ToR sees an arrival slice the path did not plan for.
    crosses: bool,
}

/// The reference: how a packet of `payload` bytes that reaches ToR `src`
/// at `at` travels to its host at ToR `dst` along the oracle's path.
fn reference(
    sched: &OpticalSchedule,
    algo: &dyn RoutingAlgorithm,
    cfg: &NetConfig,
    (src, dst): (NodeId, NodeId),
    at: u64,
    payload: u32,
) -> Walk {
    let slices = sched.slice_config();
    let slice_of = |t: u64| to_u32((t / slices.slice_ns) % u64::from(slices.num_slices));
    let mut walk = Walk::default();
    let Some(path) = algo.paths(sched, src, dst, Some(slice_of(at))).into_iter().next() else {
        return walk;
    };
    let pipeline = PipelineModel::default();
    let uplink = Bandwidth::gbps(cfg.uplink_gbps);
    let stacked = algo.requires_source_routing();
    let base = payload + HEADER_BYTES;
    let mut t = at;
    for (i, hop) in path.hops.iter().enumerate() {
        // A source route carries one entry per hop still to execute.
        let ahead = u32::try_from(path.hops.len() - 1 - i).unwrap();
        let size = u64::from(base + if stacked { SOURCE_HOP_BYTES * ahead } else { 0 });
        let tx = uplink.tx_time_ns(size).max(1);
        let dep = hop.dep_slice.expect("a rotating schedule names departure slices");
        let end = |start: u64| start + slices.slice_ns - SLICE_END_MARGIN_NS;
        let mut start = t - t % slices.slice_ns;
        t = loop {
            let leave = t.max(start + slices.guard_ns);
            if slice_of(start) == dep && leave + tx <= end(start) {
                break leave;
            }
            start += slices.slice_ns;
        };
        let flight = pipeline.base_ns + pipeline.link.tx_time_ns(size).max(1) + FABRIC_NS;
        t += if OVERLAPPED_SERIALISATION { flight.max(tx) } else { tx + flight };
        walk.crosses |= t - t % slices.slice_ns != start;
    }
    walk.delivered = Some(t + cfg.host_link_bandwidth().tx_time_ns(u64::from(base)).max(1));
    walk
}

/// Arrival offsets into a slice worth probing for a packet whose first
/// hop serialises in `tx`: the boundary, inside and at the end of the
/// guardband, mid-slice, the last offset that still fits and the first
/// that does not, and the slice's last nanosecond.
fn offsets(tx: u64) -> [u64; 7] {
    let last_fit = SLICE_NS - tx - SLICE_END_MARGIN_NS;
    [0, GUARD_NS - 1, GUARD_NS, SLICE_NS / 2, last_fit, last_fit + 1, SLICE_NS - 1]
}

/// How the engine's delivery times compare with the reference's.
#[derive(Default)]
struct Tally {
    cases: usize,
    /// Equal, delivered or not.
    agree: usize,
    /// Differ where a transit crosses a slice boundary (second finding).
    crossing: usize,
    /// Differ for no pinned reason.
    unexplained: Vec<String>,
}

fn lone_packets(n: u32, uplinks: u16, tally: &mut Tally) {
    let cfg = NetConfig::builder()
        .node_num(n)
        .uplink(uplinks)
        .hosts_per_node(1)
        .slice_ns(SLICE_NS)
        .guard_ns(GUARD_NS)
        .sync_err_ns(0)
        .telemetry(false)
        .seed(1)
        .build()
        .expect("a valid config");
    let payload = MSS;
    let tx = Bandwidth::gbps(cfg.uplink_gbps).tx_time_ns(u64::from(payload + HEADER_BYTES));
    for (shape, circuits, slices) in schedules(n, uplinks) {
        for algo in algorithms() {
            let mut base = OpenOpticsNet::new(cfg.clone());
            base.deploy_topo(&circuits, slices).expect("the cabling deploys");
            let lookup = LookupMode::PerHop;
            base.deploy_routing_boxed(algo.clone_box(), lookup, MultipathMode::None)
                .expect("the scheme fits the schedule");
            base.engine.pipeline.jitter_ns = 0;
            let sched = base.engine.schedule().clone();
            let cycle = u64::from(slices) * SLICE_NS;
            let pairs = (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).filter(|(s, d)| s != d);
            for (src, dst) in pairs {
                let ends = (NodeId(src), NodeId(dst));
                for k in 0..u64::from(slices) {
                    for off in offsets(tx) {
                        let at = k * SLICE_NS + off;
                        // The host's wire: nothing reaches a ToR before it.
                        let Some(start) = at.checked_sub(HOST_WIRE_NS) else { continue };
                        let mut net = base.clone();
                        let (s, d) = (HostId(src), HostId(dst));
                        net.add_flow(
                            SimTime::from_ns(start),
                            s,
                            d,
                            u64::from(payload),
                            TransportKind::Paced,
                        );
                        net.run_for(SimTime::from_ns(start + 4 * cycle));
                        let got = net.fct().completed().first().map(|r| r.end.as_ns());
                        let walk = reference(&sched, algo.as_ref(), &cfg, ends, at, payload);
                        tally.cases += 1;
                        if got == walk.delivered {
                            tally.agree += 1;
                        } else if walk.crosses {
                            tally.crossing += 1;
                        } else {
                            let name = algo.name();
                            let want = walk.delivered;
                            let case =
                                format!("{n} x {uplinks} {shape} {name} {src}->{dst} at {at}");
                            tally.unexplained.push(format!("{case}: {got:?}, reference {want:?}"));
                        }
                    }
                }
            }
        }
    }
}

/// Every `(src, dst, t)` over one cycle, at the offsets into each slice
/// that matter, on 4 x 1, 6 x 2 and 8 x 3 cabling, for Direct, VLB, HOHO
/// and UCMP: the engine delivers exactly when the reference does, or not
/// at all when the oracle has no path, except in the cases of the second
/// finding, whose count is pinned.
#[test]
fn a_lone_packet_obeys_the_route_oracle() {
    let mut tally = Tally::default();
    for (n, uplinks) in [(4, 1), (6, 2), (8, 3)] {
        lone_packets(n, uplinks, &mut tally);
    }
    let shown = &tally.unexplained[..tally.unexplained.len().min(20)];
    assert!(shown.is_empty(), "{} unexplained: {shown:#?}", tally.unexplained.len());
    assert_eq!((tally.cases, tally.agree, tally.crossing), (47_376, 45_457, 1_919));
}
