//! What the lazily filled route tables hold.

use openoptics::prelude::*;
use openoptics::proto::Packet;
use openoptics::routing::{compile, RouteAction};

/// A finding, pinned for the routing change that keys a miss's entries to
/// the node that missed to flip. A miss installs its path's entries at
/// every node on the path (`install_routes_for`), each under the `(arrival
/// slice, destination)` key that node's own traffic looks up too. Under
/// VLB, an intermediate's transit entry ("wait for the direct circuit to
/// the destination") then answers the intermediate's own packets, which
/// skip the spray VLB would give them: on a 12 x 2 RotorNet under a paced
/// flow from every host to every other, 5 us apart, 187 of the 326 keys
/// installed at the sources' own ToRs hold an action the source's own
/// paths do not.
#[test]
fn a_vlb_source_borrows_another_source_s_transit_entry() -> Result<(), Error> {
    let n = 12;
    let cfg = NetConfig::builder()
        .node_num(n)
        .uplink(2)
        .slice_ns(50_000)
        .guard_ns(1_000)
        .sync_err_ns(0)
        .telemetry(false)
        .seed(3)
        .build()?;
    let (lookup, multipath) = (LookupMode::PerHop, MultipathMode::PerPacket);
    let mut net =
        OpenOpticsNet::deploy(cfg, Architecture::rotornet(), Box::new(Vlb), lookup, multipath)?;
    let pairs = (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).filter(|(s, d)| s != d);
    for (i, (src, dst)) in (0u64..).zip(pairs) {
        let at = SimTime::from_ns(100 + 5_000 * i);
        net.add_flow(at, HostId(src), HostId(dst), 3_000, TransportKind::Paced);
    }
    net.run_for(SimTime::from_ms(3));
    let sched = net.engine.schedule().clone();
    let (mut installed, mut borrowed) = (0, 0);
    for x in (0..n).map(NodeId) {
        let mut tor = net.engine.tor(x).clone();
        for arr in 0..sched.slice_config().num_slices {
            for dst in (0..n).map(NodeId).filter(|&d| d != x) {
                let paths = Vlb.paths(&sched, x, dst, Some(arr));
                let own: Vec<RouteAction> = compile(&paths, lookup, multipath)
                    .into_iter()
                    .filter(|e| e.node == x && e.m.arr_slice == Some(arr))
                    .flat_map(|e| e.actions.into_iter().map(|(a, _)| a))
                    .collect();
                let pkt =
                    Packet::data(1, 1, x, dst, HostId(x.0), HostId(dst.0), 1_000, 0, SimTime::ZERO);
                if let Some(action) = tor.tft_mut().lookup(&pkt, arr) {
                    installed += 1;
                    borrowed += u32::from(!own.contains(action));
                }
            }
        }
    }
    assert_eq!((installed, borrowed), (326, 187));
    Ok(())
}
