//! Earliest-arrival search on the time-expanded graph.
//!
//! The engine behind the `earliest_path()` helper (Table 1) and the UCMP /
//! HOHO routing schemes. State is `(node, delta)` where `delta` counts
//! slices elapsed since arrival at the source; transitions are *wait*
//! (`delta + 1`, same node) and *traverse* (any circuit lit in slice
//! `arr + delta`, same `delta` — fabric transit is orders of magnitude
//! shorter than a slice). Each node keeps the lexicographically least
//! `(delta, hops)` label the sweep finds — earliest arrival first, then
//! fewest hops. `delta` is the true earliest arrival whenever the hop
//! budget cannot bind (`max_hops >= n - 1`, or `1`); with a binding budget
//! the one-label-per-node search is greedy and may label a node later than
//! a hop-constrained optimum would (DESIGN.md, "Route computation"; the
//! tests pin both statements against a brute force).

use crate::path::{Path, PathHop};
use openoptics_fabric::OpticalSchedule;
use openoptics_proto::{NodeId, PortId};
use openoptics_sim::idx_u32;
use openoptics_sim::time::SliceIndex;

/// Result of the earliest-arrival sweep from one source/arrival slice.
///
/// All state is behind accessors: `best` for the
/// `(delta, hops)` label of a node, `prev_hop` for the
/// predecessor edge on the labelled path, and `path_to` to
/// materialize the full [`Path`] — so the sweep's internal vectors can
/// change representation without breaking callers.
#[derive(Clone, Debug, PartialEq)]
pub struct EarliestInfo {
    /// `best[node] = (delta, hops)` — earliest slice offset found and the
    /// hops of the path that achieves it; `None` if unreachable within the
    /// horizon.
    best: Vec<Option<(u32, u32)>>,
    /// Predecessor for path reconstruction: `prev[node] =
    /// (prev_node, port, dep_slice)` on the labelled path.
    prev: Vec<Option<(NodeId, PortId, SliceIndex)>>,
    src: NodeId,
    arr: SliceIndex,
}

/// Sweep the time-expanded graph from `(src, arr)` within `max_hops` hops,
/// labelling every node it can reach. The horizon is one full cycle —
/// waiting longer than a cycle can never improve arrival time on a periodic
/// schedule — and the sweep stops once the slice in which the last node was
/// labelled has finished its fixpoint.
pub fn earliest_arrival(
    schedule: &OpticalSchedule,
    src: NodeId,
    arr: SliceIndex,
    max_hops: u32,
) -> EarliestInfo {
    sweep(schedule, src, arr, max_hops, None)
}

/// The one sweep body. After each slice's fixpoint it stops if every node
/// is labelled or, when `dst` is given, if `dst` is. With `dst` the
/// labels of `dst` and of every node on its `prev` chain are final, as is
/// any label whose delta is at most the last slice swept; other nodes may
/// be unlabelled or not yet at their least label.
pub(crate) fn sweep(
    schedule: &OpticalSchedule,
    src: NodeId,
    arr: SliceIndex,
    max_hops: u32,
    dst: Option<NodeId>,
) -> EarliestInfo {
    let n = schedule.num_nodes() as usize;
    let cfg = schedule.slice_config();
    let mut best: Vec<Option<(u32, u32)>> = vec![None; n];
    let mut prev: Vec<Option<(NodeId, PortId, SliceIndex)>> = vec![None; n];
    best[src.index()] = Some((0, 0));
    let mut unlabelled = n - 1;
    // Label changed since the node last relayed in the current slice.
    let mut dirty = vec![false; n];

    // Sweep slices in order. Within slice `arr + delta`, any node labelled
    // at delta' <= delta (it simply waited since) may traverse circuits lit
    // in that slice; multi-hop within one slice is closed out by the inner
    // fixpoint (Opera-style same-slice relays), visiting nodes and ports in
    // ascending order so ties resolve the same way every time. A label only
    // ever improves, and a candidate minted at a later delta compares
    // greater than every existing label — so once a slice's fixpoint has
    // finished, no label of that delta or less, and no `prev` on its chain,
    // can change again. The sweep is done when that covers every node, or
    // the one node it was asked for.
    for delta in 0..=cfg.num_slices {
        let slice = cfg.advance(arr, delta);
        // A new slice lights new circuits: every labelled node relays once.
        // After that, relaying again from an unchanged label would offer
        // its peers the same candidate they already declined.
        dirty.fill(true);
        let mut progress = true;
        while progress {
            progress = false;
            for i in 0..n {
                if !std::mem::take(&mut dirty[i]) {
                    continue;
                }
                let Some((_, h0)) = best[i] else { continue };
                if h0 >= max_hops {
                    continue;
                }
                let node = NodeId(idx_u32(i));
                let cand = (delta, h0 + 1);
                for (port, peer) in schedule.neighbors(node, slice) {
                    let label = &mut best[peer.index()];
                    if label.is_none_or(|cur| cand < cur) {
                        unlabelled -= usize::from(label.is_none());
                        *label = Some(cand);
                        prev[peer.index()] = Some((node, port, slice));
                        dirty[peer.index()] = true;
                        progress = true;
                    }
                }
            }
        }
        if unlabelled == 0 || dst.and_then(|d| best.get(d.index())).is_some_and(Option::is_some) {
            break;
        }
    }
    EarliestInfo { best, prev, src, arr }
}

impl EarliestInfo {
    /// The `(delta, hops)` optimum for `node`: earliest slice offset after
    /// the arrival slice and the fewest hops achieving it; `None` if the
    /// node is unreachable within the sweep's horizon.
    pub(crate) fn best(&self, node: NodeId) -> Option<(u32, u32)> {
        self.best.get(node.index()).copied().flatten()
    }

    /// The predecessor edge on an optimal path to `node`:
    /// `(prev_node, departure_port, departure_slice)`. `None` for the
    /// source itself and for unreachable nodes.
    pub(crate) fn prev_hop(&self, node: NodeId) -> Option<(NodeId, PortId, SliceIndex)> {
        self.prev.get(node.index()).copied().flatten()
    }

    /// Reconstruct the labelled path to `dst` by walking the predecessor
    /// chain, if `dst` is reachable.
    pub(crate) fn path_to(&self, dst: NodeId) -> Option<Path> {
        self.best(dst)?;
        let mut hops_rev = Vec::new();
        let mut at = dst;
        while at != self.src {
            let (pnode, port, slice) = self.prev_hop(at)?;
            hops_rev.push(PathHop { node: pnode, port, dep_slice: Some(slice) });
            at = pnode;
        }
        hops_rev.reverse();
        Some(Path { src: self.src, dst, arr_slice: Some(self.arr), hops: hops_rev })
    }

    /// Earliest arrival offset (slices after `arr`) for `dst`.
    pub(crate) fn delta_to(&self, dst: NodeId) -> Option<u32> {
        self.best(dst).map(|(d, _)| d)
    }
}

/// The `earliest_path()` helper of Table 1: the first path from `src` to
/// `dst` at or after slice `ts`, within `max_hops`. The sweep behind it
/// stops in the slice that settles `dst` rather than labelling every node;
/// the path is the one [`earliest_arrival`] would give.
/// ```
/// use openoptics_routing::earliest_path;
/// use openoptics_fabric::OpticalSchedule;
/// use openoptics_proto::NodeId;
/// use openoptics_sim::SliceConfig;
/// use openoptics_topo::round_robin;
///
/// let (circuits, slices) = round_robin(8, 1);
/// let sched = OpticalSchedule::build(
///     SliceConfig::new(100_000, slices, 1_000), 8, 1, &circuits,
/// ).unwrap();
/// let path = earliest_path(&sched, NodeId(0), NodeId(5), 0, 4).unwrap();
/// path.validate(&sched).unwrap();
/// // Multi-hop tours beat waiting for the direct circuit.
/// assert!(path.slices_waited(&sched) <= sched.first_slice_connecting(
///     NodeId(0), NodeId(5), 0, u32::MAX).unwrap().1);
/// ```
pub fn earliest_path(
    schedule: &OpticalSchedule,
    src: NodeId,
    dst: NodeId,
    ts: SliceIndex,
    max_hops: u32,
) -> Option<Path> {
    sweep(schedule, src, ts, max_hops, Some(dst)).path_to(dst)
}

/// The sweep as it stood before it learned to stop early and skip clean
/// nodes, code verbatim (every delta of the cycle, every labelled node in
/// every pass): the oracle `earliest_arrival` must equal on `best` *and*
/// `prev`.
#[cfg(test)]
fn earliest_arrival_reference(
    schedule: &OpticalSchedule,
    src: NodeId,
    arr: SliceIndex,
    max_hops: u32,
) -> EarliestInfo {
    let n = schedule.num_nodes() as usize;
    let cfg = schedule.slice_config();
    let max_delta = cfg.num_slices; // a full cycle horizon
    let mut best: Vec<Option<(u32, u32)>> = vec![None; n];
    let mut prev: Vec<Option<(NodeId, PortId, SliceIndex)>> = vec![None; n];
    best[src.index()] = Some((0, 0));

    for delta in 0..=max_delta {
        let slice = cfg.advance(arr, delta);
        let mut progress = true;
        while progress {
            progress = false;
            for i in 0..n {
                let Some((d0, h0)) = best[i] else { continue };
                if d0 > delta || h0 >= max_hops {
                    continue;
                }
                let node = NodeId(idx_u32(i));
                for (port, peer) in schedule.neighbors(node, slice) {
                    let cand = (delta, h0 + 1);
                    let better = match best[peer.index()] {
                        None => true,
                        Some(cur) => cand < cur,
                    };
                    if better {
                        best[peer.index()] = Some(cand);
                        prev[peer.index()] = Some((node, port, slice));
                        progress = true;
                    }
                }
            }
        }
    }
    EarliestInfo { best, prev, src, arr }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_fabric::Circuit;
    use openoptics_sim::SliceConfig;
    use openoptics_topo::round_robin;
    use proptest::prelude::*;

    fn deploy(n: u32, uplinks: u16, slices: u32, circuits: &[Circuit]) -> OpticalSchedule {
        OpticalSchedule::build(SliceConfig::new(1_000, slices, 100), n, uplinks, circuits)
            .expect("schedule deploys")
    }

    /// Fig. 2 schedule: ts0 {0-1, 2-3}, ts1 {0-2, 1-3}, ts2 {0-3, 1-2}.
    fn fig2() -> OpticalSchedule {
        let pairs = [[(0u32, 1u32), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]];
        let mut cs = vec![];
        for (ts, sl) in pairs.iter().enumerate() {
            for &(a, b) in sl {
                cs.push(Circuit::in_slice(NodeId(a), PortId(0), NodeId(b), PortId(0), idx_u32(ts)));
            }
        }
        deploy(4, 1, 3, &cs)
    }

    #[test]
    fn fig2_prefers_multi_hop_over_waiting() {
        // From N0 at ts0 to N3: direct needs delta 2; via N1 arrives delta 1.
        let p = earliest_path(&fig2(), NodeId(0), NodeId(3), 0, 4)
            .expect("a path exists within the horizon");
        p.validate(&fig2()).expect("path validates against its schedule");
        assert_eq!(p.hops.len(), 2);
        assert_eq!(p.hops[0].dep_slice, Some(0));
        assert_eq!(p.hops[1].node, NodeId(1));
        assert_eq!(p.hops[1].dep_slice, Some(1));
    }

    #[test]
    fn hop_cap_forces_direct() {
        // With max_hops = 1, the only option is waiting for ts2.
        let s = fig2();
        let p = earliest_path(&s, NodeId(0), NodeId(3), 0, 1)
            .expect("a path exists within the horizon");
        p.validate(&s).expect("path validates against its schedule");
        assert_eq!(p.hops.len(), 1);
        assert_eq!(p.hops[0].dep_slice, Some(2));
        assert_eq!(p.slices_waited(&s), 2);
    }

    #[test]
    fn immediate_neighbor_is_zero_delta() {
        let info = earliest_arrival(&fig2(), NodeId(0), 0, 4);
        assert_eq!(info.best(NodeId(1)), Some((0, 1)));
        assert_eq!(info.best(NodeId(0)), Some((0, 0)));
    }

    #[test]
    fn arrival_slice_shifts_answers() {
        // From N0 at ts2, N3 is directly connected: delta 0, 1 hop.
        let info = earliest_arrival(&fig2(), NodeId(0), 2, 4);
        assert_eq!(info.best(NodeId(3)), Some((0, 1)));
    }

    #[test]
    fn accessors_expose_sweep_state() {
        let info = earliest_arrival(&fig2(), NodeId(0), 0, 4);
        assert_eq!(info.src, NodeId(0));
        assert_eq!(info.arr, 0);
        // The source's own optimum is (0, 0) and it has no predecessor.
        assert_eq!(info.best(NodeId(0)), Some((0, 0)));
        assert_eq!(info.prev_hop(NodeId(0)), None);
        // N1 is a slice-0 neighbor: its predecessor edge departs N0 in
        // slice 0.
        let (pnode, _, dep) = info.prev_hop(NodeId(1)).expect("N1 reachable");
        assert_eq!((pnode, dep), (NodeId(0), 0));
        // Out-of-range nodes answer None rather than panicking.
        assert_eq!(info.best(NodeId(99)), None);
        assert_eq!(info.prev_hop(NodeId(99)), None);
    }

    #[test]
    fn multi_hop_within_single_slice() {
        // Opera-ish: a connected 2-uplink slice; 0->2 needs 2 hops, delta 0.
        let cs = vec![
            Circuit::in_slice(NodeId(0), PortId(0), NodeId(1), PortId(0), 0),
            Circuit::in_slice(NodeId(1), PortId(1), NodeId(2), PortId(1), 0),
        ];
        let s = deploy(3, 2, 1, &cs);
        let info = earliest_arrival(&s, NodeId(0), 0, 4);
        assert_eq!(info.best(NodeId(2)), Some((0, 2)));
        let p = info.path_to(NodeId(2)).expect("destination reachable");
        p.validate(&s).expect("path validates against its schedule");
        assert_eq!(p.hops.len(), 2);
        assert_eq!(p.hops[1].dep_slice, Some(0));
    }

    #[test]
    fn unreachable_is_none() {
        // Node 3 is isolated (no circuits touch it).
        let cs = vec![Circuit::in_slice(NodeId(0), PortId(0), NodeId(1), PortId(0), 0)];
        let s = deploy(4, 1, 2, &cs);
        assert!(earliest_path(&s, NodeId(0), NodeId(3), 0, 8).is_none());
    }

    #[test]
    fn earliest_matches_schedule_helper_for_direct() {
        let s = fig2();
        // For max_hops=1, delta must equal first_slice_connecting's wait.
        for src in 0..4u32 {
            for dst in 0..4u32 {
                if src == dst {
                    continue;
                }
                for arr in 0..3u32 {
                    let info = earliest_arrival(&s, NodeId(src), arr, 1);
                    let expect = s.first_slice_connecting(NodeId(src), NodeId(dst), arr, u32::MAX);
                    assert_eq!(
                        info.delta_to(NodeId(dst)),
                        expect.map(|(_, wait, _)| wait),
                        "src={src} dst={dst} arr={arr}"
                    );
                }
            }
        }
    }

    // -- oracles ------------------------------------------------------------

    fn rr(n: u32, uplinks: u16) -> OpticalSchedule {
        let (circuits, slices) = round_robin(n, uplinks);
        deploy(n, uplinks, slices, &circuits)
    }

    /// `s` without the circuits touching `(node, port)` — how the engine's
    /// `rebuild_masked_schedule` derives the schedule routes compile
    /// against while that link is down.
    fn masked(s: &OpticalSchedule, node: NodeId, port: PortId) -> OpticalSchedule {
        let mut masked = s.clone();
        masked.darken(node, port);
        masked
    }

    /// A partial schedule from arbitrary `(a, b, a_port, b_port, slice)`
    /// picks: a pick that would loop back or light a port twice is skipped,
    /// and the last node never gets a circuit.
    fn partial(
        n: u32,
        uplinks: u16,
        slices: u32,
        picks: &[(u32, u32, u16, u16, u32)],
    ) -> OpticalSchedule {
        let cfg = SliceConfig::new(1_000, slices, 100);
        let mut kept = vec![];
        for &(a, b, pa, pb, ts) in picks {
            kept.push(Circuit::in_slice(
                NodeId(a % (n - 1)),
                PortId(pa % uplinks),
                NodeId(b % (n - 1)),
                PortId(pb % uplinks),
                ts % slices,
            ));
            if OpticalSchedule::build(cfg, n, uplinks, &kept).is_err() {
                kept.pop();
            }
        }
        deploy(n, uplinks, slices, &kept)
    }

    /// Independent of the sweep's structure (by hop count, not by slice;
    /// `peer`, not `neighbors`): `arrive[h][v]` is the earliest delta at
    /// which a walk of exactly `h` hops from `(src, arr)` stands at `v`.
    fn brute_force(
        s: &OpticalSchedule,
        src: NodeId,
        arr: SliceIndex,
        max_hops: u32,
    ) -> Vec<Vec<Option<u32>>> {
        let cfg = s.slice_config();
        let n = s.num_nodes() as usize;
        let mut arrive = vec![vec![None; n]; max_hops as usize + 1];
        arrive[0][src.index()] = Some(0);
        for h in 0..max_hops as usize {
            for u in 0..n {
                let Some(du) = arrive[h][u] else { continue };
                for d in du..=cfg.num_slices {
                    for p in 0..s.uplinks() {
                        let lit = s.peer(NodeId(idx_u32(u)), PortId(p), cfg.advance(arr, d));
                        if let Some((v, _)) = lit {
                            let at = &mut arrive[h + 1][v.index()];
                            *at = Some(at.map_or(d, |cur: u32| cur.min(d)));
                        }
                    }
                }
            }
        }
        arrive
    }

    /// New sweep == reference sweep, `best` and `prev`, at every arrival
    /// slice; and for every destination, the sweep stopped at it gives that
    /// destination the reference's label and path.
    fn matches_reference(
        s: &OpticalSchedule,
        src: NodeId,
        max_hops: u32,
    ) -> Result<(), TestCaseError> {
        for arr in 0..s.slice_config().num_slices {
            let reference = earliest_arrival_reference(s, src, arr, max_hops);
            let at = format!("{s:?} src={src} arr={arr} max_hops={max_hops}");
            prop_assert_eq!(&earliest_arrival(s, src, arr, max_hops), &reference, "{}", at);
            for dst in (0..s.num_nodes()).map(NodeId) {
                let stopped = sweep(s, src, arr, max_hops, Some(dst));
                prop_assert_eq!(stopped.best(dst), reference.best(dst), "{} dst={}", at, dst);
                prop_assert_eq!(stopped.path_to(dst), reference.path_to(dst), "{} dst={}", at, dst);
            }
        }
        Ok(())
    }

    #[test]
    fn a_destination_stops_the_sweep_in_the_slice_that_settles_it() {
        // From N0 at ts0, N1 is settled in slice 0; N2 and N3 are first
        // reached in slice 1, which a sweep stopped at N1 never runs.
        let s = fig2();
        let stopped = sweep(&s, NodeId(0), 0, 4, Some(NodeId(1)));
        assert_eq!(stopped.best(NodeId(1)), Some((0, 1)));
        assert_eq!((stopped.best(NodeId(2)), stopped.best(NodeId(3))), (None, None));
        let full = earliest_arrival(&s, NodeId(0), 0, 4);
        assert_eq!(full.best(NodeId(2)), Some((1, 1)));
        // The source is settled before slice 0, so slice 0 is all it runs.
        assert_eq!(sweep(&s, NodeId(0), 0, 4, Some(NodeId(0))), stopped);
        // A destination out of range is never labelled: the sweep runs on.
        assert_eq!(sweep(&s, NodeId(0), 0, 4, Some(NodeId(99))), full);
    }

    #[test]
    fn sweep_equals_reference_at_paper_scale() -> Result<(), TestCaseError> {
        let s = rr(108, 6);
        for (src, max_hops) in [(0, 4), (53, 2), (107, 6)] {
            matches_reference(&s, NodeId(src), max_hops)?;
        }
        matches_reference(&masked(&s, NodeId(0), PortId(2)), NodeId(0), 4)
    }

    /// The sweep is a greedy label-setting search, not the hop-constrained
    /// optimum: a node keeps only its least `(delta, hops)` label, so once
    /// that label has spent the hop budget the node stops relaying even if a
    /// later-but-shorter way to reach it could still go on. Pinned here so
    /// that closing the gap (it moves HOHO/UCMP path choice) is a reviewed
    /// diff; [`sweep_is_sound_and_exact_when_the_budget_does_not_bind`]
    /// states what does hold.
    #[test]
    fn binding_hop_budget_can_label_later_than_the_optimum() {
        let s = rr(8, 2);
        let (src, arr, dst, max_hops) = (NodeId(0), 3, NodeId(4), 2);
        assert_eq!(earliest_arrival(&s, src, arr, max_hops).best(dst), Some((2, 2)));
        assert_eq!(brute_force(&s, src, arr, max_hops)[2][dst.index()], Some(1));
    }

    /// What the labels promise, against the brute force, from every source
    /// at every arrival slice of `s`.
    fn sound_and_exact(s: &OpticalSchedule, max_hops: u32) -> Result<(), TestCaseError> {
        let cfg = s.slice_config();
        let n = s.num_nodes();
        for (src, arr) in (0..n).flat_map(|src| (0..cfg.num_slices).map(move |arr| (src, arr))) {
            let info = earliest_arrival(s, NodeId(src), arr, max_hops);
            let arrive = brute_force(s, NodeId(src), arr, max_hops);
            for v in (0..n).map(NodeId) {
                let at = || format!("{s:?} src={src} arr={arr} max_hops={max_hops} node={v}");
                let earliest = arrive.iter().filter_map(|by_hops| by_hops[v.index()]).min();
                if let Some((delta, hops)) = info.best(v) {
                    // Sound: the label is a real walk — never earlier than
                    // the optimum — and `path_to` is that walk.
                    prop_assert!(hops <= max_hops, "{}: {hops} hops", at());
                    let fastest = arrive[hops as usize][v.index()];
                    prop_assert!(
                        fastest.is_some_and(|d| d <= delta),
                        "{}: {fastest:?} > {delta}",
                        at()
                    );
                    let Some(path) = info.path_to(v) else {
                        return Err(TestCaseError::fail(format!("{}: labelled but no path", at())));
                    };
                    prop_assert!(v.0 == src || path.validate(s).is_ok(), "{}: {path:?}", at());
                    prop_assert_eq!(path.hops.len(), hops as usize, "{}: {path:?}", at());
                    let landed = path.hops.last().map_or(Some(arr), |hop| hop.dep_slice);
                    prop_assert_eq!(landed, Some(cfg.advance(arr, delta)), "{}: {path:?}", at());
                }
                // Exact: with no relays, or a budget no simple path can
                // exhaust, delta is the true earliest arrival.
                if max_hops == 1 || max_hops >= n - 1 {
                    prop_assert_eq!(info.delta_to(v), earliest, "{}", at());
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sweep_equals_reference_on_round_robin(
            n in 2u32..=40,
            uplinks in 1u16..=6,
            src in 0u32..40,
            max_hops in 1u32..=6,
        ) {
            matches_reference(&rr(n, uplinks), NodeId(src % n), max_hops)?;
        }

        #[test]
        fn sweep_equals_reference_on_partial_schedules(
            n in 2u32..=12,
            uplinks in 1u16..=3,
            slices in 1u32..=6,
            picks in collection::vec((0u32..12, 0u32..12, 0u16..3, 0u16..3, 0u32..6), 0..40),
            src in 0u32..12,
            max_hops in 1u32..=6,
        ) {
            matches_reference(&partial(n, uplinks, slices, &picks), NodeId(src % n), max_hops)?;
        }

        #[test]
        fn sweep_equals_reference_with_a_link_masked(
            n in 3u32..=24,
            uplinks in 1u16..=4,
            down in 0usize..1024,
            src in 0u32..24,
            max_hops in 1u32..=6,
        ) {
            let s = rr(n, uplinks);
            let circuits: Vec<Circuit> = s.circuits().collect();
            let down = circuits[down % circuits.len()];
            matches_reference(&masked(&s, down.a, down.a_port), NodeId(src % n), max_hops)?;
        }

        #[test]
        fn sweep_is_sound_and_exact_when_the_budget_does_not_bind(
            n in 2u32..=8,
            uplinks in 1u16..=3,
            slices in 1u32..=5,
            picks in collection::vec((0u32..8, 0u32..8, 0u16..3, 0u16..3, 0u32..5), 0..30),
            max_hops in 1u32..=8,
        ) {
            sound_and_exact(&rr(n, uplinks), max_hops)?;
            sound_and_exact(&partial(n, uplinks, slices, &picks), max_hops)?;
        }
    }
}
