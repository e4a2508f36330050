//! Materializations of the `routing()` abstract function (Table 1).
//!
//! TA algorithms (operate within one topology instance, wildcard slices):
//! [`Direct`], [`Ecmp`], [`Wcmp`], `Ksp`. TO algorithms (operate across
//! the optical schedule): [`Vlb`], [`OperaRouting`], [`Ucmp`], [`Hoho`].
//!
//! All TA algorithms read the slice-0 graph; for held (TA) circuits every
//! slice is identical, so this is the topology instance. Weighted multipath
//! (WCMP) is expressed by emitting a path once per weight unit — the
//! compiler aggregates duplicates into weighted groups.

use crate::path::{Path, PathHop};
use crate::timegraph::sweep;
use crate::{LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics_fabric::OpticalSchedule;
use openoptics_proto::{NodeId, PortId};
use openoptics_sim::idx_u32;
use openoptics_sim::time::SliceIndex;
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Static-graph helpers (TA)
// ---------------------------------------------------------------------------

/// BFS distances to `dst` on the slice-`ts` graph.
fn bfs_dist_to(schedule: &OpticalSchedule, dst: NodeId, ts: SliceIndex) -> Vec<u32> {
    let n = schedule.num_nodes() as usize;
    let mut dist = vec![u32::MAX; n];
    dist[dst.index()] = 0;
    let mut q = VecDeque::from([dst]);
    while let Some(v) = q.pop_front() {
        for (_, peer) in schedule.neighbors(v, ts) {
            if dist[peer.index()] == u32::MAX {
                dist[peer.index()] = dist[v.index()] + 1;
                q.push_back(peer);
            }
        }
    }
    dist
}

/// Enumerate up to `cap` shortest paths from `src` to `dst` on the
/// slice-`ts` graph by walking the shortest-path DAG.
fn shortest_paths(
    schedule: &OpticalSchedule,
    src: NodeId,
    dst: NodeId,
    ts: SliceIndex,
    cap: usize,
    wildcard: bool,
) -> Vec<Path> {
    let dist = bfs_dist_to(schedule, dst, ts);
    if dist[src.index()] == u32::MAX {
        return vec![];
    }
    let mut out = Vec::new();
    let mut stack: Vec<(NodeId, Vec<PathHop>)> = vec![(src, vec![])];
    while let Some((v, hops)) = stack.pop() {
        if out.len() >= cap {
            break;
        }
        if v == dst {
            out.push(Path { src, dst, arr_slice: if wildcard { None } else { Some(ts) }, hops });
            continue;
        }
        for (port, peer) in schedule.neighbors(v, ts) {
            if dist[peer.index()] != u32::MAX && dist[peer.index()] + 1 == dist[v.index()] {
                let mut h = hops.clone();
                h.push(PathHop {
                    node: v,
                    port,
                    dep_slice: if wildcard { None } else { Some(ts) },
                });
                stack.push((peer, h));
            }
        }
    }
    out
}

/// Count shortest paths to `dst` through each node (for WCMP weights),
/// saturating at `cap` to keep weights small.
fn path_counts(schedule: &OpticalSchedule, dst: NodeId, ts: SliceIndex, cap: u32) -> Vec<u32> {
    let dist = bfs_dist_to(schedule, dst, ts);
    let n = schedule.num_nodes() as usize;
    let mut order: Vec<usize> = (0..n).filter(|&i| dist[i] != u32::MAX).collect();
    order.sort_by_key(|&i| dist[i]);
    let mut count = vec![0u32; n];
    count[dst.index()] = 1;
    for &i in &order {
        if i == dst.index() {
            continue;
        }
        let v = NodeId(idx_u32(i));
        let mut c = 0u32;
        for (_, peer) in schedule.neighbors(v, ts) {
            if dist[peer.index()] != u32::MAX && dist[peer.index()] + 1 == dist[i] {
                c = c.saturating_add(count[peer.index()]);
            }
        }
        count[i] = c.min(cap);
    }
    count
}

// ---------------------------------------------------------------------------
// TA algorithms
// ---------------------------------------------------------------------------

/// Direct-circuit routing (RotorNet's bulk mode, c-Through's circuit mode):
/// a single hop over the direct circuit, waiting for the first slice that
/// provides one. With `arr = None` the hop is valid only if a held circuit
/// exists.
#[derive(Clone, Copy, Debug, Default)]
pub struct Direct;

impl RoutingAlgorithm for Direct {
    fn clone_box(&self) -> Box<dyn RoutingAlgorithm> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "direct"
    }

    fn paths(
        &self,
        schedule: &OpticalSchedule,
        src: NodeId,
        dst: NodeId,
        arr: Option<SliceIndex>,
    ) -> Vec<Path> {
        match arr {
            Some(ts) => match schedule.first_slice_connecting(src, dst, ts, u32::MAX) {
                Some((dep, _, port)) => vec![Path {
                    src,
                    dst,
                    arr_slice: Some(ts),
                    hops: vec![PathHop { node: src, port, dep_slice: Some(dep) }],
                }],
                None => vec![],
            },
            None => match schedule.port_to(src, dst, 0) {
                Some(port) => vec![Path {
                    src,
                    dst,
                    arr_slice: None,
                    hops: vec![PathHop { node: src, port, dep_slice: None }],
                }],
                None => vec![],
            },
        }
    }
}

/// Equal-cost multi-path over the topology instance: all shortest paths
/// (up to `max_paths`), hashed per flow at deployment.
#[derive(Clone, Copy, Debug)]
pub struct Ecmp {
    /// Cap on enumerated equal-cost paths.
    pub max_paths: usize,
}

impl Default for Ecmp {
    fn default() -> Self {
        Ecmp { max_paths: 8 }
    }
}

impl RoutingAlgorithm for Ecmp {
    fn clone_box(&self) -> Box<dyn RoutingAlgorithm> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "ecmp"
    }

    fn routes_within_instance(&self) -> bool {
        true
    }

    fn paths(
        &self,
        schedule: &OpticalSchedule,
        src: NodeId,
        dst: NodeId,
        arr: Option<SliceIndex>,
    ) -> Vec<Path> {
        let ts = arr.unwrap_or(0);
        shortest_paths(schedule, src, dst, ts, self.max_paths, arr.is_none())
    }
}

/// Weighted-cost multi-path (Jupiter): shortest paths weighted by the
/// number of shortest paths continuing through each first hop. Weights are
/// expressed by duplicating paths (the compiler aggregates).
#[derive(Clone, Copy, Debug)]
pub struct Wcmp {
    /// Cap on distinct paths before weighting.
    pub max_paths: usize,
    /// Cap on the weight of a single path.
    pub max_weight: u32,
}

impl Default for Wcmp {
    fn default() -> Self {
        Wcmp { max_paths: 8, max_weight: 4 }
    }
}

impl RoutingAlgorithm for Wcmp {
    fn clone_box(&self) -> Box<dyn RoutingAlgorithm> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "wcmp"
    }

    fn routes_within_instance(&self) -> bool {
        true
    }

    fn paths(
        &self,
        schedule: &OpticalSchedule,
        src: NodeId,
        dst: NodeId,
        arr: Option<SliceIndex>,
    ) -> Vec<Path> {
        let ts = arr.unwrap_or(0);
        let base = shortest_paths(schedule, src, dst, ts, self.max_paths, arr.is_none());
        if base.is_empty() {
            return base;
        }
        let counts = path_counts(schedule, dst, ts, self.max_weight);
        let mut out = Vec::new();
        for p in base {
            // Weight a path by the path count through its first relay
            // (or 1 for the single-hop path).
            let w = if p.hops.len() >= 2 {
                counts[p.hops[1].node.index()].max(1)
            } else {
                self.max_weight // direct circuits carry the most capacity
            };
            for _ in 0..w.min(self.max_weight) {
                out.push(p.clone());
            }
        }
        out
    }
}

/// K-shortest-path routing (Flat-tree-style): Yen's algorithm with unit
/// edge costs over the topology instance.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ksp {
    /// Number of paths to return.
    pub k: usize,
}

impl Default for Ksp {
    fn default() -> Self {
        Ksp { k: 4 }
    }
}

impl Ksp {
    fn shortest_avoiding(
        schedule: &OpticalSchedule,
        src: NodeId,
        dst: NodeId,
        ts: SliceIndex,
        banned_edges: &[(NodeId, PortId)],
        banned_nodes: &[NodeId],
    ) -> Option<Vec<PathHop>> {
        let n = schedule.num_nodes() as usize;
        let mut prev: Vec<Option<(NodeId, PortId)>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[src.index()] = true;
        let mut q = VecDeque::from([src]);
        while let Some(v) = q.pop_front() {
            if v == dst {
                break;
            }
            for (port, peer) in schedule.neighbors(v, ts) {
                if banned_edges.contains(&(v, port)) || banned_nodes.contains(&peer) {
                    continue;
                }
                if !seen[peer.index()] {
                    seen[peer.index()] = true;
                    prev[peer.index()] = Some((v, port));
                    q.push_back(peer);
                }
            }
        }
        if !seen[dst.index()] {
            return None;
        }
        let mut hops_rev = vec![];
        let mut at = dst;
        while at != src {
            let (pn, pp) = prev[at.index()]?;
            hops_rev.push(PathHop { node: pn, port: pp, dep_slice: None });
            at = pn;
        }
        hops_rev.reverse();
        Some(hops_rev)
    }
}

impl RoutingAlgorithm for Ksp {
    fn clone_box(&self) -> Box<dyn RoutingAlgorithm> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "ksp"
    }

    fn routes_within_instance(&self) -> bool {
        true
    }

    fn paths(
        &self,
        schedule: &OpticalSchedule,
        src: NodeId,
        dst: NodeId,
        arr: Option<SliceIndex>,
    ) -> Vec<Path> {
        let ts = arr.unwrap_or(0);
        let wildcard = arr.is_none();
        let mk = |hops: Vec<PathHop>| {
            let hops = if wildcard {
                hops
            } else {
                hops.into_iter().map(|h| PathHop { dep_slice: Some(ts), ..h }).collect()
            };
            Path { src, dst, arr_slice: arr, hops }
        };
        let Some(first) = Self::shortest_avoiding(schedule, src, dst, ts, &[], &[]) else {
            return vec![];
        };
        let mut found: Vec<Vec<PathHop>> = vec![first];
        let mut candidates: Vec<Vec<PathHop>> = vec![];
        while found.len() < self.k {
            let last = found.last().expect("at least one path").clone();
            for spur_idx in 0..last.len() {
                let spur_node = last[spur_idx].node;
                let root = &last[..spur_idx];
                // Ban edges used by found paths sharing this root prefix,
                // and nodes on the root (loopless).
                let mut banned_edges = vec![];
                for p in &found {
                    if p.len() > spur_idx && p[..spur_idx] == *root {
                        banned_edges.push((p[spur_idx].node, p[spur_idx].port));
                    }
                }
                let banned_nodes: Vec<NodeId> = root.iter().map(|h| h.node).collect();
                if let Some(spur) = Self::shortest_avoiding(
                    schedule,
                    spur_node,
                    dst,
                    ts,
                    &banned_edges,
                    &banned_nodes,
                ) {
                    let mut total = root.to_vec();
                    total.extend(spur);
                    if !found.contains(&total) && !candidates.contains(&total) {
                        candidates.push(total);
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by_key(|p| p.len());
            found.push(candidates.remove(0));
        }
        found.into_iter().map(mk).collect()
    }
}

// ---------------------------------------------------------------------------
// TO algorithms
// ---------------------------------------------------------------------------

/// Valiant load balancing (RotorNet, Sirius): forward immediately over any
/// circuit of the arrival slice to a random intermediate, which holds the
/// packet until its direct circuit to the destination appears. One path per
/// available intermediate is returned (plus the direct option when the
/// arrival slice already connects src→dst); deployment sprays per packet.
#[derive(Clone, Copy, Debug, Default)]
pub struct Vlb;

impl RoutingAlgorithm for Vlb {
    fn clone_box(&self) -> Box<dyn RoutingAlgorithm> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "vlb"
    }

    fn needs_arrival_slice(&self) -> bool {
        true
    }

    fn paths(
        &self,
        schedule: &OpticalSchedule,
        src: NodeId,
        dst: NodeId,
        arr: Option<SliceIndex>,
    ) -> Vec<Path> {
        let ts0 = arr.expect("VLB is a TO scheme; arrival slice required");
        let cfg = schedule.slice_config();
        // With an odd node count one node idles per slice; if the source
        // has no circuit in the arrival slice it waits for its next one.
        let ts = (0..cfg.num_slices)
            .map(|d| cfg.advance(ts0, d))
            .find(|&t| schedule.neighbors(src, t).next().is_some())
            .unwrap_or(ts0);
        let mut out = Vec::new();
        for (port, inter) in schedule.neighbors(src, ts) {
            if inter == dst {
                // Direct this slice: take it.
                out.push(Path {
                    src,
                    dst,
                    arr_slice: Some(ts0),
                    hops: vec![PathHop { node: src, port, dep_slice: Some(ts) }],
                });
                continue;
            }
            // Second hop: wait at `inter` for its direct circuit to dst,
            // searching from the slice the packet lands in (it can depart
            // within the same slice if the circuit exists right now).
            if let Some((dep2, _, port2)) =
                schedule.first_slice_connecting(inter, dst, ts, u32::MAX)
            {
                out.push(Path {
                    src,
                    dst,
                    arr_slice: Some(ts0),
                    hops: vec![
                        PathHop { node: src, port, dep_slice: Some(ts) },
                        PathHop { node: inter, port: port2, dep_slice: Some(dep2) },
                    ],
                });
            }
        }
        out
    }
}

/// Opera routing: source-routed shortest path entirely within the arrival
/// slice's (connected, expander) topology — "longer but always-available
/// paths" (§6 Case I).
#[derive(Clone, Copy, Debug)]
pub struct OperaRouting {
    /// Cap on equal-length alternatives returned.
    pub max_paths: usize,
}

impl Default for OperaRouting {
    fn default() -> Self {
        OperaRouting { max_paths: 4 }
    }
}

impl RoutingAlgorithm for OperaRouting {
    fn clone_box(&self) -> Box<dyn RoutingAlgorithm> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "opera"
    }

    fn paths(
        &self,
        schedule: &OpticalSchedule,
        src: NodeId,
        dst: NodeId,
        arr: Option<SliceIndex>,
    ) -> Vec<Path> {
        let ts = arr.expect("Opera routing is a TO scheme; arrival slice required");
        shortest_paths(schedule, src, dst, ts, self.max_paths, false)
    }

    fn requires_source_routing(&self) -> bool {
        true
    }

    fn needs_arrival_slice(&self) -> bool {
        true
    }

    fn routes_within_instance(&self) -> bool {
        true
    }
}

/// Uniform-cost multipath (UCMP, SIGCOMM'24): spread packets uniformly
/// across all minimum-delay paths. Candidates are the direct path and all
/// two-hop relays; all candidates achieving the earliest-arrival delta
/// (verified against the full time-expanded optimum) are returned. When
/// only deeper paths achieve the optimum, the single optimal path is used.
#[derive(Clone, Copy, Debug)]
pub struct Ucmp {
    /// Cap on returned equal-cost paths.
    pub max_paths: usize,
    /// Hop budget for the optimum search.
    pub max_hops: u32,
}

impl Default for Ucmp {
    fn default() -> Self {
        Ucmp { max_paths: 8, max_hops: 4 }
    }
}

impl RoutingAlgorithm for Ucmp {
    fn clone_box(&self) -> Box<dyn RoutingAlgorithm> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "ucmp"
    }

    fn paths(
        &self,
        schedule: &OpticalSchedule,
        src: NodeId,
        dst: NodeId,
        arr: Option<SliceIndex>,
    ) -> Vec<Path> {
        let ts = arr.expect("UCMP is a TO scheme; arrival slice required");
        let info = sweep(schedule, src, ts, self.max_hops, Some(dst));
        let Some(best_delta) = info.delta_to(dst) else { return vec![] };

        // A candidate counts only if its circuit comes exactly `best_delta`
        // slices after `ts`, so no scan needs to look further.
        let mut out = Vec::new();
        // Direct candidate.
        if let Some((dep, wait, port)) = schedule.first_slice_connecting(src, dst, ts, best_delta) {
            if wait == best_delta {
                out.push(Path {
                    src,
                    dst,
                    arr_slice: Some(ts),
                    hops: vec![PathHop { node: src, port, dep_slice: Some(dep) }],
                });
            }
        }
        // Two-hop candidates: leave in slice ts (no waiting at the source —
        // waiting there can always be replaced by waiting at the relay with
        // equal delay), relay waits for its direct circuit.
        for (port, inter) in schedule.neighbors(src, ts) {
            if inter == dst {
                continue; // covered by the direct candidate (wait == 0)
            }
            if let Some((dep2, wait2, port2)) =
                schedule.first_slice_connecting(inter, dst, ts, best_delta)
            {
                if wait2 == best_delta {
                    out.push(Path {
                        src,
                        dst,
                        arr_slice: Some(ts),
                        hops: vec![
                            PathHop { node: src, port, dep_slice: Some(ts) },
                            PathHop { node: inter, port: port2, dep_slice: Some(dep2) },
                        ],
                    });
                }
            }
            if out.len() >= self.max_paths {
                break;
            }
        }
        if out.is_empty() {
            // Only deeper paths achieve the optimum.
            if let Some(p) = info.path_to(dst) {
                out.push(p);
            }
        }
        out.truncate(self.max_paths);
        out
    }

    fn requires_source_routing(&self) -> bool {
        true
    }

    fn needs_arrival_slice(&self) -> bool {
        true
    }
}

/// Hop-On Hop-Off routing (APNet'22): the single earliest-arrival path on
/// the time-expanded graph, hopping across slices as the tour of circuits
/// allows. Minimizes latency for mice flows.
#[derive(Clone, Copy, Debug)]
pub struct Hoho {
    /// Hop budget.
    pub max_hops: u32,
}

impl Default for Hoho {
    fn default() -> Self {
        Hoho { max_hops: 4 }
    }
}

impl RoutingAlgorithm for Hoho {
    fn clone_box(&self) -> Box<dyn RoutingAlgorithm> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "hoho"
    }

    fn needs_arrival_slice(&self) -> bool {
        true
    }

    fn paths(
        &self,
        schedule: &OpticalSchedule,
        src: NodeId,
        dst: NodeId,
        arr: Option<SliceIndex>,
    ) -> Vec<Path> {
        let ts = arr.expect("HOHO is a TO scheme; arrival slice required");
        sweep(schedule, src, ts, self.max_hops, Some(dst)).path_to(dst).into_iter().collect()
    }
}

// ---------------------------------------------------------------------------
// By-name catalogue
// ---------------------------------------------------------------------------

/// Every scheme [`by_name`] knows, in table order (TA schemes, then TO).
pub const NAMES: &[&str] = &["direct", "ecmp", "wcmp", "ksp", "vlb", "ucmp", "opera", "hoho"];

/// The scheme called `name` (one of [`NAMES`]) with default parameters,
/// plus its idiomatic lookup / multipath pairing — what scenario files,
/// the composition sweep and the architecture presets mean by that name.
pub fn by_name(name: &str) -> Option<(Box<dyn RoutingAlgorithm>, LookupMode, MultipathMode)> {
    use LookupMode::{PerHop, SourceRouting};
    use MultipathMode as M;
    Some(match name {
        "direct" => (Box::new(Direct), PerHop, M::None),
        "ecmp" => (Box::new(Ecmp::default()), PerHop, M::PerFlow),
        "wcmp" => (Box::new(Wcmp::default()), PerHop, M::PerFlow),
        "ksp" => (Box::new(Ksp::default()), PerHop, M::PerFlow),
        "vlb" => (Box::new(Vlb), PerHop, M::PerPacket),
        "ucmp" => (Box::new(Ucmp::default()), PerHop, M::PerPacket),
        "opera" => (Box::new(OperaRouting::default()), SourceRouting, M::PerPacket),
        "hoho" => (Box::new(Hoho::default()), PerHop, M::None),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_fabric::Circuit;
    use openoptics_sim::SliceConfig;
    use openoptics_topo::round_robin;

    fn rr_schedule(n: u32, u: u16) -> OpticalSchedule {
        let (cs, slices) = round_robin(n, u);
        OpticalSchedule::build(SliceConfig::new(1_000, slices, 100), n, u, &cs)
            .expect("schedule deploys")
    }

    fn static_ring(n: u32) -> OpticalSchedule {
        let cs: Vec<Circuit> = (0..n)
            .map(|i| Circuit::held(NodeId(i), PortId(1), NodeId((i + 1) % n), PortId(0)))
            .collect();
        OpticalSchedule::build(SliceConfig::new(1_000, 1, 100), n, 2, &cs)
            .expect("schedule deploys")
    }

    #[test]
    fn direct_waits_for_circuit() {
        let s = rr_schedule(8, 1);
        let paths = Direct.paths(&s, NodeId(0), NodeId(5), Some(0));
        assert_eq!(paths.len(), 1);
        paths[0].validate(&s).expect("path validates against its schedule");
        assert_eq!(paths[0].hops.len(), 1);
    }

    #[test]
    fn direct_static_requires_held_circuit() {
        let s = static_ring(4);
        assert_eq!(Direct.paths(&s, NodeId(0), NodeId(1), None).len(), 1);
        assert!(Direct.paths(&s, NodeId(0), NodeId(2), None).is_empty());
    }

    #[test]
    fn ecmp_finds_both_ring_directions() {
        // On a 4-ring, 0->2 has two 2-hop shortest paths.
        let s = static_ring(4);
        let paths = Ecmp::default().paths(&s, NodeId(0), NodeId(2), None);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            p.validate(&s).expect("path validates against its schedule");
            assert_eq!(p.hops.len(), 2);
        }
    }

    #[test]
    fn wcmp_duplicates_express_weights() {
        let s = static_ring(4);
        let paths = Wcmp::default().paths(&s, NodeId(0), NodeId(1), None);
        assert!(!paths.is_empty());
        for p in &paths {
            p.validate(&s).expect("path validates against its schedule");
        }
    }

    #[test]
    fn ksp_returns_increasing_lengths() {
        let s = static_ring(5);
        let paths = Ksp { k: 2 }.paths(&s, NodeId(0), NodeId(2), None);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            p.validate(&s).expect("path validates against its schedule");
        }
        // Ring of 5: shortest 2 hops, alternative 3 hops.
        assert_eq!(paths[0].hops.len(), 2);
        assert_eq!(paths[1].hops.len(), 3);
    }

    #[test]
    fn vlb_paths_all_validate_and_spray() {
        let s = rr_schedule(8, 2);
        for arr in 0..s.slice_config().num_slices {
            let paths = Vlb.paths(&s, NodeId(0), NodeId(5), Some(arr));
            assert!(!paths.is_empty(), "arr={arr}");
            for p in &paths {
                p.validate(&s).unwrap_or_else(|e| panic!("arr={arr} {p:?}: {e:?}"));
                assert!(p.hops.len() <= 2);
            }
        }
    }

    #[test]
    fn opera_routes_within_slice() {
        use openoptics_topo::opera_schedule;
        let (cs, slices) = opera_schedule(8, 2);
        let s = OpticalSchedule::build(SliceConfig::new(1_000, slices, 100), 8, 2, &cs)
            .expect("schedule deploys");
        for arr in 0..slices {
            for dst in 1..8u32 {
                let paths = OperaRouting::default().paths(&s, NodeId(0), NodeId(dst), Some(arr));
                assert!(!paths.is_empty(), "arr={arr} dst={dst}");
                for p in &paths {
                    p.validate(&s).expect("path validates against its schedule");
                    // All hops within the arrival slice.
                    assert!(p.hops.iter().all(|h| h.dep_slice == Some(arr)));
                }
            }
        }
    }

    #[test]
    fn ucmp_beats_or_matches_vlb_on_waiting() {
        let s = rr_schedule(8, 1);
        for arr in 0..s.slice_config().num_slices {
            for dst in 1..8u32 {
                let u = Ucmp::default().paths(&s, NodeId(0), NodeId(dst), Some(arr));
                let v = Vlb.paths(&s, NodeId(0), NodeId(dst), Some(arr));
                assert!(!u.is_empty());
                let u_wait =
                    u.iter().map(|p| p.slices_waited(&s)).max().expect("path set non-empty");
                let v_wait =
                    v.iter().map(|p| p.slices_waited(&s)).max().expect("path set non-empty");
                assert!(
                    u_wait <= v_wait,
                    "arr={arr} dst={dst}: ucmp worst {u_wait} > vlb worst {v_wait}"
                );
                for p in &u {
                    p.validate(&s).expect("path validates against its schedule");
                }
            }
        }
    }

    #[test]
    fn ucmp_paths_are_all_minimal() {
        let s = rr_schedule(8, 1);
        let paths = Ucmp::default().paths(&s, NodeId(0), NodeId(5), Some(0));
        let waits: Vec<u32> = paths.iter().map(|p| p.slices_waited(&s)).collect();
        assert!(waits.windows(2).all(|w| w[0] == w[1]), "non-uniform costs: {waits:?}");
    }

    /// `Ucmp::paths` as it stood before its sweep stopped at `dst` and its
    /// candidate scans at `best_delta`: the oracle the bounded form must
    /// equal.
    fn ucmp_paths_reference(
        ucmp: &Ucmp,
        schedule: &OpticalSchedule,
        src: NodeId,
        dst: NodeId,
        ts: SliceIndex,
    ) -> Vec<Path> {
        let info = crate::earliest_arrival(schedule, src, ts, ucmp.max_hops);
        let Some(best_delta) = info.delta_to(dst) else { return vec![] };

        let mut out = Vec::new();
        if let Some((dep, wait, port)) = schedule.first_slice_connecting(src, dst, ts, u32::MAX) {
            if wait == best_delta {
                out.push(Path {
                    src,
                    dst,
                    arr_slice: Some(ts),
                    hops: vec![PathHop { node: src, port, dep_slice: Some(dep) }],
                });
            }
        }
        for (port, inter) in schedule.neighbors(src, ts) {
            if inter == dst {
                continue;
            }
            if let Some((dep2, wait2, port2)) =
                schedule.first_slice_connecting(inter, dst, ts, u32::MAX)
            {
                if wait2 == best_delta {
                    out.push(Path {
                        src,
                        dst,
                        arr_slice: Some(ts),
                        hops: vec![
                            PathHop { node: src, port, dep_slice: Some(ts) },
                            PathHop { node: inter, port: port2, dep_slice: Some(dep2) },
                        ],
                    });
                }
            }
            if out.len() >= ucmp.max_paths {
                break;
            }
        }
        if out.is_empty() {
            if let Some(p) = info.path_to(dst) {
                out.push(p);
            }
        }
        out.truncate(ucmp.max_paths);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn ucmp_equals_its_unbounded_reference(
            n in 2u32..=24,
            uplinks in 1u16..=4,
            src in 0u32..24,
            dst in 0u32..24,
            max_hops in 1u32..=6,
            max_paths in 1usize..=8,
            down in 0usize..2048,
        ) {
            // In half the cases one circuit is down, so some pairs lose
            // their direct slice and UCMP falls back to the sweep's path.
            let (mut cs, slices) = round_robin(n, uplinks);
            if down < 1024 {
                cs.remove(down % cs.len());
            }
            let s = OpticalSchedule::build(SliceConfig::new(1_000, slices, 100), n, uplinks, &cs)
                .expect("schedule deploys");
            let (src, dst) = (NodeId(src % n), NodeId(dst % n));
            let ucmp = Ucmp { max_paths, max_hops };
            for ts in 0..s.slice_config().num_slices {
                proptest::prop_assert_eq!(
                    ucmp.paths(&s, src, dst, Some(ts)),
                    ucmp_paths_reference(&ucmp, &s, src, dst, ts),
                    "{:?} src={} dst={} ts={}", s, src, dst, ts
                );
            }
        }
    }

    #[test]
    fn ucmp_equals_its_unbounded_reference_at_paper_scale() {
        let s = rr_schedule(108, 6);
        let ucmp = Ucmp::default();
        for (src, dst) in [(0, 1), (0, 53), (53, 107), (107, 0)] {
            let (src, dst) = (NodeId(src), NodeId(dst));
            for ts in 0..s.slice_config().num_slices {
                assert_eq!(
                    ucmp.paths(&s, src, dst, Some(ts)),
                    ucmp_paths_reference(&ucmp, &s, src, dst, ts),
                    "src={src} dst={dst} ts={ts}"
                );
            }
        }
    }

    #[test]
    fn hoho_is_optimal_single_path() {
        let s = rr_schedule(8, 1);
        for arr in 0..s.slice_config().num_slices {
            for dst in 1..8u32 {
                let h = Hoho::default().paths(&s, NodeId(0), NodeId(dst), Some(arr));
                assert_eq!(h.len(), 1);
                h[0].validate(&s).expect("path validates against its schedule");
                // HOHO's wait must not exceed the direct wait.
                let d = Direct.paths(&s, NodeId(0), NodeId(dst), Some(arr));
                assert!(h[0].slices_waited(&s) <= d[0].slices_waited(&s));
            }
        }
    }

    #[test]
    fn source_routing_flags() {
        assert!(!Direct.requires_source_routing());
        assert!(!Vlb.requires_source_routing());
        assert!(OperaRouting::default().requires_source_routing());
        assert!(Ucmp::default().requires_source_routing());
        assert!(!Hoho::default().requires_source_routing());
    }

    #[test]
    fn capability_flags_partition_ta_and_to() {
        // TO schemes need the arrival slice; TA schemes and the
        // slice-agnostic Direct do not.
        for (algo, needs_arr) in [
            (&Direct as &dyn RoutingAlgorithm, false),
            (&Ecmp::default(), false),
            (&Wcmp::default(), false),
            (&Ksp::default(), false),
            (&Vlb, true),
            (&OperaRouting::default(), true),
            (&Ucmp::default(), true),
            (&Hoho::default(), true),
        ] {
            assert_eq!(algo.needs_arrival_slice(), needs_arr, "{}", algo.name());
        }
        // Within-instance graph searches: the classical TA algorithms plus
        // Opera's per-slice expander search.
        for (algo, within) in [
            (&Direct as &dyn RoutingAlgorithm, false),
            (&Ecmp::default(), true),
            (&Wcmp::default(), true),
            (&Ksp::default(), true),
            (&Vlb, false),
            (&OperaRouting::default(), true),
            (&Ucmp::default(), false),
            (&Hoho::default(), false),
        ] {
            assert_eq!(algo.routes_within_instance(), within, "{}", algo.name());
        }
    }
}
