//! Compilation of paths into time-flow-table entries.
//!
//! `deploy_routing([Path], LOOKUP, MULTIPATH)` (Table 1): decompose each
//! path into per-hop entries, or retain the whole path in the action field
//! at the source for source routing (Fig. 3d); aggregate alternatives into
//! multipath groups hashed per packet (ingress timestamp) or per flow
//! (five tuple).

use crate::path::Path;
use openoptics_proto::{NodeId, PortId};
use openoptics_proto::{SourceHop, SourceRoute};
use openoptics_sim::time::SliceIndex;
use std::collections::BTreeMap;

/// `LOOKUP` option of `deploy_routing()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupMode {
    /// Per-hop lookup: every node on the path gets an entry (Fig. 3a/b).
    PerHop,
    /// Source routing: the source writes the full hop stack into the packet
    /// (Fig. 3d); intermediate nodes only execute the stack.
    SourceRouting,
}

/// `MULTIPATH` option of `deploy_routing()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultipathMode {
    /// Single action per match (first path wins).
    None,
    /// Hash the flow identity (five tuple) — all packets of a flow take one
    /// path; different flows spread.
    PerFlow,
    /// Hash the ingress timestamp — consecutive packets spray across paths.
    PerPacket,
}

/// Match half of a time-flow-table entry (§3): arrival slice (wildcard when
/// `None`) and destination endpoint. Source is implicit — entries are
/// installed per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RouteMatch {
    /// Arrival time slice; `None` is the wildcard (flow-table reduction).
    pub arr_slice: Option<SliceIndex>,
    /// Destination endpoint node.
    pub dst: NodeId,
}

/// Action half of a time-flow-table entry: egress port, departure slice,
/// and (for source routing) the hop stack to write into the packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteAction {
    /// Egress port to enqueue toward.
    pub port: PortId,
    /// Departure time slice; `None` is the wildcard (send immediately).
    pub dep_slice: Option<SliceIndex>,
    /// Hop stack written into the packet at the source (source routing
    /// only; the first element duplicates `port`/`dep_slice`).
    pub push_source_route: Option<Vec<SourceHop>>,
}

impl RouteAction {
    /// The source-route object to stamp on a packet, if any.
    pub fn source_route(&self) -> Option<SourceRoute> {
        self.push_source_route.as_ref().map(|h| SourceRoute::new(h.clone()))
    }
}

/// A compiled entry for one node: a match, a weighted action group, and the
/// group's hash mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteEntry {
    /// Node this entry is installed on.
    pub node: NodeId,
    /// Match fields.
    pub m: RouteMatch,
    /// Weighted alternatives (weight = duplicate count among input paths).
    pub actions: Vec<(RouteAction, u32)>,
    /// How a packet selects among `actions`.
    pub multipath: MultipathMode,
}

/// Compile a set of paths into route entries.
///
/// Per-hop mode installs an entry at every hop node keyed by the slice the
/// packet occupies when it arrives there (the previous hop's departure
/// slice — fabric transit is sub-slice). Source-routing mode installs a
/// single entry at the path source whose action carries the full
/// `<port, departure slice>` stack.
///
/// Duplicate paths accumulate weight; distinct actions under one match
/// become a multipath group governed by `multipath`.
pub fn compile(paths: &[Path], lookup: LookupMode, multipath: MultipathMode) -> Vec<RouteEntry> {
    // (node, match) -> action -> weight
    let mut groups: BTreeMap<(NodeId, RouteMatch), Vec<(RouteAction, u32)>> = BTreeMap::new();
    let mut bump = |node: NodeId, m: RouteMatch, action: RouteAction| {
        let g = groups.entry((node, m)).or_default();
        match g.iter_mut().find(|(a, _)| *a == action) {
            Some((_, w)) => *w += 1,
            None => g.push((action, 1)),
        }
    };

    for p in paths {
        if p.hops.is_empty() {
            continue;
        }
        match lookup {
            LookupMode::PerHop => {
                let mut arr = p.arr_slice;
                for h in &p.hops {
                    bump(
                        h.node,
                        RouteMatch { arr_slice: arr, dst: p.dst },
                        RouteAction {
                            port: h.port,
                            dep_slice: h.dep_slice,
                            push_source_route: None,
                        },
                    );
                    arr = h.dep_slice;
                }
            }
            LookupMode::SourceRouting => {
                let stack: Vec<SourceHop> = p
                    .hops
                    .iter()
                    .map(|h| SourceHop { port: h.port, dep_slice: h.dep_slice })
                    .collect();
                let first = &p.hops[0];
                bump(
                    p.src,
                    RouteMatch { arr_slice: p.arr_slice, dst: p.dst },
                    RouteAction {
                        port: first.port,
                        dep_slice: first.dep_slice,
                        push_source_route: Some(stack),
                    },
                );
            }
        }
    }

    groups
        .into_iter()
        .map(|((node, m), actions)| RouteEntry { node, m, actions, multipath })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathHop;

    /// Fig. 2 path (2): N0 -ts0-> N1 (wait) -ts1-> N3.
    fn multi_hop() -> Path {
        Path {
            src: NodeId(0),
            dst: NodeId(3),
            arr_slice: Some(0),
            hops: vec![
                PathHop { node: NodeId(0), port: PortId(1), dep_slice: Some(0) },
                PathHop { node: NodeId(1), port: PortId(2), dep_slice: Some(1) },
            ],
        }
    }

    #[test]
    fn per_hop_matches_fig3b() {
        let entries = compile(&[multi_hop()], LookupMode::PerHop, MultipathMode::None);
        assert_eq!(entries.len(), 2);
        // N0: arrival 0 -> depart 0 on port 1.
        let e0 =
            entries.iter().find(|e| e.node == NodeId(0)).expect("expected table entry present");
        assert_eq!(e0.m, RouteMatch { arr_slice: Some(0), dst: NodeId(3) });
        assert_eq!(e0.actions[0].0.port, PortId(1));
        assert_eq!(e0.actions[0].0.dep_slice, Some(0));
        // N1: arrival 0 (previous hop's departure) -> depart 1 on port 2.
        let e1 =
            entries.iter().find(|e| e.node == NodeId(1)).expect("expected table entry present");
        assert_eq!(e1.m, RouteMatch { arr_slice: Some(0), dst: NodeId(3) });
        assert_eq!(e1.actions[0].0.port, PortId(2));
        assert_eq!(e1.actions[0].0.dep_slice, Some(1));
    }

    #[test]
    fn source_routing_matches_fig3d() {
        let entries = compile(&[multi_hop()], LookupMode::SourceRouting, MultipathMode::None);
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.node, NodeId(0));
        let stack = e.actions[0].0.push_source_route.as_ref().expect("source-route stack present");
        // Fig. 3(d): hops <1,0> then <2,1>.
        assert_eq!(
            stack,
            &vec![
                SourceHop { port: PortId(1), dep_slice: Some(0) },
                SourceHop { port: PortId(2), dep_slice: Some(1) },
            ]
        );
    }

    #[test]
    fn duplicates_accumulate_weight() {
        let p = multi_hop();
        let entries =
            compile(&[p.clone(), p.clone(), p], LookupMode::PerHop, MultipathMode::PerFlow);
        let e0 =
            entries.iter().find(|e| e.node == NodeId(0)).expect("expected table entry present");
        assert_eq!(e0.actions.len(), 1);
        assert_eq!(e0.actions[0].1, 3);
    }

    #[test]
    fn alternatives_form_groups() {
        let a = multi_hop();
        let mut b = multi_hop();
        b.hops[0].port = PortId(0); // different first hop
        b.hops[1].node = NodeId(2);
        let entries = compile(&[a, b], LookupMode::PerHop, MultipathMode::PerPacket);
        let e0 =
            entries.iter().find(|e| e.node == NodeId(0)).expect("expected table entry present");
        assert_eq!(e0.actions.len(), 2);
        assert_eq!(e0.multipath, MultipathMode::PerPacket);
    }

    #[test]
    fn wildcard_paths_stay_wildcard() {
        let p = Path {
            src: NodeId(0),
            dst: NodeId(1),
            arr_slice: None,
            hops: vec![PathHop { node: NodeId(0), port: PortId(0), dep_slice: None }],
        };
        let entries = compile(&[p], LookupMode::PerHop, MultipathMode::None);
        assert_eq!(entries[0].m.arr_slice, None);
        assert_eq!(entries[0].actions[0].0.dep_slice, None);
    }

    #[test]
    fn source_route_action_builds_packet_route() {
        let entries = compile(&[multi_hop()], LookupMode::SourceRouting, MultipathMode::None);
        let sr = entries[0].actions[0].0.source_route().expect("source-route stack present");
        assert_eq!(sr.total(), 2);
        assert_eq!(sr.current().expect("source-route stack non-empty").port, PortId(1));
    }

    #[test]
    fn empty_paths_ignored() {
        let p = Path { src: NodeId(0), dst: NodeId(1), arr_slice: None, hops: vec![] };
        assert!(compile(&[p], LookupMode::PerHop, MultipathMode::None).is_empty());
    }
}
