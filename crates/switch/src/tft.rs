//! The time-flow table (§3).
//!
//! Match: `(arrival time slice, destination)` with wildcard arrival;
//! action: `(egress port, departure time slice[, source-route stack])` with
//! wildcard departure; groups of actions form multipath entries selected by
//! five-tuple or ingress-timestamp hashing. Exact arrival-slice matches
//! take priority over wildcards, so a TA default route can coexist with
//! higher-priority TO entries — exactly how the paper layers routes during
//! reconfiguration (§2.2).

use openoptics_proto::NodeId;
use openoptics_proto::Packet;
use openoptics_routing::{MultipathMode, RouteAction, RouteEntry};
use openoptics_sim::hash::FxHashMap;
use openoptics_sim::hash::{bucket, flow_hash, packet_hash};
use openoptics_sim::idx_u32;
use openoptics_sim::time::SliceIndex;

/// The per-node time-flow table.
#[derive(Clone, Debug)]
/// ```
/// use openoptics_switch::TimeFlowTable;
/// use openoptics_routing::{RouteEntry, RouteMatch, RouteAction, MultipathMode};
/// use openoptics_proto::{NodeId, PortId, HostId, Packet};
/// use openoptics_sim::SimTime;
///
/// let mut tft = TimeFlowTable::new();
/// // Fig. 3(a): arrive in slice 0 toward N3 -> depart slice 2 on port 0.
/// tft.install(RouteEntry {
///     node: NodeId(0),
///     m: RouteMatch { arr_slice: Some(0), dst: NodeId(3) },
///     actions: vec![(RouteAction {
///         port: PortId(0), dep_slice: Some(2), push_source_route: None,
///     }, 1)],
///     multipath: MultipathMode::None,
/// });
/// let pkt = Packet::data(1, 9, NodeId(0), NodeId(3), HostId(0), HostId(3),
///                        1000, 0, SimTime::ZERO);
/// assert_eq!(tft.lookup(&pkt, 0).unwrap().dep_slice, Some(2));
/// assert!(tft.lookup(&pkt, 1).is_none()); // no wildcard fallback installed
/// ```
pub struct TimeFlowTable {
    /// Exact entries keyed by (arrival slice, destination).
    exact: FxHashMap<(SliceIndex, NodeId), TableGroup>,
    /// Wildcard-arrival entries keyed by destination.
    wildcard: FxHashMap<NodeId, TableGroup>,
    /// Lookup statistics: hits and misses.
    pub hits: u64,
    /// Lookup misses (no entry matched).
    pub misses: u64,
    /// The schedule's cycle: a per-packet spray hashes the ingress time
    /// within it.
    cycle_ns: u64,
}

impl Default for TimeFlowTable {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Clone, Debug)]
struct TableGroup {
    actions: Vec<(RouteAction, u32)>,
    total_weight: u32,
    multipath: MultipathMode,
}

impl TimeFlowTable {
    /// An empty table that knows no cycle (`u64::MAX` ns): a per-packet
    /// spray hashes the absolute ingress time.
    pub fn new() -> Self {
        Self::for_cycle(u64::MAX)
    }

    /// An empty table on a schedule whose cycle is `cycle_ns`: a spray
    /// hashes the ingress time within the cycle, so shifting all traffic
    /// by whole cycles sprays every packet the same way.
    pub fn for_cycle(cycle_ns: u64) -> Self {
        assert!(cycle_ns > 0, "a cycle lasts at least 1 ns");
        TimeFlowTable {
            exact: FxHashMap::default(),
            wildcard: FxHashMap::default(),
            hits: 0,
            misses: 0,
            cycle_ns,
        }
    }

    /// Install (or replace) one compiled route entry.
    pub fn install(&mut self, entry: RouteEntry) {
        let group = TableGroup {
            total_weight: entry.actions.iter().map(|(_, w)| *w).sum::<u32>().max(1),
            actions: entry.actions,
            multipath: entry.multipath,
        };
        match entry.m.arr_slice {
            Some(ts) => {
                self.exact.insert((ts, entry.m.dst), group);
            }
            None => {
                self.wildcard.insert(entry.m.dst, group);
            }
        }
    }

    /// Install a batch of entries.
    pub fn install_all(&mut self, entries: impl IntoIterator<Item = RouteEntry>) {
        for e in entries {
            self.install(e);
        }
    }

    /// Remove every entry (used on TA reconfiguration).
    pub fn clear(&mut self) {
        self.exact.clear();
        self.wildcard.clear();
    }

    /// Number of installed entries (match keys).
    pub fn len(&self) -> usize {
        self.exact.len() + self.wildcard.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.wildcard.is_empty()
    }

    /// Look up the action for `packet` arriving in slice `arr`.
    ///
    /// Priority: exact arrival-slice match, then wildcard. Within a group,
    /// the action is picked by the group's multipath mode: per-flow hashes
    /// `(src, dst, flow)`, per-packet hashes the ingress time within the
    /// cycle plus the packet id (the "on-chip random number generator"
    /// alternative in §3 maps to the same selection semantics). On a held
    /// one-slice schedule the cycle is that one slice, so the spray hashes
    /// the ingress time modulo the slice length.
    pub fn lookup(&mut self, packet: &Packet, arr: SliceIndex) -> Option<&RouteAction> {
        let group = self.exact.get(&(arr, packet.dst)).or_else(|| self.wildcard.get(&packet.dst));
        let Some(group) = group else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let idx = match group.multipath {
            MultipathMode::None => 0,
            MultipathMode::PerFlow => {
                let h = flow_hash(packet.src.0, packet.dst.0, packet.flow);
                weighted_index(&group.actions, group.total_weight, h)
            }
            MultipathMode::PerPacket => {
                let h = packet_hash(packet.ingress_ts.as_ns() % self.cycle_ns, packet.id);
                weighted_index(&group.actions, group.total_weight, h)
            }
        };
        group.actions.get(idx).map(|(a, _)| a)
    }
}

/// Map a hash onto a weighted action list.
fn weighted_index(actions: &[(RouteAction, u32)], total: u32, h: u64) -> usize {
    if actions.len() <= 1 {
        return 0;
    }
    let mut slot = idx_u32(bucket(h, total as usize));
    for (i, (_, w)) in actions.iter().enumerate() {
        if slot < *w {
            return i;
        }
        slot -= w;
    }
    actions.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_proto::{HostId, PortId};
    use openoptics_routing::RouteMatch;
    use openoptics_sim::SimTime;

    fn entry(
        arr: Option<SliceIndex>,
        dst: NodeId,
        actions: Vec<(PortId, Option<SliceIndex>, u32)>,
        mp: MultipathMode,
    ) -> RouteEntry {
        RouteEntry {
            node: NodeId(0),
            m: RouteMatch { arr_slice: arr, dst },
            actions: actions
                .into_iter()
                .map(|(p, d, w)| {
                    (RouteAction { port: p, dep_slice: d, push_source_route: None }, w)
                })
                .collect(),
            multipath: mp,
        }
    }

    fn pkt(id: u64, flow: u64, dst: NodeId, ts_ns: u64) -> Packet {
        let mut p = Packet::data(
            id,
            flow,
            NodeId(0),
            dst,
            HostId(0),
            HostId(1),
            1000,
            0,
            SimTime::from_ns(ts_ns),
        );
        p.ingress_ts = SimTime::from_ns(ts_ns);
        p
    }

    #[test]
    fn exact_beats_wildcard() {
        let mut t = TimeFlowTable::new();
        t.install(entry(None, NodeId(3), vec![(PortId(9), None, 1)], MultipathMode::None));
        t.install(entry(Some(2), NodeId(3), vec![(PortId(1), Some(2), 1)], MultipathMode::None));
        let p = pkt(1, 1, NodeId(3), 0);
        assert_eq!(t.lookup(&p, 2).expect("flow matches an installed entry").port, PortId(1));
        assert_eq!(t.lookup(&p, 0).expect("flow matches an installed entry").port, PortId(9));
        assert_eq!(t.hits, 2);
    }

    #[test]
    fn miss_counts() {
        let mut t = TimeFlowTable::new();
        let p = pkt(1, 1, NodeId(7), 0);
        assert!(t.lookup(&p, 0).is_none());
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn wildcard_reduction_behaves_like_flow_table() {
        // With only wildcard entries, every arrival slice resolves the same
        // way — the backward-compatibility property of §3.
        let mut t = TimeFlowTable::new();
        t.install(entry(None, NodeId(3), vec![(PortId(2), None, 1)], MultipathMode::None));
        let p = pkt(1, 1, NodeId(3), 0);
        for arr in 0..16 {
            let a = t.lookup(&p, arr).expect("flow matches an installed entry");
            assert_eq!(a.port, PortId(2));
            assert_eq!(a.dep_slice, None);
        }
    }

    #[test]
    fn per_flow_hashing_is_sticky_per_flow() {
        let mut t = TimeFlowTable::new();
        t.install(entry(
            Some(0),
            NodeId(3),
            vec![(PortId(0), Some(0), 1), (PortId(1), Some(0), 1)],
            MultipathMode::PerFlow,
        ));
        // One flow always takes one port.
        let first =
            t.lookup(&pkt(1, 42, NodeId(3), 0), 0).expect("flow matches an installed entry").port;
        for i in 2..50 {
            assert_eq!(
                t.lookup(&pkt(i, 42, NodeId(3), i * 100), 0)
                    .expect("flow matches an installed entry")
                    .port,
                first
            );
        }
        // Different flows spread across both ports.
        let mut seen = openoptics_sim::hash::FxHashSet::default();
        for f in 0..50 {
            seen.insert(
                t.lookup(&pkt(100 + f, f, NodeId(3), 0), 0)
                    .expect("flow matches an installed entry")
                    .port,
            );
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn per_packet_hashing_sprays() {
        let mut t = TimeFlowTable::new();
        t.install(entry(
            Some(0),
            NodeId(3),
            vec![(PortId(0), Some(0), 1), (PortId(1), Some(0), 1)],
            MultipathMode::PerPacket,
        ));
        let mut counts = [0u32; 2];
        for i in 0..400 {
            let port = t
                .lookup(&pkt(i, 42, NodeId(3), i * 120), 0)
                .expect("flow matches an installed entry")
                .port;
            counts[port.index()] += 1;
        }
        assert!(counts[0] > 100 && counts[1] > 100, "skewed spray: {counts:?}");
    }

    #[test]
    fn a_spray_repeats_one_cycle_later() {
        let cycle_ns = 4 * 1_000;
        let mut t = TimeFlowTable::for_cycle(cycle_ns);
        t.install(entry(
            Some(0),
            NodeId(3),
            (0..4).map(|p| (PortId(p), Some(0), 1)).collect(),
            MultipathMode::PerPacket,
        ));
        for i in 0..200 {
            let at = |k: u64| {
                let p = pkt(i, 42, NodeId(3), i * 37 + k * cycle_ns);
                t.clone().lookup(&p, 0).expect("flow matches an installed entry").port
            };
            assert_eq!(at(0), at(3));
        }
    }

    #[test]
    fn weighted_groups_respect_weights() {
        let mut t = TimeFlowTable::new();
        // 3:1 weighting.
        t.install(entry(
            Some(0),
            NodeId(3),
            vec![(PortId(0), Some(0), 3), (PortId(1), Some(0), 1)],
            MultipathMode::PerPacket,
        ));
        let mut counts = [0u32; 2];
        for i in 0..2000 {
            let port = t
                .lookup(&pkt(i, i, NodeId(3), i * 97), 0)
                .expect("flow matches an installed entry")
                .port;
            counts[port.index()] += 1;
        }
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((2.0..4.5).contains(&ratio), "weight ratio {ratio}, counts {counts:?}");
    }

    #[test]
    fn install_replaces() {
        let mut t = TimeFlowTable::new();
        t.install(entry(Some(0), NodeId(3), vec![(PortId(0), Some(0), 1)], MultipathMode::None));
        t.install(entry(Some(0), NodeId(3), vec![(PortId(5), Some(1), 1)], MultipathMode::None));
        assert_eq!(t.len(), 1);
        let p = pkt(1, 1, NodeId(3), 0);
        assert_eq!(t.lookup(&p, 0).expect("flow matches an installed entry").port, PortId(5));
    }
}
