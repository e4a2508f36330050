//! The optical schedule: which circuits exist in which time slice.
//!
//! This is the controller-side "ground truth" that `deploy_topo()` compiles
//! user circuits into (§4.2): a per-slice port map, validated for physical
//! feasibility (no port lit twice in a slice, no loopbacks, indices in
//! range). TO architectures load a whole cycle of slices; TA architectures
//! are the one-slice special case (every circuit held).

use crate::circuit::Circuit;
use openoptics_proto::{NodeId, PortId};
use openoptics_sim::time::SliceIndex;
use openoptics_sim::SliceConfig;
use std::fmt;

/// Why a circuit set cannot be deployed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The schedule spans more nodes than a slot can name
    /// ([`OpticalSchedule::MAX_NODES`]).
    TooManyNodes {
        /// The node count asked for.
        num_nodes: u32,
    },
    /// A circuit references a node `>= num_nodes`.
    NodeOutOfRange {
        /// The offending circuit.
        circuit: Circuit,
    },
    /// A circuit references a port `>= uplinks`.
    PortOutOfRange {
        /// The offending circuit.
        circuit: Circuit,
    },
    /// A circuit references a slice `>= num_slices`.
    SliceOutOfRange {
        /// The offending circuit.
        circuit: Circuit,
    },
    /// A circuit connects a node to itself.
    Loopback {
        /// The offending circuit.
        circuit: Circuit,
    },
    /// Two circuits claim the same `(node, port)` in the same slice.
    PortConflict {
        /// The node whose port is claimed twice.
        node: NodeId,
        /// The port both circuits claim.
        port: PortId,
        /// The slice both circuits are in.
        slice: SliceIndex,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::TooManyNodes { num_nodes } => write!(
                f,
                "a schedule spans at most {} nodes, not {num_nodes}",
                OpticalSchedule::MAX_NODES
            ),
            ScheduleError::NodeOutOfRange { circuit } => {
                write!(f, "circuit {circuit:?} references a node out of range")
            }
            ScheduleError::PortOutOfRange { circuit } => {
                write!(f, "circuit {circuit:?} references a port out of range")
            }
            ScheduleError::SliceOutOfRange { circuit } => {
                write!(f, "circuit {circuit:?} references a slice out of range")
            }
            ScheduleError::Loopback { circuit } => {
                write!(f, "circuit {circuit:?} connects a node to itself")
            }
            ScheduleError::PortConflict { node, port, slice } => {
                write!(f, "port {node}:{port} is claimed by two circuits in slice {slice}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One `(slice, node, port)` of the table: the peer it is lit to, packed
/// as `node << 16 | port`, or [`Slot::DARK`]. Node ids stay below
/// [`OpticalSchedule::MAX_NODES`] and ports below `u16::MAX`, so no peer
/// packs to the dark value.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Slot(u32);

// 69,336 of them for a 108 x 6 cell.
const _: () = assert!(std::mem::size_of::<Slot>() == 4);

impl Slot {
    const DARK: Slot = Slot(u32::MAX);

    #[inline]
    fn lit(node: NodeId, port: PortId) -> Slot {
        Slot(node.0 << 16 | u32::from(port.0))
    }

    #[inline]
    fn is_dark(self) -> bool {
        self == Slot::DARK
    }

    /// The peer node; meaningless on a dark slot.
    #[inline]
    fn node(self) -> NodeId {
        NodeId(self.0 >> 16)
    }

    /// The peer port; meaningless on a dark slot.
    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "the low 16 bits are the port")]
    fn port(self) -> PortId {
        PortId(self.0 as u16)
    }

    #[inline]
    fn peer(self) -> Option<(NodeId, PortId)> {
        (!self.is_dark()).then(|| (self.node(), self.port()))
    }
}

/// A validated optical schedule over one cycle. Two schedules are equal
/// when their slots are equal over the same slice structure.
#[derive(Clone, PartialEq)]
pub struct OpticalSchedule {
    cfg: SliceConfig,
    num_nodes: u32,
    uplinks: u16,
    /// `table[(slice * num_nodes + node) * uplinks + port]` = peer, if lit.
    table: Vec<Slot>,
}

impl OpticalSchedule {
    /// The most nodes a schedule spans: a slot names its peer node in 16
    /// bits.
    pub const MAX_NODES: u32 = u16::MAX as u32;

    /// Validate and build a schedule from a circuit list: a table with
    /// every slot dark (refused over more than [`Self::MAX_NODES`] nodes),
    /// then one [`light`](Self::light) per circuit, in order; the first
    /// failure is the error.
    pub fn build(
        cfg: SliceConfig,
        num_nodes: u32,
        uplinks: u16,
        circuits: &[Circuit],
    ) -> Result<Self, ScheduleError> {
        if num_nodes > Self::MAX_NODES {
            return Err(ScheduleError::TooManyNodes { num_nodes });
        }
        let mut sched = OpticalSchedule::empty(cfg, num_nodes, uplinks);
        for &c in circuits {
            sched.light(c)?;
        }
        Ok(sched)
    }

    /// Light circuit `c`'s two slots in its slice, or in every slice if it
    /// is held. A schedule over more than [`Self::MAX_NODES`] nodes lights
    /// nothing; `c` is checked for a loopback, then its nodes, ports and
    /// slice being in range, then per slice its two slots (`a`'s first)
    /// being dark. On a failure the schedule is no longer meaningful.
    #[inline]
    pub fn light(&mut self, c: Circuit) -> Result<(), ScheduleError> {
        if self.num_nodes > Self::MAX_NODES {
            return Err(ScheduleError::TooManyNodes { num_nodes: self.num_nodes });
        }
        if c.is_loopback() {
            return Err(ScheduleError::Loopback { circuit: c });
        }
        if c.a.0 >= self.num_nodes || c.b.0 >= self.num_nodes {
            return Err(ScheduleError::NodeOutOfRange { circuit: c });
        }
        if c.a_port.0 >= self.uplinks || c.b_port.0 >= self.uplinks {
            return Err(ScheduleError::PortOutOfRange { circuit: c });
        }
        let slices = match c.slice {
            Some(ts) if ts >= self.cfg.num_slices => {
                return Err(ScheduleError::SliceOutOfRange { circuit: c });
            }
            Some(ts) => ts..ts + 1,
            None => 0..self.cfg.num_slices,
        };
        let ports = self.uplinks as usize;
        let slice_slots = self.num_nodes as usize * ports;
        let a = c.a.index() * ports + c.a_port.index();
        let b = c.b.index() * ports + c.b_port.index();
        for ts in slices {
            let row = ts as usize * slice_slots;
            let conflict = |node, port| ScheduleError::PortConflict { node, port, slice: ts };
            let slot = &mut self.table[row + a];
            if !slot.is_dark() {
                return Err(conflict(c.a, c.a_port));
            }
            *slot = Slot::lit(c.b, c.b_port);
            let slot = &mut self.table[row + b];
            if !slot.is_dark() {
                return Err(conflict(c.b, c.b_port));
            }
            *slot = Slot::lit(c.a, c.a_port);
        }
        Ok(())
    }

    /// Darken `(node, port)` in every slice, and the port each slice had
    /// it lit to: what is left is the schedule without the circuits that
    /// use `(node, port)`. A node or port out of range changes nothing.
    pub fn darken(&mut self, node: NodeId, port: PortId) {
        if node.0 >= self.num_nodes || port.0 >= self.uplinks {
            return;
        }
        for ts in 0..self.cfg.num_slices {
            let at = self.row(node, ts) + port.index();
            let slot = std::mem::replace(&mut self.table[at], Slot::DARK);
            if let Some((peer, peer_port)) = slot.peer() {
                let at = self.row(peer, ts) + peer_port.index();
                self.table[at] = Slot::DARK;
            }
        }
    }

    /// Where the ports of `node` during `slice` start in `table`.
    #[inline]
    fn row(&self, node: NodeId, slice: SliceIndex) -> usize {
        debug_assert!(node.0 < self.num_nodes, "node {node} out of range");
        (slice as usize * self.num_nodes as usize + node.index()) * self.uplinks as usize
    }

    /// An empty schedule (every slot dark) — the state before any deploy.
    pub fn empty(cfg: SliceConfig, num_nodes: u32, uplinks: u16) -> Self {
        let slots = num_nodes as usize * uplinks as usize * cfg.num_slices as usize;
        OpticalSchedule { cfg, num_nodes, uplinks, table: vec![Slot::DARK; slots] }
    }

    /// Slice configuration.
    pub fn slice_config(&self) -> SliceConfig {
        self.cfg
    }

    /// Number of endpoint nodes.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Optical uplinks per node.
    pub fn uplinks(&self) -> u16 {
        self.uplinks
    }

    /// The circuits the slots hold, read off the table: in `(slice, node,
    /// port)` order, each once, from its endpoint that comes first in
    /// `(node, port)` order. A one-slice schedule gives them held
    /// ([`Circuit::held`]); building a schedule from them gives this one
    /// back.
    pub fn circuits(&self) -> impl Iterator<Item = Circuit> + '_ {
        let held = self.cfg.num_slices == 1;
        (0..self.cfg.num_slices).flat_map(move |ts| {
            (0..self.num_nodes).flat_map(move |node| {
                let node = NodeId(node);
                (0..self.uplinks).zip(self.ports(node, ts)).filter_map(move |(p, &slot)| {
                    let (peer, peer_port) = slot.peer()?;
                    ((node, p) < (peer, peer_port.0)).then(|| Circuit {
                        a: node,
                        a_port: PortId(p),
                        b: peer,
                        b_port: peer_port,
                        slice: (!held).then_some(ts),
                    })
                })
            })
        })
    }

    /// The ports of `node` during `slice`, indexed by local port.
    #[inline]
    fn ports(&self, node: NodeId, slice: SliceIndex) -> &[Slot] {
        let at = self.row(node, slice);
        &self.table[at..at + self.uplinks as usize]
    }

    /// The peer of `(node, port)` during `slice`, if the port is lit.
    #[inline]
    pub fn peer(&self, node: NodeId, port: PortId, slice: SliceIndex) -> Option<(NodeId, PortId)> {
        self.ports(node, slice)[port.index()].peer()
    }

    /// All neighbors of `node` in `slice`: `(local port, peer node)` pairs
    /// in ascending port order, borrowed from the schedule (no allocation).
    /// This is the `neighbors()` helper of Table 1.
    #[inline]
    pub fn neighbors(
        &self,
        node: NodeId,
        slice: SliceIndex,
    ) -> impl Iterator<Item = (PortId, NodeId)> + '_ {
        (0..self.uplinks)
            .zip(self.ports(node, slice))
            .filter(|(_, slot)| !slot.is_dark())
            .map(|(p, slot)| (PortId(p), slot.node()))
    }

    /// The local egress port on `node` that reaches `dst` directly in
    /// `slice`, if a circuit exists.
    pub fn port_to(&self, node: NodeId, dst: NodeId, slice: SliceIndex) -> Option<PortId> {
        self.neighbors(node, slice).find(|&(_, peer)| peer == dst).map(|(port, _)| port)
    }

    /// All slices (cycle-relative, ascending) in which `a` and `b` share a
    /// direct circuit.
    pub fn slices_connecting(&self, a: NodeId, b: NodeId) -> Vec<SliceIndex> {
        (0..self.cfg.num_slices).filter(|&ts| self.port_to(a, b, ts).is_some()).collect()
    }

    /// The first slice `>= from` (wrapping the cycle) with a direct circuit
    /// `a <-> b`, waiting at most `max_wait` slices: `(slice, slices waited,
    /// a's egress port)`, if one exists. `u32::MAX` searches the whole
    /// cycle.
    pub fn first_slice_connecting(
        &self,
        a: NodeId,
        b: NodeId,
        from: SliceIndex,
        max_wait: u32,
    ) -> Option<(SliceIndex, u32, PortId)> {
        (0..self.cfg.num_slices.min(max_wait.saturating_add(1))).find_map(|d| {
            let ts = self.cfg.advance(from, d);
            self.port_to(a, b, ts).map(|port| (ts, d, port))
        })
    }

    /// Whether every node can reach every other node using circuits of a
    /// single slice (the TA-2 "every topology is a connected graph"
    /// requirement, §2.1).
    pub fn slice_is_connected(&self, slice: SliceIndex) -> bool {
        if self.num_nodes <= 1 {
            return true;
        }
        let mut seen = vec![false; self.num_nodes as usize];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for (_, peer) in self.neighbors(n, slice) {
                if !seen[peer.index()] {
                    seen[peer.index()] = true;
                    count += 1;
                    stack.push(peer);
                }
            }
        }
        count == self.num_nodes
    }

    /// Whether every ordered node pair is connected by a direct circuit in
    /// at least one slice of the cycle — the full-connectivity property of
    /// canonical round-robin TO schedules (§2.1).
    pub fn cycle_covers_all_pairs(&self) -> bool {
        for a in 0..self.num_nodes {
            for b in 0..self.num_nodes {
                if a != b
                    && self.first_slice_connecting(NodeId(a), NodeId(b), 0, u32::MAX).is_none()
                {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Debug for OpticalSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OpticalSchedule({} nodes x {} uplinks, {} slices of {}ns, {} circuits)",
            self.num_nodes,
            self.uplinks,
            self.cfg.num_slices,
            self.cfg.slice_ns,
            self.circuits().count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_sim::idx_u32;

    fn cfg(slices: u32) -> SliceConfig {
        SliceConfig::new(1_000, slices, 100)
    }

    /// 4-node, 1-uplink round-robin over 3 slices (every pair once).
    fn rr4() -> Vec<Circuit> {
        // Classic 1-factorization of K4: slices {01,23}, {02,13}, {03,12}.
        let pairs = [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]];
        let mut cs = vec![];
        for (ts, slice) in pairs.iter().enumerate() {
            for &(a, b) in slice {
                cs.push(Circuit::in_slice(NodeId(a), PortId(0), NodeId(b), PortId(0), idx_u32(ts)));
            }
        }
        cs
    }

    /// [`OpticalSchedule::build`] as first written: each circuit's slots
    /// written through `row` over a pair of `(node, port, peer)` tuples,
    /// all checks inline.
    fn build_reference(
        cfg: SliceConfig,
        num_nodes: u32,
        uplinks: u16,
        circuits: &[Circuit],
    ) -> Result<OpticalSchedule, ScheduleError> {
        if num_nodes > OpticalSchedule::MAX_NODES {
            return Err(ScheduleError::TooManyNodes { num_nodes });
        }
        let slots = num_nodes as usize * uplinks as usize * cfg.num_slices as usize;
        let mut sched = OpticalSchedule { cfg, num_nodes, uplinks, table: vec![Slot::DARK; slots] };
        for &c in circuits {
            if c.is_loopback() {
                return Err(ScheduleError::Loopback { circuit: c });
            }
            if c.a.0 >= num_nodes || c.b.0 >= num_nodes {
                return Err(ScheduleError::NodeOutOfRange { circuit: c });
            }
            if c.a_port.0 >= uplinks || c.b_port.0 >= uplinks {
                return Err(ScheduleError::PortOutOfRange { circuit: c });
            }
            if let Some(ts) = c.slice {
                if ts >= cfg.num_slices {
                    return Err(ScheduleError::SliceOutOfRange { circuit: c });
                }
            }
            for ts in c.slice.map_or(0..cfg.num_slices, |ts| ts..ts + 1) {
                for (n, p, peer, peer_p) in
                    [(c.a, c.a_port, c.b, c.b_port), (c.b, c.b_port, c.a, c.a_port)]
                {
                    let at = sched.row(n, ts) + p.index();
                    let slot = &mut sched.table[at];
                    if *slot != Slot::DARK {
                        return Err(ScheduleError::PortConflict { node: n, port: p, slice: ts });
                    }
                    *slot = Slot::lit(peer, peer_p);
                }
            }
        }
        Ok(sched)
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A valid schedule's circuits: 6 nodes x 2 uplinks, 5 slices, a
        /// round robin on port 0 and held circuits on port 1.
        fn valid() -> Vec<Circuit> {
            let mut cs = Vec::new();
            for ts in 0..5 {
                for x in 0..5 {
                    let y = (2 * ts + 5 - x) % 5;
                    let peer = if x == y { 5 } else { y };
                    if x < peer {
                        cs.push(Circuit::in_slice(
                            NodeId(x),
                            PortId(0),
                            NodeId(peer),
                            PortId(0),
                            ts,
                        ));
                    }
                }
            }
            cs.extend(
                (0..3)
                    .map(|i| Circuit::held(NodeId(2 * i), PortId(1), NodeId(2 * i + 1), PortId(1))),
            );
            cs
        }

        /// Each mutation breaks one rule: a loopback, a node, port or slice
        /// out of range, or a port another circuit already lights.
        fn mutate(cs: &mut [Circuit], kind: u8, at: usize, other: usize) {
            let other = cs[other];
            let c = &mut cs[at];
            match kind {
                0 => c.b = c.a,
                1 => c.b = NodeId(6),
                2 => c.a = NodeId(u32::MAX),
                3 => c.a_port = PortId(2),
                4 => c.b_port = PortId(u16::MAX),
                5 => c.slice = Some(5),
                6 => c.slice = None,
                _ => {
                    c.a = other.b;
                    c.a_port = other.b_port;
                    c.slice = other.slice;
                }
            }
        }

        proptest! {
            /// Darkening the down ports of a schedule is building it from
            /// its circuit view without the circuits that use them.
            #[test]
            fn darkening_equals_building_without_the_down_circuits(
                drop in proptest::collection::vec(0usize..18, 0..6),
                down in proptest::collection::vec((0u32..8, 0u16..3), 0..5),
            ) {
                let cfg = SliceConfig::new(1_000, 5, 100);
                let cs: Vec<Circuit> =
                    valid().into_iter().enumerate().filter(|(i, _)| !drop.contains(i)).map(|(_, c)| c).collect();
                let s = OpticalSchedule::build(cfg, 6, 2, &cs).unwrap();
                let mut darkened = s.clone();
                for &(n, p) in &down {
                    darkened.darken(NodeId(n), PortId(p));
                }
                let kept: Vec<Circuit> = s
                    .circuits()
                    .filter(|c| down.iter().all(|&(n, p)| c.peer_of(NodeId(n), PortId(p)).is_none()))
                    .collect();
                prop_assert!(darkened == OpticalSchedule::build(cfg, 6, 2, &kept).unwrap());
            }

            #[test]
            fn build_reports_the_references_first_error(
                mutations in proptest::collection::vec((0u8..8, 0usize..18, 0usize..18), 0..4),
                rotate in 0usize..18,
            ) {
                let mut cs = valid();
                prop_assert_eq!(cs.len(), 18);
                cs.rotate_left(rotate);
                for (kind, at, other) in mutations {
                    mutate(&mut cs, kind, at, other);
                }
                let cfg = SliceConfig::new(1_000, 5, 100);
                let got = OpticalSchedule::build(cfg, 6, 2, &cs);
                let want = build_reference(cfg, 6, 2, &cs);
                match (got, want) {
                    (Ok(got), Ok(want)) => prop_assert!(got == want),
                    (got, want) => prop_assert_eq!(got.err(), want.err()),
                }
            }
        }
    }

    #[test]
    fn a_schedule_names_at_most_65_535_nodes() {
        let too_many = OpticalSchedule::MAX_NODES + 1;
        assert_eq!(
            OpticalSchedule::build(cfg(1), too_many, 1, &[]).unwrap_err(),
            ScheduleError::TooManyNodes { num_nodes: 65_536 }
        );
        // An empty schedule that large exists, but lights nothing: node
        // 65,536 would pack into node 0's bits.
        let c = Circuit::held(NodeId(0), PortId(0), NodeId(too_many - 1), PortId(0));
        let mut huge = OpticalSchedule::empty(cfg(1), too_many, 1);
        assert_eq!(huge.light(c), Err(ScheduleError::TooManyNodes { num_nodes: 65_536 }));
        // The last node a slot can name, on the last port.
        let last = OpticalSchedule::MAX_NODES - 1;
        let c = Circuit::held(NodeId(0), PortId(2), NodeId(last), PortId(2));
        let s = OpticalSchedule::build(cfg(1), OpticalSchedule::MAX_NODES, 3, &[c]).unwrap();
        assert_eq!(s.peer(NodeId(0), PortId(2), 0), Some((NodeId(last), PortId(2))));
        assert_eq!(s.peer(NodeId(last), PortId(2), 0), Some((NodeId(0), PortId(2))));
        assert_eq!(s.circuits().collect::<Vec<_>>(), vec![c]);
    }

    #[test]
    fn the_circuit_view_reads_slice_node_port_order_once_each() {
        let mut cs = rr4();
        cs.reverse();
        let s = OpticalSchedule::build(cfg(3), 4, 1, &cs).unwrap();
        assert_eq!(s.circuits().collect::<Vec<_>>(), rr4());
        // From the endpoint first in (node, port) order; held on one slice.
        let c = Circuit::held(NodeId(3), PortId(0), NodeId(1), PortId(1));
        let s = OpticalSchedule::build(cfg(1), 4, 2, &[c]).unwrap();
        assert_eq!(s.circuits().collect::<Vec<_>>(), vec![c.canonical()]);
        // A held circuit over a cycle reads as one circuit per slice.
        let s = OpticalSchedule::build(cfg(3), 4, 2, &[c]).unwrap();
        let per_slice: Vec<Circuit> =
            (0..3).map(|ts| Circuit { slice: Some(ts), ..c.canonical() }).collect();
        assert_eq!(s.circuits().collect::<Vec<_>>(), per_slice);
        assert!(OpticalSchedule::build(cfg(3), 4, 2, &per_slice).unwrap() == s);
    }

    #[test]
    fn builds_and_queries_round_robin() {
        let s = OpticalSchedule::build(cfg(3), 4, 1, &rr4()).unwrap();
        assert_eq!(s.peer(NodeId(0), PortId(0), 0), Some((NodeId(1), PortId(0))));
        assert_eq!(s.peer(NodeId(1), PortId(0), 0), Some((NodeId(0), PortId(0))));
        assert_eq!(s.port_to(NodeId(0), NodeId(3), 2), Some(PortId(0)));
        assert_eq!(s.port_to(NodeId(0), NodeId(3), 0), None);
        assert_eq!(s.slices_connecting(NodeId(0), NodeId(2)), vec![1]);
        assert!(s.cycle_covers_all_pairs());
    }

    #[test]
    fn first_slice_connecting_wraps() {
        let s = OpticalSchedule::build(cfg(3), 4, 1, &rr4()).unwrap();
        // 0<->1 only in slice 0; from slice 1 we wait 2 slices.
        assert_eq!(
            s.first_slice_connecting(NodeId(0), NodeId(1), 1, u32::MAX),
            Some((0, 2, PortId(0)))
        );
        assert_eq!(s.first_slice_connecting(NodeId(0), NodeId(1), 0, 0), Some((0, 0, PortId(0))));
        // A bound short of the circuit finds nothing; one reaching it does.
        assert_eq!(s.first_slice_connecting(NodeId(0), NodeId(1), 1, 1), None);
        assert_eq!(s.first_slice_connecting(NodeId(0), NodeId(1), 1, 2), Some((0, 2, PortId(0))));
    }

    #[test]
    fn held_circuit_occupies_all_slices() {
        let c = vec![Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0))];
        let s = OpticalSchedule::build(cfg(3), 2, 1, &c).unwrap();
        for ts in 0..3 {
            assert_eq!(s.port_to(NodeId(0), NodeId(1), ts), Some(PortId(0)));
        }
    }

    #[test]
    fn port_conflict_rejected() {
        let cs = vec![
            Circuit::in_slice(NodeId(0), PortId(0), NodeId(1), PortId(0), 0),
            Circuit::in_slice(NodeId(0), PortId(0), NodeId(2), PortId(0), 0),
        ];
        let err = OpticalSchedule::build(cfg(3), 3, 1, &cs).unwrap_err();
        assert!(matches!(err, ScheduleError::PortConflict { node: NodeId(0), .. }));
    }

    #[test]
    fn held_circuit_conflicts_with_sliced() {
        let cs = vec![
            Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0)),
            Circuit::in_slice(NodeId(0), PortId(0), NodeId(2), PortId(0), 1),
        ];
        assert!(OpticalSchedule::build(cfg(3), 3, 1, &cs).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        let c = Circuit::in_slice(NodeId(0), PortId(0), NodeId(9), PortId(0), 0);
        assert!(matches!(
            OpticalSchedule::build(cfg(3), 4, 1, &[c]).unwrap_err(),
            ScheduleError::NodeOutOfRange { .. }
        ));
        let c = Circuit::in_slice(NodeId(0), PortId(5), NodeId(1), PortId(0), 0);
        assert!(matches!(
            OpticalSchedule::build(cfg(3), 4, 1, &[c]).unwrap_err(),
            ScheduleError::PortOutOfRange { .. }
        ));
        let c = Circuit::in_slice(NodeId(0), PortId(0), NodeId(1), PortId(0), 7);
        assert!(matches!(
            OpticalSchedule::build(cfg(3), 4, 1, &[c]).unwrap_err(),
            ScheduleError::SliceOutOfRange { .. }
        ));
        let c = Circuit::in_slice(NodeId(1), PortId(0), NodeId(1), PortId(0), 0);
        assert!(matches!(
            OpticalSchedule::build(cfg(3), 4, 1, &[c]).unwrap_err(),
            ScheduleError::Loopback { .. }
        ));
    }

    #[test]
    fn connectivity_checks() {
        let s = OpticalSchedule::build(cfg(3), 4, 1, &rr4()).unwrap();
        // Each individual slice of a 1-uplink round robin is a perfect
        // matching — not connected for 4 nodes.
        assert!(!s.slice_is_connected(0));
        // A ring over 2 uplinks is connected.
        let ring: Vec<Circuit> = (0..4)
            .map(|i| Circuit::held(NodeId(i), PortId(1), NodeId((i + 1) % 4), PortId(0)))
            .collect();
        let s = OpticalSchedule::build(cfg(1), 4, 2, &ring).unwrap();
        assert!(s.slice_is_connected(0));
    }

    #[test]
    fn neighbors_lists_lit_ports() {
        let s = OpticalSchedule::build(cfg(3), 4, 1, &rr4()).unwrap();
        assert_eq!(s.neighbors(NodeId(0), 1).collect::<Vec<_>>(), vec![(PortId(0), NodeId(2))]);
        let empty = OpticalSchedule::empty(cfg(3), 4, 1);
        assert_eq!(empty.neighbors(NodeId(0), 0).count(), 0);
        assert!(!empty.cycle_covers_all_pairs());
    }
}
