//! Routing paths through the time-expanded network.
//!
//! A [`Path`] is the unit `routing()` returns and `deploy_routing()`
//! compiles (Table 1): an ordered list of hops, each "at node X, depart on
//! port P in slice S". Paths can be validated against a schedule — the
//! sanity check the optical controller performs before deployment (§4.1).

use openoptics_fabric::OpticalSchedule;
use openoptics_proto::{NodeId, PortId};
use openoptics_sim::time::SliceIndex;
use std::fmt;

/// One hop of a path.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PathHop {
    /// Node executing the hop.
    pub node: NodeId,
    /// Egress port taken.
    pub port: PortId,
    /// Cycle-relative slice in which the packet departs; `None` means
    /// "immediately on arrival" (TA / static semantics).
    pub dep_slice: Option<SliceIndex>,
}

impl fmt::Debug for PathHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dep_slice {
            Some(ts) => write!(f, "{}:{}@ts{}", self.node, self.port, ts),
            None => write!(f, "{}:{}@*", self.node, self.port),
        }
    }
}

/// A complete path from `src` to `dst` for packets arriving in `arr_slice`.
#[derive(Clone, PartialEq, Eq)]
pub struct Path {
    /// Source endpoint node (== first hop's node).
    pub src: NodeId,
    /// Destination endpoint node.
    pub dst: NodeId,
    /// Arrival slice this path is valid for; `None` = any slice (TA).
    pub arr_slice: Option<SliceIndex>,
    /// Ordered hops; the packet leaves `hops[i].node` on `hops[i].port`.
    pub hops: Vec<PathHop>,
}

/// Why a path fails validation against a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The path has no hops.
    Empty,
    /// First hop is not at the source.
    WrongOrigin,
    /// A hop departs on a port with no circuit in its departure slice.
    DarkCircuit {
        /// Index of the offending hop.
        hop: usize,
    },
    /// The hop sequence does not land on the destination.
    WrongDestination {
        /// Where the last hop delivers the packet.
        lands_on: NodeId,
    },
    /// Hop `hop` is at a different node than where the previous hop's
    /// circuit delivered the packet.
    Discontinuous {
        /// Index of the offending hop.
        hop: usize,
    },
    /// A TA-style wildcard hop appears in a multi-slice (TO) path, or
    /// departure slices are inconsistent with waiting.
    BadTiming {
        /// Index of the offending hop.
        hop: usize,
    },
}

impl Path {
    /// Number of whole slices between arrival at the source and the final
    /// departure — the circuit-waiting latency in slices. Wildcard paths
    /// report 0. (Waits wrap the cycle, so each inter-hop wait is computed
    /// with rank arithmetic.)
    pub fn slices_waited(&self, schedule: &OpticalSchedule) -> u32 {
        let cfg = schedule.slice_config();
        let Some(arr) = self.arr_slice else { return 0 };
        let mut cur = arr;
        let mut total = 0;
        for h in &self.hops {
            if let Some(dep) = h.dep_slice {
                total += cfg.rank(cur, dep);
                cur = dep;
            }
        }
        total
    }

    /// Validate this path against a schedule: hops must be contiguous, ride
    /// lit circuits in their departure slices, and end at `dst`.
    pub fn validate(&self, schedule: &OpticalSchedule) -> Result<(), PathError> {
        if self.hops.is_empty() {
            return Err(PathError::Empty);
        }
        if self.hops[0].node != self.src {
            return Err(PathError::WrongOrigin);
        }
        let cfg = schedule.slice_config();
        let mut at = self.src;
        let mut cur_slice = self.arr_slice;
        for (i, h) in self.hops.iter().enumerate() {
            if h.node != at {
                return Err(PathError::Discontinuous { hop: i });
            }
            let dep = match (h.dep_slice, cur_slice) {
                (Some(dep), Some(_)) => Some(dep),
                (None, None) => None,
                // Mixing wildcard and timed hops in one path is malformed.
                _ => return Err(PathError::BadTiming { hop: i }),
            };
            match dep {
                Some(dep) => {
                    if dep >= cfg.num_slices {
                        return Err(PathError::BadTiming { hop: i });
                    }
                    match schedule.peer(at, h.port, dep) {
                        Some((peer, _)) => {
                            at = peer;
                            cur_slice = Some(dep);
                        }
                        None => return Err(PathError::DarkCircuit { hop: i }),
                    }
                }
                None => {
                    // TA/static: the circuit must be lit in every slice; we
                    // check slice 0 as the representative (held circuits
                    // occupy all slices).
                    match schedule.peer(at, h.port, 0) {
                        Some((peer, _)) => at = peer,
                        None => return Err(PathError::DarkCircuit { hop: i }),
                    }
                }
            }
        }
        if at != self.dst {
            return Err(PathError::WrongDestination { lands_on: at });
        }
        Ok(())
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path[{}->{}", self.src, self.dst)?;
        if let Some(ts) = self.arr_slice {
            write!(f, " @ts{ts}")?;
        }
        write!(f, ": ")?;
        for (i, h) in self.hops.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{h:?}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_fabric::Circuit;
    use openoptics_sim::idx_u32;
    use openoptics_sim::SliceConfig;

    /// The Fig. 2 schedule: 4 nodes, 1 uplink, 3 slices.
    /// ts0: {0-1, 2-3}, ts1: {0-2, 1-3}, ts2: {0-3, 1-2}.
    fn fig2() -> OpticalSchedule {
        let pairs = [[(0u32, 1u32), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]];
        let mut cs = vec![];
        for (ts, sl) in pairs.iter().enumerate() {
            for &(a, b) in sl {
                cs.push(Circuit::in_slice(NodeId(a), PortId(0), NodeId(b), PortId(0), idx_u32(ts)));
            }
        }
        OpticalSchedule::build(SliceConfig::new(1_000, 3, 100), 4, 1, &cs)
            .expect("schedule deploys")
    }

    /// Path (1) of Fig. 2: wait at N0 until ts2 for the direct circuit to N3.
    fn direct_path() -> Path {
        Path {
            src: NodeId(0),
            dst: NodeId(3),
            arr_slice: Some(0),
            hops: vec![PathHop { node: NodeId(0), port: PortId(0), dep_slice: Some(2) }],
        }
    }

    /// Path (2) of Fig. 2: N0 -ts0-> N1, wait, N1 -ts1-> N3.
    fn multi_hop_path() -> Path {
        Path {
            src: NodeId(0),
            dst: NodeId(3),
            arr_slice: Some(0),
            hops: vec![
                PathHop { node: NodeId(0), port: PortId(0), dep_slice: Some(0) },
                PathHop { node: NodeId(1), port: PortId(0), dep_slice: Some(1) },
            ],
        }
    }

    #[test]
    fn fig2_paths_validate() {
        let s = fig2();
        direct_path().validate(&s).expect("path validates against its schedule");
        multi_hop_path().validate(&s).expect("path validates against its schedule");
    }

    #[test]
    fn fig2_latencies() {
        let s = fig2();
        // Direct waits 2 slices; multi-hop waits 1 (at N1).
        assert_eq!(direct_path().slices_waited(&s), 2);
        assert_eq!(multi_hop_path().slices_waited(&s), 1);
    }

    #[test]
    fn dark_circuit_rejected() {
        let s = fig2();
        let p = Path {
            src: NodeId(0),
            dst: NodeId(3),
            arr_slice: Some(0),
            // 0-3 circuit is only in ts2, not ts1.
            hops: vec![PathHop { node: NodeId(0), port: PortId(0), dep_slice: Some(1) }],
        };
        // ts1 has a 0-2 circuit on port 0, so this actually lands on N2:
        assert_eq!(p.validate(&s), Err(PathError::WrongDestination { lands_on: NodeId(2) }));
    }

    #[test]
    fn discontinuity_rejected() {
        let s = fig2();
        let p = Path {
            src: NodeId(0),
            dst: NodeId(3),
            arr_slice: Some(0),
            hops: vec![
                PathHop { node: NodeId(0), port: PortId(0), dep_slice: Some(0) }, // lands N1
                PathHop { node: NodeId(2), port: PortId(0), dep_slice: Some(1) }, // but claims N2
            ],
        };
        assert_eq!(p.validate(&s), Err(PathError::Discontinuous { hop: 1 }));
    }

    #[test]
    fn mixed_wildcard_rejected() {
        let s = fig2();
        let p = Path {
            src: NodeId(0),
            dst: NodeId(1),
            arr_slice: Some(0),
            hops: vec![PathHop { node: NodeId(0), port: PortId(0), dep_slice: None }],
        };
        assert_eq!(p.validate(&s), Err(PathError::BadTiming { hop: 0 }));
    }

    #[test]
    fn empty_and_origin_checks() {
        let s = fig2();
        let p = Path { src: NodeId(0), dst: NodeId(3), arr_slice: Some(0), hops: vec![] };
        assert_eq!(p.validate(&s), Err(PathError::Empty));
        let p = Path {
            src: NodeId(1),
            dst: NodeId(3),
            arr_slice: Some(0),
            hops: vec![PathHop { node: NodeId(0), port: PortId(0), dep_slice: Some(0) }],
        };
        assert_eq!(p.validate(&s), Err(PathError::WrongOrigin));
    }

    #[test]
    fn wildcard_path_on_static_topology() {
        // Held circuits: a 2-node static link.
        let cs = vec![Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0))];
        let s = OpticalSchedule::build(SliceConfig::new(1_000, 1, 100), 2, 1, &cs)
            .expect("schedule deploys");
        let p = Path {
            src: NodeId(0),
            dst: NodeId(1),
            arr_slice: None,
            hops: vec![PathHop { node: NodeId(0), port: PortId(0), dep_slice: None }],
        };
        p.validate(&s).expect("path validates against its schedule");
        assert_eq!(p.slices_waited(&s), 0);
    }

    #[test]
    fn waits_wrap_the_cycle() {
        let s = fig2();
        // Arrive in ts2, depart in ts1: waits 2 slices (wrap).
        let p = Path {
            src: NodeId(0),
            dst: NodeId(2),
            arr_slice: Some(2),
            hops: vec![PathHop { node: NodeId(0), port: PortId(0), dep_slice: Some(1) }],
        };
        p.validate(&s).expect("path validates against its schedule");
        assert_eq!(p.slices_waited(&s), 2);
    }
}
