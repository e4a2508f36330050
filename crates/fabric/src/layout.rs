//! OCS structure — compiling node circuits into per-device cross-connects.
//!
//! The static configuration describes "OCSes count and structure" (§4.1),
//! and `deploy_topo()` "compiles the node-level circuits into OCS internal
//! connections based on the OCS structure specified in the static
//! configuration file. The optical controller verifies the feasibility of
//! the physical circuits and deploys them onto the OCSes" (§4.2).
//!
//! An [`OcsLayout`] records which OCS device each `(node, uplink)` fiber
//! plugs into; [`OcsLayout::compile`] turns a circuit list into per-device
//! [`CrossConnect`]s, rejecting circuits whose endpoints terminate on
//! different devices — the physical-feasibility check a single logical
//! schedule cannot perform.

use crate::circuit::Circuit;
use openoptics_proto::{NodeId, PortId};
use std::fmt;

/// Index of an OCS device in the layout.
pub(crate) type OcsId = u16;

/// Where one endpoint-node uplink terminates: `(device, device port)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Termination {
    /// The OCS device the fiber plugs into.
    pub ocs: OcsId,
    /// The port on that device.
    pub ocs_port: u32,
}

/// An internal connection on one OCS: port `a` is mirrored to port `b`
/// during `slice` (or always, for held circuits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrossConnect {
    /// Device carrying the connection.
    pub ocs: OcsId,
    /// First device port.
    pub a: u32,
    /// Second device port.
    pub b: u32,
    /// Cycle-relative slice, `None` = held.
    pub slice: Option<u32>,
}

/// Why a circuit list cannot be realized on this physical layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// A circuit references a `(node, port)` with no fiber in the layout.
    Unterminated {
        /// Offending node.
        node: NodeId,
        /// Offending uplink.
        port: PortId,
    },
    /// A circuit's two endpoints plug into different OCS devices — no
    /// waveguide can join them.
    SplitAcrossDevices {
        /// The infeasible circuit.
        circuit: Circuit,
        /// Device holding endpoint `a`.
        ocs_a: OcsId,
        /// Device holding endpoint `b`.
        ocs_b: OcsId,
    },
    /// A device has more fibers than ports.
    PortCountExceeded {
        /// Overloaded device.
        ocs: OcsId,
        /// Fibers assigned.
        fibers: u32,
        /// Ports available.
        ports: u32,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Unterminated { node, port } => {
                write!(f, "uplink {node}:{port} is not cabled to any OCS")
            }
            LayoutError::SplitAcrossDevices { circuit, ocs_a, ocs_b } => write!(
                f,
                "circuit {circuit:?} spans OCS {ocs_a} and OCS {ocs_b}; no waveguide joins them"
            ),
            LayoutError::PortCountExceeded { ocs, fibers, ports } => {
                write!(f, "OCS {ocs} is cabled with {fibers} fibers but has only {ports} ports")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// The physical cabling: per-device port counts and the termination of
/// every `(node, uplink)` fiber.
#[derive(Clone, Debug)]
pub struct OcsLayout {
    port_counts: Vec<u32>,
    /// `terminations[node * uplinks + port]`.
    terminations: Vec<Option<Termination>>,
    uplinks: u16,
}

impl OcsLayout {
    /// A layout with `devices` OCSes of `ports_per_device` ports, for
    /// `num_nodes` nodes with `uplinks` uplinks each, cabled by `cable`:
    /// `cable(node, uplink) -> device`. Device ports are assigned in cabling
    /// order.
    pub fn build(
        devices: u16,
        ports_per_device: u32,
        num_nodes: u32,
        uplinks: u16,
        mut cable: impl FnMut(NodeId, PortId) -> OcsId,
    ) -> Result<Self, LayoutError> {
        let mut next_port = vec![0u32; devices as usize];
        let mut terminations = Vec::with_capacity(num_nodes as usize * uplinks as usize);
        for n in 0..num_nodes {
            for p in 0..uplinks {
                let ocs = cable(NodeId(n), PortId(p));
                let port = next_port[ocs as usize];
                next_port[ocs as usize] += 1;
                if next_port[ocs as usize] > ports_per_device {
                    return Err(LayoutError::PortCountExceeded {
                        ocs,
                        fibers: next_port[ocs as usize],
                        ports: ports_per_device,
                    });
                }
                terminations.push(Some(Termination { ocs, ocs_port: port }));
            }
        }
        Ok(OcsLayout {
            port_counts: vec![ports_per_device; devices as usize],
            terminations,
            uplinks,
        })
    }

    /// A single big OCS carrying every fiber (the testbed's Polatis, §6).
    pub fn single(num_nodes: u32, uplinks: u16, ports: u32) -> Result<Self, LayoutError> {
        Self::build(1, ports, num_nodes, uplinks, |_, _| 0)
    }

    /// Where `(node, port)` terminates.
    pub(crate) fn termination(&self, node: NodeId, port: PortId) -> Option<Termination> {
        if port.index() >= self.uplinks as usize {
            return None; // an uplink the layout never cabled
        }
        self.terminations
            .get(node.index() * self.uplinks as usize + port.index())
            .copied()
            .flatten()
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.port_counts.len()
    }

    /// Compile node-level circuits into per-device cross-connects,
    /// verifying physical feasibility.
    pub fn compile(&self, circuits: &[Circuit]) -> Result<Vec<CrossConnect>, LayoutError> {
        let mut out = Vec::with_capacity(circuits.len());
        for &c in circuits {
            out.push(self.cross_connect(c)?);
        }
        Ok(out)
    }

    /// The cross-connect realizing `c`, or why none can: the check
    /// [`OcsLayout::compile`] makes of each circuit, in order.
    #[inline]
    pub fn cross_connect(&self, c: Circuit) -> Result<CrossConnect, LayoutError> {
        let ta = self
            .termination(c.a, c.a_port)
            .ok_or(LayoutError::Unterminated { node: c.a, port: c.a_port })?;
        let tb = self
            .termination(c.b, c.b_port)
            .ok_or(LayoutError::Unterminated { node: c.b, port: c.b_port })?;
        if ta.ocs != tb.ocs {
            return Err(LayoutError::SplitAcrossDevices {
                circuit: c,
                ocs_a: ta.ocs,
                ocs_b: tb.ocs,
            });
        }
        Ok(CrossConnect { ocs: ta.ocs, a: ta.ocs_port, b: tb.ocs_port, slice: c.slice })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's common structure: one OCS per uplink *rail* — every
    /// node's uplink `j` plugs into device `j` (RotorNet's parallel rotor
    /// switches, Opera's parallel expander switches).
    fn per_uplink_rails(num_nodes: u32, uplinks: u16, ports_per_device: u32) -> OcsLayout {
        OcsLayout::build(uplinks.max(1), ports_per_device, num_nodes, uplinks, |_, p| p.0).unwrap()
    }

    #[test]
    fn rail_layout_compiles_round_robin() {
        use openoptics_sim::SliceConfig;
        let _ = SliceConfig::new(1, 1, 0); // keep the sim dep honest
                                           // 8 nodes x 2 uplinks, one rotor per rail.
        let layout = per_uplink_rails(8, 2, 16);
        assert_eq!(layout.num_devices(), 2);
        // A same-rail circuit compiles.
        let c = Circuit::in_slice(NodeId(0), PortId(1), NodeId(3), PortId(1), 2);
        let xc = layout.compile(&[c]).unwrap();
        assert_eq!(xc.len(), 1);
        assert_eq!(xc[0].ocs, 1);
        assert_eq!(xc[0].slice, Some(2));
        // Ports are distinct on the device.
        assert_ne!(xc[0].a, xc[0].b);
    }

    #[test]
    fn cross_rail_circuit_rejected() {
        let layout = per_uplink_rails(8, 2, 16);
        // Port 0 of node 0 is on rail 0; port 1 of node 3 on rail 1.
        let c = Circuit::in_slice(NodeId(0), PortId(0), NodeId(3), PortId(1), 0);
        match layout.compile(&[c]) {
            Err(LayoutError::SplitAcrossDevices { ocs_a, ocs_b, .. }) => {
                assert_eq!((ocs_a, ocs_b), (0, 1));
            }
            other => panic!("expected split error, got {other:?}"),
        }
    }

    #[test]
    fn single_ocs_accepts_any_port_pairing() {
        let layout = OcsLayout::single(8, 2, 192).unwrap();
        assert_eq!(layout.num_devices(), 1);
        let c = Circuit::in_slice(NodeId(0), PortId(0), NodeId(3), PortId(1), 0);
        assert!(layout.compile(&[c]).is_ok());
    }

    #[test]
    fn port_exhaustion_detected() {
        // 8 nodes x 2 uplinks = 16 fibers into a 8-port device.
        let r = OcsLayout::single(8, 2, 8);
        assert!(matches!(r, Err(LayoutError::PortCountExceeded { .. })));
    }

    #[test]
    fn unterminated_uplink_detected() {
        let layout = per_uplink_rails(4, 1, 8);
        // Port 1 was never cabled (layout has 1 uplink).
        let c = Circuit::held(NodeId(0), PortId(1), NodeId(2), PortId(1));
        assert!(matches!(
            layout.compile(&[c]),
            Err(LayoutError::Unterminated { port: PortId(1), .. })
        ));
    }

    #[test]
    fn terminations_are_stable_and_unique_per_device() {
        let layout = per_uplink_rails(6, 3, 16);
        let mut seen = openoptics_sim::hash::FxHashSet::default();
        for n in 0..6 {
            for p in 0..3 {
                let t = layout.termination(NodeId(n), PortId(p)).unwrap();
                assert_eq!(t.ocs, p, "rail cabling");
                assert!(seen.insert((t.ocs, t.ocs_port)), "device port reused");
            }
        }
    }
}
