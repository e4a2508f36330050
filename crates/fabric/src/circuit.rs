//! Optical circuits — the primitive of the topology API.
//!
//! `connect(Circuit<N1,port1,N2,port2,ts>)` is the primitive topology call
//! of Table 1: it asks the optical controller to connect `port1` of node
//! `N1` to `port2` of node `N2` during time slice `ts`. A `ts` of `None`
//! means the circuit is held across all slices — the static-configuration
//! case TA architectures use.

use openoptics_proto::{NodeId, PortId};
use openoptics_sim::time::SliceIndex;
use std::fmt;

/// A bidirectional optical circuit between two endpoint-node ports, valid
/// in one time slice (or all slices when `slice` is `None`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Circuit {
    /// First endpoint node.
    pub a: NodeId,
    /// Optical uplink port on `a`.
    pub a_port: PortId,
    /// Second endpoint node.
    pub b: NodeId,
    /// Optical uplink port on `b`.
    pub b_port: PortId,
    /// Cycle-relative time slice this circuit exists in; `None` = every
    /// slice (a held, static circuit).
    pub slice: Option<SliceIndex>,
}

impl Circuit {
    /// Circuit valid in a single slice.
    pub fn in_slice(
        a: NodeId,
        a_port: PortId,
        b: NodeId,
        b_port: PortId,
        slice: SliceIndex,
    ) -> Self {
        Circuit { a, a_port, b, b_port, slice: Some(slice) }
    }

    /// Circuit held across the whole schedule (TA / static use).
    pub fn held(a: NodeId, a_port: PortId, b: NodeId, b_port: PortId) -> Self {
        Circuit { a, a_port, b, b_port, slice: None }
    }

    /// Whether the circuit is self-connecting (always a configuration error).
    pub fn is_loopback(&self) -> bool {
        self.a == self.b
    }

    /// The peer of `(node, port)` over this circuit, if that tuple is one of
    /// its endpoints.
    pub fn peer_of(&self, node: NodeId, port: PortId) -> Option<(NodeId, PortId)> {
        if self.a == node && self.a_port == port {
            Some((self.b, self.b_port))
        } else if self.b == node && self.b_port == port {
            Some((self.a, self.a_port))
        } else {
            None
        }
    }

    /// Whether the circuit connects nodes `x` and `y` (in either order).
    pub fn connects(&self, x: NodeId, y: NodeId) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }

    /// Canonical form with endpoints ordered by node id, for deduplication.
    pub fn canonical(&self) -> Circuit {
        if self.a.0 <= self.b.0 {
            *self
        } else {
            Circuit {
                a: self.b,
                a_port: self.b_port,
                b: self.a,
                b_port: self.a_port,
                slice: self.slice,
            }
        }
    }
}

/// Where a schedule generator writes its cycle: the number of slices
/// first, then every circuit in order. An error from the sink stops the
/// generator, which returns it.
pub trait CircuitSink {
    /// Why the sink refused what it was handed.
    type Error;
    /// The cycle has `num_slices` slices; called once, before any circuit.
    fn cycle(&mut self, num_slices: u32) -> Result<(), Self::Error>;
    /// The next circuit of the cycle.
    fn circuit(&mut self, c: Circuit) -> Result<(), Self::Error>;
}

/// A circuit list and its slice count: what the list-returning generators
/// collect.
impl CircuitSink for (Vec<Circuit>, u32) {
    type Error = std::convert::Infallible;

    #[inline]
    fn cycle(&mut self, num_slices: u32) -> Result<(), Self::Error> {
        self.1 = num_slices;
        Ok(())
    }

    #[inline]
    fn circuit(&mut self, c: Circuit) -> Result<(), Self::Error> {
        self.0.push(c);
        Ok(())
    }
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.slice {
            Some(ts) => {
                write!(f, "{}:{}<->{}:{}@ts{}", self.a, self.a_port, self.b, self.b_port, ts)
            }
            None => write!(f, "{}:{}<->{}:{}@*", self.a, self.a_port, self.b, self.b_port),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_lookup_both_directions() {
        let c = Circuit::in_slice(NodeId(0), PortId(1), NodeId(3), PortId(0), 2);
        assert_eq!(c.peer_of(NodeId(0), PortId(1)), Some((NodeId(3), PortId(0))));
        assert_eq!(c.peer_of(NodeId(3), PortId(0)), Some((NodeId(0), PortId(1))));
        assert_eq!(c.peer_of(NodeId(0), PortId(0)), None);
        assert_eq!(c.peer_of(NodeId(5), PortId(1)), None);
    }

    #[test]
    fn connects_is_symmetric() {
        let c = Circuit::held(NodeId(1), PortId(0), NodeId(2), PortId(0));
        assert!(c.connects(NodeId(1), NodeId(2)));
        assert!(c.connects(NodeId(2), NodeId(1)));
        assert!(!c.connects(NodeId(1), NodeId(3)));
    }

    #[test]
    fn canonicalization_orders_endpoints() {
        let c = Circuit::in_slice(NodeId(5), PortId(2), NodeId(1), PortId(3), 0);
        let k = c.canonical();
        assert_eq!(k.a, NodeId(1));
        assert_eq!(k.a_port, PortId(3));
        assert_eq!(k.b, NodeId(5));
        assert_eq!(k.b_port, PortId(2));
        assert_eq!(k.canonical(), k);
        assert_eq!(c.canonical(), k);
    }

    #[test]
    fn loopback_detection() {
        assert!(Circuit::held(NodeId(1), PortId(0), NodeId(1), PortId(1)).is_loopback());
        assert!(!Circuit::held(NodeId(1), PortId(0), NodeId(2), PortId(1)).is_loopback());
    }

    #[test]
    fn debug_format() {
        let c = Circuit::in_slice(NodeId(0), PortId(1), NodeId(3), PortId(0), 2);
        assert_eq!(format!("{c:?}"), "N0:p1<->N3:p0@ts2");
        let h = Circuit::held(NodeId(0), PortId(1), NodeId(3), PortId(0));
        assert_eq!(format!("{h:?}"), "N0:p1<->N3:p0@*");
    }
}
