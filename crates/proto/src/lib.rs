//! # openoptics-proto
//!
//! Packet and control-message formats shared by every OpenOptics component.
//!
//! Packets are modeled structurally (a [`Packet`] struct rather than raw
//! frames — the simulation never parses payload bytes), and the one control
//! message the data plane sends, [`PushBack`], is a plain value handed to
//! hosts by the engine. There is no wire codec: nothing in the simulation
//! serializes a message.

mod ids;
mod message;
mod packet;

pub use ids::{FlowId, HostId, NodeId, PortId};
pub use message::PushBack;
pub use packet::{
    Packet, PacketKind, PacketStore, PktRef, SourceHop, SourceRoute, HEADER_BYTES, MTU,
};
