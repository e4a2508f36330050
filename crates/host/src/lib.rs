//! # openoptics-host
//!
//! The host side of the OpenOptics backend (§5.2). The paper implements it
//! with the libvma user-space stack on Mellanox NICs; this crate models the
//! same structures:
//!
//! * `vma` — segment-queue sockets with per-destination pausing: the
//!   flow-pausing service (elephants held until their circuit) and the
//!   push-back blocks, with natural application back-pressure when the
//!   segment queue fills;
//! * `aging` — PIAS-style flow aging to spot elephants without prior
//!   flow-size knowledge;
//! * [`tcp`] — an event-driven TCP sender/receiver pair with configurable
//!   dupack threshold, enough to reproduce the reordering pathology of
//!   Fig. 9; built with two topologies the sender keeps TDTCP-style
//!   per-topology congestion state, the kind of "newly designed protocol"
//!   the framework exists to let researchers evaluate (§6 Case II);
//! * `udp` — the UDP RTT probe train of Fig. 13;
//! * [`apps`] — workload state machines: Memcached/Memslap SETs, Gloo ring
//!   allreduce, and iperf bulk flows (§6).

mod aging;
pub mod apps;
pub mod tcp;
mod udp;
mod vma;

pub use aging::FlowAging;
pub use tcp::{TcpConfig, TcpReceiver, TcpSender};
pub use udp::ProbeStats;
pub use vma::{Segment, VmaStack};
