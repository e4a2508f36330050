//! The one control message the data plane sends (§5.2).
//!
//! The paper's backend has four infrastructure services. Only push-back
//! travels as a message here; the others are modelled where they act:
//! circuit notification is the engine's `Timer::NotifyHosts`, traffic
//! collection is `take_traffic_matrix` / `host_pending_demand`, and buffer
//! offloading is the switch's `OffloadBook`.

use crate::ids::NodeId;
use openoptics_sim::time::SliceIndex;

/// "Calendar queue for `(dst, slice)` is full — hold traffic to `dst` in
/// `slice` until cycle `cycle` completes." Broadcast by a switch to the
/// sender's hosts when a packet finds its calendar queue full (last-resort
/// flow control).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushBack {
    /// Destination endpoint whose queue overflowed.
    pub dst: NodeId,
    /// Cycle-relative slice index of the full queue.
    pub slice: SliceIndex,
    /// Absolute cycle count after which sending may resume.
    pub cycle: u64,
}
