//! Quiescence: once every flow is done, a network holds no packet and its
//! ToRs transmit nothing.

use openoptics::core::OpenOpticsNet;
use openoptics::prelude::{NodeId, SimTime};

/// What a network held once its flows were done.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Drained {
    /// Flows still outstanding when the run gave up (0: every flow
    /// completed).
    pub(crate) outstanding: usize,
    /// Packets still live `k` cycles after the last flow completed.
    pub(crate) live: usize,
    /// Packets the ToRs transmitted in those `k` cycles.
    pub(crate) tor_tx: u64,
}

/// A drained network: every flow completed, nothing live, nothing sent.
pub(crate) const QUIET: Drained = Drained { outstanding: 0, live: 0, tor_tx: 0 };

/// Run `net` a cycle at a time until it is past `last_start`, when its
/// workload starts its last flow, and no flow is outstanding (giving up
/// at `give_up`); then `k` cycles more. Returns what it held then.
pub(crate) fn drain(
    net: &mut OpenOpticsNet,
    last_start: SimTime,
    give_up: SimTime,
    k: u64,
) -> Drained {
    let slices = net.engine.schedule().slice_config();
    let cycle_ns = slices.slice_ns * u64::from(slices.num_slices);
    while (net.now() <= last_start || net.fct().outstanding() > 0) && net.now() < give_up {
        net.run_for(SimTime::from_ns(cycle_ns));
    }
    let outstanding = net.fct().outstanding();
    let tor_tx = |net: &OpenOpticsNet| -> u64 {
        let nodes = 0..net.engine.cfg.node_num;
        nodes.map(|n| net.engine.tor(NodeId(n)).counters.tx_packets).sum()
    };
    let before = tor_tx(net);
    net.run_for(SimTime::from_ns(k * cycle_ns));
    Drained { outstanding, live: net.engine.live_packets(), tor_tx: tor_tx(net) - before }
}
