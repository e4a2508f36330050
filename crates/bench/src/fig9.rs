//! Fig. 9 — Case II: transport-layer investigation.
//!
//! (a) Throughput of long-lasting iperf TCP flows on Clos, RotorNet with
//! direct-circuit routing and flow pausing, RotorNet with VLB, and hybrid
//! RotorNet (100 G optical + 10 G electrical), each with dupack threshold 3
//! and 5. (b) Packet-reordering events observed by the receiver.
//!
//! Shape targets: Clos is the CPU-bound ceiling (~40 Gbps); direct-circuit
//! routing lands near the ceiling × circuit duty (≈half); VLB collapses
//! under reordering-triggered spurious fast retransmits; hybrid lags
//! direct at dupack 3 and recovers toward its expected share at dupack 5,
//! while VLB improves but stays low.

use crate::par;
use crate::util::{self, Table};
use openoptics_core::{Architecture, DispatchPolicy, OpenOpticsNet, PauseMode, TransportKind};
use openoptics_host::TcpConfig;
use openoptics_proto::HostId;
use openoptics_routing::algos::Direct;
use openoptics_routing::{LookupMode, MultipathMode};
use openoptics_sim::SimTime;

/// One measured configuration.
#[derive(Clone, Debug)]
pub(crate) struct Fig9Row {
    /// Network configuration name.
    pub setup: &'static str,
    /// Duplicate-ACK threshold used.
    pub dupack: u32,
    /// Goodput, Gbps.
    pub goodput_gbps: f64,
    /// Reordering events at the receiver.
    pub reorder_events: u64,
    /// Fast retransmits at the sender.
    pub fast_retransmits: u64,
}

/// The iperf testbed: 8 ToRs, 4 uplinks (so a direct circuit to a given
/// destination is up ~4/7 of the time — "available 50% of the times"), and
/// a 40 Gbps host link standing in for the testbed's CPU bound.
fn iperf_cfg() -> openoptics_core::NetConfig {
    let mut cfg = util::testbed(100_000, 4);
    cfg.host_link_gbps = 40;
    cfg
}

fn tcp(dupack: u32) -> TcpConfig {
    TcpConfig { dupack_threshold: dupack, ..Default::default() }
}

/// Run one configuration and measure goodput over `ms` milliseconds.
fn measure(
    setup: &'static str,
    net: openoptics_core::OpenOpticsNet,
    dupack: u32,
    ms: u64,
) -> Fig9Row {
    measure_with(setup, net, TransportKind::Tcp(tcp(dupack)), dupack, ms)
}

fn measure_with(
    setup: &'static str,
    mut net: openoptics_core::OpenOpticsNet,
    transport: TransportKind,
    dupack: u32,
    ms: u64,
) -> Fig9Row {
    net.add_flow(
        SimTime::from_ns(100),
        HostId(0),
        HostId(4),
        u64::MAX / 4, // effectively unbounded
        transport,
    );
    net.run_for(SimTime::from_ms(ms));
    par::note_net(&net);
    // The flow id is 1 (first flow started).
    let delivered = net.engine.flow_delivered(1);
    let goodput = delivered as f64 * 8.0 / (ms as f64 / 1e3) / 1e9;
    let (frx, _) = net.engine.flow_tcp_stats(1);
    Fig9Row {
        setup,
        dupack,
        goodput_gbps: goodput,
        reorder_events: net.engine.flow_reorder_events(1),
        fast_retransmits: frx,
    }
}

/// The five Fig. 9 network setups, in the paper's presentation order.
const SETUPS: usize = 5;

/// Run the full Fig. 9 sweep; each `(dupack, setup)` cell is an
/// independent parallel point.
pub(crate) fn run(ms: u64) -> Vec<Fig9Row> {
    // Direct circuits beside a 10 Gbps electrical fabric.
    let hybrid = || {
        OpenOpticsNet::deploy(
            openoptics_core::NetConfig { electrical_gbps: 10, ..iperf_cfg() },
            Architecture::rotornet().with_dispatch(DispatchPolicy::HybridDirect),
            Box::new(Direct),
            LookupMode::PerHop,
            MultipathMode::None,
        )
        .expect("rotornet-hybrid deploys")
    };
    par::par_map(2 * SETUPS, |i| {
        let dupack = [3u32, 5][i / SETUPS];
        match i % SETUPS {
            0 => measure(
                "clos",
                OpenOpticsNet::deploy_preset(iperf_cfg(), Architecture::clos())
                    .expect("clos deploys"),
                dupack,
                ms,
            ),
            1 => {
                let direct = OpenOpticsNet::deploy(
                    iperf_cfg(),
                    Architecture::rotornet().with_pause(PauseMode::DirectCircuit),
                    Box::new(Direct),
                    LookupMode::PerHop,
                    MultipathMode::None,
                )
                .expect("rotornet-direct deploys");
                measure("rotornet-direct", direct, dupack, ms)
            }
            2 => {
                let vlb = OpenOpticsNet::deploy_preset(iperf_cfg(), Architecture::rotornet())
                    .expect("rotornet deploys");
                measure("rotornet-vlb", vlb, dupack, ms)
            }
            3 => measure("rotornet-hybrid", hybrid(), dupack, ms),
            // The "newly designed protocol" the framework lets us evaluate:
            // TDTCP's per-topology state on the same hybrid network.
            _ => {
                let td = TransportKind::TdTcp(tcp(dupack));
                measure_with("rotornet-hybrid-tdtcp", hybrid(), td, dupack, ms)
            }
        }
    })
}

/// Render as a table.
pub(crate) fn render(rows: &[Fig9Row]) -> String {
    let mut t = Table::new(&["setup", "dupack", "goodput", "reorder events", "fast rtx"]);
    for r in rows {
        t.row(vec![
            r.setup.to_string(),
            r.dupack.to_string(),
            format!("{:.1} Gbps", r.goodput_gbps),
            r.reorder_events.to_string(),
            r.fast_retransmits.to_string(),
        ]);
    }
    t.render()
}
