//! Case III (§6): choosing optical hardware through emulation.
//!
//! Sweeps the OCS device catalog — four technologies with slice durations
//! from 2 µs to 200 µs — running the memcached workload on RotorNet under
//! VLB and UCMP, and prints the FCT trade-off that guides device selection
//! (paper Fig. 10): VLB wants the fastest (most expensive) OCS, UCMP makes
//! a mid-range device sufficient.
//!
//! ```text
//! cargo run --release --example hardware_selection
//! ```

use openoptics::fabric::OCS_CATALOG;
use openoptics::prelude::*;

fn main() {
    println!(
        "{:<22} {:>8} {:>10} {:>9} {:>9} {:>9}",
        "OCS device", "slice", "rel. cost", "routing", "p50", "p99"
    );
    for dev in &OCS_CATALOG {
        for routing in ["VLB", "UCMP"] {
            let cfg = NetConfig::builder()
                .node_num(8)
                .uplink(2)
                .slice_ns(dev.min_slice_ns)
                .guard_ns(dev.guardband_ns())
                .build()
                .expect("catalog devices yield valid configs");
            let mut net = if routing == "VLB" {
                OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet())
            } else {
                OpenOpticsNet::deploy(
                    cfg,
                    Architecture::rotornet(),
                    Box::new(Ucmp::default()),
                    LookupMode::PerHop,
                    MultipathMode::PerPacket,
                )
            }
            .expect("rotornet deploys");
            let clients = (1..8).map(HostId).collect();
            net.add_memcached(MemcachedParams::paper(), HostId(0), clients, SimTime::from_ms(20));
            net.run_for(SimTime::from_ms(28));
            let v = net.fct().mice_fcts();
            let p = |q: f64| {
                FctStats::percentile(&v, q)
                    .map(|x| format!("{:.0}us", x as f64 / 1e3))
                    .unwrap_or_else(|| "-".into())
            };
            println!(
                "{:<22} {:>6}us {:>10.1} {:>9} {:>9} {:>9}",
                dev.name,
                dev.min_slice_ns / 1_000,
                dev.relative_cost,
                routing,
                p(50.0),
                p(99.0)
            );
        }
    }
    println!("\nUnder VLB, tail FCT scales with the slice duration — buy the fast OCS.");
    println!("Under UCMP, a 100us-class device already sits at the sweet spot (Fig. 10).");
}
