//! Quickstart: the paper's Fig. 5(a) RotorNet program, in Rust.
//!
//! Builds an 8-node RotorNet (1-D round-robin schedule, VLB routing with
//! per-packet spraying), runs a single 1 MB flow across it, and prints the
//! flow completion time and fabric statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use openoptics::prelude::*;

fn main() {
    // The static configuration — the paper's JSON file. Every field has a
    // default; JSON strings work too: `NetConfig::from_json(r#"{...}"#)`.
    let cfg = NetConfig::from_json(
        r#"{
            "node_num": 8,
            "uplink": 1,
            "hosts_per_node": 1,
            "slice_ns": 100000,
            "uplink_gbps": 100
        }"#,
    )
    .expect("valid config");

    // net = OpenOptics.deploy(config, arch=rotornet, routing=vlb,
    //                         LOOKUP="hop", MULTIPATH="packet")
    // — the unified composition entry point: the architecture descriptor
    // carries the round-robin schedule generator and the dispatch/pause
    // defaults; any compatible routing scheme slots in (incompatible ones
    // are rejected with a typed error).
    let mut net = OpenOpticsNet::deploy(
        cfg.clone(),
        Architecture::rotornet(),
        Box::new(Vlb),
        LookupMode::PerHop,
        MultipathMode::PerPacket,
    )
    .expect("rotornet x VLB is a compatible pairing");
    let num_slices = net.engine.schedule().slice_config().num_slices;

    // Run a 1 MB flow from host 0 (under ToR 0) to host 5 (under ToR 5).
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 1_000_000, TransportKind::Paced);
    net.run_for(SimTime::from_ms(50));

    let rec = net.fct().completed().first().expect("flow completed");
    println!(
        "RotorNet quickstart ({} nodes, {} slices of {} us)",
        cfg.node_num,
        num_slices,
        cfg.slice_ns / 1000
    );
    println!("  flow: {} bytes in {:.1} us", rec.bytes, rec.fct_ns() as f64 / 1e3);
    let (delivered, lost) = net.engine.fabric_stats();
    println!("  optical fabric: {delivered} packets delivered, {lost} lost");
    println!("  ToR0 port0 transmitted {} bytes", net.bw_usage(NodeId(0), PortId(0)));

    // Deterministic telemetry: every counter the run produced, stamped in
    // sim time only (`net.export_telemetry("json")` / `"csv"` dumps it all).
    let snap = net.telemetry_snapshot();
    println!(
        "  telemetry: {} rotations at ToR0, {} guardband holds, {} trace events",
        snap.counter("tor.rotations{node=N0}"),
        snap.counter("engine.guardband_holds"),
        snap.trace_len,
    );
}
