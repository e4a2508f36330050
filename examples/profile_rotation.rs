//! Profile a rotation-heavy simulation with lifecycle spans.
//!
//! Builds a small fig. 8-style RotorNet testbed with span recording on
//! (every flow sampled), runs a short memcached-like incast, and prints:
//!
//! * the sim-time profiler table (where simulated time is spent per engine
//!   phase — rotations, calendar drains, EQO ticks),
//! * the top 5 lifecycle stages by total sim-time across all sampled
//!   packets, and
//! * the slowest packet's full lifecycle tree — host tx queue, calendar
//!   wait, guardband hold, serialization, propagation, rx, delivery.
//!
//! ```text
//! cargo run --release --example profile_rotation
//! ```
//!
//! For interactive exploration, dump the same spans as Chrome trace-event
//! JSON (`net.export_spans_chrome_trace()`) and load the file in Perfetto
//! or `chrome://tracing`.

use openoptics::obs::{SpanTable, Stage};
use openoptics::prelude::*;

fn main() {
    // An 8-ToR RotorNet with 100 us slices; span_sample_every = 1 records
    // every flow's lifecycle (production runs sample sparsely instead).
    let mut cfg = NetConfig::builder()
        .node_num(8)
        .uplink(1)
        .slice_ns(100_000)
        .guard_ns(1_000)
        .build()
        .expect("valid config");
    cfg.span_sample_every = 1;

    let mut net = OpenOpticsNet::new(cfg.clone());
    let (circuits, num_slices) = round_robin(cfg.node_num, cfg.uplink);
    net.deploy_topo(&circuits, num_slices).expect("round robin is feasible");
    net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
        .expect("VLB pairs with a rotating schedule");

    // Incast toward host 0: seven clients send a small burst each, the
    // server answers — enough rotations and calendar waits to profile.
    for i in 1..8u32 {
        net.add_flow(
            SimTime::from_ns(200 + 130 * i as u64),
            HostId(i),
            HostId(0),
            30_000,
            TransportKind::Tcp(Default::default()),
        );
        net.add_flow(
            SimTime::from_ns(90_000 + 170 * i as u64),
            HostId(0),
            HostId(i),
            3_000,
            TransportKind::Tcp(Default::default()),
        );
    }
    net.run_for(SimTime::from_ms(10));

    // 1. Sim-time profiler: events and simulated time per engine phase.
    println!("engine phase profile (sim time):");
    println!("{}", net.profiler_report().expect("telemetry on by default"));

    // 2. Stage totals across every sampled packet, top 5 by sim-time.
    let table = net.span_table().expect("span recording is on");
    let mut totals: Vec<(Stage, u64, usize)> = Vec::new();
    for (_, n) in table.spans() {
        if matches!(n.stage, Stage::Flow | Stage::Packet) {
            continue;
        }
        match totals.iter_mut().find(|(s, _, _)| *s == n.stage) {
            Some(t) => {
                t.1 += n.duration_ns();
                t.2 += 1;
            }
            None => totals.push((n.stage, n.duration_ns(), 1)),
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.name().cmp(b.0.name())));
    println!("top stages by total sim-time:");
    for (stage, total_ns, count) in totals.iter().take(5) {
        println!("  {:<16} {:>10.2} us across {count} spans", stage.name(), *total_ns as f64 / 1e3);
    }

    // 3. The slowest packet's lifecycle, as a causal tree.
    let slowest = table
        .spans()
        .filter(|(_, n)| n.stage == Stage::Packet)
        .max_by_key(|(id, n)| (n.duration_ns(), u64::MAX - id));
    if let Some((id, p)) = slowest {
        println!(
            "\nslowest packet: flow {} packet {} — {:.2} us end to end",
            p.flow,
            p.packet,
            p.duration_ns() as f64 / 1e3
        );
        print_tree(&table, id, 1);
    }
}

/// Print one span and its children, indented by tree depth.
fn print_tree(table: &SpanTable, id: u64, depth: usize) {
    let Some(n) = table.span(id) else { return };
    println!(
        "{:indent$}{} [{} .. {}] {:.2} us",
        "",
        n.stage.name(),
        n.begin.as_ns(),
        n.end.as_ns(),
        n.duration_ns() as f64 / 1e3,
        indent = depth * 2
    );
    for (child, _) in table.spans().filter(|(_, c)| c.parent == id) {
        print_tree(table, child, depth + 1);
    }
}
