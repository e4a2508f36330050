//! Integration tests for the telemetry subsystem: deterministic exports,
//! trace capture, periodic snapshots, and the disabled mode's error surface.

use openoptics::core::{Error, NetConfig, OpenOpticsNet, TransportKind};
use openoptics::proto::HostId;
use openoptics::routing::algos::Vlb;
use openoptics::routing::{LookupMode, MultipathMode};
use openoptics::sim::SimTime;
use openoptics::topo::round_robin;

fn cfg() -> NetConfig {
    NetConfig::builder()
        .node_num(4)
        .uplink(1)
        .slice_ns(20_000)
        .guard_ns(200)
        .build()
        .expect("valid test config")
}

/// Build, load, and run one network; return it at t = 5 ms.
fn run_one(cfg: NetConfig) -> OpenOpticsNet {
    let mut net = OpenOpticsNet::new(cfg.clone());
    let (circuits, slices) = round_robin(cfg.node_num, cfg.uplink);
    net.deploy_topo(&circuits, slices).expect("a round robin deploys");
    net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
        .expect("routing pairs with this schedule");
    for i in 0..4u32 {
        net.add_flow(
            SimTime::from_ns(50 + 37 * i as u64),
            HostId(i),
            HostId((i + 2) % 4),
            60_000,
            TransportKind::Tcp(Default::default()),
        );
    }
    net.run_for(SimTime::from_ms(5));
    net
}

#[test]
fn exports_are_deterministic_across_runs() {
    // Same config, same workload, two independent processes' worth of state:
    // the JSON and CSV exports must be byte-identical (sim-time stamps only,
    // deterministic key order, integer values).
    let a = run_one(cfg());
    let b = run_one(cfg());
    assert_eq!(
        a.export_telemetry("json").unwrap(),
        b.export_telemetry("json").unwrap(),
        "JSON export differs between identical runs"
    );
    assert_eq!(
        a.export_telemetry("csv").unwrap(),
        b.export_telemetry("csv").unwrap(),
        "CSV export differs between identical runs"
    );
    assert_eq!(
        a.export_trace().unwrap(),
        b.export_trace().unwrap(),
        "trace export differs between identical runs"
    );
}

#[test]
fn snapshot_reports_real_traffic() {
    let net = run_one(cfg());
    let snap = net.telemetry_snapshot();
    assert_eq!(snap.at, SimTime::from_ms(5), "snapshot stamped in sim time");
    assert!(snap.counter("engine.delivered_packets") > 0, "packets delivered");
    assert!(snap.counter("fct.completed_flows") > 0, "flows completed");
    assert!(snap.counter("tor.enqueued{node=N0}") > 0, "per-node counters present");
    // Folding labels sums the per-node series.
    let totals = snap.counter_totals();
    let folded = totals.iter().find(|(n, _)| n == "tor.enqueued").map(|(_, v)| *v).unwrap_or(0);
    let by_hand: u64 = (0..4).map(|n| snap.counter(&format!("tor.enqueued{{node=N{n}}}"))).sum();
    assert_eq!(folded, by_hand, "counter_totals folds the node label");
}

#[test]
fn switch_mechanics_reach_the_snapshot() {
    // A switch counts rotations and slice misses and keeps its EQO-error
    // histogram in plain fields; the mirror pass names them per node.
    let net = run_one(cfg());
    let snap = net.telemetry_snapshot();
    for n in 0..4u32 {
        let tor = net.engine.tor(openoptics::proto::NodeId(n));
        let rotations = format!("tor.rotations{{node=N{n}}}");
        assert!(tor.counters.rotations > 0, "N{n} rotated");
        assert_eq!(snap.counter(&rotations), tor.counters.rotations, "{rotations}");
        let slice_miss = format!("tor.slice_miss{{node=N{n}}}");
        assert!(snap.counters.iter().any(|(name, _)| **name == *slice_miss), "{slice_miss}");
        assert_eq!(snap.counter(&slice_miss), tor.counters.slice_miss, "{slice_miss}");
        let eqo = format!("tor.eqo_abs_err_bytes{{node=N{n}}}");
        let series = snap.histograms.iter().find(|(name, _)| **name == *eqo);
        let held = tor.eqo_abs_err().expect("telemetry keeps the EQO histogram").summary();
        assert!(held.count > 0, "N{n} admitted packets");
        assert_eq!(series.map(|(_, s)| s.count), Some(held.count), "{eqo}");
    }
}

#[test]
fn trace_captures_rotation_events() {
    let net = run_one(cfg());
    let trace = net.export_trace().unwrap();
    assert!(!trace.is_empty(), "trace stream populated");
    // 4 nodes rotating every 20 us for 5 ms: rotations dominate the stream.
    assert!(trace.contains("slice_rotate"), "rotation events traced:\n{trace}");
    // Every line is stamped in sim time (integer ns field).
    for line in trace.lines().take(5) {
        assert!(line.contains("\"t_ns\":"), "line missing sim-time stamp: {line}");
    }
}

#[test]
fn disabled_telemetry_refuses_export() {
    let mut c = cfg();
    c.telemetry = false;
    let net = run_one(c);
    assert!(!net.telemetry().is_enabled());
    assert!(matches!(
        net.export_telemetry("json"),
        Err(Error::Telemetry(openoptics::telemetry::TelemetryError::Disabled))
    ));
    assert!(matches!(net.export_trace(), Err(Error::Telemetry(_))));
    // Snapshots still work structurally — they're just empty.
    let snap = net.telemetry_snapshot();
    assert_eq!(snap.counter("engine.delivered_packets"), 0);
    assert_eq!(snap.trace_len, 0);
}

#[test]
fn unknown_export_format_is_an_error() {
    let net = run_one(cfg());
    match net.export_telemetry("xml") {
        Err(Error::Telemetry(openoptics::telemetry::TelemetryError::UnknownFormat(f))) => {
            assert_eq!(f, "xml")
        }
        other => panic!("expected UnknownFormat, got {other:?}"),
    }
}

#[test]
fn run_with_snapshots_yields_one_per_interval() {
    let mut net = OpenOpticsNet::new(cfg());
    let (circuits, slices) = round_robin(4, 1);
    net.deploy_topo(&circuits, slices).unwrap();
    net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket)
        .expect("routing pairs with this schedule");
    net.add_flow(
        SimTime::from_ns(50),
        HostId(0),
        HostId(2),
        40_000,
        TransportKind::Tcp(Default::default()),
    );
    let snaps = net.run_with_snapshots(SimTime::from_ms(4), SimTime::from_ms(1));
    assert_eq!(snaps.len(), 4, "one snapshot per elapsed interval");
    for (i, s) in snaps.iter().enumerate() {
        assert_eq!(s.at, SimTime::from_ms((i + 1) as u64), "stamps advance by the interval");
    }
    // Counters are monotone across snapshots.
    let deliveries: Vec<u64> =
        snaps.iter().map(|s| s.counter("engine.delivered_packets")).collect();
    assert!(deliveries.windows(2).all(|w| w[0] <= w[1]), "counters are monotone: {deliveries:?}");
    assert!(*deliveries.last().unwrap() > 0);
}

#[test]
fn trace_capacity_bounds_the_stream() {
    // Slice rotations alone outrun the buffer within 30 ms.
    let mut net = run_one(cfg());
    net.run_for(SimTime::from_ms(25));
    let snap = net.telemetry_snapshot();
    let kept = openoptics::core::TRACE_CAPACITY;
    assert_eq!(snap.trace_len, kept as u64, "buffer keeps exactly the first TRACE_CAPACITY");
    assert!(snap.trace_dropped > 0, "overflow is counted, not silently lost");
    assert_eq!(net.export_trace().unwrap().lines().count(), kept);
}

#[test]
fn registry_handles_survive_direct_use() {
    // The registry is part of the public API: user code can hang its own
    // instruments off the same stream.
    let net = run_one(cfg());
    let reg = net.telemetry();
    let c = reg.counter("user.custom_metric", openoptics::telemetry::Labels::None);
    c.add(41);
    c.inc();
    let snap = net.telemetry_snapshot();
    assert_eq!(snap.counter("user.custom_metric"), 42);
    // The trace stream is there to read; the engine is its one writer.
    let tr = reg.trace();
    assert!(tr.is_on() && !tr.is_empty());
    assert_eq!(tr.len() as u64, snap.trace_len);
}
