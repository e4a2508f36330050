//! Integration tests for the observability subsystem: causal lifecycle
//! spans recorded by a real simulation, deterministic Chrome-trace /
//! report exports at any worker count, the disabled-mode error surface,
//! and the stage-tiling invariant (a delivered packet's stage durations
//! sum to its end-to-end latency).

use openoptics::core::{Error, NetConfig, OpenOpticsNet, TransportKind};
use openoptics::obs::{SpanTable, Spans, Stage};
use openoptics::proto::HostId;
use openoptics::routing::algos::Vlb;
use openoptics::routing::{LookupMode, MultipathMode};
use openoptics::sim::time::SimTime;
use openoptics::topo::round_robin;
use openoptics_bench as bench;
use proptest::prelude::*;

fn cfg(span_sample_every: u64) -> NetConfig {
    let mut c = NetConfig::builder()
        .node_num(4)
        .uplink(1)
        .slice_ns(20_000)
        .guard_ns(200)
        .build()
        .expect("valid test config");
    c.span_sample_every = span_sample_every;
    c
}

/// Build, load, and run one network with span recording; return it at
/// t = 5 ms.
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

/// The sum of packet span `id`'s stage durations (annotations left out)
/// and the packet span's own duration: equal for a delivered packet.
fn stage_sum_vs_span(table: &SpanTable, id: u64) -> (u64, u64) {
    let stages = table.spans().filter(|(_, r)| r.parent == id);
    let tiles = stages
        .filter(|(_, r)| !matches!(r.stage, Stage::Retransmit | Stage::FaultDrop | Stage::Drop));
    let sum = tiles.map(|(_, r)| r.duration_ns()).sum();
    (sum, table.span(id).map_or(0, |r| r.duration_ns()))
}

#[test]
fn recorded_stream_is_well_formed() {
    // A real simulation's settled span table is a forest: parents recorded
    // before children, every parent covering its children.
    let net = run_one(cfg(1));
    let table = net.span_table().expect("span recording is on and well-formed");
    assert!(table.spans().next().is_some(), "sampling every flow must record spans");
    // Roots are flow spans; every packet span sits under a flow.
    for (id, r) in table.spans() {
        if r.parent == 0 {
            assert_eq!(r.stage, Stage::Flow, "root span {id} is not a flow: {:?}", r.stage);
            continue;
        }
        let parent = table.span(r.parent).expect("a parent is an earlier span");
        assert!(r.parent < id);
        if r.stage == Stage::Packet {
            assert_eq!(parent.stage, Stage::Flow);
        }
        assert!(r.begin >= parent.begin && r.end <= parent.end);
    }
}

#[test]
fn exports_are_deterministic_and_valid() {
    // Two identical runs export byte-identical Chrome traces and reports,
    // and the trace is structurally sound JSON (integer timestamps only —
    // no floats to drift across platforms).
    let a = run_one(cfg(2));
    let b = run_one(cfg(2));
    let trace = a.export_spans_chrome_trace().unwrap();
    assert_eq!(trace, b.export_spans_chrome_trace().unwrap());
    assert_eq!(a.export_span_report().unwrap(), b.export_span_report().unwrap());
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.ends_with("],\"displayTimeUnit\":\"ns\"}"));
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(!trace.contains('.'), "trace timestamps must be integers");
    // The profiler report rides the same determinism contract.
    assert_eq!(a.profiler_report().unwrap(), b.profiler_report().unwrap());
}

#[test]
fn chrome_trace_is_byte_identical_across_worker_counts() {
    // The fig8a artifact path: the same span capture through the parallel
    // experiment runner at --jobs 1 and --jobs 4 must produce identical
    // bytes (spans are stamped in sim time only and collected in index
    // order, never in completion order).
    bench::par::set_jobs(1);
    let (_, serial) = bench::fig8::run_mice_with_spans(2, 4);
    bench::par::set_jobs(4);
    let (_, parallel) = bench::fig8::run_mice_with_spans(2, 4);
    bench::par::set_jobs(1);
    let serial = serial.expect("span capture present");
    let parallel = parallel.expect("span capture present");
    assert!(!serial.chrome_trace.is_empty());
    assert_eq!(serial.chrome_trace, parallel.chrome_trace, "chrome trace differs across --jobs");
    assert_eq!(serial.report, parallel.report, "span report differs across --jobs");
}

#[test]
fn disabled_spans_record_nothing_and_exports_error() {
    // span_sample_every = 0 (the default): no samples, no memory, and the
    // export surface reports Disabled instead of an empty file.
    let net = run_one(cfg(0));
    assert!(matches!(net.span_table(), Err(Error::Obs(_))));
    assert!(matches!(net.export_spans_chrome_trace(), Err(Error::Obs(_))));
    assert!(matches!(net.export_span_report(), Err(Error::Obs(_))));
    // A detached handle is inert no matter what is thrown at it.
    let s = Spans::detached();
    let id = s.span_begin(SimTime::from_ns(5), 0, 1, 1, Stage::Packet, 0);
    s.span_end(SimTime::from_ns(9), id, Stage::Packet);
    assert!(!s.is_on());
    assert!(s.is_empty());
    assert!(s.table(SimTime::from_ns(10)).unwrap().spans().next().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Stage tiling: for every *delivered* packet of a sampled flow, the
    /// stage spans exactly tile the packet span, so their durations sum to
    /// the packet's end-to-end latency. Holds for arbitrary workload
    /// shapes, seeds, and sampling strides.
    #[test]
    fn stage_durations_sum_to_end_to_end_latency(
        seed in 0u64..500,
        sample_every in 1u64..4,
        flow_bytes in 20_000u64..120_000,
    ) {
        let mut c = cfg(sample_every);
        c.seed = seed;
        let mut net = OpenOpticsNet::new(c.clone());
        let (circuits, slices) = round_robin(c.node_num, c.uplink);
        net.deploy_topo(&circuits, slices).unwrap();
        net.deploy_routing(Vlb, LookupMode::PerHop, MultipathMode::PerPacket).expect("routing pairs with this schedule");
        for i in 0..4u32 {
            net.add_flow(
                SimTime::from_ns(50 + 41 * i as u64),
                HostId(i),
                HostId((i + 1) % 4),
                flow_bytes,
                TransportKind::Tcp(Default::default()),
            );
        }
        net.run_for(SimTime::from_ms(5));
        let table = net.span_table().expect("span recording is on and well-formed");
        let mut delivered = 0usize;
        for (id, n) in table.spans() {
            if n.stage != Stage::Packet {
                continue;
            }
            let kids: Vec<Stage> =
                table.spans().filter(|(_, c)| c.parent == id).map(|(_, c)| c.stage).collect();
            // Only packets that completed delivery tile exactly; dropped
            // packets end at the drop point with their last stage open.
            if !kids.contains(&Stage::TcpDelivery)
                || kids.iter().any(|s| matches!(s, Stage::Drop | Stage::FaultDrop))
            {
                continue;
            }
            delivered += 1;
            let (sum, e2e) = stage_sum_vs_span(&table, id);
            prop_assert_eq!(
                sum, e2e,
                "packet span {} [{} .. {}]: stage sum {} != end-to-end {}",
                id, n.begin.as_ns(), n.end.as_ns(), sum, e2e
            );
        }
        prop_assert!(delivered > 0, "workload must deliver at least one sampled packet");
    }
}
