//! Allocation guard for the per-packet data path: counts that repeat
//! exactly, where a timing would not. A packet is written once into the
//! engine's store and named by a handle from then on, so forwarding it —
//! switch ingress, calendar dequeue, host transmit — must not touch the
//! allocator, and neither must the event queue that carries it between
//! them; and a telemetry sampling tick stores one row, whose size in
//! allocations does not depend on how many series it holds. Its own test
//! binary because it installs a counting
//! `#[global_allocator]`; the count is per thread, so the harness and
//! sibling tests do not disturb it.

use openoptics::core::engine::{Event, Timer};
use openoptics::prelude::*;
use openoptics::proto::{Packet, PacketStore};
use openoptics::routing::{RouteAction, RouteEntry, RouteMatch};
use openoptics::sim::rate::Bandwidth;
use openoptics::sim::time::SliceConfig;
use openoptics::sim::{EventQueue, World};
use openoptics::switch::congestion::CongestionConfig;
use openoptics::switch::{IngressDecision, ToRSwitch, TorConfig};
use openoptics::telemetry::Trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded to `System` unchanged, so its
// guarantees carry over; the thread-local is const-initialised and has no
// destructor, so touching it here neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (`realloc` included: the default goes through `alloc`) this
/// thread performs inside `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = std::hint::black_box(f());
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const SLICE_NS: u64 = 50_000;

/// A 12 x 2 RotorNet under VLB, one host per ToR, telemetry off.
fn rotor_net() -> Result<OpenOpticsNet, Error> {
    let cfg = NetConfig::builder()
        .node_num(12)
        .uplink(2)
        .slice_ns(SLICE_NS)
        .guard_ns(1_000)
        .sync_err_ns(0)
        .telemetry(false)
        .seed(3)
        .build()?;
    OpenOpticsNet::deploy(
        cfg,
        Architecture::rotornet(),
        Box::new(Vlb),
        LookupMode::PerHop,
        MultipathMode::PerPacket,
    )
}

/// `Paced` mice between every pair of hosts, a new one every 500 ns: what is
/// left to allocate in steady state is per flow (its table row, its FCT
/// record, its socket queue), not per packet.
#[test]
fn steady_state_forwarding_allocates_per_flow_not_per_packet() -> Result<(), Error> {
    let mut net = rotor_net()?;
    let cycle_ns = u64::from(net.engine.schedule().slice_config().num_slices) * SLICE_NS;
    let (warm_ns, window_ns) = (2 * cycle_ns, 4 * cycle_ns);
    let mut at = 100;
    for i in 0u32.. {
        if at >= warm_ns + window_ns {
            break;
        }
        let (src, hop) = (i % 12, 1 + (i / 12) % 11);
        let dst = (src + hop) % 12;
        net.add_flow(SimTime::from_ns(at), HostId(src), HostId(dst), 50_000, TransportKind::Paced);
        at += 500;
    }
    net.run_for(SimTime::from_ns(warm_ns));
    let delivered_before = net.engine.counters.delivered_packets;
    let (allocations, ()) = allocations_in(|| net.run_for(SimTime::from_ns(window_ns)));
    let delivered = net.engine.counters.delivered_packets - delivered_before;
    assert!(delivered > 10_000, "the window must carry real traffic: {delivered} packets");
    // 35 packets per flow, two hops each. Measured here: 639,717
    // allocations for the window's 154,319 packets (4.1 each) when every
    // `ingress`, `pop_if_fits` and `rotate` built a `Vec` of active queue
    // indices and every `HostTx` a new backlog; 12,677 (0.08 each, about
    // five per flow started) with the data path allocation-free.
    assert!(
        allocations * 4 < delivered,
        "{allocations} allocations for {delivered} delivered packets",
    );
    Ok(())
}

fn tor() -> ToRSwitch {
    let cfg = TorConfig {
        id: NodeId(0),
        slice_cfg: SliceConfig::new(SLICE_NS, 8, 1_000),
        uplinks: 2,
        uplink_bandwidth: Bandwidth::gbps(100),
        num_queues: 8,
        queue_capacity: 2 * 1024 * 1024,
        congestion: CongestionConfig::default(),
        pushback_enabled: false,
        offload: None,
        eqo_interval_ns: 50,
        use_true_occupancy: false,
    };
    let mut t = ToRSwitch::new(cfg, false);
    t.install_routes([RouteEntry {
        node: NodeId(0),
        m: RouteMatch { arr_slice: Some(0), dst: NodeId(3) },
        actions: vec![(
            RouteAction { port: PortId(1), dep_slice: Some(0), push_source_route: None },
            1,
        )],
        multipath: MultipathMode::None,
    }]);
    t
}

#[test]
fn switch_ingress_and_dequeue_allocate_nothing() {
    let (mut t, mut store, mut trace) = (tor(), PacketStore::new(), Trace::detached());
    let mut pass = |t: &mut ToRSwitch, id: u64, at: u64| {
        let now = SimTime::from_ns(at);
        let (n0, n3, h0, h9) = (NodeId(0), NodeId(3), HostId(0), HostId(9));
        let h = store.insert(Packet::data(id, 1, n0, n3, h0, h9, 1_000, 0, now));
        let (on_ingress, res) = allocations_in(|| t.ingress(h, &mut store[h], now, &mut trace));
        assert!(matches!(res.decision, IngressDecision::Enqueued { .. }), "{:?}", res.decision);
        let (on_pop, popped) = allocations_in(|| t.pop_if_fits(PortId(1), now, 0, &mut trace));
        assert_eq!(popped.map(|(head, _)| head), Some(h));
        store.remove(h);
        (on_ingress, on_pop)
    };
    // The first packet grows the calendar queue it lands in; from then on
    // the path is steady.
    pass(&mut t, 1, 2_000);
    for (id, at) in [(2, 3_000), (3, 3_001), (4, 9_000)] {
        assert_eq!(pass(&mut t, id, at), (0, 0), "packet {id}");
    }
}

/// A host whose socket is full keeps its one flow in the backlog across
/// every `HostTx`: queue a segment, send a packet, same backlog.
#[test]
fn host_tx_with_an_unchanged_backlog_allocates_nothing() -> Result<(), Error> {
    let mut net = rotor_net()?;
    // Sixteen times the 4 MiB socket: most of it waits in the backlog.
    net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 64 << 20, TransportKind::Paced);
    let cycle_ns = u64::from(net.engine.schedule().slice_config().num_slices) * SLICE_NS;
    net.run_for(SimTime::from_ns(2 * cycle_ns));
    let delivered = net.flow_delivered(1);
    assert!(delivered > 0 && delivered < 32 << 20, "mid-transfer, socket still full: {delivered}");
    // One transmit opportunity, handed to the engine directly. Its two
    // follow-up events (the packet's ingress 500 ns on, the next `HostTx`)
    // land in the queue bucket the cursor is on, grown beforehand.
    let now = SimTime::from_ns((net.now().as_ns() / 1024 + 2) * 1024);
    let mut q = EventQueue::new();
    for _ in 0..8 {
        q.schedule(now, Event::HostTx(HostId(0)));
    }
    while q.pop().is_some() {}
    let sent_before = net.engine.counters.host_tx_packets;
    let (allocations, ()) =
        allocations_in(|| net.engine.handle(now, Event::HostTx(HostId(0)), &mut q));
    assert_eq!(net.engine.counters.host_tx_packets, sent_before + 1, "the host did transmit");
    assert_eq!(q.len(), 2);
    assert_eq!(allocations, 0);
    Ok(())
}

/// Allocations of one sampling tick on an idle `node_num`-ToR testbed with
/// telemetry, spans and 100 us sampling on, after twenty warm-up ticks.
fn sampling_tick_allocations(node_num: u32) -> Result<(u64, usize), Error> {
    let cfg = NetConfig::builder()
        .node_num(node_num)
        .uplink(1)
        .slice_ns(SLICE_NS)
        .guard_ns(1_000)
        .telemetry(true)
        .span_sample_every(4)
        .sample_every_ns(100_000)
        .build()?;
    let mut net = OpenOpticsNet::deploy(
        cfg,
        Architecture::rotornet(),
        Box::new(Vlb),
        LookupMode::PerHop,
        MultipathMode::PerPacket,
    )?;
    // Twenty rows: names rendered, mirror handles bound, and both stores
    // (rows, frames) grown to 32 slots, so the tick measured next grows
    // neither. The tick's follow-up event lands in a queue grown beforehand.
    net.run_for(SimTime::from_ns(20 * 100_000 + 50_000));
    assert_eq!(net.engine.timeseries().len(), 20);
    let now = net.now();
    let mut q = EventQueue::new();
    for _ in 0..8 {
        q.schedule(now, Event::Timer(Timer::Sample));
    }
    while q.pop().is_some() {}
    let (allocations, ()) =
        allocations_in(|| net.engine.handle(now, Event::Timer(Timer::Sample), &mut q));
    let rows = net.engine.timeseries().rows();
    assert_eq!((rows.len(), net.frames().len(), q.len()), (21, 21, 1));
    Ok((allocations, rows[20].counters.len() + rows[20].gauges.len()))
}

/// A tick costs what it stores: one `Vec` of counters and one of gauges
/// (name handles and values; no service is declared here, and each one
/// declared adds its summary's name), whatever the number of series. It was
/// one `String` per series more, twice — the row and its rendered line.
#[test]
fn a_sampling_tick_allocates_the_same_at_4_and_8_tors() -> Result<(), Error> {
    let (at_4, series_at_4) = sampling_tick_allocations(4)?;
    let (at_8, series_at_8) = sampling_tick_allocations(8)?;
    assert!(series_at_8 >= series_at_4 + 4 * 16, "{series_at_4} -> {series_at_8} series");
    assert_eq!((at_4, at_8), (2, 2));
    Ok(())
}

/// The event queue under every handler: each event sits in one slab node
/// from `schedule` to `pop` and a popped node is the next one reused, so
/// once the slab and the far heap have seen their busiest moment, churn —
/// serialization and propagation delays, slice boundaries, 10 ms watchdogs
/// that cross the near window — never touches the allocator.
#[test]
fn steady_state_queue_churn_allocates_nothing() {
    const PENDING: usize = 500;
    let mut q = EventQueue::new();
    for i in 0..PENDING as u64 {
        q.schedule(SimTime::from_ns(i * 37 % SLICE_NS), Event::HostTx(HostId(0)));
    }
    let step = |q: &mut EventQueue<Event>, i: u64| {
        if let Some((now, ev)) = q.pop() {
            let delay_ns = match i % 1_000 {
                0 => 10_000_000,
                n if n % 10 == 1 => SLICE_NS,
                n if n % 2 == 0 => 120,
                _ => 500,
            };
            q.schedule_after(now, delay_ns, ev);
        }
        assert!(q.slab_nodes() <= q.stats().peak_len);
    };
    // Three watchdog periods: a step advances the clock ~30 ns.
    (0..1_000_000).for_each(|i| step(&mut q, i));
    let before = q.stats();
    let (allocations, ()) = allocations_in(|| (0..100_000).for_each(|i| step(&mut q, i)));
    let after = q.stats();
    assert_eq!((q.len(), after.peak_len), (PENDING, PENDING));
    assert_eq!(after.popped_total - before.popped_total, 100_000);
    // Every watchdog leaves the window, and so does a slice-scale delay
    // scheduled near the window's end.
    assert!(after.far_scheduled - before.far_scheduled >= 100);
    assert_eq!(allocations, 0);
}
