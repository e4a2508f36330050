//! Allocation guard for the per-packet data path: counts that repeat
//! exactly, where a timing would not. A packet is written once into the
//! engine's store and named by a handle from then on, so forwarding it —
//! switch ingress, calendar dequeue, host transmit — must not touch the
//! allocator, and neither must the event queue that carries it between
//! them. A telemetry sampling tick stores a row's values in chunked value
//! columns and a span is a row in chunked storage, so both allocate only
//! when they open a chunk, and what a tick keeps is 8 bytes per series.
//! A flow attached before the run costs its own bytes and no event-queue
//! node, pinned by the live-byte high-water, and a short pending list no
//! more than its flows. Deploying the 108 x 6 cell makes a pinned number
//! of allocations.
//! Its own test binary because it installs a counting
//! `#[global_allocator]`; the counts are per thread, so the harness and
//! sibling tests do not disturb them.

use openoptics::core::{Event, Timer};
use openoptics::fabric::OpticalSchedule;
use openoptics::obs::{SpanRow, Spans, Stage};
use openoptics::prelude::*;
use openoptics::proto::{Packet, PacketStore};
use openoptics::routing::{RouteAction, RouteEntry, RouteMatch};
use openoptics::sim::Bandwidth;
use openoptics::sim::SliceConfig;
use openoptics::sim::{EventQueue, World};
use openoptics::switch::CongestionConfig;
use openoptics::switch::{IngressDecision, ToRSwitch, TorConfig};
use openoptics::telemetry::Trace;
use openoptics::telemetry::CHUNK_LEN;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

/// A layout's size as a signed byte count.
fn bytes(layout: Layout) -> i64 {
    i64::try_from(layout.size()).unwrap_or(i64::MAX)
}

// SAFETY: every request is forwarded to `System` unchanged, so its
// guarantees carry over; the thread-locals are const-initialised and have
// no destructor, so touching them here neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        let live = LIVE_BYTES.with(|n| {
            n.set(n.get() + bytes(layout));
            n.get()
        });
        PEAK_BYTES.with(|p| p.set(p.get().max(live)));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.with(|n| n.set(n.get() - bytes(layout)));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (`realloc` included: the default goes through `alloc` and
/// `dealloc`) this thread performs inside `f`, and the bytes it holds
/// afterwards that it did not hold before (negative when it freed more).
fn heap_in<T>(f: impl FnOnce() -> T) -> ((u64, i64), T) {
    let before = (ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    let out = std::hint::black_box(f());
    let after = (ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    ((after.0 - before.0, after.1 - before.1), out)
}

/// The most live bytes this thread held at once inside `f`, over what it
/// held before. A `Vec` that doubles counts its old and new block both.
fn peak_in<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|p| p.set(before));
    let out = std::hint::black_box(f());
    (PEAK_BYTES.with(Cell::get) - before, out)
}

/// Allocations this thread performs inside `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let ((allocations, _), out) = heap_in(f);
    (allocations, out)
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
        slice_cfg: tor_slices(),
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

fn tor_slices() -> SliceConfig {
    SliceConfig::new(SLICE_NS, 8, 1_000)
}

#[test]
fn switch_ingress_and_dequeue_allocate_nothing() {
    let (mut t, mut store, mut trace) = (tor(), PacketStore::new(), Trace::detached());
    // No packet here is congested, so no circuit is ever read.
    let dark = OpticalSchedule::build(tor_slices(), 4, 2, &[]).unwrap();
    let mut pass = |t: &mut ToRSwitch, id: u64, at: u64| {
        let now = SimTime::from_ns(at);
        let (n0, n3, h0, h9) = (NodeId(0), NodeId(3), HostId(0), HostId(9));
        let h = store.insert(Packet::data(id, 1, n0, n3, h0, h9, 1_000, 0, now));
        let (on_ingress, res) =
            allocations_in(|| t.ingress(h, &mut store[h], &dark, now, &mut trace));
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

/// Bytes of one value chunk: counter and gauge values are 8 bytes each.
const VALUE_CHUNK_BYTES: i64 = 8 * CHUNK_LEN as i64;

/// Sampling ticks run before the measured ones: enough that the row heads
/// and the frame log (doubling `Vec`s, one entry per tick) have grown to
/// 512 slots, which the 200 measured ticks do not fill, so only the value
/// columns grow while they are measured.
const WARM_TICKS: usize = 257;
const MEASURED_TICKS: usize = 200;

/// `(allocations, live bytes gained)` of each of 200 sampling ticks, one at
/// a time, on an idle `node_num`-ToR testbed with telemetry, spans and
/// 100 us sampling on, after [`WARM_TICKS`] ticks (names rendered, mirror
/// handles bound); with the number of series a row holds.
fn sampling_ticks(node_num: u32) -> Result<(Vec<(u64, i64)>, usize), Error> {
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
    net.run_for(SimTime::from_ns(WARM_TICKS as u64 * 100_000 + 50_000));
    assert_eq!(net.engine.timeseries().len(), WARM_TICKS);
    let mut ticks = Vec::new();
    for k in 0..MEASURED_TICKS {
        // Each tick's follow-up event lands in a queue grown beforehand.
        let now = SimTime::from_ns(net.now().as_ns() + k as u64 * 100_000);
        let mut q = EventQueue::new();
        for _ in 0..8 {
            q.schedule(now, Event::Timer(Timer::Sample));
        }
        while q.pop().is_some() {}
        let (heap, ()) = heap_in(|| net.engine.handle(now, Event::Timer(Timer::Sample), &mut q));
        assert_eq!(q.len(), 1);
        ticks.push(heap);
    }
    let ts = net.engine.timeseries();
    let rows = WARM_TICKS + MEASURED_TICKS;
    assert_eq!((ts.len(), net.frames().len()), (rows, rows));
    let width = |i: usize| ts.row(i).map(|r| r.counters().len() + r.gauges().len());
    let series = width(rows - 1).expect("the last row is kept");
    assert_eq!(width(WARM_TICKS), Some(series), "the series set must stay put");
    Ok((ticks, series))
}

/// What a call that may open chunks of `chunk` bytes gained, split into
/// the chunks it opened and the rest, which can only be the list of chunk
/// headers doubling (24 B a chunk, no item moves) when the chunk count
/// passes a power of two. Each is one allocation.
fn chunks_opened((allocations, live): (u64, i64), chunk: i64) -> i64 {
    let (opened, headers) = (live / chunk, live % chunk);
    assert!((0..4_096).contains(&headers), "{live} B is not whole chunks and a header list");
    assert_eq!(
        allocations,
        u64::try_from(opened).expect("a gain") + u64::from(headers > 0),
        "{live} B"
    );
    opened
}

/// A tick stores its values and nothing else: a steady-state tick
/// allocates nothing, at 4 and at 8 ToRs alike, and a tick that opens a
/// value chunk allocates that chunk (and, past a power of two of chunks,
/// their header list). Over 200 ticks the live bytes grow by 8 B per
/// series per tick, to within a chunk per column at either end, the
/// unused tail of each chunk (less than one row) and the header lists.
#[test]
fn a_sampling_tick_allocates_only_value_chunks_and_keeps_8_bytes_per_series() -> Result<(), Error> {
    let mut widths = Vec::new();
    for node_num in [4, 8] {
        let (ticks, series) = sampling_ticks(node_num)?;
        let opened: Vec<i64> = ticks.iter().map(|&t| chunks_opened(t, VALUE_CHUNK_BYTES)).collect();
        assert!(ticks.contains(&(0, 0)), "no steady-state tick at {node_num} ToRs");
        assert!(ticks.contains(&(1, VALUE_CHUNK_BYTES)), "no lone chunk opened at {node_num} ToRs");
        let grown: i64 = ticks.iter().map(|&(_, live)| live).sum();
        let opened: i64 = opened.iter().sum();
        let row = 8 * i64::try_from(series).unwrap();
        let values = row * i64::try_from(ticks.len()).unwrap();
        assert!(
            grown + 2 * VALUE_CHUNK_BYTES >= values
                && grown <= values + 2 * VALUE_CHUNK_BYTES + opened * row + 4_096,
            "{node_num} ToRs, {series} series: {grown} B for {values} B of values"
        );
        widths.push(series);
    }
    assert!(widths[1] >= widths[0] + 4 * 16, "{widths:?} series");
    Ok(())
}

/// A span is a row in chunked storage: opening one allocates only when
/// its id starts a chunk (one chunk of rows, moving nothing already
/// recorded), and closing one never allocates.
#[test]
fn span_begin_and_end_allocate_only_at_chunk_boundaries() {
    const SPANS: u64 = 9 * CHUNK_LEN as u64 + 5;
    let spans = Spans::bounded(1, 0, usize::MAX);
    let chunk = i64::try_from(CHUNK_LEN * std::mem::size_of::<SpanRow>()).unwrap();
    let mut opened = 0;
    for i in 1..=SPANS {
        let at = SimTime::from_ns(i);
        let (heap, id) = heap_in(|| spans.span_begin(at, i - 1, i, i, Stage::Packet, 0));
        assert_eq!(id, i);
        let starts_a_chunk = id % CHUNK_LEN as u64 == 0;
        assert_eq!(chunks_opened(heap, chunk), i64::from(starts_a_chunk), "span {id}");
        opened += u64::from(starts_a_chunk);
        let (heap, ()) = heap_in(|| spans.span_end(at, id, Stage::Packet));
        assert_eq!(heap, (0, 0), "ending span {id}");
    }
    assert_eq!((opened, spans.started()), (9, SPANS));
}

/// One window width of queue time: 4,096 buckets of 1,024 ns.
const WINDOW_NS: u64 = 4_096 * 1_024;

/// The event queue under every handler: each event sits in one slab node
/// from `schedule` to `pop`, far or near, and a popped node is the next one
/// reused, so once the slab and the epoch map have seen their busiest
/// moment, churn — serialization and propagation delays, slice boundaries,
/// 10 ms watchdogs that cross the near window, and the window jumps that
/// bring them back — never touches the allocator.
#[test]
fn steady_state_queue_churn_allocates_nothing() {
    const PENDING: usize = 500;
    let mut q = EventQueue::new();
    for i in 0..PENDING as u64 {
        q.schedule(SimTime::from_ns(i * 37 % SLICE_NS), Event::HostTx(HostId(0)));
    }
    let step = |q: &mut EventQueue<Event>, i: u64| {
        let (now, ev) = q.pop().expect("every pop schedules one event");
        let delay_ns = match i % 1_000 {
            0 => 10_000_000,
            n if n % 10 == 1 => SLICE_NS,
            n if n % 2 == 0 => 120,
            _ => 500,
        };
        q.schedule(now + delay_ns, ev);
        assert!(q.slab_nodes() <= q.stats().peak_len);
        now.as_ns()
    };
    // Three watchdog periods: a step advances the clock ~30 ns.
    (0..1_000_000).for_each(|i| _ = step(&mut q, i));
    let before = q.stats();
    let (allocations, span_ns) = allocations_in(|| {
        let first = step(&mut q, 0);
        (1..1_000_000).fold(0, |_, i| step(&mut q, i)) - first
    });
    let after = q.stats();
    assert_eq!((q.len(), after.peak_len), (PENDING, PENDING));
    assert_eq!(after.popped_total - before.popped_total, 1_000_000);
    // The window's base moves only by a jump: more than two window widths
    // of queue time take at least two.
    assert!(span_ns > 2 * WINDOW_NS, "{span_ns} ns of queue time");
    // Every watchdog leaves the window, and so does a slice-scale delay
    // scheduled near the window's end.
    assert!(after.far_scheduled - before.far_scheduled >= 100);
    assert_eq!(allocations, 0);
}

/// A far-heavy queue: 50,000 events over four epochs (each one window
/// width), all beyond the first window. Draining them jumps the window from
/// epoch to epoch, moving nodes between lists and shrinking the epoch map,
/// so once scheduling has grown the slab and the map, it allocates nothing.
#[test]
fn draining_far_epochs_allocates_nothing() {
    const FAR: u64 = 50_000;
    let mut q = EventQueue::new();
    for i in 0..FAR {
        let t = WINDOW_NS + i.wrapping_mul(2_654_435_761) % (4 * WINDOW_NS);
        q.schedule(SimTime::from_ns(t), Event::HostTx(HostId(0)));
    }
    assert_eq!(q.stats().far_scheduled, FAR);
    let (allocations, ()) = allocations_in(|| {
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "{t:?} after {last:?}");
            last = t;
        }
    });
    assert_eq!((q.stats().popped_total, q.len()), (FAR, 0));
    assert_eq!(allocations, 0);
}

/// Gap between the starts of [`pre_run_load`]'s flows, ns.
const FLOW_GAP_NS: usize = 1_000;

/// `Paced` 3 kB flows attached before the run, one every [`FLOW_GAP_NS`]
/// between rotating host pairs, on [`rotor_net`], run to the end of
/// `horizon_ns`: the live-byte high-water of attaching and running them,
/// the flow count and the event queue's peak length.
fn pre_run_load(horizon_ns: u64) -> Result<(i64, u64, usize), Error> {
    let mut net = rotor_net()?;
    let (peak, flows) = peak_in(|| {
        let mut flows = 0;
        for at in (100..horizon_ns).step_by(FLOW_GAP_NS) {
            let (src, hop) = (flows % 12, 1 + (flows / 12) % 11);
            let (src, dst) = (HostId(src), HostId((src + hop) % 12));
            net.add_flow(SimTime::from_ns(at), src, dst, 3_000, TransportKind::Paced);
            flows += 1;
        }
        net.run_for(SimTime::from_ns(horizon_ns));
        u64::from(flows)
    });
    assert!(net.fct().completed().len() as u64 * 10 > flows * 9, "the flows complete");
    Ok((peak, flows, net.queue_stats().peak_len))
}

/// A flow attached before the run costs its own record once — a 32-byte
/// pending entry, then its flow-table row, its FCT record and its armed
/// watchdog — and no event-queue node: only the next start waits in the
/// queue. The same offered load over a 1x and a 4x horizon: the queue's
/// peak does not grow with the horizon — it may move by the load's own
/// jitter (170 and 196 here) but not by half, where it grew from 2,168 to
/// 8,194 when every start waited in the queue from prime — and what each
/// extra flow adds to the live-byte high-water is at most 60 % of the
/// 324 B it added then, measured the same way (172 B now).
#[test]
fn a_pre_run_flow_costs_its_bytes_once() -> Result<(), Error> {
    const HORIZON_NS: u64 = 2_000_000;
    let (short_peak, flows, short_peak_len) = pre_run_load(HORIZON_NS)?;
    let (long_peak, long_flows, long_peak_len) = pre_run_load(4 * HORIZON_NS)?;
    assert!(long_flows >= 4 * flows - 1, "{long_flows} flows vs {flows}");
    assert!(
        2 * long_peak_len <= 3 * short_peak_len,
        "the queue peak grew with the horizon: {short_peak_len} -> {long_peak_len}"
    );
    let per_flow = (long_peak - short_peak) / i64::try_from(long_flows - flows).unwrap();
    assert!(per_flow * 10 <= 324 * 6, "{per_flow} B per pre-run flow");
    Ok(())
}

/// Four flows attached before the run: the engine's pending list holds
/// their four 32-byte records in one allocation, not a 4,096-record chunk.
#[test]
fn a_short_pending_list_costs_only_its_flows() -> Result<(), Error> {
    let mut net = rotor_net()?;
    let (heap, ()) = heap_in(|| {
        for i in 0..4 {
            let at = SimTime::from_ns(100 + u64::from(i));
            net.add_flow(at, HostId(i), HostId(5), 3_000, TransportKind::Paced);
        }
    });
    assert_eq!(heap, (1, 4 * 32));
    Ok(())
}

/// Deploying the paper-scale cell — a 108 x 6 RotorNet under VLB — makes
/// a pinned number of allocations, about 10 per ToR. The round robin is one
/// flat factorization (it was a `Vec` per round: 107 more), the OCS check
/// builds no cross-connect list (one more), the schedule is lit in place
/// from the factorization with no circuit list or copy of it, and the
/// engine is built once, on the deployed schedule, not first on an empty
/// one; any of these coming back moves the count (a pushed list and its
/// copy are 16 more, a second set of ToRs 866). The flow table's list of
/// chunks is one allocation. An optimized build makes one allocation fewer: the optimizer
/// drops one that never escapes.
#[test]
fn deploying_108_by_6_makes_a_pinned_number_of_allocations() -> Result<(), Error> {
    let cfg = NetConfig::builder()
        .node_num(108)
        .uplink(6)
        .slice_ns(300_000)
        .guard_ns(1_000)
        .sync_err_ns(28)
        .telemetry(false)
        .seed(1)
        .build()?;
    let (allocations, net) = allocations_in(|| {
        OpenOpticsNet::deploy(
            cfg,
            Architecture::rotornet(),
            Box::new(Vlb),
            LookupMode::PerHop,
            MultipathMode::PerPacket,
        )
    });
    assert_eq!(net?.engine.schedule().circuits().count(), 108 / 2 * 107 * 6);
    let pinned = if cfg!(debug_assertions) { 1_100 } else { 1_099 };
    assert_eq!(
        allocations, pinned,
        "1,982 (1,981 optimized) with a circuit list and the engine built twice"
    );
    Ok(())
}

/// What each extra pre-run flow added to the live-byte high-water of
/// [`pre_run_load`] while every pending record, flow row and watchdog of a
/// finished flow lived as long as the engine: 183 B, in a debug and an
/// optimized build alike.
const KEPT_PER_FLOW: i64 = 183;

/// A pre-run flow's pending record goes once it starts and its row once
/// it is done (a chunk at a time), and its watchdog leaves the FIFO: what
/// each extra flow adds to the high-water is at most 75 % of what it added
/// when they all stayed (128 B now, in both builds).
#[test]
fn a_finished_pre_run_flow_gives_its_bytes_back() -> Result<(), Error> {
    const HORIZON_NS: u64 = 2_000_000;
    let (short_peak, flows, _) = pre_run_load(HORIZON_NS)?;
    let (long_peak, long_flows, _) = pre_run_load(4 * HORIZON_NS)?;
    let per_flow = (long_peak - short_peak) / i64::try_from(long_flows - flows).unwrap();
    assert!(per_flow * 4 <= KEPT_PER_FLOW * 3, "{per_flow} B per pre-run flow");
    Ok(())
}

/// Flows attached per round of [`ctl_rounds`]: a power of two, so after a
/// power of two of rounds the FCT record list (which doubles) is full.
const ROUND_FLOWS: u32 = 512;
/// Simulated time each round runs for, ns.
const ROUND_NS: u64 = 1_000_000;

/// What a control-plane session does: `rounds` times, attach
/// [`ROUND_FLOWS`] paced 3 kB flows starting over the next half round and
/// run one round; then run one round more. Returns the live bytes the network holds at the end,
/// less what every finished flow may keep — its 32-byte FCT record,
/// counted at the record list's doubled capacity, and the 8 bytes that
/// answer `flow_delivered` once its row is freed — and the flows finished.
fn ctl_rounds(rounds: u32) -> Result<(i64, usize), Error> {
    // The network is returned, so its bytes are still held when counted.
    let ((_, live), net) = heap_in(|| -> Result<OpenOpticsNet, Error> {
        let mut net = rotor_net()?;
        let mut started = 0;
        for _ in 0..rounds {
            let now = net.now().as_ns();
            for i in 0..ROUND_FLOWS {
                let (src, hop) = (started % 12, 1 + (started / 12) % 11);
                let (src, dst) = (HostId(src), HostId((src + hop) % 12));
                let at = SimTime::from_ns(now + 1 + u64::from(i) * ROUND_NS / 2 / 512);
                net.add_flow(at, src, dst, 3_000, TransportKind::Paced);
                started += 1;
            }
            net.run_for(SimTime::from_ns(ROUND_NS));
        }
        // One more round, with nothing attached, lets the last round's
        // flows finish: a packet that misses its slice waits a whole cycle.
        net.run_for(SimTime::from_ns(ROUND_NS));
        Ok(net)
    });
    let finished = net?.fct().completed().len();
    assert_eq!(finished, (rounds * ROUND_FLOWS) as usize, "every flow finishes");
    let kept = 32 * finished.next_power_of_two() + 8 * finished;
    Ok((live - i64::try_from(kept).expect("a byte count fits i64"), finished))
}

/// A long control-plane session holds what its flows in flight need, not
/// what every flow it ever ran did: over 4x the rounds (and flows), the
/// live bytes less each finished flow's FCT record and 8-byte size grow by
/// less than a byte per extra flow (4,528 B over 12,288 flows here; they
/// grew by 1,282,312 B, 104 B a flow, while every row, pending record and
/// watchdog stayed).
#[test]
fn a_session_s_memory_does_not_grow_with_its_rounds() -> Result<(), Error> {
    let (short, flows) = ctl_rounds(8)?;
    let (long, long_flows) = ctl_rounds(32)?;
    assert_eq!(long_flows, 4 * flows);
    let grown = usize::try_from(long - short).unwrap_or(0);
    assert!(grown < long_flows - flows, "{short} B -> {long} B over {flows} -> {long_flows} flows");
    Ok(())
}
