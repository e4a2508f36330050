//! Layer kernels: direct timed calls into each layer's public functions at
//! the workloads' scale, each reported as the median of five samples.
//!
//! They attribute a regression or a win to the layer that caused it; they
//! are never a claim by themselves (see the README for which end-to-end
//! metric each is expected to move, and on which workload). A layer that
//! exposes no public entry point has no kernel — none is faked.

use std::hint::black_box;
use std::time::{Duration, Instant};

use openoptics_core::json;
use openoptics_ctl::{Checkpoint, Scenario, Session};
use openoptics_fabric::OpticalSchedule;
use openoptics_host::tcp::{TcpConfig, TcpReceiver, TcpSender};
use openoptics_obs::{Spans, Stage};
use openoptics_proto::{HostId, NodeId, Packet};
use openoptics_routing::algos::{Hoho, Ucmp, Vlb};
use openoptics_routing::{compile, LookupMode, MultipathMode, RouteEntry, RoutingAlgorithm};
use openoptics_sim::hash::FxHashMap;
use openoptics_sim::rate::Bandwidth;
use openoptics_sim::time::{SimTime, SliceConfig};
use openoptics_sim::EventQueue;
use openoptics_switch::{CalendarPort, Eqo, TimeFlowTable};
use openoptics_telemetry::{Labels, QuantileSketch, Registry, SampleRow, TimeSeries};
use openoptics_topo::bvn::bvn_decompose;
use openoptics_topo::matching::max_weight_assignment;
use openoptics_topo::round_robin::round_robin;
use openoptics_topo::TrafficMatrix;
use openoptics_workload::{PoissonArrivals, Trace};

use crate::ctl_service::scenario_doc;
use crate::metrics::Values;
use crate::stats::median;

const SAMPLES: usize = 5;

/// Median ns per call of a steady-state closure. The iteration count is
/// calibrated so one sample lasts about `sample`; timing whole batches and
/// passing results through `black_box` keeps the compiler from deleting or
/// precomputing the measured work.
fn per_call_ns<R>(sample: Duration, mut f: impl FnMut() -> R) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t.elapsed();
        if dt >= sample / 8 || iters >= 1 << 28 {
            let per = (dt.as_nanos() as f64 / iters as f64).max(0.1);
            iters = ((sample.as_nanos() as f64 / per) as u64).clamp(1, 1 << 28);
            break;
        }
        iters *= 4;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Median ns per item where every sample needs fresh state: `setup` is not
/// timed, `run` is and returns how many items it processed.
fn per_item_ns<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(S) -> u64) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let state = setup();
            let t = Instant::now();
            let items = run(state);
            t.elapsed().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// The offset mix of a running engine: mostly packet-scale, some
/// slice-scale, occasional watchdog-scale.
fn churn_offset(i: u64) -> u64 {
    match i % 16 {
        0..=10 => 115 + (i * 37) % 900,
        11..=14 => 50_000 + (i * 7919) % 50_000,
        _ => 10_000_000,
    }
}

fn sched_108() -> OpticalSchedule {
    let (circuits, slices) = round_robin(108, 6);
    OpticalSchedule::build(SliceConfig::new(300_000, slices, 1_000), 108, 6, &circuits)
        .expect("the 108 x 6 round robin is a valid schedule")
}

/// Node 0's full 108-ToR VLB table: every destination at every arrival slice.
fn node0_entries(s: &OpticalSchedule) -> Vec<RouteEntry> {
    let mut out = Vec::new();
    for dst in 1..108u32 {
        for arr in 0..s.slice_config().num_slices {
            let paths = Vlb.paths(s, NodeId(0), NodeId(dst), Some(arr));
            out.extend(
                compile(&paths, LookupMode::PerHop, MultipathMode::PerPacket)
                    .into_iter()
                    .filter(|e| e.node == NodeId(0)),
            );
        }
    }
    out
}

fn dense_tm(n: u32, a: u32, b: u32, m: u32) -> TrafficMatrix {
    let mut tm = TrafficMatrix::zeros(n as usize);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                tm.set(NodeId(i), NodeId(j), ((i * a + j * b) % m + 1) as f64);
            }
        }
    }
    tm
}

/// Run every kernel; `sample` is the target duration of one sample (five
/// per kernel). Results are keyed by the names in `metrics::KERNELS`.
pub fn run_all(sample: Duration, seed: u64) -> Values {
    let mut v = Values::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    // Items per fresh-state sample, scaled with the sample budget.
    let items = ((sample.as_micros() as u64) * 20).clamp(2_000, 400_000);

    // -- sim ---------------------------------------------------------------
    {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut i = 0u64;
        for _ in 0..4_096 {
            i += 1;
            q.schedule(SimTime::ZERO + churn_offset(i), i);
        }
        put(
            "sim.queue.churn_ns",
            per_call_ns(sample, move || {
                let (now, _) = q.pop().expect("4,096 events stay pending");
                i += 1;
                q.schedule(now + churn_offset(i), i);
            }),
        );
    }
    put(
        "sim.queue.drain_ns",
        per_item_ns(
            || {
                let mut q: EventQueue<u64> = EventQueue::new();
                let mut t = 0u64;
                for i in 0..items {
                    t += churn_offset(i) % 1_000;
                    q.schedule(SimTime::from_ns(t), i);
                }
                (q, SimTime::from_ns(t + 1))
            },
            |(mut q, until)| {
                let mut n = 0;
                while let Some(e) = q.pop_before(until) {
                    black_box(e);
                    n += 1;
                }
                n
            },
        ),
    );
    {
        const KEYS: u64 = 16_384;
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..KEYS {
            m.insert(k * 2_654_435_761, k);
        }
        let mut i = 0u64;
        put(
            "sim.hash.lookup_ns",
            per_call_ns(sample, move || {
                i = (i + 1) % KEYS;
                *m.get(&(i * 2_654_435_761)).expect("every key was inserted")
            }),
        );
    }

    // -- fabric / topo -----------------------------------------------------
    {
        let (circuits, slices) = round_robin(108, 6);
        let ns = per_call_ns(sample, || {
            OpticalSchedule::build(
                SliceConfig::new(300_000, slices, 1_000),
                108,
                6,
                black_box(&circuits),
            )
        });
        put("fabric.schedule_build_ms", ns / 1e6);
    }
    put("topo.round_robin_ms", per_call_ns(sample, || round_robin(black_box(108), 6)) / 1e6);
    {
        let tm = dense_tm(64, 31, 17, 97);
        put(
            "topo.hungarian64_us",
            per_call_ns(sample, || max_weight_assignment(black_box(&tm))) / 1e3,
        );
        let small = dense_tm(16, 7, 13, 23);
        put(
            "topo.bvn16_us",
            per_call_ns(sample, || bvn_decompose(black_box(&small), 64, 1e-9)) / 1e3,
        );
    }

    // -- routing / switch (108 ToRs, one pair, one arrival slice) ----------
    let s = sched_108();
    let (src, dst) = (NodeId(0), NodeId(55));
    put("routing.vlb_paths_us", per_call_ns(sample, || Vlb.paths(&s, src, dst, Some(3))) / 1e3);
    put(
        "routing.ucmp_paths_us",
        per_call_ns(sample, || Ucmp::default().paths(&s, src, dst, Some(3))) / 1e3,
    );
    put(
        "routing.hoho_paths_us",
        per_call_ns(sample, || Hoho::default().paths(&s, src, dst, Some(3))) / 1e3,
    );
    {
        let paths = Vlb.paths(&s, src, dst, Some(3));
        put(
            "routing.compile_us",
            per_call_ns(sample, || {
                compile(black_box(&paths), LookupMode::PerHop, MultipathMode::PerPacket)
            }) / 1e3,
        );
    }
    let entries = node0_entries(&s);
    put(
        "switch.tft.install_ns",
        per_item_ns(
            || entries.clone(),
            |entries| {
                let n = entries.len() as u64;
                let mut tft = TimeFlowTable::new();
                tft.install_all(entries);
                black_box(tft.len());
                n
            },
        ),
    );
    {
        let mut tft = TimeFlowTable::new();
        tft.install_all(entries.clone());
        let pkt = Packet::data(1, 7, src, dst, HostId(0), HostId(55), 1436, 0, SimTime::ZERO);
        let slices = s.slice_config().num_slices;
        let mut arr = 0u32;
        put(
            "switch.tft.lookup_ns",
            per_call_ns(sample, move || {
                arr = (arr + 1) % slices;
                tft.lookup(black_box(&pkt), arr).map(|a| a.port)
            }),
        );
    }
    {
        let mut cp: CalendarPort<u64> = CalendarPort::new(32, 8 * 1024 * 1024);
        put(
            "switch.calendar.op_ns",
            per_call_ns(sample, move || {
                cp.enqueue(black_box(3), 1500, 42).ok();
                cp.rotate();
                cp.rotate();
                cp.rotate();
                cp.pop_active()
            }),
        );
    }
    {
        let mut eqo = Eqo::new(6, 32, 50, Bandwidth::gbps(100));
        let active = [0usize; 6];
        let mut t = 0u64;
        put(
            "switch.eqo.refresh_ns",
            per_call_ns(sample, move || {
                t += 120;
                eqo.on_enqueue(0, 0, 1500);
                eqo.refresh(SimTime::from_ns(t), black_box(&active));
                eqo.estimate(0, 0)
            }),
        );
    }

    // -- host --------------------------------------------------------------
    {
        let mut tx = TcpSender::new(TcpConfig::default(), None, SimTime::ZERO);
        let mut t = 0u64;
        put(
            "host.tcp.segment_ack_ns",
            per_call_ns(sample, move || {
                t += 1_000;
                let now = SimTime::from_ns(t);
                let (seq, len) = tx.next_segment(now).expect("an acked window always has room");
                tx.on_ack(seq + u64::from(len), now)
            }),
        );
    }
    {
        // Every fourth segment arrives three positions late: the receiver
        // buffers out-of-order data and merges it when the hole fills.
        let mut rx = TcpReceiver::new();
        let mut n = 0u64;
        put(
            "host.tcp.reorder_rx_ns",
            per_call_ns(sample, move || {
                let base = (n / 4) * 4;
                let slot = match n % 4 {
                    0 => base + 1,
                    1 => base + 2,
                    2 => base + 3,
                    _ => base,
                };
                n += 1;
                rx.on_data(slot * 1436, 1436)
            }),
        );
    }

    // -- workload ----------------------------------------------------------
    {
        let hosts: Vec<HostId> = (0..108).map(HostId).collect();
        let mut gen =
            PoissonArrivals::new(hosts, Trace::Rpc.dist(), Bandwidth::gbps(100), 0.2, seed);
        put("workload.poisson_next_ns", per_call_ns(sample, move || gen.next()));
    }

    // -- telemetry / obs ---------------------------------------------------
    {
        let on = Registry::enabled(4_096).counter("bench.kernel", Labels::None);
        put("telemetry.counter_on_ns", per_call_ns(sample, move || on.inc()));
        let off = Registry::disabled().counter("bench.kernel", Labels::None);
        put("telemetry.counter_off_ns", per_call_ns(sample, move || off.inc()));
    }
    {
        let mut sk = QuantileSketch::new();
        let mut x = 1u64;
        put(
            "telemetry.sketch.record_ns",
            per_call_ns(sample, move || {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                sk.record(x >> 40);
            }),
        );
    }
    let reg = Registry::enabled(4_096);
    for node in 0..50 {
        for name in ["bench.a", "bench.b", "bench.c", "bench.d"] {
            reg.counter(name, Labels::Node(NodeId(node))).add(u64::from(node) + 1);
        }
    }
    put("telemetry.snapshot_us", per_call_ns(sample, || reg.snapshot(SimTime::from_ns(1))) / 1e3);
    {
        let snap = reg.snapshot(SimTime::from_ns(1));
        let row =
            SampleRow { at_ns: 1, counters: snap.counters, gauges: snap.gauges, services: vec![] };
        let mut ts = TimeSeries::new(1 << 16);
        // A 200-counter row, as the sampling timer builds one: clone + push.
        put(
            "telemetry.timeseries.push_us",
            per_call_ns(sample, move || ts.push(black_box(&row).clone())) / 1e3,
        );
    }
    put(
        "obs.span.pair_ns",
        per_item_ns(
            || Spans::bounded(1, 0, usize::MAX),
            |spans| {
                for i in 0..items {
                    let at = SimTime::from_ns(i);
                    let id = spans.span_begin(at, 0, i, i, Stage::Packet, 0);
                    spans.span_end(at, id, Stage::Packet);
                }
                black_box(spans.len());
                items
            },
        ),
    );

    // -- core::json / ctl --------------------------------------------------
    let doc = scenario_doc(seed, 256, 4_000_000);
    let mb = doc.len() as f64 / 1e6;
    put("core.json.parse_mb_s", mb / (per_call_ns(sample, || json::parse(black_box(&doc))) / 1e9));
    {
        let value = json::parse(&doc).expect("the generated scenario is valid JSON");
        let rendered_mb = value.to_string().len() as f64 / 1e6;
        put(
            "core.json.render_mb_s",
            rendered_mb / (per_call_ns(sample, || black_box(&value).to_string()) / 1e9),
        );
    }
    put("ctl.scenario.parse_us", per_call_ns(sample, || Scenario::parse(black_box(&doc))) / 1e3);
    {
        let scenario = Scenario::parse(&doc).expect("the generated scenario validates");
        let mut session = Session::new(scenario).expect("the generated scenario deploys");
        session.run_until(100_000);
        let saved = session.checkpoint().to_json();
        put(
            "ctl.checkpoint.parse_us",
            per_call_ns(sample, || Checkpoint::parse(black_box(&saved))) / 1e3,
        );
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::KERNELS;

    #[test]
    fn every_kernel_reports_a_positive_number() {
        let v = run_all(Duration::from_micros(200), 1);
        for (name, _, _) in KERNELS {
            let x = v.get(name).copied().unwrap_or(0.0);
            assert!(x > 0.0 && x.is_finite(), "{name} = {x}");
        }
        assert_eq!(v.len(), KERNELS.len(), "no kernel outside the metric table");
    }

    #[test]
    fn time_grows_with_work() {
        // black_box is only a hint: confirm the timed loop is not deleted.
        let work = |n: u64| {
            per_call_ns(Duration::from_millis(2), || (0..n).fold(0u64, |a, b| black_box(a ^ b)))
        };
        assert!(work(4_000) > 4.0 * work(100));
    }
}
