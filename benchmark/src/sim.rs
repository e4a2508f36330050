//! Shared machinery of the three simulation workloads: one *cell* is one
//! deployed network driven through its public API from generated inputs —
//! deploy, attach, run in fixed simulated steps until every flow completes,
//! then check the outputs.

use std::time::Instant;

use openoptics_core::{Error, FaultPlan, OpenOpticsNet, SloTarget, TransportKind};
use openoptics_host::apps::MemcachedParams;
use openoptics_proto::HostId;
use openoptics_sim::time::SimTime;
use openoptics_topo::TrafficMatrix;
use openoptics_workload::{PoissonArrivals, Trace};

use crate::digest::Fnv;
use crate::trace::Tracer;

/// Shortest control step. Unless a cell asks otherwise one step is one
/// optical slice of the deployed network (the natural control interval of a
/// rotating fabric, and long enough that no step is empty: every slice
/// boundary rotates every port), but never less than this.
pub const MIN_STEP_NS: u64 = 50_000;

/// How large a pass is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports at.
    Full,
    /// Tiny horizons: plumbing and output checks only (`--smoke`, tests).
    Smoke,
}

/// What every pass of a workload gets.
pub struct Ctx<'a> {
    /// Workload seed: drives every generator.
    pub seed: u64,
    /// Pass size.
    pub scale: Scale,
    /// Benchmark-side span recorder (off for end-to-end passes).
    pub tracer: &'a Tracer,
    /// Whether this is the traced repetition: telemetry and the engine's
    /// wall-clock profiler are switched on and exports are exercised.
    pub traced: bool,
    /// Stop once the workload is ready to run: an extra sample of the
    /// set-up time, nothing else.
    pub setup_only: bool,
}

/// splitmix64: the benchmark's own generator for the choices it makes
/// itself (endpoints, fault windows, document contents), so they do not
/// move when the program's RNG does.
#[derive(Clone, Copy, Debug)]
pub struct Mix(pub u64);

impl Mix {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Two distinct values in `0..n` (`n >= 2`).
    pub fn pair(&mut self, n: u64) -> (u64, u64) {
        let a = self.below(n);
        let b = (a + 1 + self.below(n - 1)) % n;
        (a, b)
    }
}

/// Exact simulated counts of one pass (summed over its cells; the peak is
/// the maximum).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub events_scheduled: u64,
    pub events_popped: u64,
    pub far_scheduled: u64,
    pub overlay_scheduled: u64,
    pub peak_pending: u64,
    pub host_tx_pkts: u64,
    pub delivered_pkts: u64,
    pub drops: u64,
    pub retransmits: u64,
    pub guardband_holds: u64,
    pub flows_completed: u64,
}

impl Counts {
    /// `(metric name, value)` rows in `metrics::COUNTS` order.
    pub fn rows(&self) -> [(&'static str, f64); 12] {
        let per_pkt = if self.delivered_pkts == 0 {
            0.0
        } else {
            self.events_scheduled as f64 / self.delivered_pkts as f64
        };
        [
            ("sim.events_scheduled", self.events_scheduled as f64),
            ("sim.events_popped", self.events_popped as f64),
            ("sim.far_scheduled", self.far_scheduled as f64),
            ("sim.overlay_scheduled", self.overlay_scheduled as f64),
            ("sim.peak_pending", self.peak_pending as f64),
            ("sim.events_per_pkt", per_pkt),
            ("engine.host_tx_pkts", self.host_tx_pkts as f64),
            ("engine.delivered_pkts", self.delivered_pkts as f64),
            ("engine.drops", self.drops as f64),
            ("engine.retransmits", self.retransmits as f64),
            ("engine.guardband_holds", self.guardband_holds as f64),
            ("engine.flows_completed", self.flows_completed as f64),
        ]
    }
}

/// Everything one pass of a workload produced.
#[derive(Default)]
pub struct Pass {
    /// Host seconds from nothing to ready-to-run, summed over cells.
    pub setup_s: f64,
    /// Host seconds running the simulated horizon + drain, summed over cells.
    pub run_s: f64,
    /// Host latency of every control step, µs.
    pub steps_us: Vec<f64>,
    /// Host time of every drain that was not stepped for latency, µs: part
    /// of the run time, not of the step percentiles.
    pub drains_us: Vec<f64>,
    /// Operations attempted (flows started, collectives, RPC requests).
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
    /// Violated output checks, human-readable.
    pub check_failures: Vec<String>,
    /// Digest over completed-flow records and engine counters.
    pub digest: Fnv,
    /// Exact simulated counts.
    pub counts: Counts,
    /// Engine phase self time (ns) and event counts, traced passes only.
    pub phase_self_ns: [u64; 15],
    pub phase_events: [u64; 15],
    /// Per-method RPC latencies, µs (`ctl_service` only).
    pub rpc_us: std::collections::BTreeMap<&'static str, Vec<f64>>,
    /// Subscription frames received / reported skipped (`ctl_service` only).
    pub frames_streamed: u64,
    pub frames_skipped: u64,
}

impl Pass {
    /// Record a violated output check.
    pub fn fail(&mut self, what: String) {
        self.check_failures.push(what);
    }

    /// Add `net`'s engine-phase wall self times and event counts (traced
    /// passes, after [`install_profiler_clock`]).
    pub fn add_phases(&mut self, net: &OpenOpticsNet) {
        for (i, (_, s)) in net.engine.profiler().stats().into_iter().enumerate().take(15) {
            self.phase_self_ns[i] += s.wall_incl_ns.saturating_sub(s.wall_child_ns);
            self.phase_events[i] += s.events;
        }
    }
}

/// Give the engine's profiler a host clock, so it reports wall time per
/// phase. The simulator never reads host time itself.
pub fn install_profiler_clock(net: &OpenOpticsNet) {
    let t0 = Instant::now();
    net.set_profiler_clock(move || t0.elapsed().as_nanos() as u64);
}

/// One explicit flow request.
#[derive(Clone, Copy, Debug)]
pub struct FlowReq {
    pub at: SimTime,
    pub src: HostId,
    pub dst: HostId,
    pub bytes: u64,
    pub transport: TransportKind,
    /// Index into [`Load::services`].
    pub service: Option<usize>,
}

/// A closed-loop memcached application.
pub struct Memcached {
    pub params: MemcachedParams,
    pub server: HostId,
    pub clients: Vec<HostId>,
    pub stop: SimTime,
    pub service: Option<usize>,
}

/// The generated inputs of one cell — plain data the program receives
/// through its public attach calls.
#[derive(Default)]
pub struct Load {
    /// Services to declare, with their SLO targets.
    pub services: Vec<(&'static str, Option<SloTarget>)>,
    /// Explicit flows.
    pub flows: Vec<FlowReq>,
    /// Memcached application, if any.
    pub memcached: Option<Memcached>,
    /// Ring allreduce `(hosts, bytes per host)`, if any.
    pub allreduce: Option<(Vec<HostId>, u64)>,
    /// Fault campaign, if any.
    pub faults: Option<FaultPlan>,
    /// Mid-run `reconfigure(&tm)` at the given simulated time, if any.
    pub reconfigure: Option<(u64, TrafficMatrix)>,
    /// Run at least this long (the offered-load horizon), ns.
    pub horizon_ns: u64,
    /// Give up draining at this simulated time, ns.
    pub cap_ns: u64,
    /// Simulated time per control step, ns; 0 means one optical slice.
    pub step_ns: u64,
    /// Time the drain after the horizon as one lump instead of as control
    /// steps. Open-loop cells ask for this: their drain is many near-idle
    /// slices, which would make the median step an idle one.
    pub lump_drain: bool,
}

/// Largest single flow the Poisson cells offer. The traces' multi-megabyte
/// tail is capped so a few elephants landing in the same slice do not
/// decide the slowest steps of a 16 ms window — which elephants coincide
/// is the seed's choice, and at 1 MB it moved the 99th-percentile step by
/// +-15 % between seeds (the distribution body is preserved; `crates/bench`
/// makes the same substitution at 2 MB).
pub const FLOW_CAP_BYTES: u64 = 256 * 1024;

/// Open-loop Poisson arrivals over every host of `net`, one generator per
/// `(trace, host load share)`, all `Paced`.
///
/// The seed drives arrival times, endpoints and which flow gets which
/// size, but the offered work is the same for every seed: each generator
/// emits exactly the number of flows its rate yields over `window_ns`, and
/// their sizes are the trace's quantiles at evenly spaced probabilities
/// (stratified sampling) dealt out in a seed-driven order. Host time of two
/// seeds is then comparable, which a run-to-run spread across seeds needs;
/// with independent draws the heavy-tailed sizes alone moved the offered
/// bytes by several per cent from seed to seed.
pub fn poisson_load(
    net: &OpenOpticsNet,
    traces: &[(Trace, f64)],
    window_ns: u64,
    drain_ns: u64,
    seed: u64,
) -> Load {
    let hosts: Vec<HostId> = (0..net.engine.cfg.total_hosts()).map(HostId).collect();
    let link = net.engine.cfg.host_link_bandwidth();
    let mut flows = Vec::new();
    let mut horizon_ns = 0;
    for (i, (trace, share)) in traces.iter().enumerate() {
        let mut mix = Mix(seed ^ ((i as u64 + 1) << 32));
        let dist = trace.dist();
        let mut gen = PoissonArrivals::new(hosts.clone(), dist.clone(), link, *share, mix.next());
        let count = ((window_ns as f64 / gen.mean_gap_ns()).round() as usize).max(1);
        let mut sizes: Vec<u64> = (0..count)
            .map(|k| dist.quantile((k as f64 + 0.5) / count as f64).clamp(1, FLOW_CAP_BYTES))
            .collect();
        for k in (1..count).rev() {
            sizes.swap(k, mix.below(k as u64 + 1) as usize);
        }
        for bytes in sizes {
            let f = gen.next();
            horizon_ns = horizon_ns.max(f.at.as_ns());
            flows.push(FlowReq {
                at: f.at,
                src: f.src,
                dst: f.dst,
                bytes,
                transport: TransportKind::Paced,
                service: None,
            });
        }
    }
    Load { flows, horizon_ns, cap_ns: horizon_ns + drain_ns, lump_drain: true, ..Load::default() }
}

/// Deploy, attach, run and check one cell, adding its results to `pass`.
pub fn run_cell(
    ctx: &Ctx,
    pass: &mut Pass,
    label: &str,
    deploy: impl FnOnce() -> Result<OpenOpticsNet, Error>,
    generate: impl FnOnce(&OpenOpticsNet) -> Load,
) {
    let tr = ctx.tracer;
    let t_setup = Instant::now();
    let mut net = match tr.span("core.deploy", deploy) {
        Ok(net) => net,
        Err(e) => {
            pass.attempted += 1;
            pass.failed += 1;
            pass.fail(format!("{label}: deploy failed: {e}"));
            return;
        }
    };
    let load = tr.span("workload.generate", || generate(&net));
    let collective = tr.span("core.attach", || attach(tr, &mut net, &load, pass, label));
    pass.setup_s += t_setup.elapsed().as_secs_f64();
    if ctx.setup_only {
        return;
    }

    if ctx.traced {
        install_profiler_clock(&net);
    }

    let t_run = Instant::now();
    tr.span("core.run", || drive(tr, &mut net, &load, collective, pass, label));
    pass.run_s += t_run.elapsed().as_secs_f64();

    if ctx.traced {
        pass.add_phases(&net);
        exports(tr, &net);
    }
    check_and_count(&net, &load, collective, pass, label);
}

/// Attach `load` through the public API. Returns the collective's index.
fn attach(
    tr: &Tracer,
    net: &mut OpenOpticsNet,
    load: &Load,
    pass: &mut Pass,
    label: &str,
) -> Option<usize> {
    let ids: Vec<u16> =
        load.services.iter().map(|(name, slo)| net.declare_service(name, *slo)).collect();
    let svc = |s: Option<usize>| s.map(|i| ids[i]);
    for f in &load.flows {
        net.add_flow_tagged(f.at, f.src, f.dst, f.bytes, f.transport, svc(f.service));
    }
    if let Some(m) = &load.memcached {
        net.add_memcached_tagged(m.params, m.server, m.clients.clone(), m.stop, svc(m.service));
    }
    let collective =
        load.allreduce.as_ref().map(|(hosts, bytes)| net.add_allreduce(hosts.clone(), *bytes));
    if let Some(plan) = &load.faults {
        if let Err(e) = tr.span("faults.inject", || net.inject_faults(plan)) {
            pass.fail(format!("{label}: fault plan rejected: {e}"));
        }
    }
    collective
}

fn finished(net: &OpenOpticsNet, collective: Option<usize>) -> bool {
    net.fct().outstanding() == 0
        && collective.is_none_or(|i| net.engine.collective_done[i].is_some())
}

/// Advance one control step at a time: through the horizon, then until
/// every flow (and the collective) is done or the cap is reached.
fn drive(
    tr: &Tracer,
    net: &mut OpenOpticsNet,
    load: &Load,
    collective: Option<usize>,
    pass: &mut Pass,
    label: &str,
) {
    let mut reconfigure = load.reconfigure.as_ref();
    // Nothing is outstanding before the last explicit flow has started.
    let last_start = load.flows.iter().map(|f| f.at.as_ns() + 1).max().unwrap_or(0);
    let horizon = load.horizon_ns.max(last_start);
    let step = if load.step_ns > 0 { load.step_ns } else { net.engine.cfg.slice_ns };
    let step = SimTime::from_ns(step.max(MIN_STEP_NS));
    let mut drain_us = 0.0;
    loop {
        let now = net.now().as_ns();
        if now >= load.cap_ns || (now >= horizon && finished(net, collective)) {
            break;
        }
        if let Some((at, tm)) = reconfigure {
            if now >= *at {
                reconfigure = None;
                if let Err(e) = tr.span("core.reconfigure", || net.reconfigure(tm)) {
                    pass.fail(format!("{label}: reconfigure rejected: {e}"));
                }
            }
        }
        let t = Instant::now();
        net.run_for(step);
        let us = t.elapsed().as_secs_f64() * 1e6;
        if load.lump_drain && now >= horizon {
            drain_us += us;
        } else {
            pass.steps_us.push(us);
        }
    }
    if load.lump_drain {
        pass.drains_us.push(drain_us);
    }
}

/// Exercise every export the cell's configuration supports (traced passes).
fn exports(tr: &Tracer, net: &OpenOpticsNet) {
    use std::hint::black_box;
    if !net.telemetry().is_enabled() {
        return;
    }
    black_box(tr.span("core.export_telemetry", || net.export_telemetry("json")).is_ok());
    black_box(tr.span("core.export_trace", || net.export_trace()).is_ok());
    if net.engine.has_span_recording() {
        black_box(tr.span("core.export_spans", || net.export_spans_chrome_trace()).is_ok());
    }
    if net.engine.cfg.sample_every_ns > 0 {
        black_box(tr.span("core.export_timeseries", || net.export_timeseries()).is_ok());
    }
}

/// Output checks that hold for any correct build, the digest, and the
/// exact counts.
fn check_and_count(
    net: &OpenOpticsNet,
    load: &Load,
    collective: Option<usize>,
    pass: &mut Pass,
    label: &str,
) {
    let fct = net.fct();
    let completed = fct.completed();
    let outstanding = fct.outstanding() as u64;
    let collective_failed =
        u64::from(collective.is_some_and(|i| net.engine.collective_done[i].is_none()));
    pass.attempted += completed.len() as u64 + outstanding + u64::from(collective.is_some());
    pass.failed += outstanding + collective_failed;

    // Applications start flows of their own, so the conservation check
    // only applies where every flow was injected by the benchmark.
    let explicit_only = load.memcached.is_none() && load.allreduce.is_none();
    if explicit_only && completed.len() as u64 + outstanding != load.flows.len() as u64 {
        pass.fail(format!(
            "{label}: completed {} + outstanding {outstanding} != injected {}",
            completed.len(),
            load.flows.len()
        ));
    }
    let short = completed.iter().filter(|r| net.flow_delivered(r.flow) != r.bytes).count();
    if short > 0 {
        pass.fail(format!("{label}: {short} completed flows did not deliver exactly their bytes"));
    }
    if explicit_only && outstanding == 0 {
        let mut want: Vec<u64> = load.flows.iter().map(|f| f.bytes).collect();
        let mut got: Vec<u64> = completed.iter().map(|r| r.bytes).collect();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            pass.fail(format!("{label}: completed flow sizes differ from the requested sizes"));
        }
    }
    let c = net.engine.counters;
    if c.host_tx_packets < c.delivered_packets {
        pass.fail(format!(
            "{label}: host_tx_pkts {} < delivered_pkts {}",
            c.host_tx_packets, c.delivered_packets
        ));
    }

    let d = &mut pass.digest;
    for r in completed {
        d.u64(r.flow);
        d.u64(r.bytes);
        d.u64(r.start.as_ns());
        d.u64(r.end.as_ns());
    }
    for v in [
        c.host_tx_packets,
        c.delivered_packets,
        c.delivered_payload_bytes,
        c.fabric_drops,
        c.switch_drops,
        c.no_route_drops,
        c.link_drops,
        c.pushback_deliveries,
        c.circuit_notifications,
        c.trimmed_received,
        c.guardband_holds,
        c.watchdog_retransmits,
        c.rto_retransmits,
        c.fast_retransmits,
        c.nack_retransmits,
        c.fault_drops,
    ] {
        d.u64(v);
    }

    let q = net.queue_stats();
    let n = &mut pass.counts;
    n.events_scheduled += q.scheduled_total;
    n.events_popped += q.popped_total;
    n.far_scheduled += q.far_scheduled;
    n.overlay_scheduled += q.overlay_scheduled;
    n.peak_pending = n.peak_pending.max(q.peak_len as u64);
    n.host_tx_pkts += c.host_tx_packets;
    n.delivered_pkts += c.delivered_packets;
    n.drops += c.fabric_drops + c.switch_drops + c.no_route_drops + c.link_drops + c.fault_drops;
    n.retransmits +=
        c.watchdog_retransmits + c.rto_retransmits + c.fast_retransmits + c.nack_retransmits;
    n.guardband_holds += c.guardband_holds;
    n.flows_completed += completed.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_pairs_are_distinct() {
        let mut a = Mix(7);
        let mut b = Mix(7);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
            let (x, y) = a.pair(8);
            b.pair(8);
            assert!(x < 8 && y < 8 && x != y);
        }
        assert_ne!(Mix(1).next(), Mix(2).next());
    }
}
