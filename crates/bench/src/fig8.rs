//! Fig. 8 — Case I: realistic comparison of architectures.
//!
//! (a) Mice-flow FCTs of memcached SETs and (b) elephant completion of Gloo
//! ring allreduce, across Clos, c-Through, Jupiter, Mordia, RotorNet (VLB),
//! Opera, and RotorNet+UCMP.
//!
//! Shape targets from the paper: c-Through ≈ Clos on mice (mice ride the
//! electrical fabric); Mordia low median but a long tail (waiting for
//! on-demand slices); RotorNet-VLB the longest tail (intermediate-hop
//! circuit waits); Opera and UCMP low. For elephants, the TA architectures
//! serve the ring demand with matching circuits (≈ Clos), while TO
//! architectures roughly double completion times (circuits exist only part
//! of the time).

use crate::par;
use crate::util::{self, Table};
use openoptics_core::{Architecture, OpenOpticsNet};
use openoptics_proto::{HostId, NodeId};
use openoptics_routing::algos::Ucmp;
use openoptics_routing::{LookupMode, MultipathMode};
use openoptics_sim::SimTime;

/// One architecture's mice-FCT row.
#[derive(Clone, Debug)]
pub struct MiceRow {
    /// Architecture name.
    pub arch: &'static str,
    /// Median FCT, µs.
    pub p50_us: f64,
    /// 90th percentile FCT, µs.
    pub p90_us: f64,
    /// 99th percentile FCT, µs.
    pub p99_us: f64,
    /// Completed operations.
    pub samples: usize,
    /// The CDF series the paper plots: `(fct_ns, cumulative fraction)` at
    /// ten evenly spaced fractions.
    pub cdf: Vec<(u64, f64)>,
}

/// Slice duration used for the fine-grained (TO + Mordia) architectures.
const TO_SLICE_NS: u64 = 100_000;

/// The seven Fig. 8 architectures, constructed by index so each parallel
/// point builds exactly its own network.
const ARCH_NAMES: [&str; 7] =
    ["clos", "c-through", "jupiter", "mordia", "rotornet-vlb", "opera", "rotornet-ucmp"];

fn architecture(i: usize, uplinks: u16) -> (&'static str, openoptics_core::OpenOpticsNet) {
    architecture_with_spans(i, uplinks, 0)
}

fn architecture_with_spans(
    i: usize,
    uplinks: u16,
    span_sample_every: u64,
) -> (&'static str, openoptics_core::OpenOpticsNet) {
    let cfg = || {
        let mut c = util::testbed(TO_SLICE_NS, uplinks);
        c.span_sample_every = span_sample_every;
        c
    };
    let tm = || util::memcached_tm(8, NodeId(0));
    let net = match ARCH_NAMES[i] {
        "clos" => OpenOpticsNet::deploy_preset(cfg(), Architecture::clos()),
        "c-through" => OpenOpticsNet::deploy_preset(cfg(), Architecture::cthrough(&tm())),
        "jupiter" => OpenOpticsNet::deploy_preset(cfg(), Architecture::jupiter()),
        "mordia" => OpenOpticsNet::deploy_preset(cfg(), Architecture::mordia(&tm(), 8)),
        "rotornet-vlb" => OpenOpticsNet::deploy_preset(cfg(), Architecture::rotornet()),
        "opera" => OpenOpticsNet::deploy_preset(cfg(), Architecture::opera()),
        _ => OpenOpticsNet::deploy(
            cfg(),
            Architecture::rotornet(),
            Box::new(Ucmp::default()),
            LookupMode::PerHop,
            MultipathMode::PerPacket,
        ),
    };
    (ARCH_NAMES[i], net.expect("preset architecture deploys"))
}

/// Architecture whose fig. 8(a) point records lifecycle spans when span
/// capture is requested: RotorNet-VLB exercises the longest stage chain
/// (calendar waits, guardband holds, intermediate hops).
pub(crate) const SPAN_ARCH: &str = "rotornet-vlb";

/// Lifecycle-span capture from one fig. 8(a) simulation point.
#[derive(Clone, Debug)]
pub struct SpanCapture {
    /// Chrome trace-event JSON (`chrome://tracing` / Perfetto).
    pub chrome_trace: String,
    /// Deterministic plain-text span report (stage totals + trees).
    pub report: String,
}

/// Fig. 8(a): memcached mice FCT distribution per architecture.
/// `duration_ms` controls the measurement window. Architectures run as
/// independent parallel points.
pub fn run_mice(duration_ms: u64) -> Vec<MiceRow> {
    run_mice_with_spans(duration_ms, 0).0
}

/// Fig. 8(a) with lifecycle-span capture: the `SPAN_ARCH` point records
/// every `span_sample_every`-th flow (0 disables capture) and returns its
/// Chrome trace + span report alongside the rows. Spans are stamped in sim
/// time only and the capture comes from a single point collected in index
/// order, so the returned strings are byte-identical at any `--jobs`
/// count.
pub fn run_mice_with_spans(
    duration_ms: u64,
    span_sample_every: u64,
) -> (Vec<MiceRow>, Option<SpanCapture>) {
    let results = par::par_map(ARCH_NAMES.len(), |i| {
        let spans_here = span_sample_every > 0 && ARCH_NAMES[i] == SPAN_ARCH;
        let (name, mut net) =
            architecture_with_spans(i, 1, if spans_here { span_sample_every } else { 0 });
        let stop = SimTime::from_ms(duration_ms);
        util::attach_memcached(&mut net, stop);
        net.run_for(SimTime::from_ms(duration_ms + 5));
        par::note_net(&net);
        let capture = if spans_here {
            Some(SpanCapture {
                chrome_trace: net.export_spans_chrome_trace().unwrap_or_default(),
                report: net.export_span_report().unwrap_or_default(),
            })
        } else {
            None
        };
        let (p50, p90, p99, samples) = util::mice_percentiles(net.fct());
        let row = MiceRow {
            arch: name,
            p50_us: p50,
            p90_us: p90,
            p99_us: p99,
            samples,
            cdf: openoptics_workload::FctStats::cdf(&net.fct().mice_fcts(), 10),
        };
        (row, capture)
    });
    let mut capture = None;
    let rows = results
        .into_iter()
        .map(|(row, c)| {
            if c.is_some() {
                capture = c;
            }
            row
        })
        .collect();
    (rows, capture)
}

/// One architecture's allreduce row.
#[derive(Clone, Debug)]
pub(crate) struct AllreduceRow {
    /// Architecture name.
    pub arch: &'static str,
    /// Completion time of the collective, ms.
    pub completion_ms: f64,
}

/// Fig. 8(b): ring-allreduce completion per architecture at `data_bytes`.
/// Architectures run as independent parallel points.
pub(crate) fn run_allreduce(data_bytes: u64) -> Vec<AllreduceRow> {
    par::par_map(ARCH_NAMES.len(), |i| {
        let tm = util::ring_tm(8);
        // TA architectures get 2 uplinks so matching circuits can realize
        // the full ring (as the paper's testbed topology does).
        let ta = |cfg, arch| OpenOpticsNet::deploy_preset(cfg, arch).expect("TA preset deploys");
        let (name, mut net) = match ARCH_NAMES[i] {
            "c-through" => {
                let mut c = util::testbed(TO_SLICE_NS, 2);
                c.elephant_threshold = 100_000;
                ("c-through", ta(c, Architecture::cthrough(&tm)))
            }
            "jupiter" => {
                let mut net = ta(util::testbed(TO_SLICE_NS, 2), Architecture::jupiter());
                net.reconfigure(&tm).expect("jupiter evolution stays valid");
                ("jupiter", net)
            }
            "mordia" => ("mordia", ta(util::testbed(TO_SLICE_NS, 2), Architecture::mordia(&tm, 8))),
            _ => architecture(i, 2),
        };
        let hosts: Vec<HostId> = (0..8).map(HostId).collect();
        let idx = net.add_allreduce(hosts, data_bytes);
        net.run_for(SimTime::from_ms(400));
        par::note_net(&net);
        let done = net.engine.collective_done[idx];
        AllreduceRow { arch: name, completion_ms: done.map(|t| t.as_ms_f64()).unwrap_or(f64::NAN) }
    })
}

/// Render Fig. 8(a) as a table plus the CDF series the figure plots.
pub fn render_mice(rows: &[MiceRow]) -> String {
    let mut t = Table::new(&["architecture", "p50", "p90", "p99", "ops"]);
    for r in rows {
        t.row(vec![
            r.arch.to_string(),
            util::us(r.p50_us),
            util::us(r.p90_us),
            util::us(r.p99_us),
            r.samples.to_string(),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "
CDF series (cumulative fraction -> FCT):
",
    );
    for r in rows {
        let series = r
            .cdf
            .iter()
            .map(|(ns, f)| format!("{:.0}%:{}", f * 100.0, util::us(*ns as f64 / 1e3)))
            .collect::<Vec<_>>()
            .join("  ");
        out.push_str(&format!(
            "  {:<14} {}
",
            r.arch, series
        ));
    }
    out
}

/// Render Fig. 8(b) as a table.
pub(crate) fn render_allreduce(rows: &[AllreduceRow]) -> String {
    let mut t = Table::new(&["architecture", "allreduce completion"]);
    for r in rows {
        let c = if r.completion_ms.is_nan() {
            "did not finish".to_string()
        } else {
            format!("{:.2}ms", r.completion_ms)
        };
        t.row(vec![r.arch.to_string(), c]);
    }
    t.render()
}
