//! Table 4 — effectiveness of congestion detection and traffic push-back.
//!
//! HOHO is the most congestion-vulnerable routing scheme (it overshoots the
//! earliest slices), so the paper stress-tests it at 70% core load under
//! three service configurations: neither service, congestion detection
//! alone (defer responses), and detection + push-back. Shape: column 1
//! shows loss and long queueing delays; column 2 trims both slightly;
//! column 3 eliminates loss and collapses delays to microseconds at some
//! throughput cost (senders are held back).

use crate::par;
use crate::util::{attach_poisson, testbed, Table};
use openoptics_core::{Architecture, OpenOpticsNet};
use openoptics_routing::algos::Hoho;
use openoptics_routing::{LookupMode, MultipathMode};
use openoptics_sim::nearest_rank;
use openoptics_sim::time::SimTime;
use openoptics_workload::Trace;

const NODES: u32 = 12;
const SLICE_NS: u64 = 300_000;

/// One `(config, trace)` measurement.
#[derive(Clone, Debug)]
pub struct Table4Row {
    /// Service configuration label.
    pub config: &'static str,
    /// Trace name.
    pub trace: &'static str,
    /// Delivered goodput across the fabric, Gbps.
    pub throughput_gbps: f64,
    /// Packet loss rate (all causes).
    pub loss_rate: f64,
    /// Mean one-way packet delay, µs.
    pub avg_delay_us: f64,
    /// 95th-percentile one-way delay, µs.
    pub p95_delay_us: f64,
}

fn build(detection: bool, pushback: bool) -> OpenOpticsNet {
    let mut cfg = testbed(SLICE_NS, 1);
    cfg.node_num = NODES;
    cfg.congestion_detection = detection;
    cfg.pushback = pushback;
    cfg.congestion_policy = "defer".to_string();
    cfg.queue_capacity = 8 * 1024 * 1024;
    // Let the slice-capacity condition (the paper's novel detector) bind;
    // the classical threshold sits near queue capacity.
    cfg.congestion_threshold = 6 * 1024 * 1024;
    let mut net = OpenOpticsNet::deploy(
        cfg,
        Architecture::rotornet(),
        Box::new(Hoho::default()),
        LookupMode::PerHop,
        MultipathMode::None,
    )
    .expect("rotornet deploys");
    net.engine.record_delays = true;
    // Open-loop trace replay: measure first-transmission loss and delay,
    // not a retransmission storm.
    net.engine.watchdog_retransmit = false;
    net
}

fn measure(
    config: &'static str,
    detection: bool,
    pushback: bool,
    trace: Trace,
    ms: u64,
) -> Table4Row {
    let mut net = build(detection, pushback);
    // The stress point: the paper drives 70% core utilization on a
    // 6-uplink fabric; this reduced single-uplink stand-in saturates
    // earlier (HOHO's deferrals inflate hop counts), so the equivalent
    // stress lands at ~50% host injection (~70% core). See EXPERIMENTS.md.
    attach_poisson(&mut net, trace, 0.42, SimTime::from_ms(ms), 4);
    net.run_for(SimTime::from_ms(ms));
    par::note_net(&net);
    let c = net.engine.counters;
    let lost = c.switch_drops + c.fabric_drops + c.link_drops + c.no_route_drops;
    let loss_rate =
        if c.host_tx_packets > 0 { lost as f64 / c.host_tx_packets as f64 } else { 0.0 };
    let tput = c.delivered_payload_bytes as f64 * 8.0 / (ms as f64 / 1e3) / 1e9;
    let mut delays = std::mem::take(&mut net.engine.delay_samples);
    delays.sort_unstable();
    let avg = if delays.is_empty() {
        0.0
    } else {
        delays.iter().sum::<u64>() as f64 / delays.len() as f64 / 1e3
    };
    let p95 = match nearest_rank(delays.len(), 95, 100) {
        0 => 0.0,
        rank => delays[rank - 1] as f64 / 1e3,
    };
    Table4Row {
        config,
        trace: trace.name(),
        throughput_gbps: tput,
        loss_rate,
        avg_delay_us: avg,
        p95_delay_us: p95,
    }
}

/// Run the 3-config × 3-trace ablation over `ms` milliseconds per cell;
/// each `(config, trace)` cell is an independent parallel point.
pub fn run(ms: u64) -> Vec<Table4Row> {
    const CONFIGS: [(&str, bool, bool); 3] = [
        ("no detection, no push-back", false, false),
        ("detection only", true, false),
        ("detection + push-back", true, true),
    ];
    par::par_map(CONFIGS.len() * Trace::ALL.len(), |i| {
        let (config, det, pb) = CONFIGS[i / Trace::ALL.len()];
        let trace = Trace::ALL[i % Trace::ALL.len()];
        measure(config, det, pb, trace, ms)
    })
}

/// Render as a table.
pub fn render(rows: &[Table4Row]) -> String {
    let mut t = Table::new(&["config", "trace", "throughput", "loss", "avg delay", "p95 delay"]);
    for r in rows {
        t.row(vec![
            r.config.to_string(),
            r.trace.to_string(),
            format!("{:.1} Gbps", r.throughput_gbps),
            format!("{:.2}%", r.loss_rate * 100.0),
            format!("{:.0}us", r.avg_delay_us),
            format!("{:.0}us", r.p95_delay_us),
        ]);
    }
    format!(
        "{}(paper shape: col-1 ~1-2% loss with ms-scale p95; detection+push-back -> 0% loss, \
         us-scale delays, somewhat lower throughput)\n",
        t.render()
    )
}
