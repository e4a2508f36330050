//! Fig. 12 — EQO error vs. update interval.
//!
//! The paper fills and drains a queue with combined line-rate and bursty
//! traffic and compares the ingress-register estimate against ground truth
//! read by egress packets. At a 50 ns interval the error stays below 725 B
//! (under half an MTU) with 1.3% generator overhead.

use crate::util::Table;
use openoptics_sim::Bandwidth;
use openoptics_sim::SimRng;
use openoptics_sim::SimTime;
use openoptics_switch::Eqo;

/// One update-interval measurement.
#[derive(Clone, Debug)]
pub(crate) struct Fig12Row {
    /// EQO update interval, ns.
    pub interval_ns: u64,
    /// Maximum |estimate - truth| observed, bytes.
    pub max_error_bytes: u64,
    /// Mean |error|, bytes.
    pub mean_error_bytes: f64,
    /// Packet-generator pipeline overhead at this interval (fraction of
    /// Tofino2's 1.5 Bpps).
    pub generator_overhead: f64,
}

/// Drive one interval setting through a fill/drain scenario.
///
/// Enqueues arrive in bursts (2–6 MTU packets back to back) separated by
/// idle gaps; dequeue happens at line rate whenever the queue is non-empty.
/// Ground truth is a fluid line-rate drain; the estimate is the lazy EQO.
fn measure(interval_ns: u64, steps: usize, seed: u64) -> Fig12Row {
    let bw = Bandwidth::gbps(100);
    let mut eqo = Eqo::new(1, 1, interval_ns, bw);
    let mut rng = SimRng::new(seed);
    let mut now = 0u64;
    let mut last = 0u64;
    // Fluid ground truth: the egress drains at exactly line rate whenever
    // the queue is non-empty (what the paper reads via egress packets).
    let mut truth = 0f64;
    let mut max_err = 0u64;
    let mut sum_err = 0f64;
    let mut n = 0u64;

    for _ in 0..steps {
        // Idle gap, then a burst of back-to-back packets.
        let gap = rng.range(50..400u64);
        now += gap;
        truth = (truth - (bw.bytes_in_ns(now - last)) as f64).max(0.0);
        last = now;
        let burst = rng.range(2..=6u32);
        for _ in 0..burst {
            let size: u32 = *rng.pick(&[64u32, 256, 750, 1500]);
            truth += size as f64;
            eqo.on_enqueue(0, 0, size);
            now += bw.tx_time_ns(size as u64).max(1);
            truth = (truth - (bw.bytes_in_ns(now - last)) as f64).max(0.0);
            last = now;
            eqo.refresh(SimTime::from_ns(now), &[0]);
            let est = eqo.estimate(0, 0);
            #[expect(clippy::cast_possible_truncation, reason = "a float-to-int `as` saturates")]
            let err = (est as f64 - truth).abs() as u64;
            max_err = max_err.max(err);
            sum_err += err as f64;
            n += 1;
        }
    }
    Fig12Row {
        interval_ns,
        max_error_bytes: max_err,
        mean_error_bytes: sum_err / n as f64,
        generator_overhead: eqo.generator_overhead(1.5e9),
    }
}

/// Sweep update intervals.
pub(crate) fn run(steps: usize) -> Vec<Fig12Row> {
    [25u64, 50, 100, 200, 400, 800].iter().map(|&i| measure(i, steps, 12)).collect()
}

/// Render as a table.
pub(crate) fn render(rows: &[Fig12Row]) -> String {
    let mut t = Table::new(&["update interval", "max error", "mean error", "generator overhead"]);
    for r in rows {
        t.row(vec![
            format!("{}ns", r.interval_ns),
            format!("{}B", r.max_error_bytes),
            format!("{:.0}B", r.mean_error_bytes),
            format!("{:.2}%", r.generator_overhead * 100.0),
        ]);
    }
    format!("{}(paper: <=725 B error and 1.3% overhead at 50 ns)\n", t.render())
}
