//! Fig. 14 (Appendix A) — buffer-offloading RTT stability.
//!
//! The paper sends 1500 B packets from the observed ToR to a host at 100 µs
//! intervals; the host echoes them (simulating offload store + retrieval).
//! The libvma implementation keeps 95% of RTTs within a 0.75 µs band and
//! the deviation from the 100 µs send cadence within ±0.25 µs; a kernel
//! UDP baseline shows millisecond-scale excursions.
//!
//! The switch↔host path here is the engine's downlink/uplink pair; the two
//! stacks differ in their host-processing delay model: libvma bypasses the
//! kernel (sub-µs, tightly bounded), the kernel path adds scheduler jitter
//! with a heavy tail.

use crate::util::Table;
use openoptics_sim::nearest_rank;
use openoptics_sim::rng::SimRng;

/// Per-stack RTT stability summary (values in µs).
#[derive(Clone, Debug)]
pub struct Fig14Row {
    /// Host stack under test.
    pub stack: &'static str,
    /// Median RTT, µs.
    pub p50_us: f64,
    /// Width of the central 95% band, µs.
    pub band95_us: f64,
    /// Max |deviation| of inter-arrival spacing from the 100 µs cadence, µs
    /// at the 95th percentile.
    pub spacing_dev95_us: f64,
}

/// Host-processing delay per stack, ns.
fn host_delay_ns(stack: &str, rng: &mut SimRng) -> u64 {
    match stack {
        // libvma: user-space poll-mode; tight bound (§A: 0.75 µs band).
        "libvma" => 700 + rng.range(0..700u64),
        // kernel UDP: syscall + softirq; occasional scheduler excursions.
        _ => {
            let base = 4_000 + rng.range(0..4_000u64);
            if rng.chance(0.03) {
                base + rng.range(50_000..2_000_000u64) // preemption spike
            } else {
                base
            }
        }
    }
}

fn measure(stack: &'static str, n: usize, seed: u64) -> Fig14Row {
    let mut rng = SimRng::new(seed);
    // Fixed wire components: downlink serialization (1500 B @ 100 G = 120 ns)
    // + propagation each way + switch pipeline.
    let wire_one_way = 120 + 100 + 600;
    let interval = 100_000u64;
    let mut rtts = vec![];
    let mut arrivals = vec![];
    for i in 0..n {
        let send = i as u64 * interval;
        let rtt = 2 * wire_one_way + host_delay_ns(stack, &mut rng);
        rtts.push(rtt);
        arrivals.push(send + rtt);
    }
    rtts.sort_unstable();
    // The `numer / denom` quantile.
    let pct = |v: &[u64], numer, denom| v[nearest_rank(v.len(), numer, denom) - 1];
    let p50 = pct(&rtts, 1, 2) as f64 / 1e3;
    let band95 = (pct(&rtts, 39, 40) - pct(&rtts, 1, 40)) as f64 / 1e3;
    // Spacing deviation: difference of consecutive arrivals vs the cadence.
    let mut devs: Vec<u64> =
        arrivals.windows(2).map(|w| (w[1] - w[0]).abs_diff(interval)).collect();
    devs.sort_unstable();
    let dev95 = pct(&devs, 19, 20) as f64 / 1e3;
    Fig14Row { stack, p50_us: p50, band95_us: band95, spacing_dev95_us: dev95 }
}

/// Run both stacks with `n` echoes each.
pub fn run(n: usize) -> Vec<Fig14Row> {
    vec![measure("libvma", n, 14), measure("kernel-udp", n, 15)]
}

/// Render as a table.
pub fn render(rows: &[Fig14Row]) -> String {
    let mut t = Table::new(&["host stack", "p50 RTT", "95% band", "95% spacing deviation"]);
    for r in rows {
        t.row(vec![
            r.stack.to_string(),
            format!("{:.2}us", r.p50_us),
            format!("{:.2}us", r.band95_us),
            format!("{:.2}us", r.spacing_dev95_us),
        ]);
    }
    format!(
        "{}(paper: libvma 95% band ~0.75us, spacing within +-0.25us; kernel baseline far worse)\n",
        t.render()
    )
}
