//! Fig. 13 — emulation accuracy: UDP RTT distribution.
//!
//! The paper replays the "Realizing RotorNet" UDP RTT experiment:
//! continuous probes between two hosts on RotorNet show stepped RTT
//! increases corresponding to additional routing hops; OpenOptics' emulated
//! fabric reproduces the step structure of the real-OCS run with a lower
//! base and no long tail. Here both fabric profiles (real OCS and Tofino2
//! emulation) run the identical probe train; the comparison is between the
//! two distributions' shapes.

use crate::par;
use crate::util::{self, Table};
use openoptics_core::{Architecture, OpenOpticsNet};
use openoptics_proto::HostId;
use openoptics_sim::SimTime;

/// Distribution summary of one fabric profile.
#[derive(Clone, Debug)]
pub(crate) struct Fig13Row {
    /// Which fabric realization.
    pub fabric: &'static str,
    /// Probes completed.
    pub samples: usize,
    /// RTT percentiles, µs: (p10, p50, p90, p99).
    pub pcts_us: (f64, f64, f64, f64),
    /// Detected RTT steps (cluster means), µs.
    pub steps_us: Vec<f64>,
    /// `(total hops, mean RTT µs, count)` per hop-count bucket.
    pub by_hops: Vec<(u8, f64, usize)>,
}

fn measure(emulated: bool, probes: u64) -> Fig13Row {
    let mut cfg = util::testbed(100_000, 1);
    cfg.emulated_fabric = emulated;
    let mut net =
        OpenOpticsNet::deploy_preset(cfg, Architecture::rotornet()).expect("rotornet deploys");
    let train = net.add_probe_train(HostId(0), HostId(5), 50_000, probes, 100);
    net.run_for(SimTime::from_ms(probes / 20 * 2 + 50));
    par::note_net(&net);
    let stats = net.engine.probe_stats(train);
    let p = |q: f64| stats.percentile_ns(q).map(|x| x as f64 / 1e3).unwrap_or(f64::NAN);
    Fig13Row {
        fabric: if emulated { "emulated (Tofino2)" } else { "real OCS" },
        samples: stats.len(),
        pcts_us: (p(10.0), p(50.0), p(90.0), p(99.0)),
        steps_us: stats.steps_ns(0.4).iter().map(|&s| s as f64 / 1e3).collect(),
        by_hops: stats.by_hops().into_iter().map(|(h, m, c)| (h, m / 1e3, c)).collect(),
    }
}

/// Run both fabric profiles as independent parallel points.
pub(crate) fn run(probes: u64) -> Vec<Fig13Row> {
    par::par_map(2, |i| measure(i == 1, probes))
}

/// Render as a table.
pub(crate) fn render(rows: &[Fig13Row]) -> String {
    let mut t = Table::new(&["fabric", "probes", "p10", "p50", "p90", "p99", "RTT steps"]);
    for r in rows {
        t.row(vec![
            r.fabric.to_string(),
            r.samples.to_string(),
            util::us(r.pcts_us.0),
            util::us(r.pcts_us.1),
            util::us(r.pcts_us.2),
            util::us(r.pcts_us.3),
            r.steps_us.iter().map(|s| util::us(*s)).collect::<Vec<_>>().join(", "),
        ]);
    }
    let mut out = t.render();
    for r in rows {
        out.push_str(&format!(
            "{}: per-hop means: {}\n",
            r.fabric,
            r.by_hops
                .iter()
                .map(|(h, m, c)| format!("{h} hops -> {} (n={c})", util::us(*m)))
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }
    out.push_str("(paper: stepped RTT increases per extra hop; emulated and real OCS curves share the step structure)\n");
    out
}
