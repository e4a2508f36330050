//! Fig. 11 — switch-to-switch delay vs. packet size.
//!
//! The paper measures ToR-to-ToR delay through the MEMS OCS with the
//! on-chip packet generator at line rate: minimum 1287 ns, maximum 1324 ns,
//! so queue rotation is offset by the minimum and the guardband must absorb
//! the 34 ns spread.

use crate::util::Table;
use openoptics_sim::SimRng;
use openoptics_switch::PipelineModel;

/// Per-packet-size delay statistics, ns.
#[derive(Clone, Debug)]
pub(crate) struct Fig11Row {
    /// Packet size, bytes.
    pub size: u32,
    /// Minimum observed delay, ns.
    pub min_ns: u64,
    /// Mean observed delay, ns.
    pub mean_ns: f64,
    /// Maximum observed delay, ns.
    pub max_ns: u64,
}

/// Summary of the sweep: global bounds and the rotation-variance window.
#[derive(Clone, Debug)]
pub(crate) struct Fig11Summary {
    /// Per-size rows.
    pub rows: Vec<Fig11Row>,
    /// Global minimum delay (the rotation offset), ns.
    pub global_min_ns: u64,
    /// The guardband contribution (max - min), ns.
    pub variance_ns: u64,
}

/// Measure `probes` packets per size over the pipeline model.
pub(crate) fn run(probes: usize) -> Fig11Summary {
    let model = PipelineModel::default();
    let mut rng = SimRng::new(11);
    let mut rows = vec![];
    let mut gmin = u64::MAX;
    let mut gmax = 0u64;
    for size in [64u32, 128, 256, 512, 1024, 1500] {
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut sum = 0u64;
        for _ in 0..probes {
            let d = model.delay_ns(size, &mut rng);
            min = min.min(d);
            max = max.max(d);
            sum += d;
        }
        gmin = gmin.min(min);
        gmax = gmax.max(max);
        rows.push(Fig11Row { size, min_ns: min, mean_ns: sum as f64 / probes as f64, max_ns: max });
    }
    Fig11Summary { rows, global_min_ns: gmin, variance_ns: gmax - gmin }
}

/// Render as a table plus the guardband summary line.
pub(crate) fn render(s: &Fig11Summary) -> String {
    let mut t = Table::new(&["packet size", "min", "mean", "max"]);
    for r in &s.rows {
        t.row(vec![
            format!("{}B", r.size),
            format!("{}ns", r.min_ns),
            format!("{:.1}ns", r.mean_ns),
            format!("{}ns", r.max_ns),
        ]);
    }
    format!(
        "{}\nrotation offset (min delay): {} ns; variance to cover in guardband: {} ns (paper: 1287 ns / 34 ns)\n",
        t.render(),
        s.global_min_ns,
        s.variance_ns
    )
}
