//! Fig. 10 — Case III: choice of optical hardware.
//!
//! Memcached mice FCTs on RotorNet emulated over the four OCS technologies
//! of the device catalog — i.e. across supported time-slice durations —
//! under (a) VLB and (b) UCMP routing.
//!
//! Shape targets: VLB tail FCT grows proportionally with slice duration
//! (worst case waits a full optical cycle at the intermediate ToR); UCMP is
//! far less sensitive, with a cost-performance sweet spot around the
//! 100 µs-class device.

use crate::par;
use crate::util::{self, Table};
use openoptics_core::{Architecture, OpenOpticsNet};
use openoptics_fabric::OCS_CATALOG;
use openoptics_routing::algos::Ucmp;
use openoptics_routing::{LookupMode, MultipathMode};
use openoptics_sim::SimTime;

/// One `(device, routing)` cell.
#[derive(Clone, Debug)]
pub(crate) struct Fig10Row {
    /// OCS technology name.
    pub device: &'static str,
    /// Slice duration, ns.
    pub slice_ns: u64,
    /// Routing scheme.
    pub routing: &'static str,
    /// Median mice FCT, µs.
    pub p50_us: f64,
    /// 99th-percentile mice FCT, µs.
    pub p99_us: f64,
    /// Completed operations.
    pub samples: usize,
    /// CDF series `(fct_ns, fraction)` at ten fractions (the plotted curve).
    pub cdf: Vec<(u64, f64)>,
}

/// Fig. 10's cells, in table order: each catalog device under VLB, then
/// UCMP.
pub const FIG10_CELLS: usize = OCS_CATALOG.len() * 2;

/// Fig. 10's cell `i` (device `i / 2`; VLB for an even `i`, UCMP for an
/// odd one) at `seed` (the figure's is 7), deployed, with memcached
/// attached until `duration_ms`.
pub fn fig10_cell(i: usize, duration_ms: u64, seed: u64) -> OpenOpticsNet {
    let dev = &OCS_CATALOG[i / 2];
    let mut cfg = util::testbed(dev.min_slice_ns, 2);
    cfg.guard_ns = dev.guardband_ns();
    cfg.seed = seed;
    let arch = Architecture::rotornet();
    let mut net = match i % 2 {
        0 => OpenOpticsNet::deploy_preset(cfg, arch),
        _ => OpenOpticsNet::deploy(
            cfg,
            arch,
            Box::new(Ucmp::default()),
            LookupMode::PerHop,
            MultipathMode::PerPacket,
        ),
    }
    .expect("rotornet deploys");
    util::attach_memcached(&mut net, SimTime::from_ms(duration_ms));
    net
}

/// Run the device × routing sweep at `seed`. `duration_ms` is the workload
/// window. Each `(device, routing)` cell is an independent parallel point.
pub(crate) fn run(duration_ms: u64, seed: u64) -> Vec<Fig10Row> {
    par::par_map(FIG10_CELLS, |i| {
        let mut net = fig10_cell(i, duration_ms, seed);
        net.run_for(SimTime::from_ms(duration_ms + 10));
        par::note_net(&net);
        let (p50, _, p99, samples) = util::mice_percentiles(net.fct());
        let dev = &OCS_CATALOG[i / 2];
        Fig10Row {
            device: dev.name,
            slice_ns: dev.min_slice_ns,
            routing: ["VLB", "UCMP"][i % 2],
            p50_us: p50,
            p99_us: p99,
            samples,
            cdf: openoptics_workload::FctStats::cdf(&net.fct().mice_fcts(), 10),
        }
    })
}

/// The figure's table: one row per cell.
pub(crate) fn table(rows: &[Fig10Row]) -> Table {
    let mut t = Table::new(&["device", "slice", "routing", "p50", "p99", "ops"]);
    for r in rows {
        t.row(vec![
            r.device.to_string(),
            format!("{}us", r.slice_ns / 1_000),
            r.routing.to_string(),
            util::us(r.p50_us),
            util::us(r.p99_us),
            r.samples.to_string(),
        ]);
    }
    t
}

/// Render the table and the CDF series.
pub(crate) fn render(rows: &[Fig10Row]) -> String {
    let mut out = table(rows).render();
    out.push_str("\nCDF series (cumulative fraction -> FCT):\n");
    for r in rows {
        let series = r
            .cdf
            .iter()
            .map(|(ns, f)| format!("{:.0}%:{}", f * 100.0, util::us(*ns as f64 / 1e3)))
            .collect::<Vec<_>>()
            .join("  ");
        out.push_str(&format!(
            "  {:<19}{:<6}{:<5} {}\n",
            r.device,
            format!("{}us", r.slice_ns / 1_000),
            r.routing,
            series
        ));
    }
    out
}
