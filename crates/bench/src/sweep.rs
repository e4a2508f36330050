//! `experiments sweep` — the architecture × routing composition matrix.
//!
//! Runs every preset architecture against every routing scheme (× load,
//! × optional fault plan) through the unified
//! `OpenOpticsNet::deploy(arch, routing, ...)` entry point. Pairings the
//! compatibility contract rejects are *recorded*, not silently dropped:
//! the table lists the ran cells and a trailing section quotes the typed
//! `Error::Config` reason for every skipped pair.
//!
//! Cells are independent simulation points and fan out over the [`par`]
//! pool in index order, so the rendered output is byte-identical at any
//! `--jobs` count.
//!
//! [`par`]: crate::par

use openoptics_core::{Architecture, FaultPlan, OpenOpticsNet, PresetShape, TransportKind};
use openoptics_proto::{HostId, NodeId, PortId};
use openoptics_routing::algos;
use openoptics_sim::SimTime;
use openoptics_topo::TrafficMatrix;
use openoptics_workload::FctStats;

/// Testbed size: the paper's 8-ToR fabric.
const NODES: u32 = 8;

/// Every preset architecture, in table order.
pub(crate) const ARCHS: &[&str] = Architecture::PRESET_NAMES;

/// Every routing scheme, in table order.
pub(crate) const ALGOS: &[&str] = algos::NAMES;

/// The traffic matrix handed to demand-driven schedule generators: the
/// same all-pairs mesh the sweep's workload offers.
fn mesh_tm() -> TrafficMatrix {
    let mut tm = TrafficMatrix::uniform(NODES as usize, 100.0);
    for i in 0..NODES {
        tm.set(NodeId(i), NodeId(i), 0.0);
    }
    tm
}

/// Instantiate one architecture descriptor by sweep name.
fn arch_for(name: &str) -> Architecture {
    let shape = PresetShape { tm: &mesh_tm(), mordia_slices: NODES, shale_dim: 3, extra_slices: 3 };
    Architecture::by_name(name, &shape)
        .unwrap_or_else(|| unreachable!("unknown sweep architecture {name}"))
}

/// What happened in one sweep cell.
pub(crate) enum Outcome {
    /// The pairing deployed and the workload ran.
    Ran {
        /// Flows that completed within the measurement window.
        completed: usize,
        /// Flows offered.
        total: usize,
        /// Median flow completion time, microseconds (NaN if none).
        p50_us: f64,
        /// 99th-percentile flow completion time, microseconds.
        p99_us: f64,
    },
    /// The compatibility contract rejected the pairing.
    Skipped {
        /// The typed error's rendering — the recorded reason.
        reason: String,
    },
}

/// One cell of the sweep grid, with its result.
pub(crate) struct Cell {
    /// Architecture name.
    pub arch: &'static str,
    /// Routing-scheme name.
    pub algo: &'static str,
    /// Offered load factor (scales per-flow bytes).
    pub load: f64,
    /// Fault-plan label (`none` or `link-down`).
    pub fault: &'static str,
    /// Ran or skipped (with the recorded reason).
    pub outcome: Outcome,
}

/// The grid: every architecture × routing pair, crossed with the load
/// axis and (full mode only) the fault axis.
pub(crate) fn grid(quick: bool) -> Vec<(&'static str, &'static str, f64, &'static str)> {
    let loads: &[f64] = if quick { &[0.4] } else { &[0.1, 0.4] };
    let faults: &[&str] = if quick { &["none"] } else { &["none", "link-down"] };
    let mut cells = Vec::new();
    for &arch in ARCHS {
        for &algo in ALGOS {
            for &load in loads {
                for &fault in faults {
                    cells.push((arch, algo, load, fault));
                }
            }
        }
    }
    cells
}

/// Run the whole sweep, fanning cells over the worker pool; results come
/// back in grid order.
pub(crate) fn run(quick: bool) -> Vec<Cell> {
    let cells = grid(quick);
    crate::par::par_map(cells.len(), |i| {
        let (arch, algo, load, fault) = cells[i];
        run_cell(arch, algo, load, fault, quick)
    })
}

/// Build, deploy, and run one cell.
fn run_cell(
    arch: &'static str,
    algo: &'static str,
    load: f64,
    fault: &'static str,
    quick: bool,
) -> Cell {
    let cfg = crate::util::testbed(100_000, 1);
    let (routing, lookup, multipath) =
        algos::by_name(algo).unwrap_or_else(|| unreachable!("unknown sweep routing {algo}"));
    let mut net = match OpenOpticsNet::deploy(cfg, arch_for(arch), routing, lookup, multipath) {
        Ok(net) => net,
        Err(e) => {
            return Cell {
                arch,
                algo,
                load,
                fault,
                outcome: Outcome::Skipped { reason: e.to_string() },
            }
        }
    };
    if fault == "link-down" {
        let plan = FaultPlan::builder()
            .link_down(NodeId(1), PortId(0), 200_000, 2_000_000)
            .build()
            .expect("sweep fault plan is well-formed");
        net.inject_faults(&plan).expect("sweep fault plan targets this testbed");
    }
    // All-pairs mesh, per-flow bytes scaled by the load factor.
    #[expect(clippy::cast_possible_truncation, reason = "a float-to-int `as` saturates")]
    let bytes = (load * 100_000.0) as u64;
    let mut i = 0usize;
    for s in 0..NODES {
        for d in 0..NODES {
            if s == d {
                continue;
            }
            net.add_flow(
                SimTime::from_ns(100 + i as u64 * 5_000),
                HostId(s),
                HostId(d),
                bytes,
                TransportKind::Paced,
            );
            i += 1;
        }
    }
    net.run_for(SimTime::from_ms(if quick { 30 } else { 60 }));
    let mut fcts: Vec<u64> = net.fct().completed().iter().map(|r| r.fct_ns()).collect();
    fcts.sort_unstable();
    let p = |q: f64| FctStats::percentile(&fcts, q).map(|x| x as f64 / 1_000.0).unwrap_or(f64::NAN);
    let outcome =
        Outcome::Ran { completed: fcts.len(), total: i, p50_us: p(50.0), p99_us: p(99.0) };
    crate::par::note_net(&net);
    Cell { arch, algo, load, fault, outcome }
}

/// Render the comparison table plus the skipped-pair section.
pub(crate) fn render(cells: &[Cell]) -> String {
    let mut t =
        crate::util::Table::new(&["arch", "routing", "load", "fault", "flows", "p50", "p99"]);
    for c in cells {
        if let Outcome::Ran { completed, total, p50_us, p99_us } = c.outcome {
            t.row(vec![
                c.arch.to_string(),
                c.algo.to_string(),
                format!("{:.1}", c.load),
                c.fault.to_string(),
                format!("{completed}/{total}"),
                crate::util::us(p50_us),
                crate::util::us(p99_us),
            ]);
        }
    }
    let mut out = t.render();
    // One line per rejected pair (identical across the load/fault axes, so
    // deduplicated): the recorded reason the cell was skipped.
    let mut seen: Vec<(&str, &str)> = Vec::new();
    let mut skips = String::new();
    for c in cells {
        if let Outcome::Skipped { reason } = &c.outcome {
            if !seen.contains(&(c.arch, c.algo)) {
                seen.push((c.arch, c.algo));
                skips.push_str(&format!("  {} x {}: {}\n", c.arch, c.algo, reason));
            }
        }
    }
    if !skips.is_empty() {
        out.push_str("\nskipped pairings (rejected by the compatibility contract):\n");
        out.push_str(&skips);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_pair() {
        let g = grid(true);
        assert_eq!(g.len(), ARCHS.len() * ALGOS.len());
        let full = grid(false);
        assert_eq!(full.len(), ARCHS.len() * ALGOS.len() * 2 * 2);
    }

    #[test]
    fn skipped_pairs_carry_reasons_and_compatible_pairs_run() {
        crate::par::set_jobs(4);
        let cells: Vec<Cell> = grid(true)
            .into_iter()
            .filter(|(a, r, _, _)| {
                // A known-compatible and a known-incompatible pairing.
                (*a, *r) == ("rotornet", "vlb") || (*a, *r) == ("clos", "vlb")
            })
            .map(|(a, r, load, fault)| run_cell(a, r, load, fault, true))
            .collect();
        assert_eq!(cells.len(), 2);
        match &cells.iter().find(|c| c.arch == "clos").unwrap().outcome {
            Outcome::Skipped { reason } => {
                assert!(reason.contains("config"), "typed Config error expected: {reason}")
            }
            Outcome::Ran { .. } => panic!("clos x vlb must be rejected"),
        }
        match &cells.iter().find(|c| c.arch == "rotornet").unwrap().outcome {
            Outcome::Ran { completed, total, .. } => {
                assert_eq!(completed, total, "rotornet x vlb delivers the mesh")
            }
            Outcome::Skipped { reason } => panic!("rotornet x vlb must run: {reason}"),
        }
    }
}
