//! Shared experiment plumbing: testbed configurations, workload
//! attachment, and result formatting.

use openoptics_core::{Architecture, NetConfig, OpenOpticsNet, TransportKind};
use openoptics_proto::{HostId, NodeId};
use openoptics_routing::algos::Hoho;
use openoptics_routing::{LookupMode, MultipathMode};
use openoptics_sim::SimTime;
use openoptics_topo::TrafficMatrix;
use openoptics_workload::{FctStats, PoissonArrivals, Trace};

/// The 8-ToR testbed of Fig. 7 (one host per ToR, 100 Gbps links),
/// parameterized by slice duration and uplink count.
pub(crate) fn testbed(slice_ns: u64, uplinks: u16) -> NetConfig {
    NetConfig {
        node_num: 8,
        uplink: uplinks,
        hosts_per_node: 1,
        slice_ns,
        guard_ns: (slice_ns / 10).clamp(200, 1_000),
        uplink_gbps: 100,
        host_link_gbps: 100,
        sync_err_ns: 28,
        seed: 7,
        queue_capacity: 8 * 1024 * 1024,
        ..Default::default()
    }
}

/// Memcached traffic matrix: every client ToR sends SETs toward the server
/// ToR (and small responses flow back) — the demand TA schedulers see.
pub(crate) fn memcached_tm(n: u32, server_tor: NodeId) -> TrafficMatrix {
    let mut tm = TrafficMatrix::zeros(n as usize);
    for i in 0..n {
        let node = NodeId(i);
        if node != server_tor {
            tm.set(node, server_tor, 1_000.0);
            tm.set(server_tor, node, 100.0);
        }
    }
    tm
}

/// Ring traffic matrix (allreduce): `i -> i+1` for all nodes.
pub(crate) fn ring_tm(n: u32) -> TrafficMatrix {
    let mut tm = TrafficMatrix::zeros(n as usize);
    for i in 0..n {
        tm.set(NodeId(i), NodeId((i + 1) % n), 1_000.0);
    }
    tm
}

/// Attach the §6 memcached workload: server on host 0, every other host a
/// client, running until `stop`.
pub(crate) fn attach_memcached(net: &mut OpenOpticsNet, stop: SimTime) {
    use openoptics_host::apps::MemcachedParams;
    let n = net.engine.cfg.total_hosts();
    let clients: Vec<HostId> = (1..n).map(HostId).collect();
    net.add_memcached(MemcachedParams::paper(), HostId(0), clients, stop);
}

/// Attach Poisson flow arrivals over all hosts, sized by `trace`, at
/// `load` of the host link until `horizon`. Single flows are capped at
/// 2 MB so one straggler doesn't dominate a short window (documented
/// substitution; the distribution body is preserved).
pub(crate) fn attach_poisson(
    net: &mut OpenOpticsNet,
    trace: Trace,
    load: f64,
    horizon: SimTime,
    seed: u64,
) {
    let cfg = &net.engine.cfg;
    let hosts = (0..cfg.total_hosts()).map(HostId).collect();
    let mut gen = PoissonArrivals::new(hosts, trace.dist(), cfg.host_link_bandwidth(), load, seed);
    for f in gen.take_until(horizon) {
        net.add_flow(f.at, f.src, f.dst, f.bytes.min(2_000_000), TransportKind::Paced);
    }
}

/// RotorNet under per-hop HOHO on `cfg`, replaying traffic open-loop:
/// each delivered packet's delay recorded and no watchdog retransmission,
/// so loss and delay are first-transmission figures (Table 4, ablations).
pub(crate) fn hoho_open_loop(cfg: NetConfig) -> OpenOpticsNet {
    let (lookup, multipath) = (LookupMode::PerHop, MultipathMode::None);
    let hoho = Box::new(Hoho::default());
    let mut net = OpenOpticsNet::deploy(cfg, Architecture::rotornet(), hoho, lookup, multipath)
        .expect("rotornet deploys");
    net.engine.record_delays = true;
    net.engine.watchdog_retransmit = false;
    net
}

/// Packets lost to any cause, over packets the hosts sent.
pub(crate) fn loss_rate(net: &OpenOpticsNet) -> f64 {
    let c = net.engine.counters;
    let lost = c.switch_drops + c.fabric_drops + c.no_route_drops + c.link_drops;
    lost as f64 / c.host_tx_packets.max(1) as f64
}

/// Mean of `delays_ns` in µs; 0 for none.
pub(crate) fn mean_us(delays_ns: &[u64]) -> f64 {
    if delays_ns.is_empty() {
        return 0.0;
    }
    delays_ns.iter().sum::<u64>() as f64 / delays_ns.len() as f64 / 1e3
}

/// Mice FCT percentiles in microseconds: `(p50, p90, p99, samples)`.
pub(crate) fn mice_percentiles(fct: &FctStats) -> (f64, f64, f64, usize) {
    let v = fct.mice_fcts();
    let p = |q: f64| FctStats::percentile(&v, q).map(|x| x as f64 / 1_000.0).unwrap_or(f64::NAN);
    (p(50.0), p(90.0), p(99.0), v.len())
}

/// Format a microsecond value for table output.
pub(crate) fn us(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v >= 1_000.0 {
        format!("{:.2}ms", v / 1_000.0)
    } else {
        format!("{v:.1}us")
    }
}

/// Simple aligned table printer.
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub(crate) fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: vec![] }
    }

    /// Append a row (must match the header arity).
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Cell by cell, what `tables` (one per seed, of one shape) read: a
    /// cell equal at every seed as it is; a number as `median [min, max]`
    /// (the lower median for an even count), in the cells' own unit and
    /// precision (a `us`/`ms` time through [`us`]); anything else as each
    /// value read, with how many seeds read it.
    pub(crate) fn ensemble(tables: &[Table]) -> Table {
        let cell = |r: usize, c: usize| {
            summarize(&tables.iter().map(|t| t.rows[r][c].as_str()).collect::<Vec<_>>())
        };
        let (header, rows) = (&tables[0].header, 0..tables[0].rows.len());
        let rows = rows.map(|r| (0..header.len()).map(|c| cell(r, c)).collect()).collect();
        Table { header: header.clone(), rows }
    }
}

/// One ensemble cell (see [`Table::ensemble`]).
fn summarize(cells: &[&str]) -> String {
    if cells.iter().all(|c| *c == cells[0]) {
        return cells[0].to_string();
    }
    match cells.iter().map(|c| number(c)).collect::<Option<Vec<_>>>() {
        Some(v) if v.iter().all(|n| n.2 == v[0].2) => {
            let decimals = v.iter().map(|n| n.1).max().unwrap_or(0);
            let show = |x: f64| match v[0].2 {
                "us" => us(x),
                unit => format!("{x:.decimals$}{unit}"),
            };
            let mut xs: Vec<f64> = v.iter().map(|n| n.0).collect();
            xs.sort_by(f64::total_cmp);
            let (lo, mid, hi) = (xs[0], xs[(xs.len() - 1) / 2], xs[xs.len() - 1]);
            format!("{} [{}, {}]", show(mid), show(lo), show(hi))
        }
        _ => {
            let mut seen = std::collections::BTreeMap::new();
            for c in cells {
                *seen.entry(*c).or_insert(0) += 1;
            }
            let each: Vec<String> = seen.iter().map(|(v, k)| format!("{v} x{k}")).collect();
            each.join(", ")
        }
    }
}

/// A cell's number, its decimal places and its unit: `"1.50ms"` reads
/// `(1500.0, 2, "us")`, `"0.42%"` `(0.42, 2, "%")`, `"8 us"` `(8.0, 0,
/// " us")`.
fn number(cell: &str) -> Option<(f64, usize, &str)> {
    let end = cell.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(cell.len());
    let (digits, unit) = cell.split_at(end);
    let x: f64 = digits.parse().ok()?;
    let decimals = digits.find('.').map_or(0, |dot| digits.len() - dot - 1);
    match unit {
        "ms" => Some((x * 1_000.0, decimals, "us")),
        _ => Some((x, decimals, unit)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["arch", "p50", "p99"]);
        t.row(vec!["clos".into(), "12.0us".into(), "40.1us".into()]);
        t.row(vec!["rotornet".into(), "300.5us".into(), "1.20ms".into()]);
        let s = t.render();
        assert!(s.contains("arch"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn tm_builders() {
        let tm = memcached_tm(8, NodeId(0));
        assert!(tm.get(NodeId(3), NodeId(0)) > 0.0);
        assert_eq!(tm.get(NodeId(3), NodeId(4)), 0.0);
        let r = ring_tm(4);
        assert!(r.get(NodeId(3), NodeId(0)) > 0.0);
    }

    #[test]
    fn an_ensemble_summarizes_each_cell_over_the_seeds() {
        let tables: Vec<Table> = [
            ["ucmp", "32.7us", "0.00%", "no", "3/8"],
            ["ucmp", "1.20ms", "0.10%", "yes", "2/8"],
            ["ucmp", "40.1us", "0.25%", "no", "-"],
        ]
        .iter()
        .map(|cells| {
            let mut t = Table::new(&["routing", "p99", "loss", "breached", "done"]);
            t.row(cells.iter().map(|c| c.to_string()).collect());
            t
        })
        .collect();
        assert_eq!(
            Table::ensemble(&tables).rows[0],
            [
                "ucmp",
                "40.1us [32.7us, 1.20ms]",
                "0.10% [0.00%, 0.25%]",
                "no x2, yes x1",
                "- x1, 2/8 x1, 3/8 x1",
            ]
        );
    }

    #[test]
    fn us_formatting() {
        assert_eq!(us(42.31), "42.3us");
        assert_eq!(us(1500.0), "1.50ms");
        assert_eq!(us(f64::NAN), "-");
    }
}
