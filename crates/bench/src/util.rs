//! Shared experiment plumbing: testbed configurations, workload
//! attachment, and result formatting.

use openoptics_core::{NetConfig, OpenOpticsNet, TransportKind};
use openoptics_proto::{HostId, NodeId};
use openoptics_sim::time::SimTime;
use openoptics_topo::TrafficMatrix;
use openoptics_workload::{FctStats, PoissonArrivals, Trace};

/// The 8-ToR testbed of Fig. 7 (one host per ToR, 100 Gbps links),
/// parameterized by slice duration and uplink count.
pub fn testbed(slice_ns: u64, uplinks: u16) -> NetConfig {
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
pub fn memcached_tm(n: u32, server_tor: NodeId) -> TrafficMatrix {
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
pub fn ring_tm(n: u32) -> TrafficMatrix {
    let mut tm = TrafficMatrix::zeros(n as usize);
    for i in 0..n {
        tm.set(NodeId(i), NodeId((i + 1) % n), 1_000.0);
    }
    tm
}

/// Attach the §6 memcached workload: server on host 0, every other host a
/// client, running until `stop`.
pub fn attach_memcached(net: &mut OpenOpticsNet, stop: SimTime) {
    use openoptics_host::apps::MemcachedParams;
    let n = net.engine.cfg.total_hosts();
    let clients: Vec<HostId> = (1..n).map(HostId).collect();
    net.add_memcached(MemcachedParams::paper(), HostId(0), clients, stop);
}

/// Attach Poisson flow arrivals over all hosts, sized by `trace`, at
/// `load` of the host link until `horizon`. Single flows are capped at
/// 2 MB so one straggler doesn't dominate a short window (documented
/// substitution; the distribution body is preserved).
pub fn attach_poisson(
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

/// Mice FCT percentiles in microseconds: `(p50, p90, p99, samples)`.
pub fn mice_percentiles(fct: &FctStats) -> (f64, f64, f64, usize) {
    let v = fct.mice_fcts();
    let p = |q: f64| FctStats::percentile(&v, q).map(|x| x as f64 / 1_000.0).unwrap_or(f64::NAN);
    (p(50.0), p(90.0), p(99.0), v.len())
}

/// Format a microsecond value for table output.
pub fn us(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v >= 1_000.0 {
        format!("{:.2}ms", v / 1_000.0)
    } else {
        format!("{v:.1}us")
    }
}

/// Simple aligned table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: vec![] }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
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
    fn us_formatting() {
        assert_eq!(us(42.31), "42.3us");
        assert_eq!(us(1500.0), "1.50ms");
        assert_eq!(us(f64::NAN), "-");
    }
}
