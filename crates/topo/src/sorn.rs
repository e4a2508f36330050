//! Semi-oblivious round-robin (SORN) schedules — the TA+TO hybrid of §4.3.
//!
//! The semi-oblivious proposal (HotNets'24) builds *skewed* round-robin
//! optical schedules that reflect traffic: dense connectivity between
//! hotspot nodes, sparse elsewhere. The paper's Fig. 5(c) realizes it on
//! OpenOptics by extending `round_robin()` with a custom `sorn(TM)`
//! builder and redeploying every 10 minutes.
//!
//! Construction: keep the plain round-robin cycle (full coverage keeps the
//! schedule traffic-oblivious in the worst case), then append
//! demand-dedicated slices holding max-weight pairings of the hottest
//! residual demand — the "skew".

use crate::bvn::decompose_into_pairings;
use crate::matrix::TrafficMatrix;
use crate::round_robin::{collect, round_robin_into, striped, OneFactorization};
use openoptics_fabric::{Circuit, CircuitSink};
use openoptics_proto::PortId;
use openoptics_sim::idx_u32;

/// Build a SORN schedule: the `round_robin(n, uplinks)` base cycle plus
/// `extra_slices` demand-dedicated slices derived from the traffic matrix.
/// Returns circuits and the total slice count: what [`sorn_into`] writes,
/// collected.
pub fn sorn(tm: &TrafficMatrix, n: u32, uplinks: u16, extra_slices: u32) -> (Vec<Circuit>, u32) {
    collect(|sink| sorn_into(tm, n, uplinks, extra_slices, sink))
}

/// [`sorn`] written into `sink`: the base cycle's circuits, then the
/// extra slices'.
pub fn sorn_into<S: CircuitSink>(
    tm: &TrafficMatrix,
    n: u32,
    uplinks: u16,
    extra_slices: u32,
    sink: &mut S,
) -> Result<(), S::Error> {
    if extra_slices == 0 {
        return round_robin_into(n, uplinks, sink);
    }
    assert!(uplinks >= 1);
    let rounds = OneFactorization::new(n);
    let base_slices = idx_u32(rounds.len());
    let terms = decompose_into_pairings(tm, extra_slices as usize);
    // Heaviest pairings first, the list repeated if demand has fewer
    // distinct pairings than extra slices; no demand, no extra slice.
    let added = if terms.is_empty() { 0 } else { extra_slices };
    sink.cycle(base_slices + added)?;
    striped(&rounds, uplinks, sink)?;
    for (ts, term) in (base_slices..base_slices + added).zip(terms.iter().cycle()) {
        for &(a, b) in &term.pairs {
            sink.circuit(Circuit::in_slice(a, PortId(0), b, PortId(0), ts))?;
        }
        // Extra slices beyond port 0 stay dark on other uplinks: the
        // skewed slices concentrate capacity on hotspots by design.
    }
    Ok(())
}

/// The share of cycle time a node pair gets under a schedule, used to
/// verify skew: hotspot pairs should exceed `1/num_slices`.
pub fn pair_time_share(circuits: &[Circuit], num_slices: u32, a: u32, b: u32) -> f64 {
    use openoptics_proto::NodeId;
    let direct = circuits
        .iter()
        .filter(|c| c.connects(NodeId(a), NodeId(b)))
        .map(|c| if c.slice.is_some() { 1 } else { num_slices })
        .sum::<u32>();
    direct as f64 / num_slices as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_robin::round_robin;
    use openoptics_fabric::OpticalSchedule;
    use openoptics_proto::NodeId;
    use openoptics_sim::SliceConfig;

    fn hotspot_tm(n: usize) -> TrafficMatrix {
        let mut tm = TrafficMatrix::uniform(n, 1.0);
        tm.set(NodeId(0), NodeId(1), 500.0);
        tm.set(NodeId(1), NodeId(0), 500.0);
        tm
    }

    #[test]
    fn sorn_extends_the_cycle() {
        let (circuits, slices) = sorn(&hotspot_tm(8), 8, 1, 4);
        let (_, base) = round_robin(8, 1);
        assert_eq!(slices, base + 4);
        let cfg = SliceConfig::new(100_000, slices, 1_000);
        OpticalSchedule::build(cfg, 8, 1, &circuits).expect("sorn schedule feasible");
    }

    #[test]
    fn sorn_skews_toward_hotspots() {
        let (circuits, slices) = sorn(&hotspot_tm(8), 8, 1, 4);
        let hot = pair_time_share(&circuits, slices, 0, 1);
        let cold = pair_time_share(&circuits, slices, 2, 5);
        assert!(hot > cold, "hot share {hot} should exceed cold share {cold}");
        // Hot pair appears in at least base(1) + 1 extra slices.
        assert!(hot >= 2.0 / slices as f64);
    }

    #[test]
    fn sorn_preserves_full_coverage() {
        let (circuits, slices) = sorn(&hotspot_tm(8), 8, 1, 4);
        let cfg = SliceConfig::new(100_000, slices, 1_000);
        let s = OpticalSchedule::build(cfg, 8, 1, &circuits).unwrap();
        // The oblivious base still connects every pair within the cycle.
        assert!(s.cycle_covers_all_pairs());
    }

    #[test]
    fn zero_extra_slices_is_plain_round_robin() {
        let tm = hotspot_tm(8);
        let (c1, s1) = sorn(&tm, 8, 1, 0);
        let (c2, s2) = round_robin(8, 1);
        assert_eq!(s1, s2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn empty_tm_adds_no_hot_slices() {
        let tm = TrafficMatrix::zeros(8);
        let (_, slices) = sorn(&tm, 8, 1, 4);
        let (_, base) = round_robin(8, 1);
        assert_eq!(slices, base);
    }

    #[test]
    fn pair_time_share_reads_the_same_off_the_schedule() {
        let mut tm = hotspot_tm(8);
        tm.set(NodeId(2), NodeId(6), 200.0);
        for (circuits, slices) in [sorn(&tm, 8, 2, 3), round_robin(8, 3)] {
            let cfg = SliceConfig::new(1_000, slices, 100);
            let s = OpticalSchedule::build(cfg, 8, 3, &circuits).unwrap();
            let view: Vec<Circuit> = s.circuits().collect();
            for (a, b) in (0..8).flat_map(|a| (0..8).map(move |b| (a, b))) {
                assert_eq!(
                    pair_time_share(&view, slices, a, b),
                    pair_time_share(&circuits, slices, a, b),
                    "{a}<->{b}"
                );
            }
        }
    }
}
