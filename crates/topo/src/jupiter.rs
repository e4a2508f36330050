//! Jupiter's gradually evolving mesh (the `jupiter(TM)` materialization).
//!
//! Google's Jupiter fabric (SIGCOMM'22) starts from a uniform mesh over the
//! OCS and *evolves* it: each (infrequent) reconfiguration shifts link
//! capacity toward heavy ToR pairs while touching as few circuits as
//! possible, so traffic keeps flowing on WCMP routes during the move
//! (§4.3, Fig. 5b).
//!
//! Model: each node has `uplinks` optical ports; port `j` carries one
//! perfect matching (a "stripe"). The initial topology stripes the
//! 1-factorization rounds of K_n across ports — a uniform mesh. On each
//! evolution step, for every stripe we keep the circuits whose current
//! demand is above the stripe's median and re-pair the freed nodes by
//! descending residual demand.

use crate::matching::max_weight_pairs;
use crate::matrix::TrafficMatrix;
use crate::round_robin::{collect, OneFactorization};
use openoptics_fabric::{Circuit, CircuitSink};
use openoptics_proto::{NodeId, PortId};
use openoptics_sim::idx_u32;

/// The initial uniform mesh: stripe `j` (port `j`) uses round `j * spread`
/// of the 1-factorization, spreading connectivity evenly. Requires
/// `uplinks <= rounds(n)`; all circuits are held (TA semantics).
pub fn uniform_mesh(n: u32, uplinks: u16) -> Vec<Circuit> {
    collect(|sink| uniform_mesh_into(n, uplinks, sink)).0
}

/// [`uniform_mesh`] written into `sink`, a one-slice cycle.
pub fn uniform_mesh_into<S: CircuitSink>(
    n: u32,
    uplinks: u16,
    sink: &mut S,
) -> Result<(), S::Error> {
    let rounds = OneFactorization::new(n);
    assert!(
        (uplinks as usize) <= rounds.len(),
        "cannot stripe {uplinks} uplinks over only {} distinct matchings",
        rounds.len()
    );
    let spread = rounds.len() / uplinks as usize;
    sink.cycle(1)?;
    for j in 0..uplinks {
        for &(a, b) in &rounds[j as usize * spread] {
            sink.circuit(Circuit::held(NodeId(a), PortId(j), NodeId(b), PortId(j)))?;
        }
    }
    Ok(())
}

/// One Jupiter evolution step: adapt `prev` to the new traffic matrix,
/// changing as few circuits as possible. Returns the full next topology
/// (held circuits).
///
/// Per stripe: circuits serving demand at or above the stripe's median
/// demand are kept; the rest are torn down and the freed nodes re-paired by
/// max-weight matching on the demand not yet served by kept circuits.
pub fn evolve(prev: &[Circuit], tm: &TrafficMatrix, n: u32, uplinks: u16) -> Vec<Circuit> {
    let mut next = Vec::new();
    // Demand already served by kept circuits is discounted stripe over
    // stripe so several stripes don't all chase the same hot pair.
    let mut residual = tm.clone();
    for j in 0..uplinks {
        let stripe: Vec<Circuit> = prev.iter().copied().filter(|c| c.a_port == PortId(j)).collect();
        let mut demands: Vec<f64> = stripe.iter().map(|c| residual.pair_demand(c.a, c.b)).collect();
        demands.sort_by(f64::total_cmp);
        let median = if demands.is_empty() { 0.0 } else { demands[demands.len() / 2] };

        let mut matched = vec![false; n as usize];
        for c in &stripe {
            let d = residual.pair_demand(c.a, c.b);
            if d >= median && d > 0.0 && !matched[c.a.index()] && !matched[c.b.index()] {
                next.push(*c);
                matched[c.a.index()] = true;
                matched[c.b.index()] = true;
                discount(&mut residual, c.a, c.b);
            }
        }
        // Re-pair the freed nodes by residual demand.
        let free: Vec<NodeId> = (0..n).map(NodeId).filter(|nd| !matched[nd.index()]).collect();
        if free.len() >= 2 {
            // Build a sub-matrix over the free nodes.
            let mut sub = TrafficMatrix::zeros(free.len());
            for (ai, &a) in free.iter().enumerate() {
                for (bi, &b) in free.iter().enumerate() {
                    if ai != bi {
                        sub.set(
                            NodeId(idx_u32(ai)),
                            NodeId(idx_u32(bi)),
                            residual.get(a, b).max(1e-9),
                        );
                    }
                }
            }
            for (sa, sb) in max_weight_pairs(&sub) {
                let (a, b) = (free[sa.index()], free[sb.index()]);
                next.push(Circuit::held(a, PortId(j), b, PortId(j)));
                discount(&mut residual, a, b);
            }
        }
    }
    next
}

/// Discount demand served by a fresh circuit so later stripes diversify.
fn discount(tm: &mut TrafficMatrix, a: NodeId, b: NodeId) {
    let served = tm.pair_demand(a, b) * 0.5;
    let cur_ab = tm.get(a, b);
    let cur_ba = tm.get(b, a);
    let total = cur_ab + cur_ba;
    if total > 0.0 {
        tm.set(a, b, cur_ab - served * cur_ab / total);
        tm.set(b, a, cur_ba - served * cur_ba / total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_fabric::OpticalSchedule;
    use openoptics_sim::SliceConfig;

    fn deployable(circuits: &[Circuit], n: u32, uplinks: u16) -> OpticalSchedule {
        let cfg = SliceConfig::new(1_000_000, 1, 100);
        OpticalSchedule::build(cfg, n, uplinks, circuits).expect("deployable")
    }

    /// Fraction of `prev` circuits surviving into `next` — the "gradual"ness
    /// metric Jupiter optimizes for.
    fn churn_survival(prev: &[Circuit], next: &[Circuit]) -> f64 {
        let kept = prev
            .iter()
            .filter(|p| {
                next.iter().any(|q| q.canonical().connects(p.a, p.b) && q.a_port == p.a_port)
            })
            .count();
        kept as f64 / prev.len() as f64
    }

    #[test]
    fn uniform_mesh_is_regular_and_feasible() {
        let mesh = uniform_mesh(8, 3);
        let s = deployable(&mesh, 8, 3);
        for node in 0..8 {
            assert_eq!(s.neighbors(NodeId(node), 0).count(), 3);
        }
    }

    #[test]
    fn uniform_mesh_connects_the_network() {
        let mesh = uniform_mesh(8, 2);
        let s = deployable(&mesh, 8, 2);
        assert!(s.slice_is_connected(0), "uniform mesh should be connected");
    }

    #[test]
    fn evolve_chases_demand() {
        let n = 8;
        let mesh = uniform_mesh(n, 2);
        let mut tm = TrafficMatrix::zeros(n as usize);
        // Heavy demand between 0<->5 and 1<->6.
        tm.set(NodeId(0), NodeId(5), 1000.0);
        tm.set(NodeId(1), NodeId(6), 800.0);
        tm.set(NodeId(2), NodeId(3), 1.0);
        let next = evolve(&mesh, &tm, n, 2);
        let s = deployable(&next, n, 2);
        assert!(
            !s.slices_connecting(NodeId(0), NodeId(5)).is_empty(),
            "hot pair 0-5 should get a direct circuit"
        );
        assert!(
            !s.slices_connecting(NodeId(1), NodeId(6)).is_empty(),
            "hot pair 1-6 should get a direct circuit"
        );
    }

    #[test]
    fn evolve_is_gradual_under_stable_traffic() {
        let n = 8;
        let mesh = uniform_mesh(n, 2);
        // Uniform traffic: the mesh is already optimal, so most circuits stay.
        let tm = TrafficMatrix::uniform(n as usize, 10.0);
        let next = evolve(&mesh, &tm, n, 2);
        assert!(
            churn_survival(&mesh, &next) >= 0.5,
            "stable traffic should preserve most of the mesh, survival = {}",
            churn_survival(&mesh, &next)
        );
    }

    #[test]
    fn evolve_keeps_port_matching_feasible() {
        let n = 8;
        let mut tm = TrafficMatrix::zeros(n as usize);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    tm.set(NodeId(i), NodeId(j), ((i * 7 + j * 13) % 19) as f64);
                }
            }
        }
        let g0 = uniform_mesh(n, 3);
        let g1 = evolve(&g0, &tm, n, 3);
        deployable(&g1, n, 3);
        let g2 = evolve(&g1, &tm, n, 3);
        deployable(&g2, n, 3);
    }
}
