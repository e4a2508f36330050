//! Demand-based matchings for TA circuit scheduling.
//!
//! c-Through computes a maximum-weight matching over the traffic demand
//! graph each reconfiguration (the paper's `edmonds(TM)` materialization of
//! `topo()`). Two engines live here:
//!
//! * `min_cost_assignment` / [`max_weight_assignment`] — an exact
//!   O(n³) Hungarian (Kuhn–Munkres) solver on the *directed* demand matrix,
//!   used by BvN decomposition and anywhere a permutation is wanted;
//! * `max_weight_pairs` — an undirected node pairing for bidirectional
//!   circuits. Exact blossom matching is out of scope; we use greedy
//!   seeding plus 2-opt improvement, a standard ≥½-approximation that is
//!   exact on the small instances TA controllers see per reconfiguration.
//!   (Substitution documented in DESIGN.md.)

use crate::matrix::TrafficMatrix;
use openoptics_fabric::Circuit;
use openoptics_proto::{NodeId, PortId};
use openoptics_sim::idx_u32;

/// Exact minimum-cost assignment (Hungarian algorithm, O(n³)).
/// `cost[i][j]` is the cost of assigning row `i` to column `j`; returns
/// `assign` with `assign[i] = j`. Infinite costs are allowed as long as a
/// finite-cost perfect assignment exists.
pub(crate) fn min_cost_assignment(cost: &[Vec<f64>]) -> Vec<usize> {
    let n = cost.len();
    assert!(cost.iter().all(|r| r.len() == n), "cost matrix must be square");
    if n == 0 {
        return vec![];
    }
    // e-maxx formulation with 1-based potentials.
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[j] = row matched to column j
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            debug_assert!(delta.is_finite(), "no finite-cost perfect assignment exists");
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut assign = vec![0usize; n];
    for j in 1..=n {
        assign[p[j] - 1] = j - 1;
    }
    assign
}

/// Maximum-weight perfect assignment over a traffic matrix: returns the
/// permutation `perm` (with `perm[i] = j`) maximizing `Σ tm[i][perm[i]]`,
/// never assigning a node to itself (for n ≥ 2).
pub fn max_weight_assignment(tm: &TrafficMatrix) -> Vec<usize> {
    let n = tm.len();
    if n < 2 {
        return (0..n).collect();
    }
    let mut hi = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            hi = hi.max(tm.get(NodeId(idx_u32(i)), NodeId(idx_u32(j))));
        }
    }
    // Self-assignment gets a cost so large it is never chosen when any
    // derangement exists (one always does for n >= 2).
    let forbid = (hi + 1.0) * n as f64 * 4.0;
    let cost: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        forbid
                    } else {
                        hi - tm.get(NodeId(idx_u32(i)), NodeId(idx_u32(j)))
                    }
                })
                .collect()
        })
        .collect();
    min_cost_assignment(&cost)
}

/// Undirected maximum-weight node pairing (for bidirectional circuits):
/// greedy on descending symmetrized demand, then 2-opt swap improvement.
/// Nodes with no positive-demand partner remain unmatched.
pub(crate) fn max_weight_pairs(tm: &TrafficMatrix) -> Vec<(NodeId, NodeId)> {
    let n = tm.len();
    let mut partner: Vec<Option<usize>> = vec![None; n];
    // Greedy seed.
    let mut edges: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .map(|(i, j)| (i, j, tm.pair_demand(NodeId(idx_u32(i)), NodeId(idx_u32(j)))))
        .filter(|&(_, _, w)| w > 0.0)
        .collect();
    edges.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));
    for (i, j, _) in &edges {
        if partner[*i].is_none() && partner[*j].is_none() {
            partner[*i] = Some(*j);
            partner[*j] = Some(*i);
        }
    }
    // 2-opt: try swapping partners of matched pairs while it improves.
    let w = |a: usize, b: usize| tm.pair_demand(NodeId(idx_u32(a)), NodeId(idx_u32(b)));
    let mut improved = true;
    while improved {
        improved = false;
        for a in 0..n {
            let Some(b) = partner[a] else { continue };
            if b < a {
                continue;
            }
            for c in 0..n {
                let Some(d) = partner[c] else { continue };
                if d < c || c == a || c == b {
                    continue;
                }
                let cur = w(a, b) + w(c, d);
                // Rewire (a,c)+(b,d) or (a,d)+(b,c).
                if w(a, c) + w(b, d) > cur + 1e-12 {
                    partner[a] = Some(c);
                    partner[c] = Some(a);
                    partner[b] = Some(d);
                    partner[d] = Some(b);
                    improved = true;
                } else if w(a, d) + w(b, c) > cur + 1e-12 {
                    partner[a] = Some(d);
                    partner[d] = Some(a);
                    partner[b] = Some(c);
                    partner[c] = Some(b);
                    improved = true;
                }
            }
        }
    }
    (0..n)
        .filter_map(|i| {
            partner[i].filter(|&j| i < j).map(|j| (NodeId(idx_u32(i)), NodeId(idx_u32(j))))
        })
        .collect()
}

/// The c-Through materialization `edmonds(TM)`: one max-weight pairing per
/// uplink, held as circuits, each computed on the residual demand left by
/// earlier stripes — with 2 uplinks a ring traffic matrix is served exactly
/// by two alternating matchings (the "ring topology using optical circuits
/// that matches the traffic perfectly" of §6 Case I).
pub fn edmonds_multi(tm: &TrafficMatrix, uplinks: u16) -> Vec<Circuit> {
    let mut residual = tm.clone();
    let mut circuits = Vec::new();
    for j in 0..uplinks {
        let pairs = max_weight_pairs(&residual);
        if pairs.is_empty() {
            break;
        }
        for (a, b) in pairs {
            circuits.push(Circuit::held(a, PortId(j), b, PortId(j)));
            residual.set(a, b, 0.0);
            residual.set(b, a, 0.0);
        }
    }
    circuits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tm_from(rows: &[&[f64]]) -> TrafficMatrix {
        let n = rows.len();
        let mut tm = TrafficMatrix::zeros(n);
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                tm.set(NodeId(idx_u32(i)), NodeId(idx_u32(j)), v);
            }
        }
        tm
    }

    #[test]
    fn hungarian_known_instance() {
        // Classic 3x3: optimal cost 5 via (0->1, 1->0, 2->2) on this matrix.
        let cost = vec![vec![4.0, 1.0, 3.0], vec![2.0, 0.0, 5.0], vec![3.0, 2.0, 2.0]];
        let a = min_cost_assignment(&cost);
        let total: f64 = a.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
        assert_eq!(total, 5.0);
    }

    #[test]
    fn hungarian_matches_bruteforce_small() {
        // Deterministic pseudo-random matrices vs brute force for n=4.
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) % 1000) as f64 / 10.0
        };
        for _case in 0..20 {
            let n = 4;
            let cost: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| next()).collect()).collect();
            let a = min_cost_assignment(&cost);
            let got: f64 = a.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
            // Brute force all permutations.
            let mut perm: Vec<usize> = (0..n).collect();
            let mut best = f64::INFINITY;
            permute(&mut perm, 0, &mut |p| {
                let c: f64 = p.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
                if c < best {
                    best = c;
                }
            });
            assert!((got - best).abs() < 1e-9, "hungarian {got} vs brute {best}");
        }
    }

    fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn max_weight_assignment_avoids_diagonal() {
        let tm = tm_from(&[&[9.0, 1.0, 1.0], &[1.0, 9.0, 2.0], &[2.0, 1.0, 9.0]]);
        let a = max_weight_assignment(&tm);
        for (i, &j) in a.iter().enumerate() {
            assert_ne!(i, j, "self-assignment");
        }
        // Should pick the best derangement: 0->1,1->2,2->0 (1+2+2=5) vs
        // 0->2,1->0,2->1 (1+1+1=3).
        let total: f64 = a
            .iter()
            .enumerate()
            .map(|(i, &j)| tm.get(NodeId(idx_u32(i)), NodeId(idx_u32(j))))
            .sum();
        assert_eq!(total, 5.0);
    }

    #[test]
    fn pairing_picks_heavy_pairs() {
        // 4 nodes: demand strongly pairs (0,3) and (1,2).
        let mut tm = TrafficMatrix::zeros(4);
        tm.set(NodeId(0), NodeId(3), 100.0);
        tm.set(NodeId(1), NodeId(2), 80.0);
        tm.set(NodeId(0), NodeId(1), 5.0);
        let pairs = max_weight_pairs(&tm);
        assert!(pairs.contains(&(NodeId(0), NodeId(3))));
        assert!(pairs.contains(&(NodeId(1), NodeId(2))));
    }

    #[test]
    fn pairing_two_opt_beats_greedy_trap() {
        // Greedy takes (0,1)=10, leaving (2,3)=1 for total 11; the optimum
        // is (0,2)+(1,3) = 9+9 = 18. 2-opt must find it.
        let mut tm = TrafficMatrix::zeros(4);
        tm.set(NodeId(0), NodeId(1), 10.0);
        tm.set(NodeId(2), NodeId(3), 1.0);
        tm.set(NodeId(0), NodeId(2), 9.0);
        tm.set(NodeId(1), NodeId(3), 9.0);
        let pairs = max_weight_pairs(&tm);
        let total: f64 = pairs.iter().map(|&(a, b)| tm.pair_demand(a, b)).sum();
        assert_eq!(total, 18.0);
    }

    #[test]
    fn pairing_leaves_coldest_unmatched() {
        // 3 nodes, only (0,1) has demand: node 2 stays unmatched.
        let mut tm = TrafficMatrix::zeros(3);
        tm.set(NodeId(0), NodeId(1), 5.0);
        let pairs = max_weight_pairs(&tm);
        assert_eq!(pairs, vec![(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn edmonds_multi_serves_a_ring() {
        // Ring demand: i -> i+1 for 8 nodes. Two stripes must cover every
        // ring edge with a conflict-free port assignment.
        let n = 8u32;
        let mut tm = TrafficMatrix::zeros(n as usize);
        for i in 0..n {
            tm.set(NodeId(i), NodeId((i + 1) % n), 10.0);
        }
        let cs = edmonds_multi(&tm, 2);
        use openoptics_fabric::OpticalSchedule;
        use openoptics_sim::SliceConfig;
        let s = OpticalSchedule::build(SliceConfig::new(1_000, 1, 100), n, 2, &cs).unwrap();
        for i in 0..n {
            assert!(
                s.port_to(NodeId(i), NodeId((i + 1) % n), 0).is_some(),
                "ring edge {i}->{} unserved",
                (i + 1) % n
            );
        }
    }
}
