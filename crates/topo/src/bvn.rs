//! Birkhoff–von-Neumann circuit scheduling (Mordia).
//!
//! Mordia computes its circuit schedule by decomposing the (normalized)
//! traffic matrix into a convex combination of permutation matrices —
//! Birkhoff–von-Neumann (BvN) decomposition — and dedicating slice time to
//! each term proportional to its coefficient (§4.2).
//!
//! Two decompositions are provided:
//!
//! * [`bvn_decompose`] — the textbook directed decomposition into
//!   permutations (each term a perfect bipartite matching on the positive
//!   support, found with Kuhn's augmenting paths);
//! * `decompose_into_pairings` — a symmetrized variant whose terms are
//!   node *pairings*, directly realizable as the duplex circuits our fabric
//!   models (a permutation is generally not an involution, so its directed
//!   circuits have no duplex equivalent).
//!
//! [`mordia_schedule`] turns the pairing decomposition into a deployable
//! slice schedule via largest-remainder slice apportionment.

use crate::matching::max_weight_pairs;
use crate::matrix::TrafficMatrix;
use openoptics_fabric::Circuit;
use openoptics_proto::{NodeId, PortId};
use openoptics_sim::idx_u32;

/// One term of a BvN decomposition: a permutation and its coefficient.
#[derive(Clone, Debug)]
pub struct BvnTerm {
    /// `perm[i] = j` means source `i` sends to destination `j` in this term.
    pub perm: Vec<usize>,
    /// Convex coefficient (fraction of time this permutation is active).
    pub weight: f64,
}

/// Kuhn's augmenting-path bipartite matching restricted to edges with
/// residual weight `> eps`. Returns a full row→col assignment if a perfect
/// matching exists on that support.
fn perfect_matching_on_support(m: &TrafficMatrix, eps: f64) -> Option<Vec<usize>> {
    let n = m.len();
    let mut match_col: Vec<Option<usize>> = vec![None; n]; // col -> row
    fn try_kuhn(
        i: usize,
        m: &TrafficMatrix,
        eps: f64,
        visited: &mut [bool],
        match_col: &mut [Option<usize>],
    ) -> bool {
        let n = m.len();
        for j in 0..n {
            if m.get(NodeId(idx_u32(i)), NodeId(idx_u32(j))) > eps && !visited[j] {
                visited[j] = true;
                if match_col[j].is_none_or(|k| try_kuhn(k, m, eps, visited, match_col)) {
                    match_col[j] = Some(i);
                    return true;
                }
            }
        }
        false
    }
    for i in 0..n {
        let mut visited = vec![false; n];
        if !try_kuhn(i, m, eps, &mut visited, &mut match_col) {
            return None;
        }
    }
    let mut perm = vec![0usize; n];
    for (j, r) in match_col.iter().enumerate() {
        perm[r.expect("perfect matching")] = j;
    }
    Some(perm)
}

/// Decompose a (near) doubly stochastic matrix into permutation terms.
/// Stops after `max_terms` or when the residual mass per row drops below
/// `eps`. The input is normalized internally via Sinkhorn–Knopp.
pub fn bvn_decompose(tm: &TrafficMatrix, max_terms: usize, eps: f64) -> Vec<BvnTerm> {
    let n = tm.len();
    if n == 0 {
        return vec![];
    }
    let mut residual = tm.to_doubly_stochastic(60);
    let mut terms = Vec::new();
    for _ in 0..max_terms {
        let Some(perm) = perfect_matching_on_support(&residual, eps) else {
            break;
        };
        let weight = perm
            .iter()
            .enumerate()
            .map(|(i, &j)| residual.get(NodeId(idx_u32(i)), NodeId(idx_u32(j))))
            .fold(f64::INFINITY, f64::min);
        if weight <= eps {
            break;
        }
        for (i, &j) in perm.iter().enumerate() {
            let cur = residual.get(NodeId(idx_u32(i)), NodeId(idx_u32(j)));
            residual.set(NodeId(idx_u32(i)), NodeId(idx_u32(j)), cur - weight);
        }
        terms.push(BvnTerm { perm, weight });
        if terms.iter().map(|t| t.weight).sum::<f64>() >= 1.0 - eps {
            break;
        }
    }
    terms
}

/// One term of the symmetrized decomposition: a pairing and its coefficient.
#[derive(Clone, Debug)]
pub(crate) struct PairingTerm {
    /// Disjoint node pairs served simultaneously (duplex circuits).
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Relative weight (time share) of this pairing.
    pub weight: f64,
}

/// Decompose symmetrized demand into weighted pairings: repeatedly extract
/// the max-weight pairing of the residual, peel off the bottleneck weight,
/// and continue. Terminates after `max_terms` or when residual demand is
/// exhausted.
pub(crate) fn decompose_into_pairings(tm: &TrafficMatrix, max_terms: usize) -> Vec<PairingTerm> {
    let n = tm.len();
    let mut residual = TrafficMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            let (a, b) = (NodeId(idx_u32(i)), NodeId(idx_u32(j)));
            residual.set(a, b, tm.pair_demand(a, b) / 2.0);
        }
    }
    let mut terms = Vec::new();
    for _ in 0..max_terms {
        let pairs = max_weight_pairs(&residual);
        if pairs.is_empty() {
            break;
        }
        let weight = pairs.iter().map(|&(a, b)| residual.get(a, b)).fold(f64::INFINITY, f64::min);
        if weight <= 0.0 {
            break;
        }
        for &(a, b) in &pairs {
            let cur = residual.get(a, b);
            residual.set(a, b, cur - weight);
            residual.set(b, a, cur - weight);
        }
        terms.push(PairingTerm { pairs, weight });
    }
    terms
}

/// The Mordia materialization `BvN(TM)`: apportion `num_slices` slices to
/// the pairing terms by largest remainder and emit per-slice duplex
/// circuits on optical port 0. Terms that round to zero slices are dropped
/// (their demand rides multi-hop/later reconfigurations, as in the paper's
/// "long tail otherwise" behavior).
pub fn mordia_schedule(tm: &TrafficMatrix, num_slices: u32) -> (Vec<Circuit>, u32) {
    assert!(num_slices >= 1);
    let terms = decompose_into_pairings(tm, num_slices as usize * 2);
    if terms.is_empty() {
        return (vec![], num_slices);
    }
    let total_w: f64 = terms.iter().map(|t| t.weight).sum();
    // Interleaved proportional apportionment: at each slice, schedule the
    // term with the largest deficit between its weight share and the slices
    // it has received so far. Interleaving keeps the worst-case wait for
    // any served pair near `num_terms` slices instead of clustering a
    // term's slices back to back (Mordia cycles its matchings the same
    // way).
    let mut assigned = vec![0u32; terms.len()];
    let mut circuits = Vec::new();
    for ts in 0..num_slices {
        let k = (0..terms.len())
            .max_by(|&a, &b| {
                let da = terms[a].weight / total_w * (ts + 1) as f64 - assigned[a] as f64;
                let db = terms[b].weight / total_w * (ts + 1) as f64 - assigned[b] as f64;
                da.total_cmp(&db)
            })
            .expect("at least one term");
        assigned[k] += 1;
        for &(a, b) in &terms[k].pairs {
            circuits.push(Circuit::in_slice(a, PortId(0), b, PortId(0), ts));
        }
    }
    (circuits, num_slices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_tm(n: usize) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let v = if (i + j) % n == 1 { 50.0 } else { 1.0 };
                    tm.set(NodeId(idx_u32(i)), NodeId(idx_u32(j)), v);
                }
            }
        }
        tm
    }

    #[test]
    fn bvn_weights_sum_to_one() {
        let terms = bvn_decompose(&skewed_tm(6), 64, 1e-9);
        let total: f64 = terms.iter().map(|t| t.weight).sum();
        assert!((total - 1.0).abs() < 1e-6, "weights sum to {total}");
    }

    #[test]
    fn bvn_terms_are_permutations() {
        for terms in
            [bvn_decompose(&skewed_tm(5), 64, 1e-9), bvn_decompose(&skewed_tm(8), 64, 1e-9)]
        {
            assert!(!terms.is_empty());
            for t in &terms {
                let mut seen = vec![false; t.perm.len()];
                for &j in &t.perm {
                    assert!(!seen[j], "column {j} reused");
                    seen[j] = true;
                }
            }
        }
    }

    #[test]
    fn bvn_reconstructs_the_matrix() {
        let tm = skewed_tm(6);
        let ds = tm.to_doubly_stochastic(60);
        let terms = bvn_decompose(&tm, 128, 1e-9);
        let n = 6;
        let mut recon = TrafficMatrix::zeros(n);
        for t in &terms {
            for (i, &j) in t.perm.iter().enumerate() {
                recon.add(NodeId(idx_u32(i)), NodeId(idx_u32(j)), t.weight);
            }
        }
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (NodeId(idx_u32(i)), NodeId(idx_u32(j)));
                assert!(
                    (recon.get(a, b) - ds.get(a, b)).abs() < 1e-5,
                    "entry ({i},{j}): {} vs {}",
                    recon.get(a, b),
                    ds.get(a, b)
                );
            }
        }
    }

    #[test]
    fn pairing_terms_are_disjoint() {
        let terms = decompose_into_pairings(&skewed_tm(8), 32);
        assert!(!terms.is_empty());
        for t in &terms {
            let mut seen = openoptics_sim::hash::FxHashSet::default();
            for &(a, b) in &t.pairs {
                assert!(seen.insert(a), "{a} in two pairs");
                assert!(seen.insert(b), "{b} in two pairs");
            }
            assert!(t.weight > 0.0);
        }
    }

    #[test]
    fn mordia_schedule_fills_requested_slices_and_deploys() {
        use openoptics_fabric::OpticalSchedule;
        use openoptics_sim::SliceConfig;
        let tm = skewed_tm(8);
        let (circuits, slices) = mordia_schedule(&tm, 12);
        assert_eq!(slices, 12);
        assert!(!circuits.is_empty());
        let cfg = SliceConfig::new(100_000, slices, 1_000);
        OpticalSchedule::build(cfg, 8, 1, &circuits).expect("mordia schedule must be feasible");
    }

    #[test]
    fn mordia_gives_hot_pair_more_slices() {
        let mut tm = TrafficMatrix::zeros(4);
        tm.set(NodeId(0), NodeId(1), 90.0);
        tm.set(NodeId(2), NodeId(3), 10.0);
        tm.set(NodeId(0), NodeId(2), 10.0);
        let (circuits, _) = mordia_schedule(&tm, 10);
        let hot = circuits.iter().filter(|c| c.connects(NodeId(0), NodeId(1))).count();
        let cold = circuits.iter().filter(|c| c.connects(NodeId(0), NodeId(2))).count();
        assert!(hot > cold, "hot pair got {hot} slices, cold got {cold}");
    }

    #[test]
    fn empty_matrix_degrades_gracefully() {
        let tm = TrafficMatrix::zeros(4);
        let (circuits, slices) = mordia_schedule(&tm, 4);
        assert_eq!(slices, 4);
        assert!(circuits.is_empty());
    }
}
