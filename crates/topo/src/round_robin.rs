//! Round-robin optical schedules for traffic-oblivious architectures.
//!
//! The `round_robin(dimension, uplink)` materialization of `topo()`
//! (Table 1): RotorNet uses a single-dimensional round robin with `u`
//! uplinks per node; Opera the same with `N` uplinks; Shale a
//! multi-dimensional round robin with a single uplink (§4.2).
//!
//! The core construction is a **1-factorization** of the complete graph
//! K_n (the "circle method" used for round-robin tournaments): `n-1` rounds
//! for even `n`, each a perfect matching, jointly covering every pair
//! exactly once. Odd `n` adds a phantom node, giving `n` rounds with one
//! node idle per round.

use openoptics_fabric::{Circuit, CircuitSink};
use openoptics_proto::{NodeId, PortId};
use openoptics_sim::{idx_u32, to_u32};
use std::convert::Infallible;

/// A 1-factorization of K_n: rounds of disjoint pairs; across rounds every
/// unordered pair appears exactly once. For even `n` there are `n-1` rounds
/// and every node is matched in every round; for odd `n` there are `n`
/// rounds and each node idles exactly once. Every round holds `n / 2`
/// pairs `(a, b)` with `a < b`, ascending, so all of them live in one flat
/// buffer and round `r` is `&factorization[r]`.
pub(crate) struct OneFactorization {
    pairs: Vec<(u32, u32)>,
    width: usize,
}

impl OneFactorization {
    /// The circle method: node `q = m - 1` is fixed and round `r` pairs
    /// `x` with `y ≡ 2r - x (mod q)`, and `r` with `q`, over `m = n` nodes
    /// (even `n`) or `m = n + 1` (odd `n`: the phantom node `n` is `q`,
    /// and its pair is dropped). Walking `x` upward and keeping `x < y`
    /// writes each round already sorted.
    pub(crate) fn new(n: u32) -> Self {
        assert!(n >= 2, "need at least two nodes");
        let q = if n.is_multiple_of(2) { n - 1 } else { n };
        let width = (n / 2) as usize;
        let mut pairs = Vec::with_capacity(q as usize * width);
        for r in 0..q {
            // The partner of x = 0, then one less (mod q) per step.
            let mut y = (2 * r) % q;
            for x in 0..q {
                if y == x {
                    if q < n {
                        pairs.push((x, q));
                    }
                } else if x < y {
                    pairs.push((x, y));
                }
                y = if y == 0 { q - 1 } else { y - 1 };
            }
        }
        debug_assert_eq!(pairs.len(), q as usize * width);
        OneFactorization { pairs, width }
    }

    /// Number of rounds.
    pub(crate) fn len(&self) -> usize {
        self.pairs.len() / self.width
    }
}

impl std::ops::Index<usize> for OneFactorization {
    type Output = [(u32, u32)];

    fn index(&self, round: usize) -> &[(u32, u32)] {
        &self.pairs[round * self.width..][..self.width]
    }
}

/// Single-dimensional round-robin schedule with `uplinks` optical uplinks
/// per node, for `n` endpoint nodes. Returns the circuit list and the
/// number of slices per cycle: what [`round_robin_into`] writes, collected.
///
/// Uplink `j` runs the same 1-factorization phase-shifted by
/// `j * rounds / uplinks`, so at any slice the union of all uplinks forms a
/// `uplinks`-regular graph whose connectivity diversifies over the cycle —
/// RotorNet with `uplinks = 1..k`, Opera-style richness as `uplinks` grows.
/// ```
/// use openoptics_topo::round_robin;
/// use openoptics_fabric::OpticalSchedule;
/// use openoptics_sim::SliceConfig;
///
/// let (circuits, slices) = round_robin(8, 1);
/// assert_eq!(slices, 7); // n-1 matchings cover every pair once
/// let sched = OpticalSchedule::build(
///     SliceConfig::new(100_000, slices, 1_000), 8, 1, &circuits,
/// ).unwrap();
/// assert!(sched.cycle_covers_all_pairs());
/// ```
pub fn round_robin(n: u32, uplinks: u16) -> (Vec<Circuit>, u32) {
    collect(|sink| round_robin_into(n, uplinks, sink))
}

/// [`round_robin`] written into `sink`, circuit by circuit in slice order,
/// with no list in between.
pub fn round_robin_into<S: CircuitSink>(
    n: u32,
    uplinks: u16,
    sink: &mut S,
) -> Result<(), S::Error> {
    assert!(uplinks >= 1);
    let rounds = OneFactorization::new(n);
    sink.cycle(idx_u32(rounds.len()))?;
    striped(&rounds, uplinks, sink)
}

/// The round-robin cycle's circuits: in slice `ts`, uplink `j` carries
/// round `ts + j * rounds / uplinks`.
pub(crate) fn striped<S: CircuitSink>(
    rounds: &OneFactorization,
    uplinks: u16,
    sink: &mut S,
) -> Result<(), S::Error> {
    for ts in 0..rounds.len() {
        for j in 0..uplinks {
            let shift = (j as usize * rounds.len() / uplinks as usize) % rounds.len();
            for &(a, b) in &rounds[(ts + shift) % rounds.len()] {
                sink.circuit(Circuit::in_slice(
                    NodeId(a),
                    PortId(j),
                    NodeId(b),
                    PortId(j),
                    idx_u32(ts),
                ))?;
            }
        }
    }
    Ok(())
}

/// What a generator writes into a list sink.
pub(crate) fn collect(
    generate: impl FnOnce(&mut (Vec<Circuit>, u32)) -> Result<(), Infallible>,
) -> (Vec<Circuit>, u32) {
    let mut list = (Vec::new(), 0);
    let Ok(()) = generate(&mut list);
    list
}

/// Multi-dimensional round robin (Shale, §4.2): nodes form a `dim`-dimensional
/// grid with side `s` (`n == s^dim` required), one uplink per node. Slices
/// iterate dimensions in order; within a dimension, each grid line of `s`
/// nodes runs its own 1-factorization round. The cycle has
/// `dim * rounds(s)` slices, and any pair of nodes is reachable in at most
/// `dim` hops (one per differing coordinate).
pub fn round_robin_multidim(n: u32, dim: u32) -> (Vec<Circuit>, u32) {
    collect(|sink| round_robin_multidim_into(n, dim, sink))
}

/// [`round_robin_multidim`] written into `sink`.
pub fn round_robin_multidim_into<S: CircuitSink>(
    n: u32,
    dim: u32,
    sink: &mut S,
) -> Result<(), S::Error> {
    assert!(dim >= 1);
    #[expect(clippy::cast_possible_truncation, reason = "`as` saturates; to_u32 checks the rest")]
    let s = to_u32(f64::from(n).powf(1.0 / f64::from(dim)).round() as u64);
    assert_eq!(
        s.checked_pow(dim).expect("grid size overflow"),
        n,
        "multi-dimensional round robin needs node count to be a perfect power: {n} != {s}^{dim}"
    );
    if dim == 1 {
        return round_robin_into(n, 1, sink);
    }
    let rounds = OneFactorization::new(s);
    let rounds_per_dim = idx_u32(rounds.len());
    let num_slices = dim * rounds_per_dim;
    let stride = |d: u32| s.pow(d);
    sink.cycle(num_slices)?;
    for ts in 0..num_slices {
        let d = ts / rounds_per_dim;
        let r = (ts % rounds_per_dim) as usize;
        // Enumerate all grid lines along dimension d: nodes sharing every
        // coordinate except coordinate d.
        for base in 0..n {
            // `base` is a line anchor iff its d-th coordinate is 0.
            if (base / stride(d)) % s != 0 {
                continue;
            }
            for &(a, b) in &rounds[r] {
                let na = base + a * stride(d);
                let nb = base + b * stride(d);
                sink.circuit(Circuit::in_slice(NodeId(na), PortId(0), NodeId(nb), PortId(0), ts))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_fabric::OpticalSchedule;
    use openoptics_sim::hash::FxHashSet;
    use openoptics_sim::SliceConfig;

    /// The factorization as first written: one sorted `Vec` per round.
    fn one_factorization_reference(n: u32) -> Vec<Vec<(u32, u32)>> {
        assert!(n >= 2, "need at least two nodes");
        let even = n.is_multiple_of(2);
        // With odd n, insert a phantom node `n`; pairs touching it are dropped.
        let m = if even { n } else { n + 1 };
        let rounds = m - 1;
        let mut out = Vec::with_capacity(rounds as usize);
        for r in 0..rounds {
            let mut round = Vec::with_capacity((m / 2) as usize);
            // Circle method: node m-1 is fixed, others rotate.
            let pair = (m - 1, r);
            if pair.0 < n && pair.1 < n {
                round.push((pair.0.min(pair.1), pair.0.max(pair.1)));
            }
            for k in 1..m / 2 {
                let a = (r + k) % (m - 1);
                let b = (r + m - 1 - k) % (m - 1);
                if a < n && b < n {
                    round.push((a.min(b), a.max(b)));
                }
            }
            round.sort_unstable();
            out.push(round);
        }
        out
    }

    /// [`round_robin`] as first written, over the per-round reference.
    fn round_robin_reference(n: u32, uplinks: u16) -> (Vec<Circuit>, u32) {
        assert!(uplinks >= 1);
        let rounds = one_factorization_reference(n);
        let num_slices = idx_u32(rounds.len());
        let mut circuits = Vec::new();
        for (ts, _) in rounds.iter().enumerate() {
            for j in 0..uplinks {
                let shift = (j as usize * rounds.len() / uplinks as usize) % rounds.len();
                let round = &rounds[(ts + shift) % rounds.len()];
                for &(a, b) in round {
                    circuits.push(Circuit::in_slice(
                        NodeId(a),
                        PortId(j),
                        NodeId(b),
                        PortId(j),
                        idx_u32(ts),
                    ));
                }
            }
        }
        (circuits, num_slices)
    }

    #[test]
    fn flat_factorization_and_round_robin_equal_the_per_round_reference() {
        for n in 2..=130 {
            let (flat, reference) = (OneFactorization::new(n), one_factorization_reference(n));
            assert_eq!(flat.len(), reference.len(), "n={n}");
            for (r, round) in reference.iter().enumerate() {
                assert_eq!(&flat[r], &round[..], "n={n} round {r}");
            }
            for uplinks in 1..=8 {
                assert_eq!(
                    round_robin(n, uplinks),
                    round_robin_reference(n, uplinks),
                    "n={n} uplinks={uplinks}"
                );
            }
        }
    }

    fn check_factorization(n: u32) {
        let rounds = OneFactorization::new(n);
        let expected_rounds = if n.is_multiple_of(2) { n - 1 } else { n };
        assert_eq!(idx_u32(rounds.len()), expected_rounds, "n={n}");
        let mut seen = FxHashSet::default();
        for round in (0..rounds.len()).map(|r| &rounds[r]) {
            let mut in_round = FxHashSet::default();
            for &(a, b) in round {
                assert!(a < b && b < n, "n={n} bad pair ({a},{b})");
                assert!(in_round.insert(a), "n={n}: {a} matched twice in a round");
                assert!(in_round.insert(b), "n={n}: {b} matched twice in a round");
                assert!(seen.insert((a, b)), "n={n}: pair ({a},{b}) repeated");
            }
        }
        // Every unordered pair covered exactly once.
        assert_eq!(idx_u32(seen.len()), n * (n - 1) / 2, "n={n}");
    }

    #[test]
    fn factorization_even_sizes() {
        for n in [2, 4, 6, 8, 16, 108] {
            check_factorization(n);
        }
    }

    #[test]
    fn factorization_odd_sizes() {
        for n in [3, 5, 7, 9, 27] {
            check_factorization(n);
        }
    }

    #[test]
    fn round_robin_deploys_cleanly() {
        for (n, u) in [(8u32, 1u16), (8, 2), (8, 4), (6, 3), (108, 6)] {
            let (circuits, slices) = round_robin(n, u);
            let cfg = SliceConfig::new(1_000, slices, 100);
            let sched = OpticalSchedule::build(cfg, n, u, &circuits)
                .unwrap_or_else(|e| panic!("n={n} u={u}: {e}"));
            assert!(sched.cycle_covers_all_pairs(), "n={n} u={u} misses pairs");
        }
    }

    #[test]
    fn round_robin_each_slice_is_u_regular() {
        let (circuits, slices) = round_robin(8, 2);
        let cfg = SliceConfig::new(1_000, slices, 100);
        let sched = OpticalSchedule::build(cfg, 8, 2, &circuits).unwrap();
        for ts in 0..slices {
            for node in 0..8 {
                assert_eq!(sched.neighbors(NodeId(node), ts).count(), 2, "node {node} ts {ts}");
            }
        }
    }

    #[test]
    fn multidim_grid_deploys_and_covers_dimension_neighbors() {
        // Shale-style: 9 nodes in a 3x3 grid, 2 dimensions.
        let (circuits, slices) = round_robin_multidim(9, 2);
        assert_eq!(slices, 2 * 3); // odd side 3 -> 3 rounds per dim
        let cfg = SliceConfig::new(1_000, slices, 100);
        let sched = OpticalSchedule::build(cfg, 9, 1, &circuits).unwrap();
        // Node 0's grid-line peers: {1,2} (dim 0) and {3,6} (dim 1) must all
        // appear as direct circuits somewhere in the cycle.
        for peer in [1u32, 2, 3, 6] {
            assert!(
                !sched.slices_connecting(NodeId(0), NodeId(peer)).is_empty(),
                "peer {peer} never connected"
            );
        }
        // Off-line nodes (e.g. 4 = coords (1,1)) are never direct.
        assert!(sched.slices_connecting(NodeId(0), NodeId(4)).is_empty());
    }

    #[test]
    fn multidim_requires_perfect_power() {
        let r = std::panic::catch_unwind(|| round_robin_multidim(10, 2));
        assert!(r.is_err());
    }

    #[test]
    fn multidim_dim1_equals_plain() {
        let (c1, s1) = round_robin_multidim(8, 1);
        let (c2, s2) = round_robin(8, 1);
        assert_eq!(s1, s2);
        assert_eq!(c1, c2);
    }
}
