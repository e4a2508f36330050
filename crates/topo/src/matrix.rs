//! Traffic matrices.
//!
//! The TA workflow collects per-destination traffic volumes into a global
//! traffic matrix (TM) that topology algorithms optimize against (§4.1).
//! Entry `(i, j)` is demand from endpoint node `i` to node `j`, in bytes.

use openoptics_proto::NodeId;
use openoptics_sim::idx_u32;
use std::fmt;

/// An `n x n` demand matrix (row = source, column = destination).
#[derive(Clone, PartialEq)]
pub struct TrafficMatrix {
    n: usize,
    data: Vec<f64>,
}

impl TrafficMatrix {
    /// The all-zero matrix.
    pub fn zeros(n: usize) -> Self {
        TrafficMatrix { n, data: vec![0.0; n * n] }
    }

    /// Uniform all-to-all demand of `v` per ordered pair (diagonal zero).
    pub fn uniform(n: usize, v: f64) -> Self {
        let mut tm = TrafficMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    tm.set(NodeId(idx_u32(i)), NodeId(idx_u32(j)), v);
                }
            }
        }
        tm
    }

    /// Build from per-pair records (`add`-accumulated).
    pub fn from_records(n: usize, records: &[(NodeId, NodeId, f64)]) -> Self {
        let mut tm = TrafficMatrix::zeros(n);
        for &(s, d, v) in records {
            tm.add(s, d, v);
        }
        tm
    }

    /// Matrix dimension.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Demand from `s` to `d`.
    #[inline]
    pub fn get(&self, s: NodeId, d: NodeId) -> f64 {
        self.data[s.index() * self.n + d.index()]
    }

    /// Set demand from `s` to `d`.
    #[inline]
    pub fn set(&mut self, s: NodeId, d: NodeId, v: f64) {
        self.data[s.index() * self.n + d.index()] = v;
    }

    /// Accumulate demand from `s` to `d`.
    #[inline]
    pub fn add(&mut self, s: NodeId, d: NodeId, v: f64) {
        self.data[s.index() * self.n + d.index()] += v;
    }

    /// Sum of all entries.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Symmetrized demand `get(a,b) + get(b,a)` — what bidirectional
    /// circuits serve.
    pub fn pair_demand(&self, a: NodeId, b: NodeId) -> f64 {
        self.get(a, b) + self.get(b, a)
    }

    /// Sinkhorn-Knopp normalization toward a doubly stochastic matrix
    /// (all row and column sums 1), the precondition for Birkhoff–von-Neumann
    /// decomposition. Zero rows/columns receive uniform fill first so the
    /// iteration converges. `iters` of 50 is plenty for DCN-size matrices.
    pub(crate) fn to_doubly_stochastic(&self, iters: usize) -> TrafficMatrix {
        let n = self.n;
        let mut m = self.clone();
        // Fill empty rows/columns and the diagonal-free structure with a
        // small epsilon so a perfect matching support always exists.
        let eps = (m.total() / (n * n) as f64).max(1.0) * 1e-6;
        for i in 0..n {
            for j in 0..n {
                if i != j && m.data[i * n + j] <= 0.0 {
                    m.data[i * n + j] = eps;
                }
            }
        }
        for _ in 0..iters {
            for i in 0..n {
                let s: f64 = (0..n).map(|j| m.data[i * n + j]).sum();
                if s > 0.0 {
                    for j in 0..n {
                        m.data[i * n + j] /= s;
                    }
                }
            }
            for j in 0..n {
                let s: f64 = (0..n).map(|i| m.data[i * n + j]).sum();
                if s > 0.0 {
                    for i in 0..n {
                        m.data[i * n + j] /= s;
                    }
                }
            }
        }
        m
    }
}

impl fmt::Debug for TrafficMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TrafficMatrix({}x{}, total {:.1})", self.n, self.n, self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TrafficMatrix {
        /// Row sum (total egress demand of `s`).
        fn row_sum(&self, s: NodeId) -> f64 {
            (0..self.n).map(|j| self.data[s.index() * self.n + j]).sum()
        }

        /// Column sum (total ingress demand of `d`).
        fn col_sum(&self, d: NodeId) -> f64 {
            (0..self.n).map(|i| self.data[i * self.n + d.index()]).sum()
        }

        /// Largest absolute deviation of any row/column sum from 1.
        fn stochasticity_error(&self) -> f64 {
            let mut worst: f64 = 0.0;
            for i in 0..self.n {
                worst = worst.max((self.row_sum(NodeId(idx_u32(i))) - 1.0).abs());
                worst = worst.max((self.col_sum(NodeId(idx_u32(i))) - 1.0).abs());
            }
            worst
        }
    }

    #[test]
    fn accumulation_and_sums() {
        let mut tm = TrafficMatrix::zeros(3);
        tm.add(NodeId(0), NodeId(1), 10.0);
        tm.add(NodeId(0), NodeId(1), 5.0);
        tm.add(NodeId(2), NodeId(1), 7.0);
        assert_eq!(tm.get(NodeId(0), NodeId(1)), 15.0);
        assert_eq!(tm.row_sum(NodeId(0)), 15.0);
        assert_eq!(tm.col_sum(NodeId(1)), 22.0);
        assert_eq!(tm.total(), 22.0);
    }

    #[test]
    fn pair_demand_is_symmetric_sum() {
        let mut tm = TrafficMatrix::zeros(2);
        tm.set(NodeId(0), NodeId(1), 3.0);
        tm.set(NodeId(1), NodeId(0), 4.0);
        assert_eq!(tm.pair_demand(NodeId(0), NodeId(1)), 7.0);
        assert_eq!(tm.pair_demand(NodeId(1), NodeId(0)), 7.0);
    }

    #[test]
    fn sinkhorn_converges() {
        let mut tm = TrafficMatrix::zeros(4);
        // A skewed matrix.
        tm.set(NodeId(0), NodeId(1), 100.0);
        tm.set(NodeId(1), NodeId(2), 1.0);
        tm.set(NodeId(2), NodeId(3), 50.0);
        tm.set(NodeId(3), NodeId(0), 2.0);
        let ds = tm.to_doubly_stochastic(200);
        assert!(ds.stochasticity_error() < 1e-4, "err = {}", ds.stochasticity_error());
    }

    #[test]
    fn sinkhorn_handles_empty_matrix() {
        let tm = TrafficMatrix::zeros(4);
        let ds = tm.to_doubly_stochastic(100);
        assert!(ds.stochasticity_error() < 1e-6);
    }

    #[test]
    fn uniform_matrix_row_sums() {
        let tm = TrafficMatrix::uniform(5, 2.0);
        for i in 0..5 {
            assert_eq!(tm.row_sum(NodeId(i)), 8.0);
            assert_eq!(tm.get(NodeId(i), NodeId(i)), 0.0);
        }
    }
}
