//! The sparse, row-stochastic normalized trust matrix `S = (s_ij)`.

use crate::error::CoreError;
use crate::id::NodeId;
use crate::local::LocalTrust;

/// Builder that accumulates raw feedback `r_ij` and produces a normalized
/// [`TrustMatrix`].
///
/// Feedback recorded multiple times for the same `(i, j)` pair accumulates,
/// matching how a reputation system folds repeated transactions into one raw
/// score.
#[derive(Clone, Debug)]
pub struct TrustMatrixBuilder {
    n: usize,
    rows: Vec<LocalTrust>,
}

impl TrustMatrixBuilder {
    /// A builder for an `n`-node network with no feedback yet.
    pub fn new(n: usize) -> Self {
        TrustMatrixBuilder { n, rows: vec![LocalTrust::new(); n] }
    }

    /// Network size this builder was created for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Record feedback `amount` from `from` about `to`.
    ///
    /// Self-ratings are dropped: the paper's random-walk interpretation
    /// requires a peer not to vouch for itself (cf. EigenTrust, which also
    /// zeroes the diagonal).
    ///
    /// # Panics
    /// Panics if either id is out of range.
    pub fn record(&mut self, from: NodeId, to: NodeId, amount: f64) {
        assert!(from.index() < self.n, "from {from} out of range (n={})", self.n);
        assert!(to.index() < self.n, "to {to} out of range (n={})", self.n);
        if from == to {
            return;
        }
        self.rows[from.index()].add_feedback(to, amount);
    }

    /// Install a whole per-node [`LocalTrust`] row (used by workload
    /// generators and threat models that synthesize feedback wholesale).
    ///
    /// Any self-rating present in `local` is discarded.
    pub fn set_row(&mut self, from: NodeId, mut local: LocalTrust) {
        assert!(from.index() < self.n, "from {from} out of range (n={})", self.n);
        local.forget(from);
        self.rows[from.index()] = local;
    }

    /// Read access to a row being built.
    pub fn row(&self, from: NodeId) -> &LocalTrust {
        &self.rows[from.index()]
    }

    /// Mutable access to a row being built.
    pub fn row_mut(&mut self, from: NodeId) -> &mut LocalTrust {
        &mut self.rows[from.index()]
    }

    /// Normalize every row (Eq. 1) and freeze into a [`TrustMatrix`].
    pub fn build(&self) -> TrustMatrix {
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0usize);
        for row in &self.rows {
            for (id, s) in row.normalized() {
                cols.push(id.0);
                vals.push(s);
            }
            row_ptr.push(cols.len());
        }
        let matrix = TrustMatrix { n: self.n, row_ptr, cols, vals };
        #[cfg(feature = "invariants")]
        crate::invariants::check_row_stochastic(&matrix, "TrustMatrixBuilder::build");
        matrix
    }
}

/// The normalized trust matrix `S = (s_ij)` in compressed sparse row form.
///
/// Every stored row sums to 1. Rows of peers that issued *no* feedback are
/// stored empty and treated as **uniform** (`s_ij = 1/n` for all `j`) by all
/// matrix operations — the standard completion that keeps `S` stochastic and
/// the induced Markov chain well-defined (EigenTrust does the same).
#[derive(Clone, Debug, PartialEq)]
pub struct TrustMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl TrustMatrix {
    /// Network size `n` (the matrix is `n × n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The stored entries of row `i` as parallel `(columns, values)` slices.
    ///
    /// An empty row means "no feedback issued" and is interpreted as uniform
    /// by the matrix products.
    pub fn row(&self, i: NodeId) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[i.index()], self.row_ptr[i.index() + 1]);
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// True if row `i` stored no feedback (and is therefore implicit-uniform).
    pub fn row_is_dangling(&self, i: NodeId) -> bool {
        self.row_ptr[i.index()] == self.row_ptr[i.index() + 1]
    }

    /// Entry `s_ij`, resolving implicit-uniform rows to `1/n`.
    pub fn entry(&self, i: NodeId, j: NodeId) -> f64 {
        if self.row_is_dangling(i) {
            return 1.0 / self.n as f64;
        }
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j.0) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// `out = Sᵀ · v`, the matrix–vector product of Eq. 2 / Eq. 7:
    /// `out[j] = Σ_i s_ij · v[i]`.
    ///
    /// Implicit-uniform rows spread their `v[i]` mass evenly over all `n`
    /// components. Runs in `O(nnz + n)`.
    ///
    /// # Errors
    /// Returns [`CoreError::DimensionMismatch`] if `v` or `out` have length
    /// different from `n`.
    pub fn transpose_mul(&self, v: &[f64], out: &mut [f64]) -> Result<(), CoreError> {
        if v.len() != self.n {
            return Err(CoreError::DimensionMismatch { expected: self.n, actual: v.len() });
        }
        if out.len() != self.n {
            return Err(CoreError::DimensionMismatch { expected: self.n, actual: out.len() });
        }
        out.fill(0.0);
        let mut dangling_mass = 0.0;
        #[allow(clippy::needless_range_loop)] // index drives multiple arrays
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            if lo == hi {
                dangling_mass += v[i];
                continue;
            }
            let vi = v[i];
            if vi == 0.0 {
                continue;
            }
            for k in lo..hi {
                out[self.cols[k] as usize] += self.vals[k] * vi;
            }
        }
        if dangling_mass != 0.0 {
            let share = dangling_mass / self.n as f64;
            for o in out.iter_mut() {
                *o += share;
            }
        }
        Ok(())
    }

    /// Sum of stored entries of row `i` (1.0 for non-dangling rows, 0.0 for
    /// dangling ones, up to float error).
    pub fn row_sum(&self, i: NodeId) -> f64 {
        let (lo, hi) = (self.row_ptr[i.index()], self.row_ptr[i.index() + 1]);
        self.vals[lo..hi].iter().sum()
    }

    /// Verify the stochastic invariant: every non-dangling row sums to 1
    /// within `tol`, and every entry lies in `[0, 1]`.
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        if self.vals.iter().any(|&v| !(0.0..=1.0 + tol).contains(&v)) {
            return false;
        }
        (0..self.n).all(|i| {
            let id = NodeId::from_index(i);
            self.row_is_dangling(id) || (self.row_sum(id) - 1.0).abs() <= tol
        })
    }

    /// Materialize as a dense row-major `n × n` matrix (tests and tiny
    /// examples only; resolves implicit-uniform rows).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; self.n]; self.n];
        #[allow(clippy::needless_range_loop)] // index drives multiple arrays
        for i in 0..self.n {
            let id = NodeId::from_index(i);
            if self.row_is_dangling(id) {
                dense[i].fill(1.0 / self.n as f64);
            } else {
                let (cols, vals) = self.row(id);
                for (&c, &v) in cols.iter().zip(vals) {
                    dense[i][c as usize] = v;
                }
            }
        }
        dense
    }

    /// Build directly from per-node raw-score rows.
    pub fn from_rows(rows: &[LocalTrust]) -> TrustMatrix {
        let mut b = TrustMatrixBuilder::new(rows.len());
        for (i, row) in rows.iter().enumerate() {
            b.set_row(NodeId::from_index(i), row.clone());
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrix() -> TrustMatrix {
        // 0 → {1: 4, 2: 1}; 1 → {0: 2}; 2 → dangling
        let mut b = TrustMatrixBuilder::new(3);
        b.record(NodeId(0), NodeId(1), 4.0);
        b.record(NodeId(0), NodeId(2), 1.0);
        b.record(NodeId(1), NodeId(0), 2.0);
        b.build()
    }

    #[test]
    fn rows_normalize_per_eq1() {
        let m = small_matrix();
        assert!((m.entry(NodeId(0), NodeId(1)) - 0.8).abs() < 1e-12);
        assert!((m.entry(NodeId(0), NodeId(2)) - 0.2).abs() < 1e-12);
        assert_eq!(m.entry(NodeId(1), NodeId(0)), 1.0);
    }

    #[test]
    fn dangling_row_is_uniform() {
        let m = small_matrix();
        assert!(m.row_is_dangling(NodeId(2)));
        for j in 0..3 {
            assert!((m.entry(NodeId(2), NodeId(j)) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn self_ratings_are_dropped() {
        let mut b = TrustMatrixBuilder::new(2);
        b.record(NodeId(0), NodeId(0), 10.0);
        b.record(NodeId(0), NodeId(1), 1.0);
        let m = b.build();
        assert_eq!(m.entry(NodeId(0), NodeId(0)), 0.0);
        assert_eq!(m.entry(NodeId(0), NodeId(1)), 1.0);
    }

    #[test]
    fn stochastic_invariant_holds() {
        assert!(small_matrix().is_row_stochastic(1e-12));
    }

    #[test]
    fn transpose_mul_matches_dense() {
        let m = small_matrix();
        let v = [0.5, 0.3, 0.2];
        let mut out = vec![0.0; 3];
        m.transpose_mul(&v, &mut out).unwrap();
        let dense = m.to_dense();
        for j in 0..3 {
            let expect: f64 = (0..3).map(|i| dense[i][j] * v[i]).sum();
            assert!((out[j] - expect).abs() < 1e-12, "j={j}: {} vs {}", out[j], expect);
        }
        // Sᵀ preserves total mass because S is row-stochastic.
        let total: f64 = out.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_mul_checks_dimensions() {
        let m = small_matrix();
        let mut out = vec![0.0; 3];
        assert!(matches!(
            m.transpose_mul(&[0.1, 0.9], &mut out),
            Err(CoreError::DimensionMismatch { expected: 3, actual: 2 })
        ));
        let mut short = vec![0.0; 2];
        assert!(m.transpose_mul(&[0.1, 0.2, 0.7], &mut short).is_err());
    }

    #[test]
    fn paper_fig2_column_for_node_2() {
        // Fig. 2 of the paper: s_12 = 0.2, s_22 = 0, s_32 = 0.6 (1-indexed),
        // V(t) = (1/2, 1/3, 1/6); the updated v_2(t+1) must be 0.2.
        // We encode only the entries relevant to column 2 plus filler to keep
        // rows stochastic.
        let mut b = TrustMatrixBuilder::new(3);
        // Node 0 (paper N1): s to N2 (index 1) = 0.2, rest to N3 (index 2).
        b.record(NodeId(0), NodeId(1), 0.2);
        b.record(NodeId(0), NodeId(2), 0.8);
        // Node 1 (paper N2): no trust in N2 itself (diagonal), all to N1.
        b.record(NodeId(1), NodeId(0), 1.0);
        // Node 2 (paper N3): s to N2 = 0.6, rest to N1.
        b.record(NodeId(2), NodeId(1), 0.6);
        b.record(NodeId(2), NodeId(0), 0.4);
        let m = b.build();
        let v = [0.5, 1.0 / 3.0, 1.0 / 6.0];
        let mut out = vec![0.0; 3];
        m.transpose_mul(&v, &mut out).unwrap();
        // v_2(t+1) = 1/2·0.2 + 1/3·0 + 1/6·0.6 = 0.2
        assert!((out[1] - 0.2).abs() < 1e-12, "got {}", out[1]);
    }

    #[test]
    fn from_rows_roundtrip() {
        let mut r0 = LocalTrust::new();
        r0.add_feedback(NodeId(1), 3.0);
        let rows = vec![r0, LocalTrust::new()];
        let m = TrustMatrix::from_rows(&rows);
        assert_eq!(m.n(), 2);
        assert_eq!(m.entry(NodeId(0), NodeId(1)), 1.0);
        assert!(m.row_is_dangling(NodeId(1)));
    }

    #[test]
    fn nnz_counts_stored_entries() {
        assert_eq!(small_matrix().nnz(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_out_of_range_panics() {
        let mut b = TrustMatrixBuilder::new(2);
        b.record(NodeId(0), NodeId(5), 1.0);
    }

    #[test]
    #[should_panic(expected = "not row-stochastic")]
    fn non_stochastic_matrix_trips_the_invariant_checker() {
        // Bypass the normalizing builder: a raw CSR matrix whose one row
        // sums to 1.5 must be rejected by the checker the `invariants`
        // feature installs behind every published matrix.
        let bad =
            TrustMatrix { n: 2, row_ptr: vec![0, 2, 2], cols: vec![0, 1], vals: vec![0.75, 0.75] };
        crate::invariants::check_row_stochastic(&bad, "test");
    }
}
