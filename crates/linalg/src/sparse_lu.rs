//! Sparse-direct LU in the KLU mold (Davis & Palamadai Natarajan): one
//! symbolic analysis per matrix *pattern*, a numeric factorization per
//! operating point, and a cheap value-only refactorization for the warm
//! transient loop where the Jacobian's structure never changes.
//!
//! The pieces:
//!
//! - **Ordering**: exact minimum degree on the structure of `A + Aᵀ`,
//!   computed on bitset adjacency rows. Circuit matrices here are at most
//!   a few thousand unknowns, so the O(n²·n/64) exact algorithm is cheaper
//!   than an approximate-minimum-degree implementation is complicated.
//! - **Factorization**: Gilbert-Peierls left-looking column LU. For each
//!   column (in elimination order) a depth-first reach over the
//!   already-pivoted columns discovers the fill pattern, a dense
//!   accumulator receives the scatter/gather, and threshold partial
//!   pivoting picks the pivot row — preferring the diagonal of the
//!   symmetrically permuted matrix when it is within a factor
//!   [`PIVOT_SAFETY`] of the column maximum, which keeps the pivot order
//!   stable across operating points.
//! - **Refactorization**: replays the recorded pattern with fixed pivots,
//!   touching no allocator. A pivot that collapses (relative to the column
//!   maximum, or below the singularity threshold) triggers an internal
//!   fall back to a fresh [`SparseLu::factor`] with full repivoting — the
//!   partial-pivot safety valve of the warm loop.
//!
//! `U` is stored column-wise with entries indexed by *pivot step* in
//! ascending order. Ascending step order is a valid topological order for
//! the sparse triangular solve because the pivot row of step `k` can only
//! appear in `L(:,k')` for `k' < k`; this makes both the refactor replay
//! and the solve simple sequential scans, with no per-call ordering work.

use crate::{CsrMatrix, LinalgError, Result, Vector};

/// Pivot magnitude below which the matrix is declared numerically
/// singular (mirrors the dense `LuFactor` threshold).
const SINGULARITY_THRESHOLD: f64 = 1e-300;

/// Threshold partial pivoting: the diagonal of the symmetrically permuted
/// matrix is kept as pivot when its magnitude is at least this fraction of
/// the column maximum (KLU's default diagonal preference).
const PIVOT_SAFETY: f64 = 0.1;

/// Refactorization pivot-collapse guard: a replayed pivot smaller than
/// this fraction of its column maximum abandons the recorded pivot order
/// and falls back to a fresh factorization with repivoting.
const REFACTOR_PIVOT_FLOOR: f64 = 1e-6;

/// Deterministic fault hook shared with the dense LU: asks the installed
/// `shc-fault` plan (if any) whether this call should fail. The sparse
/// path reports through the same `LuFactor`/`LuSolve` sites so the fault
/// matrix exercises it without new site plumbing.
fn injected_fault(site: shc_fault::Site) -> Option<LinalgError> {
    let kind = shc_fault::check(site)?;
    shc_obs::count(shc_obs::Metric::FaultsInjected, 1);
    let value = match kind {
        shc_fault::FaultKind::NanResidual => f64::NAN,
        _ => 0.0,
    };
    Some(LinalgError::Singular { pivot: 0, value })
}

/// Sparse LU factorization `P·A·Q = L·U` with a fill-reducing column
/// ordering `Q` and threshold partial row pivoting `P`.
///
/// Built once per sparsity pattern; [`SparseLu::refactor`] then updates
/// the numeric factors allocation-free whenever only the matrix *values*
/// change — the shape of every transient Newton iteration.
///
/// # Example
///
/// ```rust
/// use shc_linalg::{CsrMatrix, SparseLu, Vector};
///
/// # fn main() -> Result<(), shc_linalg::LinalgError> {
/// let a = CsrMatrix::from_triplets(
///     3,
///     3,
///     &[(0, 0, 4.0), (0, 2, 1.0), (1, 1, 3.0), (2, 0, 1.0), (2, 2, 2.0)],
/// )?;
/// let mut lu = SparseLu::new(&a)?;
/// let b = Vector::from_slice(&[5.0, 3.0, 3.0]);
/// let mut x = Vector::zeros(3);
/// lu.solve_into(&b, &mut x)?;
/// assert!(a.mul_vec(&x).sub(&b).norm_inf() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SparseLu {
    n: usize,
    /// CSC copy of the matrix; pattern fixed at analysis time.
    cc_ptr: Vec<usize>,
    cc_row: Vec<usize>,
    cc_val: Vec<f64>,
    /// Maps each CSR-order entry of the analyzed matrix to its CSC slot,
    /// so refactorization refreshes values with one linear pass.
    csr_to_csc: Vec<usize>,
    /// Fill-reducing column elimination order: step `j` pivots column
    /// `q[j]` of the original matrix.
    q: Vec<usize>,
    /// Row pivots: step `j` pivots original row `p[j]`; `pinv` is the
    /// inverse map (original row → pivot step, `usize::MAX` while
    /// unpivoted during a factorization).
    p: Vec<usize>,
    pinv: Vec<usize>,
    /// `L` columns (unit diagonal implicit): per pivot step, the original
    /// row index and multiplier of each subdiagonal entry.
    l_ptr: Vec<usize>,
    l_row: Vec<usize>,
    l_val: Vec<f64>,
    /// Strict upper `U` columns in pivot-step coordinates, ascending step
    /// order (a topological order — see module docs), plus the diagonal.
    u_ptr: Vec<usize>,
    u_step: Vec<usize>,
    u_val: Vec<f64>,
    udiag: Vec<f64>,
    /// Dense accumulator for the active column; all-zero between calls.
    x: Vec<f64>,
    /// Permuted-solve scratch.
    work: Vec<f64>,
    /// DFS visit marks (stamp-versioned so clearing is O(1)).
    marked: Vec<usize>,
    stamp: usize,
    stack: Vec<usize>,
    /// Rows reached by the active column's DFS.
    touched: Vec<usize>,
    /// Already-pivoted steps reached by the active column's DFS.
    steps: Vec<usize>,
}

impl SparseLu {
    /// Performs the one-time symbolic analysis (fill-reducing ordering)
    /// and the first numeric factorization of `a`.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] for a rectangular matrix;
    /// - [`LinalgError::Singular`] if the matrix is structurally or
    ///   numerically singular.
    ///
    /// effects: alloc, clock
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                shape: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let nnz = a.nnz();
        let mut lu = {
            let _span = shc_obs::span(shc_obs::SpanKind::SparseAnalyze);
            // Cold, once per topology: symbolic analysis allocates anyway,
            // so a full profiler frame is affordable.
            let _frame = shc_prof::enter(shc_prof::Phase::SparseAnalyze);
            shc_prof::add_work(nnz as u64);
            shc_obs::count(shc_obs::Metric::SparseAnalyses, 1);
            let (cc_ptr, cc_row, cc_val, csr_to_csc) = build_csc(a);
            let q = min_degree_order(n, &cc_ptr, &cc_row);
            crate::matrix::note_buffer_allocation();
            SparseLu {
                n,
                cc_ptr,
                cc_row,
                cc_val,
                csr_to_csc,
                q,
                p: vec![0; n],
                pinv: vec![usize::MAX; n],
                l_ptr: Vec::with_capacity(n + 1),
                l_row: Vec::new(),
                l_val: Vec::new(),
                u_ptr: Vec::with_capacity(n + 1),
                u_step: Vec::new(),
                u_val: Vec::new(),
                udiag: vec![0.0; n],
                x: vec![0.0; n],
                work: vec![0.0; n],
                marked: vec![0; n],
                stamp: 0,
                stack: Vec::with_capacity(n),
                touched: Vec::with_capacity(n),
                steps: Vec::with_capacity(n),
            }
        };
        {
            // The first numeric factorization grows the factor storage
            // from empty; frame it as the (cold) fresh-factor phase.
            let _frame = shc_prof::enter(shc_prof::Phase::SparseFactor);
            shc_prof::add_work(nnz as u64);
            lu.factor(a)?;
        }
        shc_obs::observe(
            shc_obs::Metric::SparseFillNnz,
            (lu.l_val.len() + lu.u_val.len() + n).saturating_sub(nnz) as u64,
        );
        Ok(lu)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored nonzeros in the factors `L + U` (diagonal included).
    pub fn factor_nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len() + self.n
    }

    /// Fresh numeric factorization of `a` with full threshold repivoting,
    /// reusing this object's symbolic analysis and buffers.
    ///
    /// `a` must have the same dimension and pattern as the matrix given to
    /// [`SparseLu::new`] (value changes only); this is the caller's
    /// contract, checked only for dimension/nnz.
    ///
    /// On error the factor contents are unspecified; call `factor` again
    /// before the next solve.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::InvalidInput`] if `a`'s shape or nnz differs from
    ///   the analyzed pattern;
    /// - [`LinalgError::Singular`] on a structurally deficient column or a
    ///   pivot below the singularity threshold.
    pub fn factor(&mut self, a: &CsrMatrix) -> Result<()> {
        self.check_pattern(a)?;
        shc_obs::count(shc_obs::Metric::SparseFactors, 1);
        if let Some(e) = injected_fault(shc_fault::Site::LuFactor) {
            return Err(e);
        }
        self.refresh_values(a);
        // Factor-storage growth is the only allocation this method can
        // perform; report it to the shared counter only when the backing
        // capacity actually grew (steady-state re-pivoting reuses buffers).
        let cap_before = self.l_row.capacity()
            + self.l_val.capacity()
            + self.u_step.capacity()
            + self.u_val.capacity();
        let result = self.factor_with_pivoting();
        let cap_after = self.l_row.capacity()
            + self.l_val.capacity()
            + self.u_step.capacity()
            + self.u_val.capacity();
        if cap_after > cap_before {
            crate::matrix::note_buffer_allocation();
        }
        result
    }

    /// Value-only refactorization: replays the recorded elimination
    /// pattern and pivot order against `a`'s new values, allocation-free.
    ///
    /// If a replayed pivot collapses — magnitude below the singularity
    /// threshold or below [`REFACTOR_PIVOT_FLOOR`] times its column
    /// maximum — the recorded pivot order is no longer numerically safe
    /// and this method transparently falls back to a fresh
    /// [`SparseLu::factor`] with full repivoting.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SparseLu::factor`].
    ///
    /// effects: none
    pub fn refactor(&mut self, a: &CsrMatrix) -> Result<()> {
        self.check_pattern(a)?;
        shc_obs::count(shc_obs::Metric::SparseRefactors, 1);
        if let Some(e) = injected_fault(shc_fault::Site::LuFactor) {
            return Err(e);
        }
        self.refresh_values(a);
        // lint: hot-loop
        // Defensive reset: a previously failed factorization may have left
        // the accumulator dirty. O(n), no allocation.
        self.x.fill(0.0);
        for j in 0..self.n {
            // Scatter column q[j] of A.
            let col = self.q[j];
            for idx in self.cc_ptr[col]..self.cc_ptr[col + 1] {
                self.x[self.cc_row[idx]] = self.cc_val[idx];
            }
            // Replay the recorded updates in ascending pivot-step order.
            for idx in self.u_ptr[j]..self.u_ptr[j + 1] {
                let k = self.u_step[idx];
                let ukj = self.x[self.p[k]];
                self.u_val[idx] = ukj;
                // lint: allow(float-eq, reason = "exact-zero skip is a sparsity fast path; any nonzero update must be applied")
                if ukj != 0.0 {
                    for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                        self.x[self.l_row[t]] -= self.l_val[t] * ukj;
                    }
                }
            }
            // Fixed pivot; verify it did not collapse under the new values.
            let piv = self.x[self.p[j]];
            let mut colmax = piv.abs();
            for t in self.l_ptr[j]..self.l_ptr[j + 1] {
                colmax = colmax.max(self.x[self.l_row[t]].abs());
            }
            if !(piv.abs() >= SINGULARITY_THRESHOLD
                && piv.abs() >= REFACTOR_PIVOT_FLOOR * colmax
                && colmax.is_finite())
            {
                // Pivot-collapse event: clear this column's scatter and
                // repivot from scratch (fresh fault decision included).
                for idx in self.u_ptr[j]..self.u_ptr[j + 1] {
                    self.x[self.p[self.u_step[idx]]] = 0.0;
                }
                for t in self.l_ptr[j]..self.l_ptr[j + 1] {
                    self.x[self.l_row[t]] = 0.0;
                }
                self.x[self.p[j]] = 0.0;
                // lint: allow(hot-path-certify, reason = "pivot-collapse fallback: repivoting from scratch allocates, but it is the documented cold escape from a numerically dead refactor, not steady-state work")
                return self.factor(a);
            }
            self.udiag[j] = piv;
            for t in self.l_ptr[j]..self.l_ptr[j + 1] {
                self.l_val[t] = self.x[self.l_row[t]] / piv;
            }
            // Gather/clear the column's footprint so x is all-zero again.
            for idx in self.u_ptr[j]..self.u_ptr[j + 1] {
                self.x[self.p[self.u_step[idx]]] = 0.0;
            }
            for t in self.l_ptr[j]..self.l_ptr[j + 1] {
                self.x[self.l_row[t]] = 0.0;
            }
            self.x[self.p[j]] = 0.0;
        }
        // lint: end-hot-loop
        Ok(())
    }

    /// Solves `A·x = b` using the stored factors (allocation-free).
    ///
    /// Takes `&mut self` for the internal permuted-solve scratch vector;
    /// the factors themselves are not modified.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b` or `x` has length
    /// other than `dim()`.
    ///
    /// effects: none
    pub fn solve_into(&mut self, b: &Vector, x: &mut Vector) -> Result<()> {
        shc_obs::count(shc_obs::Metric::SparseSolves, 1);
        if let Some(e) = injected_fault(shc_fault::Site::LuSolve) {
            return Err(e);
        }
        let n = self.n;
        if b.len() != n || x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_lu_solve",
                lhs: (n, n),
                rhs: (b.len().max(x.len()), 1),
            });
        }
        // lint: hot-loop
        // Forward: L·c = P·b, accumulated in original-row coordinates.
        self.work.copy_from_slice(b.as_slice());
        for k in 0..n {
            let yk = self.work[self.p[k]];
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity fast path; any nonzero update must be applied")
            if yk != 0.0 {
                for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                    self.work[self.l_row[t]] -= self.l_val[t] * yk;
                }
            }
        }
        // Backward: U·z = c, scattering z back through the column order.
        for j in (0..n).rev() {
            let zj = self.work[self.p[j]] / self.udiag[j];
            x[self.q[j]] = zj;
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity fast path; any nonzero update must be applied")
            if zj != 0.0 {
                for idx in self.u_ptr[j]..self.u_ptr[j + 1] {
                    self.work[self.p[self.u_step[idx]]] -= self.u_val[idx] * zj;
                }
            }
        }
        // lint: end-hot-loop
        Ok(())
    }

    /// Cheap guard on the caller's same-pattern contract.
    fn check_pattern(&self, a: &CsrMatrix) -> Result<()> {
        if a.rows() != self.n || a.cols() != self.n || a.nnz() != self.csr_to_csc.len() {
            return Err(LinalgError::InvalidInput {
                reason: "sparse_lu: matrix pattern differs from the analyzed one",
            });
        }
        Ok(())
    }

    /// Refreshes the internal CSC values from `a` (same pattern).
    fn refresh_values(&mut self, a: &CsrMatrix) {
        let vals = a.values();
        for (k, &pos) in self.csr_to_csc.iter().enumerate() {
            self.cc_val[pos] = vals[k];
        }
    }

    /// Left-looking Gilbert-Peierls factorization over the prepared CSC
    /// values, with threshold partial pivoting.
    fn factor_with_pivoting(&mut self) -> Result<()> {
        let n = self.n;
        self.x.fill(0.0);
        self.pinv.fill(usize::MAX);
        self.l_ptr.clear();
        self.l_row.clear();
        self.l_val.clear();
        self.u_ptr.clear();
        self.u_step.clear();
        self.u_val.clear();
        self.l_ptr.push(0);
        self.u_ptr.push(0);

        for j in 0..n {
            let col = self.q[j];
            // Reachability DFS from the column's structural entries over
            // the already-pivoted columns: every visited row is part of
            // the column's fill pattern.
            self.stamp += 1;
            self.touched.clear();
            self.steps.clear();
            for idx in self.cc_ptr[col]..self.cc_ptr[col + 1] {
                let r = self.cc_row[idx];
                if self.marked[r] != self.stamp {
                    self.marked[r] = self.stamp;
                    self.stack.push(r);
                    while let Some(i) = self.stack.pop() {
                        self.touched.push(i);
                        let k = self.pinv[i];
                        if k != usize::MAX {
                            self.steps.push(k);
                            for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                                let r2 = self.l_row[t];
                                if self.marked[r2] != self.stamp {
                                    self.marked[r2] = self.stamp;
                                    self.stack.push(r2);
                                }
                            }
                        }
                    }
                }
            }
            // Ascending pivot-step order is a valid topological order for
            // the partial triangular solve (module docs).
            self.steps.sort_unstable();

            // Numeric: scatter the column, then apply each reached pivot
            // column's update.
            for idx in self.cc_ptr[col]..self.cc_ptr[col + 1] {
                self.x[self.cc_row[idx]] = self.cc_val[idx];
            }
            for &k in &self.steps {
                let ukj = self.x[self.p[k]];
                self.u_step.push(k);
                self.u_val.push(ukj);
                // lint: allow(float-eq, reason = "exact-zero skip is a sparsity fast path; any nonzero update must be applied")
                if ukj != 0.0 {
                    for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                        self.x[self.l_row[t]] -= self.l_val[t] * ukj;
                    }
                }
            }

            // Threshold partial pivoting over the unpivoted rows of the
            // pattern, preferring the (permuted) diagonal when safe.
            let mut colmax = 0.0_f64;
            let mut best = usize::MAX;
            for &i in &self.touched {
                if self.pinv[i] == usize::MAX {
                    let mag = self.x[i].abs();
                    if mag > colmax || best == usize::MAX {
                        colmax = mag;
                        best = i;
                    }
                }
            }
            if best == usize::MAX || colmax < SINGULARITY_THRESHOLD || !colmax.is_finite() {
                return Err(LinalgError::Singular {
                    pivot: j,
                    value: colmax,
                });
            }
            let mut pivot_row = best;
            if self.pinv[col] == usize::MAX
                && self.marked[col] == self.stamp
                && self.x[col].abs() >= PIVOT_SAFETY * colmax
            {
                pivot_row = col;
            }

            let piv = self.x[pivot_row];
            self.p[j] = pivot_row;
            self.pinv[pivot_row] = j;
            self.udiag[j] = piv;
            for &i in &self.touched {
                // The pattern is kept even for numerically zero entries so
                // refactorization replays an identical structure.
                if self.pinv[i] == usize::MAX {
                    self.l_row.push(i);
                    self.l_val.push(self.x[i] / piv);
                }
            }
            self.l_ptr.push(self.l_row.len());
            self.u_ptr.push(self.u_step.len());
            // Clear the accumulator over the column's footprint.
            for &i in &self.touched {
                self.x[i] = 0.0;
            }
        }
        Ok(())
    }
}

/// Builds CSC arrays plus the CSR→CSC value map for a square matrix.
fn build_csc(a: &CsrMatrix) -> (Vec<usize>, Vec<usize>, Vec<f64>, Vec<usize>) {
    let n = a.rows();
    let nnz = a.nnz();
    let row_ptr = a.row_ptr();
    let col_idx = a.col_indices();
    let values = a.values();
    let mut cc_ptr = vec![0usize; n + 1];
    for &c in col_idx {
        cc_ptr[c + 1] += 1;
    }
    for c in 0..n {
        cc_ptr[c + 1] += cc_ptr[c];
    }
    let mut next = cc_ptr.clone();
    let mut cc_row = vec![0usize; nnz];
    let mut cc_val = vec![0.0f64; nnz];
    let mut csr_to_csc = vec![0usize; nnz];
    for i in 0..n {
        for k in row_ptr[i]..row_ptr[i + 1] {
            let c = col_idx[k];
            let pos = next[c];
            next[c] += 1;
            cc_row[pos] = i;
            cc_val[pos] = values[k];
            csr_to_csc[k] = pos;
        }
    }
    (cc_ptr, cc_row, cc_val, csr_to_csc)
}

/// Exact minimum-degree ordering on the structure of `A + Aᵀ`, using
/// bitset adjacency rows. Elimination of a vertex forms the clique of its
/// remaining neighbors; ties break toward the smallest index so the order
/// is deterministic.
fn min_degree_order(n: usize, cc_ptr: &[usize], cc_row: &[usize]) -> Vec<usize> {
    let words = n.div_ceil(64);
    let mut adj = vec![0u64; n * words];
    let set = |adj: &mut [u64], r: usize, c: usize| {
        if r != c {
            adj[r * words + c / 64] |= 1u64 << (c % 64);
        }
    };
    for c in 0..n {
        for &r in &cc_row[cc_ptr[c]..cc_ptr[c + 1]] {
            set(&mut adj, r, c);
            set(&mut adj, c, r);
        }
    }
    let mut alive = vec![u64::MAX; words];
    // Mask off the tail bits beyond n.
    if !n.is_multiple_of(64) {
        alive[words - 1] = (1u64 << (n % 64)) - 1;
    }
    let mut order = Vec::with_capacity(n);
    let mut nbrs: Vec<usize> = Vec::with_capacity(n);
    for _ in 0..n {
        // Pick the minimum-degree vertex among the survivors.
        let mut best = usize::MAX;
        let mut best_deg = usize::MAX;
        for v in 0..n {
            if alive[v / 64] & (1u64 << (v % 64)) == 0 {
                continue;
            }
            let row = &adj[v * words..(v + 1) * words];
            let mut deg = 0usize;
            for w in 0..words {
                deg += (row[w] & alive[w]).count_ones() as usize;
            }
            if deg < best_deg {
                best_deg = deg;
                best = v;
            }
        }
        let v = best;
        order.push(v);
        alive[v / 64] &= !(1u64 << (v % 64));
        // Clique the remaining neighbors of v.
        nbrs.clear();
        for w in 0..words {
            let mut bits = adj[v * words + w] & alive[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                nbrs.push(w * 64 + b);
                bits &= bits - 1;
            }
        }
        for &u in &nbrs {
            let (src, dst) = if u * words >= (v + 1) * words {
                let (lo, hi) = adj.split_at_mut(u * words);
                (&lo[v * words..(v + 1) * words], &mut hi[..words])
            } else {
                let (lo, hi) = adj.split_at_mut(v * words);
                (&hi[..words], &mut lo[u * words..(u + 1) * words])
            };
            for w in 0..words {
                dst[w] |= src[w];
            }
            dst[u / 64] &= !(1u64 << (u % 64));
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn banded_system(n: usize, seed: u64) -> Matrix {
        // Diagonally dominant banded random system.
        let mut dense = Matrix::zeros(n, n);
        let mut s = seed;
        let mut rnd = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in 0..n {
                if (i as i64 - j as i64).abs() <= 2 {
                    dense[(i, j)] = rnd();
                }
            }
            dense[(i, i)] += 6.0;
        }
        dense
    }

    #[test]
    fn matches_dense_lu_on_banded_system() {
        let n = 40;
        let dense = banded_system(n, 99);
        let a = CsrMatrix::from_dense(&dense, 0.0).unwrap();
        let b: Vector = (0..n).map(|i| (i as f64 * 0.61).sin()).collect();
        let x_dense = dense.lu().unwrap().solve(&b).unwrap();
        let mut lu = SparseLu::new(&a).unwrap();
        let mut x = Vector::zeros(n);
        lu.solve_into(&b, &mut x).unwrap();
        assert!(
            x.sub(&x_dense).norm_inf() < 1e-12,
            "sparse vs dense deviation {}",
            x.sub(&x_dense).norm_inf()
        );
    }

    #[test]
    fn handles_zero_diagonal_rows_like_mna_voltage_sources() {
        // MNA with an ideal voltage source: [[G, 1], [1, 0]] — the branch
        // row has a structurally present but zero diagonal, so the pivot
        // preference must yield to off-diagonal pivoting.
        let a = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1e-3), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1e-30)],
        )
        .unwrap();
        let mut lu = SparseLu::new(&a).unwrap();
        let b = Vector::from_slice(&[0.0, 1.0]);
        let mut x = Vector::zeros(2);
        lu.solve_into(&b, &mut x).unwrap();
        // x = [1, -1e-3 + 1e-30] (node voltage forced to 1, branch current).
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] + 1e-3).abs() < 1e-12);
    }

    #[test]
    fn refactor_matches_fresh_factor_without_alloc() {
        let n = 30;
        let d1 = banded_system(n, 5);
        let d2 = banded_system(n, 17);
        // Same pattern (same band), different values.
        let a1 = CsrMatrix::from_dense(&d1, 0.0).unwrap();
        let a2 = CsrMatrix::from_dense(&d2, 0.0).unwrap();
        assert_eq!(a1.nnz(), a2.nnz());
        let mut lu = SparseLu::new(&a1).unwrap();
        let b = Vector::filled(n, 1.0);
        let mut x = Vector::zeros(n);

        let before = crate::matrix_allocations();
        lu.refactor(&a2).unwrap();
        lu.solve_into(&b, &mut x).unwrap();
        assert_eq!(crate::matrix_allocations(), before, "refactor allocated");

        let mut fresh = SparseLu::new(&a2).unwrap();
        let mut x_fresh = Vector::zeros(n);
        fresh.solve_into(&b, &mut x_fresh).unwrap();
        assert_eq!(x.as_slice(), x_fresh.as_slice(), "refactor diverged");
    }

    #[test]
    fn refactor_falls_back_to_repivoting_on_pivot_collapse() {
        // First factor with a dominant (0,0); then swing the values so the
        // recorded pivot order collapses and the fallback must repivot.
        let a1 = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 10.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 10.0)],
        )
        .unwrap();
        let a2 = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1e-14), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1e-14)],
        )
        .unwrap();
        let mut lu = SparseLu::new(&a1).unwrap();
        lu.refactor(&a2).unwrap();
        let b = Vector::from_slice(&[1.0, 2.0]);
        let mut x = Vector::zeros(2);
        lu.solve_into(&b, &mut x).unwrap();
        let r = a2.mul_vec(&x).sub(&b);
        assert!(r.norm_inf() < 1e-12, "residual {}", r.norm_inf());
    }

    #[test]
    fn rejects_singular_and_near_singular() {
        let singular =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)])
                .unwrap();
        assert!(matches!(
            SparseLu::new(&singular),
            Err(LinalgError::Singular { .. })
        ));
        // Structurally empty column.
        let empty_col = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(matches!(
            SparseLu::new(&empty_col),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_pattern_change() {
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        assert!(matches!(
            SparseLu::new(&rect),
            Err(LinalgError::NotSquare { .. })
        ));
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]).unwrap();
        let denser =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 3.0)]).unwrap();
        let mut lu = SparseLu::new(&a).unwrap();
        assert!(matches!(
            lu.refactor(&denser),
            Err(LinalgError::InvalidInput { .. })
        ));
    }

    #[test]
    fn solve_checks_lengths() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        let mut lu = SparseLu::new(&a).unwrap();
        let mut wrong = Vector::zeros(3);
        assert!(lu.solve_into(&Vector::zeros(2), &mut wrong).is_err());
        let mut ok = Vector::zeros(2);
        assert!(lu.solve_into(&Vector::zeros(3), &mut ok).is_err());
    }

    #[test]
    fn fill_reducing_order_beats_natural_order_on_arrow_matrix() {
        // Arrow matrix with a dense first row/column: natural-order LU
        // fills in completely; minimum degree eliminates the hub last and
        // produces no fill at all.
        let n = 32;
        let mut t = Vec::new();
        t.push((0usize, 0usize, (n + 1) as f64));
        for i in 1..n {
            t.push((i, i, 4.0));
            t.push((0, i, 1.0));
            t.push((i, 0, 1.0));
        }
        let a = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let lu = SparseLu::new(&a).unwrap();
        // No fill: factors hold exactly the matrix pattern.
        assert_eq!(lu.factor_nnz(), a.nnz());
        // And the hub column must be deferred to the end (its degree only
        // ties the surviving leaves once all but one are eliminated).
        let hub_step = lu.q.iter().position(|&v| v == 0).unwrap();
        assert!(hub_step >= n - 2, "hub eliminated at step {hub_step}");
    }

    #[test]
    fn injected_factor_and_solve_faults_fire_on_sparse_sites() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]).unwrap();

        let plan = shc_fault::FaultPlan {
            probability: 1.0,
            site: Some(shc_fault::Site::LuFactor),
            kind: shc_fault::FaultKind::SingularMatrix,
            seed: 7,
        };
        let injector = shc_fault::Injector::new(plan);
        let guard = shc_fault::install_scoped(&injector);
        assert!(matches!(
            SparseLu::new(&a),
            Err(LinalgError::Singular { .. })
        ));
        assert_eq!(injector.injected(), 1);
        drop(guard);

        let mut lu = SparseLu::new(&a).unwrap();
        let plan = shc_fault::FaultPlan {
            probability: 1.0,
            site: Some(shc_fault::Site::LuSolve),
            kind: shc_fault::FaultKind::NanResidual,
            seed: 7,
        };
        let injector = shc_fault::Injector::new(plan);
        let _guard = shc_fault::install_scoped(&injector);
        let mut x = Vector::zeros(2);
        let err = lu.solve_into(&Vector::zeros(2), &mut x).unwrap_err();
        match err {
            LinalgError::Singular { value, .. } => assert!(value.is_nan()),
            other => panic!("expected Singular, got {other:?}"),
        }
        assert_eq!(injector.injected(), 1);
    }

    #[test]
    fn telemetry_counts_sparse_work() {
        let collector = shc_obs::Collector::new();
        let _obs = shc_obs::install_scoped(&collector);
        let n = 12;
        let dense = banded_system(n, 3);
        let a = CsrMatrix::from_dense(&dense, 0.0).unwrap();
        let mut lu = SparseLu::new(&a).unwrap();
        lu.refactor(&a).unwrap();
        let mut x = Vector::zeros(n);
        lu.solve_into(&Vector::filled(n, 1.0), &mut x).unwrap();
        assert_eq!(collector.counter(shc_obs::Metric::SparseAnalyses), 1);
        assert_eq!(collector.counter(shc_obs::Metric::SparseFactors), 1);
        assert_eq!(collector.counter(shc_obs::Metric::SparseRefactors), 1);
        assert_eq!(collector.counter(shc_obs::Metric::SparseSolves), 1);
    }
}
