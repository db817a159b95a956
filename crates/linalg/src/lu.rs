use crate::{LinalgError, Matrix, Result, Vector};

/// Pivot magnitude below which a matrix is declared numerically singular.
const SINGULARITY_THRESHOLD: f64 = 1e-300;

/// Deterministic fault hook: asks the installed `shc-fault` plan (if any)
/// whether this call should fail, mapping the fault kind onto this layer's
/// error vocabulary. A single thread-local read when no plan is installed.
fn injected_fault(site: shc_fault::Site) -> Option<LinalgError> {
    let kind = shc_fault::check(site)?;
    shc_obs::count(shc_obs::Metric::FaultsInjected, 1);
    // Every LU failure mode presents as a singular pivot; a NaN-residual
    // fault reports a NaN pivot magnitude, like a real blow-up would.
    let value = match kind {
        shc_fault::FaultKind::NanResidual => f64::NAN,
        _ => 0.0,
    };
    Some(LinalgError::Singular { pivot: 0, value })
}

/// LU factorization with partial (row) pivoting: `P·A = L·U`.
///
/// The factorization is computed once and can then be reused for many
/// right-hand sides. This pattern is central to the paper's efficiency
/// argument: the transient Newton step factors `(C/Δt + G)` once, and the
/// two sensitivity solves (its eqs. (11) and (13)) reuse the factors.
///
/// # Example
///
/// ```rust
/// use shc_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), shc_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = a.lu()?;
/// let x1 = lu.solve(&Vector::from_slice(&[3.0, 4.0]))?;
/// let x2 = lu.solve(&Vector::from_slice(&[1.0, 0.0]))?; // factors reused
/// assert!(x1.is_finite() && x2.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: row `i` of the factored matrix came from `perm[i]`.
    perm: Vec<usize>,
    /// What `lu` holds.
    held: Held,
}

/// The contents of a [`LuFactor`]'s storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    /// Never factored: the next factorization is the factor's first.
    Nothing,
    /// A matrix to factor, or what a failed factorization left.
    Matrix,
    /// The factors of the last factorization.
    Factors,
}

impl LuFactor {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is not square;
    /// - [`LinalgError::Singular`] if a pivot magnitude falls below the
    ///   numerical-singularity threshold.
    ///
    /// effects: alloc
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        shc_obs::count(shc_obs::Metric::LuFactorizations, 1);
        // Cold, allocating entry point — the warm Newton loop refactors in
        // place — so a full profiler frame is affordable here.
        let _frame = shc_prof::enter(shc_prof::Phase::LuFactor);
        shc_prof::add_work(n as u64);
        if let Some(e) = injected_fault(shc_fault::Site::LuFactor) {
            return Err(e);
        }
        let mut factor = LuFactor {
            lu: a.clone(),
            perm: vec![0; n],
            held: Held::Matrix,
        };
        factor.factor_in_place()?;
        Ok(factor)
    }

    /// An `n×n` factor that holds no factors yet: a caller writes the
    /// matrix into its storage ([`LuFactor::values_mut`]) and factors it
    /// there ([`LuFactor::factor_values`]), so the matrix and its factors
    /// share one buffer. Until then every solve is an error.
    ///
    /// effects: alloc
    pub fn unfactored(n: usize) -> Self {
        LuFactor {
            lu: Matrix::zeros(n, n),
            perm: (0..n).collect(),
            held: Held::Nothing,
        }
    }

    /// Re-factors `a` reusing this factor's existing buffers.
    ///
    /// Equivalent to `*self = LuFactor::new(a)?` but allocation-free when
    /// `a` has the same dimension as the previously factored matrix — the
    /// case in transient Newton loops, where the Jacobian shape is fixed
    /// and only its entries change step to step. Copies `a` into the
    /// factor; [`LuFactor::factor_values`] factors a matrix written
    /// straight into the factor's storage instead.
    ///
    /// On error the factor contents are unspecified; call `refactor` again
    /// (or rebuild with [`LuFactor::new`]) before the next solve.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LuFactor::new`].
    ///
    /// effects: assert
    // lint: hot-fn
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if self.dim() != n {
            // lint: allow(hot-path-certify, reason = "cold re-shape path: a dimension change rebuilds storage once; the steady-state path copies `a` in without allocating")
            *self = LuFactor::unfactored(n);
        }
        self.lu.copy_from(a)?;
        self.held = self.held.written();
        self.factor_values()
    }

    /// The storage the next [`LuFactor::factor_values`] factors, row-major
    /// `n×n`. Handing it out ends the factors it held: every solve is an
    /// error until the next successful factorization, so a caller must
    /// write every entry before factoring.
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.held = self.held.written();
        self.lu.as_mut_slice()
    }

    /// The storage: the matrix to factor, or the packed L/U factors.
    pub fn values(&self) -> &[f64] {
        self.lu.as_slice()
    }

    /// Factors the matrix in this factor's storage in place. Until one
    /// succeeds, each factorization of a factor made by
    /// [`LuFactor::unfactored`] counts as a fresh one, under the profiler
    /// frame [`LuFactor::new`] opens; every later one, as a refactor.
    ///
    /// On error the storage is unspecified: write the matrix again before
    /// the next factorization. An injected fault returns before the
    /// storage is touched.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Singular`], as for [`LuFactor::new`].
    ///
    /// effects: assert
    // lint: hot-fn
    pub fn factor_values(&mut self) -> Result<()> {
        let _frame = if self.held == Held::Nothing {
            shc_obs::count(shc_obs::Metric::LuFactorizations, 1);
            // lint: allow(hot-path-certify, reason = "cold path: a factor's first factorization opens its profiler frame once; every later one counts a refactor and opens none")
            let frame = shc_prof::enter(shc_prof::Phase::LuFactor);
            shc_prof::add_work(self.dim() as u64);
            Some(frame)
        } else {
            shc_obs::count(shc_obs::Metric::LuRefactors, 1);
            None
        };
        if let Some(e) = injected_fault(shc_fault::Site::LuFactor) {
            return Err(e);
        }
        self.factor_in_place()
    }

    /// Runs the kernel on `lu` and records what it left there.
    // lint: hot-fn
    fn factor_in_place(&mut self) -> Result<()> {
        let n = self.dim();
        let (lu, perm) = (self.lu.as_mut_slice(), &mut self.perm[..]);
        let result = match n {
            1 => factor_kernel(lu, perm, 1),
            2 => factor_kernel(lu, perm, 2),
            3 => factor_kernel(lu, perm, 3),
            4 => factor_kernel(lu, perm, 4),
            5 => factor_kernel(lu, perm, 5),
            6 => factor_kernel(lu, perm, 6),
            7 => factor_kernel(lu, perm, 7),
            8 => factor_kernel(lu, perm, 8),
            9 => factor_kernel(lu, perm, 9),
            10 => factor_kernel(lu, perm, 10),
            11 => factor_kernel(lu, perm, 11),
            12 => factor_kernel(lu, perm, 12),
            13 => factor_kernel(lu, perm, 13),
            14 => factor_kernel(lu, perm, 14),
            15 => factor_kernel(lu, perm, 15),
            16 => factor_kernel(lu, perm, 16),
            n => factor_kernel(lu, perm, n),
        };
        if result.is_ok() {
            self.held = Held::Factors;
        }
        result
    }

    /// Whether the storage holds the factors of its last factorization:
    /// since it succeeded, nothing has been handed out for writing.
    pub fn is_factored(&self) -> bool {
        self.held == Held::Factors
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// As [`LuFactor::solve_into`].
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let mut x = Vector::zeros(self.dim());
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-provided buffer (no allocation).
    ///
    /// `b` and `x` may not alias (distinct `&`/`&mut` borrows enforce this).
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] if `b` or `x` has length other
    ///   than `dim()`;
    /// - [`LinalgError::InvalidInput`] if the storage holds no factors
    ///   ([`LuFactor::values_mut`]).
    ///
    /// effects: none
    // lint: hot-fn
    pub fn solve_into(&self, b: &Vector, x: &mut Vector) -> Result<()> {
        shc_obs::count(shc_obs::Metric::LuSolves, 1);
        if let Some(e) = injected_fault(shc_fault::Site::LuSolve) {
            return Err(e);
        }
        let n = self.dim();
        if b.len() != n || x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len().max(x.len()), 1),
            });
        }
        if self.held != Held::Factors {
            let reason = "lu solve before a successful factorization";
            return Err(LinalgError::InvalidInput { reason });
        }
        let (lu, perm, x, b) = (
            self.lu.as_slice(),
            &self.perm[..],
            x.as_mut_slice(),
            b.as_slice(),
        );
        match n {
            0 => {}
            1 => solve_kernel(lu, perm, x, b, 1),
            2 => solve_kernel(lu, perm, x, b, 2),
            3 => solve_kernel(lu, perm, x, b, 3),
            4 => solve_kernel(lu, perm, x, b, 4),
            5 => solve_kernel(lu, perm, x, b, 5),
            6 => solve_kernel(lu, perm, x, b, 6),
            7 => solve_kernel(lu, perm, x, b, 7),
            8 => solve_kernel(lu, perm, x, b, 8),
            9 => solve_kernel(lu, perm, x, b, 9),
            10 => solve_kernel(lu, perm, x, b, 10),
            11 => solve_kernel(lu, perm, x, b, 11),
            12 => solve_kernel(lu, perm, x, b, 12),
            13 => solve_kernel(lu, perm, x, b, 13),
            14 => solve_kernel(lu, perm, x, b, 14),
            15 => solve_kernel(lu, perm, x, b, 15),
            16 => solve_kernel(lu, perm, x, b, 16),
            n => solve_kernel(lu, perm, x, b, n),
        }
        Ok(())
    }
}

impl Held {
    /// What the storage holds once a caller writes into it: a matrix,
    /// unless it was never factored.
    fn written(self) -> Held {
        match self {
            Held::Nothing => Held::Nothing,
            Held::Matrix | Held::Factors => Held::Matrix,
        }
    }
}

// The two kernels below are the dense LU's only loops. `LuFactor` calls
// each with a literal `n` for every size up to 16 (the seed cells' step
// Jacobians are 12×12 and 14×14), so the compiler unrolls and
// bounds-checks one instance per size, and with the runtime `n` above
// that. Every instance performs the same operations in the same order.

/// Gaussian elimination with partial pivoting on the row-major `n×n`
/// matrix in `lu`, which holds the packed L/U factors on successful exit,
/// with `perm` reset to the identity first.
///
/// Works on row slices of the row-major storage. Pivot search, row swaps
/// and updates are the textbook `lu[(i, j)]` loops' operations, in their
/// order, so the factors are bitwise theirs.
#[inline(always)]
fn factor_kernel(lu: &mut [f64], perm: &mut [usize], n: usize) -> Result<()> {
    let (lu, perm) = (&mut lu[..n * n], &mut perm[..n]);
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    for k in 0..n {
        // Partial pivoting: largest magnitude in column k at/below row k.
        let mut pivot_row = k;
        let mut pivot_mag = lu[k * n + k].abs();
        for (i, row) in lu.chunks_exact(n).enumerate().skip(k + 1) {
            let mag = row[k].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = i;
            }
        }
        if pivot_mag < SINGULARITY_THRESHOLD || !pivot_mag.is_finite() {
            return Err(LinalgError::Singular {
                pivot: k,
                value: pivot_mag,
            });
        }
        if pivot_row != k {
            // Whole rows: the L multipliers left of `k` move too.
            let (above, from_pivot) = lu.split_at_mut(pivot_row * n);
            above[k * n..(k + 1) * n].swap_with_slice(&mut from_pivot[..n]);
            perm.swap(k, pivot_row);
        }
        let (through_k, below) = lu.split_at_mut((k + 1) * n);
        let row_k = &through_k[k * n..];
        let (pivot, u_k) = (row_k[k], &row_k[k + 1..]);
        for row_i in below.chunks_exact_mut(n) {
            let factor = row_i[k] / pivot;
            row_i[k] = factor;
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity fast path; any nonzero factor must be applied")
            if factor != 0.0 {
                for (a, &u) in row_i[k + 1..].iter_mut().zip(u_k) {
                    let delta = factor * u;
                    *a -= delta;
                }
            }
        }
    }
    Ok(())
}

/// Solves `A·x = b` from the packed factors `lu` and permutation `perm`
/// of an `n×n` matrix, `n ≥ 1`: the permuted `b`, forward-substituted
/// through `L` one row slice against the solved prefix of `x` at a time,
/// then back-substituted through `U` from the last row up.
#[inline(always)]
fn solve_kernel(lu: &[f64], perm: &[usize], x: &mut [f64], b: &[f64], n: usize) {
    let (lu, perm, x) = (&lu[..n * n], &perm[..n], &mut x[..n]);
    for (xi, &p) in x.iter_mut().zip(perm) {
        *xi = b[p];
    }
    for (i, row) in lu.chunks_exact(n).enumerate().skip(1) {
        let (solved, rest) = x.split_at_mut(i);
        let mut acc = rest[0];
        for (l, xj) in row[..i].iter().zip(solved.iter()) {
            acc -= l * xj;
        }
        rest[0] = acc;
    }
    for (i, row) in lu.chunks_exact(n).enumerate().rev() {
        let (head, solved) = x.split_at_mut(i + 1);
        let mut acc = head[i];
        for (u, xj) in row[i + 1..].iter().zip(solved.iter()) {
            acc -= u * xj;
        }
        head[i] = acc / row[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]).unwrap();
        let b = Vector::from_slice(&[5.0, -2.0, 9.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        let r = a.mul_vec(&x).sub(&b);
        assert!(r.norm_inf() < 1e-12, "residual {}", r.norm_inf());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let b = Vector::from_slice(&[2.0, 3.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        match a.lu() {
            Err(LinalgError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn factor_reuse_many_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let lu = a.lu().unwrap();
        for k in 0..5 {
            let b = Vector::from_slice(&[k as f64, 1.0 - k as f64]);
            let x = lu.solve(&b).unwrap();
            assert!(a.mul_vec(&x).sub(&b).norm_inf() < 1e-12);
        }
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(2);
        let lu = a.lu().unwrap();
        assert!(lu.solve(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn refactor_matches_fresh_factorization_without_alloc() {
        let a = Matrix::from_rows(&[&[0.0, 1.0, 2.0], &[3.0, 4.0, 5.0], &[6.0, 8.0, 1.0]]).unwrap();
        let b_mat =
            Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]).unwrap();
        let mut lu = LuFactor::new(&a).unwrap();
        let rhs = Vector::from_slice(&[1.0, -2.0, 3.0]);

        let before = crate::matrix_allocations();
        lu.refactor(&b_mat).unwrap();
        let mut x = Vector::zeros(3);
        lu.solve_into(&rhs, &mut x).unwrap();
        assert_eq!(crate::matrix_allocations(), before, "refactor allocated");

        let fresh = LuFactor::new(&b_mat).unwrap().solve(&rhs).unwrap();
        assert!(
            x.sub(&fresh).norm_inf() == 0.0,
            "refactor diverged from new"
        );
    }

    #[test]
    fn refactor_recovers_after_singular_input() {
        let good = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let mut lu = LuFactor::new(&good).unwrap();
        assert!(lu.refactor(&singular).is_err());
        lu.refactor(&good).unwrap();
        let b = Vector::from_slice(&[3.0, 4.0]);
        let x = lu.solve(&b).unwrap();
        assert!(good.mul_vec(&x).sub(&b).norm_inf() < 1e-12);
    }

    #[test]
    fn refactor_handles_dimension_change() {
        let small = Matrix::identity(2);
        let big =
            Matrix::from_rows(&[&[2.0, 0.0, 1.0], &[0.0, 3.0, 0.0], &[1.0, 0.0, 2.0]]).unwrap();
        let mut lu = LuFactor::new(&small).unwrap();
        lu.refactor(&big).unwrap();
        assert_eq!(lu.dim(), 3);
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x = lu.solve(&b).unwrap();
        assert!(big.mul_vec(&x).sub(&b).norm_inf() < 1e-12);
    }

    #[test]
    fn solve_into_checks_output_length() {
        let lu = Matrix::identity(2).lu().unwrap();
        let mut wrong = Vector::zeros(3);
        assert!(lu.solve_into(&Vector::zeros(2), &mut wrong).is_err());
    }

    /// The textbook `lu[(i, j)]` kernel the row-slice kernel replaced,
    /// kept verbatim as its oracle: the factors, permutation and error it
    /// leaves in `(lu, perm)`.
    fn oracle_factor(lu: &mut Matrix, perm: &mut [usize]) -> Result<()> {
        let n = lu.rows();
        for (i, p) in perm.iter_mut().enumerate() {
            *p = i;
        }
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_mag = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let mag = lu[(i, k)].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if pivot_mag < SINGULARITY_THRESHOLD || !pivot_mag.is_finite() {
                return Err(LinalgError::Singular {
                    pivot: k,
                    value: pivot_mag,
                });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let delta = factor * lu[(k, j)];
                        lu[(i, j)] -= delta;
                    }
                }
            }
        }
        Ok(())
    }

    /// The oracle's indexed forward and back substitution.
    fn oracle_solve(lu: &Matrix, perm: &[usize], b: &Vector) -> Vector {
        let n = lu.rows();
        let mut x = Vector::zeros(n);
        for i in 0..n {
            x[i] = b[perm[i]];
        }
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= lu[(i, j)] * x[j];
            }
            x[i] = acc / lu[(i, i)];
        }
        x
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The sizes the kernels are instantiated at (1..=16), and one they
    /// run at with the runtime size.
    const ORACLE_SIZES: [usize; 17] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 20];

    /// Seeded random matrices of the shapes that steer partial pivoting:
    /// plain dense, entries from a small set (pivot ties, `-0.0`, exact
    /// zero multipliers), a column zeroed below its diagonal, a repeated
    /// row (singular), a tiny scale (below the singularity threshold) and
    /// a NaN or infinite entry. The seven shapes and the 17 sizes are
    /// coprime cycles, so every size meets every shape.
    fn oracle_cases() -> Vec<Matrix> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let small = [-2.0, -1.0, -0.0, 0.0, 0.0, 1.0, 2.0];
        let mut cases = Vec::new();
        for round in 0..7 * ORACLE_SIZES.len() {
            let n = ORACLE_SIZES[round % ORACLE_SIZES.len()];
            let mut m = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    m[(i, j)] = match round % 7 {
                        1 | 2 => small[rng.gen_range(0..small.len())],
                        _ => rng.gen_range(-1.0..1.0),
                    };
                }
            }
            let (r, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
            match round % 7 {
                3 => (c + 1..n).for_each(|i| m[(i, c)] = 0.0),
                4 if n > 1 => (0..n).for_each(|j| m[(r, j)] = m[((r + 1) % n, j)]),
                5 => (0..n).for_each(|j| (0..n).for_each(|i| m[(i, j)] *= 1e-301)),
                6 => m[(r, c)] = [f64::NAN, f64::INFINITY][round % 2],
                _ => {}
            }
            cases.push(m);
        }
        cases
    }

    /// The size-specialized kernels against the indexed oracle on every
    /// entry point — `new`, `refactor` and a matrix written into the
    /// storage of an `unfactored` factor — at every size they are
    /// instantiated at and one above: bitwise the same factors,
    /// permutation and error, and bitwise the same solutions.
    #[test]
    fn slice_kernel_is_bitwise_the_indexed_oracle() {
        let mut outcomes = [0usize; 2];
        let mut sizes = std::collections::BTreeSet::new();
        for (case, a) in oracle_cases().iter().enumerate() {
            let n = a.rows();
            let (mut want_lu, mut want_perm) = (a.clone(), vec![0; n]);
            let want = oracle_factor(&mut want_lu, &mut want_perm);
            outcomes[usize::from(want.is_ok())] += 1;
            if want.is_ok() {
                sizes.insert(n);
            }

            let mut warm = LuFactor::new(&Matrix::identity(n)).unwrap();
            let mut in_place = LuFactor::unfactored(n);
            in_place.values_mut().copy_from_slice(a.as_slice());
            let got = [
                LuFactor::new(a).map(|f| (f.lu, f.perm)),
                warm.refactor(a)
                    .map(|()| (warm.lu.clone(), warm.perm.clone())),
                in_place
                    .factor_values()
                    .map(|()| (in_place.lu.clone(), in_place.perm.clone())),
            ];
            for (entry, got) in ["new", "refactor", "in place"].iter().zip(got) {
                let what = format!("case {case} (n = {n}) via {entry}");
                match (&want, got) {
                    (Ok(()), Ok((lu, perm))) => {
                        assert_eq!(bits(lu.as_slice()), bits(want_lu.as_slice()), "{what}");
                        assert_eq!(perm, want_perm, "{what}");
                    }
                    (
                        Err(LinalgError::Singular { pivot, value }),
                        Err(LinalgError::Singular { pivot: p, value: v }),
                    ) => assert_eq!((p, v.to_bits()), (*pivot, value.to_bits()), "{what}"),
                    (want, got) => panic!("{what}: oracle {want:?}, kernel {got:?}"),
                }
            }
            if want.is_err() {
                assert!(in_place.solve(&Vector::zeros(n)).is_err(), "case {case}");
                continue;
            }
            for rhs in 0..3 {
                let b: Vec<f64> = (0..n)
                    .map(|i| [1.0, -0.0, (i as f64 + 0.5).sin()][(i + rhs) % 3])
                    .collect();
                let b = Vector::from_slice(&b);
                let want_x = oracle_solve(&want_lu, &want_perm, &b);
                for lu in [&warm, &in_place] {
                    let mut x = Vector::zeros(n);
                    lu.solve_into(&b, &mut x).unwrap();
                    assert_eq!(bits(x.as_slice()), bits(want_x.as_slice()), "case {case}");
                }
            }
        }
        assert!(
            outcomes[0] >= 10 && outcomes[1] >= 30,
            "{outcomes:?} failed/factored: the cases must cover both"
        );
        assert!(
            ORACLE_SIZES.iter().all(|n| sizes.contains(n)),
            "factored sizes {sizes:?}: every size must factor at least once"
        );
    }

    /// A factor written and factored in its own storage: no solve before
    /// its first factorization or after its storage is handed out again;
    /// after a genuine singular failure or an injected fault, factoring a
    /// rewritten matrix gives that matrix's factors, without allocating.
    /// Factorizations count as fresh until one succeeds, then as
    /// refactors.
    #[test]
    fn in_place_factor_solves_only_the_matrix_written_last() {
        let good =
            Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[3.0, 1.0, 0.0], &[1.0, 1.0, 4.0]]).unwrap();
        let singular =
            Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0], &[0.0, 1.0, 1.0]]).unwrap();
        let rhs = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let want = LuFactor::new(&good).unwrap().solve(&rhs).unwrap();
        let collector = shc_obs::Collector::new();
        let obs = shc_obs::install_scoped(&collector);
        let mut lu = LuFactor::unfactored(3);
        assert!(matches!(
            lu.solve(&rhs),
            Err(LinalgError::InvalidInput { .. })
        ));

        let before = crate::matrix_allocations();
        lu.values_mut().copy_from_slice(singular.as_slice());
        assert!(matches!(
            lu.factor_values(),
            Err(LinalgError::Singular { .. })
        ));
        assert!(
            lu.solve(&rhs).is_err(),
            "a failed factorization left factors"
        );
        lu.values_mut().copy_from_slice(good.as_slice());
        lu.factor_values().unwrap();
        assert_eq!(crate::matrix_allocations(), before, "factoring allocated");
        assert_eq!(
            bits(lu.solve(&rhs).unwrap().as_slice()),
            bits(want.as_slice())
        );
        let _ = lu.values_mut();
        assert!(
            lu.solve(&rhs).is_err(),
            "handed-out storage kept its factors"
        );
        lu.values_mut().copy_from_slice(good.as_slice());
        lu.factor_values().unwrap();
        drop(obs);
        assert_eq!(collector.counter(shc_obs::Metric::LuFactorizations), 2);
        assert_eq!(collector.counter(shc_obs::Metric::LuRefactors), 1);

        // An injected fault returns before the storage is touched, and
        // the retry that clears it factors the matrix written there.
        let injector = shc_fault::Injector::new(shc_fault::FaultPlan {
            probability: 0.5,
            site: Some(shc_fault::Site::LuFactor),
            kind: shc_fault::FaultKind::SingularMatrix,
            seed: 3,
        });
        let _guard = shc_fault::install_scoped(&injector);
        let mut faults = 0;
        for _ in 0..16 {
            lu.values_mut().copy_from_slice(good.as_slice());
            let mut result = lu.factor_values();
            while result.is_err() {
                faults += 1;
                assert_eq!(bits(lu.values()), bits(good.as_slice()));
                result = lu.factor_values();
            }
            let mut x = Vector::zeros(3);
            while lu.solve_into(&rhs, &mut x).is_err() {}
            assert_eq!(bits(x.as_slice()), bits(want.as_slice()));
        }
        assert!(faults > 0, "the plan never fired");
    }

    #[test]
    fn injected_factor_fault_surfaces_as_singular_error() {
        let plan = shc_fault::FaultPlan {
            probability: 1.0,
            site: Some(shc_fault::Site::LuFactor),
            kind: shc_fault::FaultKind::SingularMatrix,
            seed: 7,
        };
        let injector = shc_fault::Injector::new(plan);
        let _guard = shc_fault::install_scoped(&injector);
        let a = Matrix::identity(2);
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
        assert_eq!(injector.injected(), 1);
    }

    #[test]
    fn injected_solve_fault_spares_the_factorization() {
        let plan = shc_fault::FaultPlan {
            probability: 1.0,
            site: Some(shc_fault::Site::LuSolve),
            kind: shc_fault::FaultKind::NanResidual,
            seed: 7,
        };
        let lu = Matrix::identity(2).lu().unwrap();
        let injector = shc_fault::Injector::new(plan);
        let _guard = shc_fault::install_scoped(&injector);
        let err = lu.solve(&Vector::zeros(2)).unwrap_err();
        match err {
            LinalgError::Singular { value, .. } => assert!(value.is_nan()),
            other => panic!("expected Singular, got {other:?}"),
        }
        assert_eq!(injector.injected(), 1);
    }
}
