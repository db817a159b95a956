use std::cell::Cell;
use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::{LinalgError, LuFactor, Result, Vector};

thread_local! {
    /// Per-thread count of matrix buffer allocations.
    static MATRIX_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of linear-algebra buffer allocations performed by the *current
/// thread* so far.
///
/// Every constructor that allocates a fresh backing buffer increments this
/// counter; in-place operations (`copy_from`, `axpy`,
/// `fill_zero`, …) do not. Dense `Matrix` buffers (`zeros`, `from_*`,
/// `identity`, the out-of-place arithmetic ops, and `Clone`) and sparse
/// buffers (`CsrMatrix` construction and `Clone`, `SparseLu` symbolic
/// analysis and fresh numeric factors) all pass through the same funnel, so
/// a warm loop that is clean under this counter allocates on *neither*
/// path. Tests use the difference between two readings to pin down "no
/// allocation in this hot loop" guarantees. The counter is thread-local so
/// concurrent tests and parallel sweep workers cannot perturb each other's
/// readings.
pub fn matrix_allocations() -> u64 {
    MATRIX_ALLOCATIONS.with(|c| c.get())
}

/// Shared funnel for every buffer-allocating constructor in this crate:
/// bumps the thread-local counter and mirrors it to telemetry. Dense
/// [`Matrix`] construction, sparse `CsrMatrix` construction, and `SparseLu`
/// symbolic/numeric factor storage all report here so the warm-loop
/// allocation assertions see sparse and dense buffers alike.
pub(crate) fn note_buffer_allocation() {
    // lint: allow(thread-local-discipline, reason = "monotonic per-thread counter, not an installable override; read back only by this thread's tests")
    MATRIX_ALLOCATIONS.with(|c| c.set(c.get() + 1));
    shc_obs::count(shc_obs::Metric::MatrixAllocations, 1);
}

/// A dense, row-major matrix of `f64`.
///
/// This is the storage used for MNA conductance/capacitance matrices and for
/// the small Jacobians of the MPNR solver.
///
/// # Example
///
/// ```rust
/// use shc_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), shc_linalg::LinalgError> {
/// let a = Matrix::identity(2);
/// let v = Vector::from_slice(&[3.0, -1.0]);
/// assert_eq!(a.mul_vec(&v), v);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

// `Clone` is implemented by hand (not derived) so that clones pass through
// the allocation counter like every other buffer-allocating constructor.
impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix::tracked(self.rows, self.cols, self.data.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        if self.shape() == source.shape() {
            self.data.copy_from_slice(&source.data);
        } else {
            *self = source.clone();
        }
    }
}

impl Matrix {
    /// Single funnel for freshly allocated backing buffers.
    fn tracked(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        note_buffer_allocation();
        Matrix { rows, cols, data }
    }

    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::tracked(rows, cols, vec![0.0; rows * cols])
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `rows` is empty or ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidInput {
                reason: "from_rows: no rows",
            });
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::InvalidInput {
                reason: "from_rows: zero columns",
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::InvalidInput {
                    reason: "from_rows: ragged rows",
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix::tracked(rows.len(), cols, data))
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidInput {
                reason: "from_vec: buffer length does not match shape",
            });
        }
        Ok(Matrix::tracked(rows, cols, data))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Checked element access.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Adds `value` to entry `(i, j)` — the MNA "stamp" primitive.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn add_at(&mut self, i: usize, j: usize, value: f64) {
        let c = self.cols;
        assert!(
            i < self.rows && j < c,
            "add_at: index ({i},{j}) out of range"
        );
        self.data[i * c + j] += value;
    }

    /// Matrix–vector product `A·v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn mul_vec(&self, v: &Vector) -> Vector {
        let mut out = Vector::zeros(self.rows);
        self.mul_vec_into(v, &mut out);
        out
    }

    /// Matrix–vector product `A·v` into a caller-provided buffer
    /// (no allocation). `v` and `out` may not alias.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols` or `out.len() != rows`.
    pub fn mul_vec_into(&self, v: &Vector, out: &mut Vector) {
        assert_eq!(v.len(), self.cols, "mul_vec: dimension mismatch");
        assert_eq!(out.len(), self.rows, "mul_vec: output length mismatch");
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v.iter()) {
                acc += a * b;
            }
            out[i] = acc;
        }
    }

    /// Matrix product `A·B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols != other.rows`.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "mul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Entrywise sum `A + B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix::tracked(self.rows, self.cols, data))
    }

    /// Entrywise difference `A − B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix::tracked(self.rows, self.cols, data))
    }

    /// Scaled copy `s·A`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix::tracked(
            self.rows,
            self.cols,
            self.data.iter().map(|a| a * s).collect(),
        )
    }

    /// Copies `other`'s entries into `self` without reallocating.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn copy_from(&mut self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "copy_from",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        self.data.copy_from_slice(&other.data);
        Ok(())
    }

    /// In-place scaled accumulation `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns the transpose `Aᵀ`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Infinity norm (max absolute row sum); `0.0` for an empty matrix.
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input or
    /// [`LinalgError::Singular`] if a pivot underflows.
    pub fn lu(&self) -> Result<LuFactor> {
        LuFactor::new(self)
    }

    /// Solves `A·x = b` via LU.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors; see [`Matrix::lu`].
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        self.lu()?.solve(b)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_shapes() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        assert!(Matrix::identity(3).is_square());
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn identity_is_mul_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.mul(&i).unwrap(), a);
        assert_eq!(i.mul(&a).unwrap(), a);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(a.mul_vec(&v).as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
    }

    #[test]
    fn add_sub_scale_axpy() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]).unwrap();
        let s = a.add(&b).unwrap();
        assert_eq!(s[(0, 1)], 2.0);
        let d = s.sub(&b).unwrap();
        assert_eq!(d, a);
        assert_eq!(a.scale(3.0)[(1, 1)], 3.0);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c[(1, 0)], 6.0);
        assert!(a.add(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]).unwrap();
        assert_eq!(a.norm_frobenius(), 5.0);
        assert_eq!(a.norm_inf(), 7.0);
    }

    #[test]
    fn stamp_primitive_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_at(0, 0, 1.5);
        m.add_at(0, 0, 0.5);
        assert_eq!(m[(0, 0)], 2.0);
    }

    #[test]
    fn checked_get() {
        let m = Matrix::identity(2);
        assert_eq!(m.get(1, 1), Some(1.0));
        assert_eq!(m.get(2, 0), None);
    }

    #[test]
    fn row_view() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn finiteness() {
        let mut a = Matrix::identity(2);
        assert!(a.is_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn copy_from_does_not_allocate() {
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let mut dst = Matrix::zeros(2, 2);
        let before = matrix_allocations();
        dst.copy_from(&src).unwrap();
        assert_eq!(matrix_allocations(), before);
        assert_eq!(dst[(1, 0)], 3.0);
        assert!(dst.copy_from(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn allocation_counter_tracks_constructors_and_clone() {
        let before = matrix_allocations();
        let a = Matrix::zeros(2, 2);
        let _b = a.clone();
        let _c = a.scale(2.0);
        let _d = a.add(&a).unwrap();
        assert_eq!(matrix_allocations(), before + 4);
    }
}
