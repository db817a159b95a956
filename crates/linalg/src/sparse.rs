//! Sparse linear algebra: CSR storage.
//!
//! The dense LU path is ideal for the tens-of-unknowns latch circuits this
//! project characterizes, but register banks and post-layout parasitic
//! netlists need a sparse path. [`CsrMatrix`] is the storage shared by the
//! sparse-direct factorization in [`crate::SparseLu`] and by the
//! pattern-preserving Jacobian gather in the simulator.

use crate::{LinalgError, Matrix, Result, Vector};

/// A compressed-sparse-row matrix.
///
/// # Example
///
/// ```rust
/// use shc_linalg::{CsrMatrix, Vector};
///
/// # fn main() -> Result<(), shc_linalg::LinalgError> {
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0), (0, 1, 1.0)])?;
/// let y = a.mul_vec(&Vector::from_slice(&[1.0, 1.0]));
/// assert_eq!(y.as_slice(), &[3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

// `Clone` is implemented by hand (not derived) so that clones pass through
// the same allocation counter as dense `Matrix` buffers: a warm loop that
// clones a sparse matrix is just as guilty as one that clones a dense one.
impl Clone for CsrMatrix {
    fn clone(&self) -> Self {
        crate::matrix::note_buffer_allocation();
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        if self.rows == source.rows && self.cols == source.cols && self.nnz() == source.nnz() {
            self.row_ptr.copy_from_slice(&source.row_ptr);
            self.col_idx.copy_from_slice(&source.col_idx);
            self.values.copy_from_slice(&source.values);
        } else {
            *self = source.clone();
        }
    }
}

impl CsrMatrix {
    /// Builds from `(row, col, value)` triplets; duplicates are summed and
    /// explicit zeros dropped.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] for out-of-range indices or a
    /// zero-sized shape.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidInput {
                reason: "csr: zero-sized matrix",
            });
        }
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            if r >= rows || c >= cols {
                return Err(LinalgError::InvalidInput {
                    reason: "csr: triplet index out of range",
                });
            }
            per_row[r].push((c, v));
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in &mut per_row {
            row.sort_by_key(|&(c, _)| c);
            let mut iter = row.iter().peekable();
            while let Some(&(c, mut v)) = iter.next() {
                while let Some(&&(c2, v2)) = iter.peek() {
                    if c2 == c {
                        v += v2;
                        iter.next();
                    } else {
                        break;
                    }
                }
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        crate::matrix::note_buffer_allocation();
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Converts a dense matrix, dropping entries with `|a| <= drop_tol`.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn from_dense(a: &Matrix, drop_tol: f64) -> Result<Self> {
        let mut triplets = Vec::new();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let v = a[(i, j)];
                if v.abs() > drop_tol {
                    triplets.push((i, j, v));
                }
            }
        }
        // A structurally empty row would make the matrix trivially
        // singular; keep the diagonal entry to preserve solvability checks.
        CsrMatrix::from_triplets(a.rows(), a.cols(), &triplets)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row-pointer array (`rows + 1` entries): row `i`'s entries occupy
    /// `row_ptr()[i]..row_ptr()[i + 1]` of [`Self::col_indices`] /
    /// [`Self::values`].
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index of each stored entry, row-major, ascending within a
    /// row.
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored entry values, in [`Self::col_indices`] order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable entry values, for pattern-preserving updates: overwrite
    /// values in place without touching the structure, the idiom behind
    /// "values change, pattern doesn't" refactorization.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Sparse matrix–vector product `A·v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn mul_vec(&self, v: &Vector) -> Vector {
        assert_eq!(v.len(), self.cols, "csr mul_vec: dimension mismatch");
        let mut out = Vector::zeros(self.rows);
        for i in 0..self.rows {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * v[self.col_idx[k]];
            }
            out[i] = acc;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_construction_and_spmv() {
        let a = CsrMatrix::from_triplets(
            2,
            3,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (0, 0, 1.0),
                (1, 0, 0.0),
            ],
        )
        .unwrap();
        assert_eq!(a.nnz(), 3); // duplicate summed, zero dropped
        let y = a.mul_vec(&Vector::from_slice(&[1.0, 1.0, 1.0]));
        assert_eq!(y.as_slice(), &[4.0, 3.0]);
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
    }

    #[test]
    fn from_dense_keeps_the_nonzero_pattern() {
        let d = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]).unwrap();
        let s = CsrMatrix::from_dense(&d, 0.0).unwrap();
        assert_eq!(s.nnz(), 5);
        assert_eq!(s.row_ptr(), &[0, 2, 3, 5]);
        assert_eq!(s.col_indices(), &[0, 2, 1, 0, 2]);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}
