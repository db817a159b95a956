use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

/// A dense, heap-allocated vector of `f64`.
///
/// `Vector` is the state-vector type used throughout the simulator: node
/// voltages, charges, residuals, and sensitivity columns are all `Vector`s.
///
/// # Example
///
/// ```rust
/// use shc_linalg::Vector;
///
/// let v = Vector::from_slice(&[3.0, 4.0]);
/// assert_eq!(v.norm2(), 5.0);
/// assert_eq!(v.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `n`.
    ///
    /// ```rust
    /// # use shc_linalg::Vector;
    /// let z = Vector::zeros(3);
    /// assert_eq!(z.as_slice(), &[0.0, 0.0, 0.0]);
    /// ```
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Vector {
            data: vec![value; n],
        }
    }

    /// Creates a vector by copying `slice`.
    pub fn from_slice(slice: &[f64]) -> Self {
        Vector {
            data: slice.to_vec(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has zero entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying `Vec<f64>`.
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Iterate over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Iterate mutably over entries.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Dot product `selfᵀ · other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    ///
    /// effects: assert
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean norm.
    pub fn norm2(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Infinity norm (largest absolute entry); `0.0` for an empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Returns `self + other` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn add(&self, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "add: length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Returns `self - other` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn sub(&self, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "sub: length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Returns `self * s` (entrywise scaling) as a new vector.
    pub fn scale(&self, s: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|a| a * s).collect(),
        }
    }

    /// In-place AXPY update: `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Copies `other`'s entries into `self` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn copy_from(&mut self, other: &Vector) {
        assert_eq!(self.len(), other.len(), "copy_from: length mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Checked element access.
    pub fn get(&self, i: usize) -> Option<f64> {
        self.data.get(i).copied()
    }

    /// Returns `true` if every entry is finite (no NaN/±∞).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Weighted RMS-style convergence norm used by Newton iterations:
    /// `max_i |self_i| / (reltol * |ref_i| + abstol)`.
    ///
    /// A value `<= 1.0` means all entries satisfy their mixed tolerance.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn weighted_norm(&self, reference: &Vector, reltol: f64, abstol: f64) -> f64 {
        assert_eq!(
            self.len(),
            reference.len(),
            "weighted_norm: length mismatch"
        );
        self.data
            .iter()
            .zip(reference.data.iter())
            .map(|(d, r)| d.abs() / (reltol * r.abs() + abstol))
            .fold(0.0_f64, f64::max)
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6e}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for Vector {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(v.len(), 3);
        assert_eq!(v[1], 2.0);
        assert_eq!(v.get(2), Some(3.0));
        assert_eq!(v.get(3), None);
        assert!(!v.is_empty());
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, -1.0]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 1.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-2.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.dot(&b), 1.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Vector::from_slice(&[1.0, 1.0]);
        let b = Vector::from_slice(&[2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn norms() {
        let v = Vector::from_slice(&[-3.0, 4.0]);
        assert_eq!(v.norm2(), 5.0);
        assert_eq!(v.norm_inf(), 4.0);
        assert_eq!(Vector::zeros(0).norm_inf(), 0.0);
    }

    #[test]
    fn weighted_norm_converged_iff_leq_one() {
        let delta = Vector::from_slice(&[1e-9, 1e-9]);
        let x = Vector::from_slice(&[1.0, 0.0]);
        // reltol 1e-6 on x[0]=1 gives denominator ~1e-6; abstol covers x[1].
        let wn = delta.weighted_norm(&x, 1e-6, 1e-6);
        assert!(wn <= 1.0, "wn = {wn}");
        let big = Vector::from_slice(&[1e-3, 0.0]);
        assert!(big.weighted_norm(&x, 1e-6, 1e-6) > 1.0);
    }

    #[test]
    fn iterators_and_collect() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
        let sum: f64 = v.iter().sum();
        assert_eq!(sum, 3.0);
        let doubled: Vector = v.into_iter().map(|x| 2.0 * x).collect();
        assert_eq!(doubled.as_slice(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn finiteness_check() {
        assert!(Vector::from_slice(&[1.0, 2.0]).is_finite());
        assert!(!Vector::from_slice(&[1.0, f64::NAN]).is_finite());
        assert!(!Vector::from_slice(&[f64::INFINITY]).is_finite());
    }

    #[test]
    fn display_is_nonempty() {
        let v = Vector::from_slice(&[1.5]);
        assert!(v.to_string().contains("1.5"));
    }
}
