//! # shc-linalg
//!
//! Dense linear-algebra substrate for the setup/hold characterization tool.
//!
//! The circuit matrices in this project are small (tens of unknowns), so a
//! compact, dependency-free dense implementation is both sufficient and easy
//! to audit. The crate provides:
//!
//! - [`Matrix`] and [`Vector`]: row-major dense storage with the usual
//!   arithmetic and iteration APIs;
//! - [`LuFactor`]: LU factorization with partial pivoting, solves, the
//!   determinant, and a cheap condition-number estimate — this backs the
//!   small-circuit Newton-Raphson linear solves in the simulator;
//! - [`SoaLu`]: the structure-of-arrays variant — element-major factors
//!   processed for *all* lanes per call so the elimination vectorizes
//!   across lanes (see [`multiversioned!`]) — the linear-solve substrate
//!   of the lockstep batched sweep engine, bitwise identical per lane to
//!   [`LuFactor`];
//! - [`SparseLu`]: KLU-style sparse-direct LU over [`CsrMatrix`] storage —
//!   fill-reducing ordering, one-time symbolic analysis, allocation-free
//!   value-only refactorization — the large-circuit solve path;
//! - [`QrFactor`]: Householder QR, used for least-squares and for the
//!   general Moore-Penrose pseudo-inverse;
//! - [`pinv`]: Moore-Penrose pseudo-inverse for full-row-rank "fat"
//!   matrices, the key ingredient of the MPNR solver of the DAC 2007 paper
//!   (its eq. (15): `H⁺ = Hᵀ (H Hᵀ)⁻¹`).
//!
//! # Example
//!
//! ```rust
//! use shc_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), shc_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]])?;
//! let b = Vector::from_slice(&[1.0, 5.0]);
//! let lu = a.lu()?;
//! let x = lu.solve(&b)?;
//! assert!(a.mul_vec(&x).sub(&b).norm_inf() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod error;
mod lu;
mod matrix;
mod pinv;
mod qr;
mod simd;
mod soa_lu;
mod sparse;
mod sparse_lu;
mod vector;

pub use error::LinalgError;
pub use lu::LuFactor;
pub use matrix::{matrix_allocations, Matrix};
pub use pinv::{pinv, pinv_fat, PseudoInverse};
pub use qr::QrFactor;
// The retired ILU(0)/GMRES iterative stack stays in `sparse` (compiled and
// unit-tested) but is deliberately not re-exported; `SparseLu` is the
// supported sparse solve path.
pub use soa_lu::SoaLu;
pub use sparse::CsrMatrix;
pub use sparse_lu::SparseLu;
pub use vector::Vector;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
