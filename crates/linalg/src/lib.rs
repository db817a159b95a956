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
//! - [`LuFactor`]: LU factorization with partial pivoting and solves that
//!   reuse the factors — this backs the small-circuit Newton-Raphson linear
//!   solves in the simulator;
//! - [`SoaLu`]: [`LuFactor`] over many element-major lane systems, kept
//!   for the benchmark of record;
//! - [`SparseLu`]: KLU-style sparse-direct LU over [`CsrMatrix`] storage —
//!   fill-reducing ordering, one-time symbolic analysis, allocation-free
//!   value-only refactorization — the large-circuit solve path.
//!
//! The MPNR solver of the DAC 2007 paper needs the pseudo-inverse of a
//! 1×2 Jacobian only (its eq. (15): `H⁺ = Hᵀ (H Hᵀ)⁻¹`), which `shc-core`
//! takes in closed form.
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
mod soa_lu;
mod sparse;
mod sparse_lu;
mod vector;

pub use error::LinalgError;
pub use lu::LuFactor;
pub use matrix::{matrix_allocations, Matrix};
pub use soa_lu::SoaLu;
pub use sparse::CsrMatrix;
pub use sparse_lu::SparseLu;
pub use vector::Vector;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
