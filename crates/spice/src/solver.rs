//! Sparse-vs-dense linear-solver dispatch for the Newton loops.
//!
//! The seed cells of this project have a few dozen unknowns, where the
//! dense [`shc_linalg::LuFactor`] path is unbeatable and — crucially for
//! the golden-contour gates — bitwise reproducible. Larger circuits
//! (e.g. the register-bank cell) cross into the regime where dense
//! `O(n³)` factorization dominates the transient runtime; there the
//! KLU-style [`shc_linalg::SparseLu`] path wins by an order of magnitude
//! while agreeing with the dense solve to solver tolerance.
//!
//! [`SolverChoice`] selects the backend (the default `Auto` dispatches on
//! the unknown count), and with it the assembly layout of
//! [`crate::stamp`]. On the sparse path the Newton workspace's Jacobian
//! is a CSR matrix: the assembly stamps straight into its value array
//! through the slots resolved at setup, and `SparseLu` refactors from
//! those values in place — allocation-free — on every Newton iteration
//! after the first. No `n×n` matrix is involved.

/// Unknown-count threshold at which [`SolverChoice::Auto`] switches from
/// the dense to the sparse path.
///
/// MNA circuit matrices at this size are already very sparse (a handful
/// of entries per row), and the `O(n³)` dense factorization overtakes the
/// sparse solve's bookkeeping well below 64 unknowns; the threshold is
/// kept above the crossover so every seed cell stays on the dense path
/// and keeps producing bitwise-identical contours.
pub const SPARSE_DISPATCH_MIN_UNKNOWNS: usize = 64;

/// Which linear solver backs the Newton iterations of the transient and
/// DC analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Per-circuit dispatch: sparse from
    /// [`SPARSE_DISPATCH_MIN_UNKNOWNS`] unknowns, dense below.
    #[default]
    Auto,
    /// Always the dense [`shc_linalg::LuFactor`] path.
    Dense,
    /// Always the sparse-direct [`shc_linalg::SparseLu`] path.
    Sparse,
}

impl SolverChoice {
    /// Whether a circuit with `n` unknowns should use the sparse path.
    #[must_use]
    pub fn wants_sparse(self, n: usize) -> bool {
        match self {
            SolverChoice::Auto => n >= SPARSE_DISPATCH_MIN_UNKNOWNS,
            SolverChoice::Dense => false,
            SolverChoice::Sparse => true,
        }
    }

    /// Stable lowercase name (CLI value / JSON output).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            SolverChoice::Auto => "auto",
            SolverChoice::Dense => "dense",
            SolverChoice::Sparse => "sparse",
        }
    }
}

impl std::fmt::Display for SolverChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SolverChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(SolverChoice::Auto),
            "dense" => Ok(SolverChoice::Dense),
            "sparse" => Ok(SolverChoice::Sparse),
            other => Err(format!(
                "unknown solver '{other}' (expected auto, dense or sparse)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_dispatch_threshold() {
        assert!(!SolverChoice::Auto.wants_sparse(SPARSE_DISPATCH_MIN_UNKNOWNS - 1));
        assert!(SolverChoice::Auto.wants_sparse(SPARSE_DISPATCH_MIN_UNKNOWNS));
        assert!(!SolverChoice::Dense.wants_sparse(10_000));
        assert!(SolverChoice::Sparse.wants_sparse(2));
    }

    #[test]
    fn choice_parses_and_displays() {
        for c in [
            SolverChoice::Auto,
            SolverChoice::Dense,
            SolverChoice::Sparse,
        ] {
            assert_eq!(c.name().parse::<SolverChoice>(), Ok(c));
            assert_eq!(c.to_string(), c.name());
        }
        assert!("cholesky".parse::<SolverChoice>().is_err());
        assert_eq!(SolverChoice::default(), SolverChoice::Auto);
    }
}
