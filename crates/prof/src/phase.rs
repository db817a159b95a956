//! The fixed phase taxonomy.
//!
//! A [`Phase`] names one kind of work a simulation spends wall-clock time
//! on. The set is closed (like `shc_obs::Metric`) so the frame stack can
//! key nodes by a single byte and reports can aggregate into fixed-size
//! arrays; `shc-lint`'s telemetry-hygiene rule checks that every
//! `Phase::X` use in the workspace names a variant declared here.

/// One kind of work in the profiler's frame taxonomy.
///
/// Variants are ordered roughly top-down: drivers first, then per-run
/// machinery, then the per-iteration primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Fan-out sweep driver (surface grid, batch contours, corners).
    Sweep,
    /// Euler-Newton tracer bookkeeping: predictor, tangent refresh,
    /// recovery ladder, checkpointing (self-time excludes the corrector).
    TracerOverhead,
    /// First-point search: hold bisection, setup bracketing, polish.
    SeedSearch,
    /// MPNR corrector bookkeeping around its transient evaluations.
    CorrectorOverhead,
    /// One transient simulation run (self-time is the stepping loop's own
    /// bookkeeping: history rotation, waveform sampling, predictors).
    Transient,
    /// DC operating-point solve.
    DcOp,
    /// Newton loop bookkeeping: convergence checks, damping, recovery
    /// retries (self-time excludes assembly and linear algebra).
    NewtonOverhead,
    /// Dense device evaluation + stamping loop (`assemble_into`).
    DeviceEval,
    /// Residual formation and companion-model combination after the
    /// device loop (`combine_step_jacobian_into` and friends).
    Stamp,
    /// Sparse device evaluation + stamping loop (`assemble_sparse_into`).
    AssembleSparse,
    /// Dense LU fresh factorization (allocating).
    LuFactor,
    /// Dense LU in-place refactorization.
    LuRefactor,
    /// Dense LU forward/back substitution.
    LuSolve,
    /// Sparse-LU symbolic analysis (ordering + pattern).
    SparseAnalyze,
    /// Sparse-LU fresh numeric factorization (allocating).
    SparseFactor,
    /// Sparse-LU value-only refactorization.
    SparseRefactor,
    /// Sparse-LU forward/back substitution.
    SparseSolve,
    /// Parameter-sensitivity right-hand sides and solves.
    SensSolve,
}

impl Phase {
    /// Number of phase variants; sizes aggregation arrays.
    pub const COUNT: usize = 18;

    /// All variants, in `repr` order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Sweep,
        Phase::TracerOverhead,
        Phase::SeedSearch,
        Phase::CorrectorOverhead,
        Phase::Transient,
        Phase::DcOp,
        Phase::NewtonOverhead,
        Phase::DeviceEval,
        Phase::Stamp,
        Phase::AssembleSparse,
        Phase::LuFactor,
        Phase::LuRefactor,
        Phase::LuSolve,
        Phase::SparseAnalyze,
        Phase::SparseFactor,
        Phase::SparseRefactor,
        Phase::SparseSolve,
        Phase::SensSolve,
    ];

    /// Stable snake_case name used in reports, folded stacks, and JSON.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Sweep => "sweep",
            Phase::TracerOverhead => "tracer_overhead",
            Phase::SeedSearch => "seed_search",
            Phase::CorrectorOverhead => "corrector_overhead",
            Phase::Transient => "transient",
            Phase::DcOp => "dc_op",
            Phase::NewtonOverhead => "newton_overhead",
            Phase::DeviceEval => "device_eval",
            Phase::Stamp => "stamp",
            Phase::AssembleSparse => "assemble_sparse",
            Phase::LuFactor => "lu_factor",
            Phase::LuRefactor => "lu_refactor",
            Phase::LuSolve => "lu_solve",
            Phase::SparseAnalyze => "sparse_analyze",
            Phase::SparseFactor => "sparse_factor",
            Phase::SparseRefactor => "sparse_refactor",
            Phase::SparseSolve => "sparse_solve",
            Phase::SensSolve => "sens_solve",
        }
    }

    /// Looks a variant up by its [`name`](Phase::name).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// The unit its `work` column counts, for report headers.
    #[must_use]
    pub const fn work_unit(self) -> &'static str {
        match self {
            Phase::DeviceEval | Phase::AssembleSparse => "device evals",
            Phase::Stamp => "unknowns",
            Phase::LuFactor | Phase::LuRefactor | Phase::LuSolve => "n",
            Phase::SparseAnalyze
            | Phase::SparseFactor
            | Phase::SparseRefactor
            | Phase::SparseSolve => "nnz",
            Phase::NewtonOverhead => "iterations",
            Phase::Transient => "steps",
            Phase::CorrectorOverhead => "iterations",
            _ => "",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_matches_repr_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "{}", p.name());
        }
    }

    #[test]
    fn names_are_unique_and_round_trip() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
    }
}
