//! The fixed metric and span taxonomies.
//!
//! Both enums are closed sets so the collector can back every series with a
//! fixed-size atomic array: recording a sample is a couple of relaxed
//! `fetch_add`s, never an allocation or a lock.

/// A monotonically increasing counter (optionally with a log-scale
/// histogram of per-observation values, see [`crate::observe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Metric {
    /// Completed transient runs (calibration + characterization).
    TransientRuns,
    /// Accepted integration steps across all transient runs; a run
    /// resumed from a prefix ladder counts only the steps it computed
    /// (the adopted ones are `PrefixStepsReused`).
    TransientSteps,
    /// Inner Newton iterations across all transient steps.
    NewtonIterations,
    /// Transient steps rejected by the Newton step-cut policy
    /// (`TransientStats::rejected_steps`).
    LteRejections,
    /// Fresh LU factorizations (allocating).
    LuFactorizations,
    /// In-place LU refactorizations (allocation-free).
    LuRefactors,
    /// LU forward/back substitutions.
    LuSolves,
    /// Dense matrix buffer allocations (mirrors
    /// `shc_linalg::matrix_allocations`).
    MatrixAllocations,
    /// MPNR corrector invocations.
    MpnrSolves,
    /// MPNR corrector iterations (histogram: iterations per solve).
    MpnrIterations,
    /// MPNR solves that failed to converge.
    MpnrFailures,
    /// Predictor step-length (alpha) adaptations in the tracer.
    AlphaAdaptations,
    /// Contour points successfully traced.
    ContourPoints,
    /// Journal events emitted to the sink.
    JournalEvents,
    /// Faults injected by an installed `shc-fault` plan.
    FaultsInjected,
    /// Newton solves rescued by the jittered damped-retry policy.
    NewtonRecoveries,
    /// Tracer restarts after the step-halving ladder was exhausted.
    TracerRestarts,
    /// Corrector divergences rescued by the bisection-on-`h` fallback.
    MpnrFallbacks,
    /// Trace checkpoints written for `--resume`.
    CheckpointsWritten,
    /// Sparse-LU symbolic analyses (fill-reducing ordering + pattern).
    SparseAnalyses,
    /// Sparse-LU fresh numeric factorizations (allocating).
    SparseFactors,
    /// Sparse-LU value-only refactorizations (allocation-free).
    SparseRefactors,
    /// Sparse-LU forward/back substitutions.
    SparseSolves,
    /// Fill-in produced by symbolic analysis (histogram: nnz(L+U) −
    /// nnz(A) per analysis).
    SparseFillNnz,
    /// Transient runs resumed from a prefix-ladder checkpoint instead of
    /// the DC start (each skips one DC operating-point solve).
    PrefixResumes,
    /// Accepted steps adopted from prefix-ladder checkpoints rather than
    /// computed; `TransientSteps` counts only computed steps.
    PrefixStepsReused,
    /// Accepted Backward Euler steps whose first Newton iterate took the
    /// stamps of the state before instead of evaluating the devices.
    StampsReused,
    /// Accepted Backward Euler steps whose first Newton iterate took the
    /// factor of the previous step's sensitivity Jacobian instead of
    /// refactoring; each is one `LuRefactors` fewer.
    FactorsReused,
    /// Transient Newton iterations after a step's first that solved with
    /// the factor an earlier iteration of the step built (chord
    /// iterations) instead of refactoring; each is one `LuRefactors` (or
    /// `SparseRefactors`) fewer. Primed first iterates are
    /// `FactorsReused`, not these.
    ChordIterations,
}

impl Metric {
    /// Number of metric variants; sizes the collector's atomic arrays.
    pub const COUNT: usize = 29;

    /// All variants, in `repr` order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::TransientRuns,
        Metric::TransientSteps,
        Metric::NewtonIterations,
        Metric::LteRejections,
        Metric::LuFactorizations,
        Metric::LuRefactors,
        Metric::LuSolves,
        Metric::MatrixAllocations,
        Metric::MpnrSolves,
        Metric::MpnrIterations,
        Metric::MpnrFailures,
        Metric::AlphaAdaptations,
        Metric::ContourPoints,
        Metric::JournalEvents,
        Metric::FaultsInjected,
        Metric::NewtonRecoveries,
        Metric::TracerRestarts,
        Metric::MpnrFallbacks,
        Metric::CheckpointsWritten,
        Metric::SparseAnalyses,
        Metric::SparseFactors,
        Metric::SparseRefactors,
        Metric::SparseSolves,
        Metric::SparseFillNnz,
        Metric::PrefixResumes,
        Metric::PrefixStepsReused,
        Metric::StampsReused,
        Metric::FactorsReused,
        Metric::ChordIterations,
    ];

    /// Stable snake_case name used in reports and JSON output.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Metric::TransientRuns => "transient_runs",
            Metric::TransientSteps => "transient_steps",
            Metric::NewtonIterations => "newton_iterations",
            Metric::LteRejections => "lte_rejections",
            Metric::LuFactorizations => "lu_factorizations",
            Metric::LuRefactors => "lu_refactors",
            Metric::LuSolves => "lu_solves",
            Metric::MatrixAllocations => "matrix_allocations",
            Metric::MpnrSolves => "mpnr_solves",
            Metric::MpnrIterations => "mpnr_iterations",
            Metric::MpnrFailures => "mpnr_failures",
            Metric::AlphaAdaptations => "alpha_adaptations",
            Metric::ContourPoints => "contour_points",
            Metric::JournalEvents => "journal_events",
            Metric::FaultsInjected => "faults_injected",
            Metric::NewtonRecoveries => "newton_recoveries",
            Metric::TracerRestarts => "tracer_restarts",
            Metric::MpnrFallbacks => "mpnr_fallbacks",
            Metric::CheckpointsWritten => "checkpoints_written",
            Metric::SparseAnalyses => "sparse_analyses",
            Metric::SparseFactors => "sparse_factors",
            Metric::SparseRefactors => "sparse_refactors",
            Metric::SparseSolves => "sparse_solves",
            Metric::SparseFillNnz => "sparse_fill_nnz",
            Metric::PrefixResumes => "prefix_resumes",
            Metric::PrefixStepsReused => "prefix_steps_reused",
            Metric::StampsReused => "stamps_reused",
            Metric::FactorsReused => "factors_reused",
            Metric::ChordIterations => "chord_iterations",
        }
    }
}

/// A timed region of the solver stack.
///
/// Spans nest: the collector records wall-clock time per `(parent, child)`
/// edge, so e.g. transient time spent under the MPNR corrector is separated
/// from transient time spent during calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SpanKind {
    /// Whole CLI invocation.
    CliRun,
    /// Problem-builder reference (calibration) simulation.
    Calibration,
    /// First-point search (hold bisection + setup bracketing + polish).
    Seed,
    /// One Euler-Newton contour trace.
    Trace,
    /// One MPNR corrector solve.
    MpnrSolve,
    /// One transient simulation run.
    Transient,
    /// Brute-force surface generation sweep.
    Surface,
    /// Monte Carlo sweep.
    MonteCarlo,
    /// PVT corner sweep.
    Corners,
    /// One sparse-LU symbolic analysis (cold, once per topology).
    SparseAnalyze,
}

impl SpanKind {
    /// Number of span variants; sizes the collector's edge matrices.
    pub const COUNT: usize = 10;

    /// All variants, in `repr` order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::CliRun,
        SpanKind::Calibration,
        SpanKind::Seed,
        SpanKind::Trace,
        SpanKind::MpnrSolve,
        SpanKind::Transient,
        SpanKind::Surface,
        SpanKind::MonteCarlo,
        SpanKind::Corners,
        SpanKind::SparseAnalyze,
    ];

    /// Stable snake_case name used in reports and JSON output.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            SpanKind::CliRun => "cli_run",
            SpanKind::Calibration => "calibration",
            SpanKind::Seed => "seed",
            SpanKind::Trace => "trace",
            SpanKind::MpnrSolve => "mpnr_solve",
            SpanKind::Transient => "transient",
            SpanKind::Surface => "surface",
            SpanKind::MonteCarlo => "monte_carlo",
            SpanKind::Corners => "corners",
            SpanKind::SparseAnalyze => "sparse_analyze",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_all_matches_repr_order() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "{}", m.name());
        }
    }

    #[test]
    fn span_all_matches_repr_order() {
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{}", k.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.extend(SpanKind::ALL.iter().map(|k| k.name()));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
