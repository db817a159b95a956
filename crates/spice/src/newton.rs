//! The crate's one damped Newton-Raphson loop, shared by DC and transient
//! analyses, and the workspace that owns its buffers and Jacobian factor.

use shc_linalg::{LuFactor, Matrix, Vector};

use crate::solver::SparseJacSolver;
use crate::{Result, SpiceError};

/// Deterministic fault hook for the Newton site: maps an injected fault
/// onto this layer's error vocabulary. One thread-local read when no
/// `shc-fault` plan is installed.
pub(crate) fn injected_fault() -> Option<SpiceError> {
    let kind = shc_fault::check(shc_fault::Site::Newton)?;
    shc_obs::count(shc_obs::Metric::FaultsInjected, 1);
    Some(match kind {
        shc_fault::FaultKind::NanResidual => SpiceError::NumericalBlowup { time: f64::NAN },
        _ => SpiceError::NewtonDiverged {
            context: "newton solve (injected fault)",
            iterations: 0,
            residual: f64::INFINITY,
        },
    })
}

/// Lap slots of the per-iteration `shc_prof::Laps` accumulator threaded
/// through [`solve_in_place`] and the transient assembly closure.
/// The chain is contiguous: each boundary charges the time since the
/// previous one, so one clock read per region suffices.
pub mod lap {
    /// Device evaluation + stamping (`assemble_into`), ended by the
    /// assembly closure after the device loop.
    pub const DEV: usize = 0;
    /// Residual formation and companion-model combination, ended by the
    /// assembly closure on exit.
    pub const STAMP: usize = 1;
    /// Jacobian factorization (dense refactor or sparse factor).
    pub const FACTOR: usize = 2;
    /// Forward/back substitution.
    pub const SOLVE: usize = 3;
    /// Discard slot: re-arms the cursor at closure entry so damping,
    /// norms, and everything between solves is never charged to
    /// [`DEV`]. Not flushed — Newton self-time is computed as the
    /// per-step total minus the four regions above.
    pub const ITER_SELF: usize = 4;
}

/// Convergence and robustness settings for Newton-Raphson.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Relative tolerance on the solution update.
    pub reltol: f64,
    /// Absolute tolerance on the solution update (volts/amps).
    pub abstol: f64,
    /// Maximum iterations before declaring divergence.
    pub max_iters: usize,
    /// Per-iteration cap on any single unknown's update magnitude
    /// (voltage limiting); `f64::INFINITY` disables damping.
    pub max_step: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            reltol: 1e-6,
            abstol: 1e-9,
            max_iters: 60,
            max_step: 0.5,
        }
    }
}

/// The factor of a [`NewtonWorkspace`]: the one place its Newton
/// iterations, and the transient's sensitivity solves, factor the
/// Jacobian buffer.
#[derive(Debug)]
#[allow(
    clippy::large_enum_variant,
    reason = "one per workspace, built once per analysis and never moved in a loop; boxing the sparse variant would only add an allocation"
)]
pub(crate) enum Factor {
    /// Dense LU, built on the first factorization and refactored in place
    /// after it.
    Dense(Option<LuFactor>),
    /// The sparse-direct path (see [`crate::solver::SolverChoice`]).
    Sparse(SparseJacSolver),
}

/// Reusable buffers for [`solve_in_place`].
///
/// A transient analysis performs one Newton solve per time step with a
/// fixed system dimension, and a DC operating point one per homotopy
/// step; allocating the iterate, update, residual, Jacobian and factor
/// once per *analysis* instead of once per *iteration* removes every
/// per-iteration heap allocation from the Newton path.
#[derive(Debug)]
pub struct NewtonWorkspace {
    x: Vector,
    delta: Vector,
    residual: Vector,
    jacobian: Matrix,
    factor: Factor,
    /// Whether the next solve's first iteration takes the factor as its
    /// own ([`NewtonWorkspace::prime`]).
    primed: bool,
}

impl NewtonWorkspace {
    /// Creates a workspace for systems of dimension `n` (dense solves).
    pub fn new(n: usize) -> Self {
        NewtonWorkspace {
            x: Vector::zeros(n),
            delta: Vector::zeros(n),
            residual: Vector::zeros(n),
            jacobian: Matrix::zeros(n, n),
            factor: Factor::Dense(None),
            primed: false,
        }
    }

    /// System dimension this workspace was sized for.
    pub fn dim(&self) -> usize {
        self.x.len()
    }

    /// The iterate; after a successful [`solve_in_place`] this is the
    /// converged state.
    pub fn x(&self) -> &Vector {
        &self.x
    }

    /// Installs (or removes) the sparse solve path. Passing `Some`
    /// drops any dense factors; passing `None` restores dense solves.
    pub fn set_sparse_solver(&mut self, solver: Option<SparseJacSolver>) {
        match solver {
            Some(sp) => self.factor = Factor::Sparse(sp),
            None if matches!(self.factor, Factor::Sparse(_)) => self.factor = Factor::Dense(None),
            None => {}
        }
    }

    /// The installed sparse solver, if any.
    pub fn sparse_solver(&self) -> Option<&SparseJacSolver> {
        match &self.factor {
            Factor::Sparse(sp) => Some(sp),
            Factor::Dense(_) => None,
        }
    }

    /// Mutable access to the installed sparse solver, if any.
    pub fn sparse_solver_mut(&mut self) -> Option<&mut SparseJacSolver> {
        match &mut self.factor {
            Factor::Sparse(sp) => Some(sp),
            Factor::Dense(_) => None,
        }
    }

    /// The Jacobian buffer and the factor, for building and factoring a
    /// Jacobian outside a solve — the sensitivity matrix at an accepted
    /// transient state — that the next solve may take as its first
    /// iteration's ([`NewtonWorkspace::prime`]).
    pub(crate) fn jacobian_and_factor(&mut self) -> (&mut Matrix, &mut Factor) {
        (&mut self.jacobian, &mut self.factor)
    }

    /// Lets the next solve's first iteration take the factor as the
    /// factor of the Jacobian it assembles instead of refactoring, on
    /// either backend. Sound only when that Jacobian is bitwise the
    /// factored one: the caller vouches for it. Every later iteration,
    /// and every retry, factors afresh.
    pub(crate) fn prime(&mut self) {
        self.primed = true;
    }
}

/// Solves `F(x) = 0` with damped Newton-Raphson in the buffers of a
/// [`NewtonWorkspace`].
///
/// `assemble` writes the residual `F(x)` and Jacobian `∂F/∂x` at the
/// trial point into the provided buffers (which arrive zeroed only on the
/// first call — overwrite, don't accumulate). Convergence is declared
/// when the weighted update norm `max_i |Δx_i| / (reltol·|x_i| + abstol)`
/// drops to `≤ 1`; the converged state is then in `ws.x()` and the
/// iteration count is returned. Apart from the first factorization of a
/// workspace, no heap allocation occurs inside the iteration loop. A
/// [`NewtonWorkspace::prime`]d workspace's first iteration takes the
/// factor already in place as its own.
///
/// With `laps` set, the factor and solve of every iteration close lap
/// regions ([`lap::FACTOR`], [`lap::SOLVE`]); the assembly closure is
/// expected to close [`lap::DEV`]/[`lap::STAMP`] itself. The accumulator
/// only reads clocks — iterates, tolerances, and results are bitwise
/// identical with or without it, and with profiling off every lap call
/// is a branch on a struct flag.
///
/// # Errors
///
/// - [`SpiceError::NewtonDiverged`] after `max_iters` iterations;
/// - [`SpiceError::NumericalBlowup`] if a non-finite value appears;
/// - propagated linear-solver failures.
///
/// # Panics
///
/// Panics if `x0.len() != ws.dim()`.
pub fn solve_in_place<F>(
    ws: &mut NewtonWorkspace,
    x0: &Vector,
    opts: &NewtonOptions,
    laps: Option<&shc_prof::Laps>,
    mut assemble: F,
) -> Result<usize>
where
    F: FnMut(&Vector, &mut Vector, &mut Matrix) -> Result<()>,
{
    // Taken before anything can fail, so no retry inherits it.
    let primed = std::mem::take(&mut ws.primed);
    if let Some(e) = injected_fault() {
        return Err(e);
    }
    ws.x.copy_from(x0);
    let mut last_norm = f64::INFINITY;
    // Work units for the linear-algebra lap slots: factor work follows
    // the backend (pattern nonzeros sparse, dimension dense).
    let solve_work = ws.dim() as u64;
    let factor_work = ws
        .sparse_solver()
        .map_or(solve_work, |sp| sp.pattern().len() as u64);

    // Every iteration works in workspace buffers sized at construction;
    // the only allocation is the one-time LU factor below.
    // lint: hot-loop
    for iter in 1..=opts.max_iters {
        // lint: allow(hot-path-certify, reason = "closure parameter: name resolution cannot see through `F` and blames `Circuit::assemble`; the closure body's real effects are charged to the caller that defines it")
        assemble(&ws.x, &mut ws.residual, &mut ws.jacobian)?;
        if !ws.residual.is_finite() {
            return Err(SpiceError::NumericalBlowup { time: f64::NAN });
        }
        let reuse = primed && iter == 1;
        match &mut ws.factor {
            Factor::Sparse(sp) => {
                // Gather + allocation-free refactor (the first call
                // performs the one-time analysis inside the solver).
                // Jacobian blow-up is detected on the gathered O(nnz)
                // values inside `factor_from`; the O(n²) dense scan is
                // skipped.
                if !reuse {
                    sp.factor_from(&ws.jacobian)?;
                }
                end_factor_lap(laps, reuse, factor_work);
                sp.solve_into(&ws.residual, &mut ws.delta)?;
            }
            Factor::Dense(_) if !ws.jacobian.is_finite() => {
                return Err(SpiceError::NumericalBlowup { time: f64::NAN });
            }
            Factor::Dense(slot) => {
                let lu = match slot {
                    Some(lu) if reuse => lu,
                    Some(lu) => {
                        lu.refactor(&ws.jacobian)?;
                        lu
                    }
                    None => slot.insert(LuFactor::new(&ws.jacobian)?), // lint: allow(hot-path-certify, reason = "cold path: the factor is built once on the first solve; every later iteration takes the refactor arm")
                };
                end_factor_lap(laps, reuse, factor_work);
                lu.solve_into(&ws.residual, &mut ws.delta)?;
            }
        }
        if let Some(l) = laps {
            l.end_region(lap::SOLVE);
            l.bump(lap::SOLVE, 1, solve_work);
        }
        // Newton step is x ← x − J⁻¹F.
        for d in ws.delta.iter_mut() {
            *d = -*d;
            if d.abs() > opts.max_step {
                *d = d.signum() * opts.max_step;
            }
        }
        let norm = ws.delta.weighted_norm(&ws.x, opts.reltol, opts.abstol);
        ws.x.axpy(1.0, &ws.delta);
        if !ws.x.is_finite() {
            return Err(SpiceError::NumericalBlowup { time: f64::NAN });
        }
        last_norm = norm;
        if norm <= 1.0 {
            return Ok(iter);
        }
    }
    // lint: end-hot-loop

    Err(SpiceError::NewtonDiverged {
        context: "newton solve",
        iterations: opts.max_iters,
        residual: last_norm,
    })
}

/// Closes an iteration's [`lap::FACTOR`] region, unless the iteration
/// took the primed factor instead of factoring.
fn end_factor_lap(laps: Option<&shc_prof::Laps>, reused: bool, work: u64) {
    if let (Some(l), false) = (laps, reused) {
        l.end_region(lap::FACTOR);
        l.bump(lap::FACTOR, 1, work);
    }
}

/// Whether a Newton failure is worth retrying from a perturbed start.
pub(crate) fn retryable(e: &SpiceError) -> bool {
    matches!(
        e,
        SpiceError::NewtonDiverged { .. }
            | SpiceError::NumericalBlowup { .. }
            | SpiceError::Linalg(shc_linalg::LinalgError::Singular { .. })
    )
}

/// Deterministic start-point jitter for Newton retries: attempt `k`
/// perturbs every unknown of `base` by a relative offset in `±2⁻ᵏ·10⁻⁴`
/// (plus a femto-scale absolute floor so exact zeros move too), enough to
/// leave a stalled basin without changing the converged root.
pub(crate) fn jitter_into(out: &mut Vector, base: &Vector, attempt: u32) {
    let (out, base) = (out.as_mut_slice(), base.as_slice());
    let scale = 1e-4 * 0.5f64.powi(attempt as i32 - 1);
    for (i, v) in out.iter_mut().enumerate() {
        // SplitMix64 finalizer over (attempt, unknown index).
        let mut z = (u64::from(attempt) << 32 | i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let eps = (2.0 * unit - 1.0) * scale;
        *v = base[i] * (1.0 + eps) + eps * 1e-15;
    }
}

/// A bounded damped-retry recovery policy, for callers that have already
/// run (and seen fail) the plain first attempt of [`solve_in_place`]: on a
/// retryable failure (divergence, blow-up, singular Jacobian) it re-solves
/// up to `retries` more times, each from a deterministically jittered copy
/// of `x0` with the voltage-limiting step cap halved (stronger damping),
/// and reports a rescue to telemetry. Returns the rescued iteration count
/// or the last failure (`first` when nothing improved on it).
pub(crate) fn retry_in_place<F>(
    ws: &mut NewtonWorkspace,
    x0: &Vector,
    opts: &NewtonOptions,
    retries: usize,
    first: SpiceError,
    mut assemble: F,
) -> Result<usize>
where
    F: FnMut(&Vector, &mut Vector, &mut Matrix) -> Result<()>,
{
    let mut last = first;
    if !retryable(&last) {
        return Err(last);
    }
    let mut start = x0.clone();
    for attempt in 1..=retries as u32 {
        let damped = NewtonOptions {
            max_step: opts.max_step * 0.5f64.powi(attempt as i32),
            ..*opts
        };
        jitter_into(&mut start, x0, attempt);
        match solve_in_place(ws, &start, &damped, None, &mut assemble) {
            Ok(iters) => {
                shc_obs::count(shc_obs::Metric::NewtonRecoveries, 1);
                return Ok(iters);
            }
            Err(e) if retryable(&e) => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_scalar_quadratic() {
        // F(x) = x² − 4 = 0 from x0 = 3 → x = 2.
        let x0 = Vector::from_slice(&[3.0]);
        let opts = NewtonOptions {
            max_step: f64::INFINITY,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new(1);
        let iters = solve_in_place(&mut ws, &x0, &opts, None, |x, f, j| {
            f.as_mut_slice()[0] = x[0] * x[0] - 4.0;
            j[(0, 0)] = 2.0 * x[0];
            Ok(())
        })
        .unwrap();
        assert!((ws.x()[0] - 2.0).abs() < 1e-8);
        assert!(iters <= 10);
    }

    #[test]
    fn solves_2d_nonlinear_system() {
        // x² + y² = 5, x·y = 2 → (2, 1) from a nearby start.
        let x0 = Vector::from_slice(&[2.5, 0.5]);
        let opts = NewtonOptions {
            max_step: f64::INFINITY,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new(2);
        solve_in_place(&mut ws, &x0, &opts, None, fill_2d).unwrap();
        assert!((ws.x()[0] - 2.0).abs() < 1e-8);
        assert!((ws.x()[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn sparse_workspace_matches_dense_workspace_on_circuit_solve() {
        use crate::devices::{Resistor, VoltageSource};
        use crate::solver::SparseJacSolver;
        use crate::waveform::{Params, Waveform};

        // A resistive ladder behind a voltage source (MNA: the branch row
        // has a zero diagonal, so this also exercises sparse pivoting).
        let mut c = crate::Circuit::new();
        let mut prev = c.node("in");
        c.add(VoltageSource::new(
            "V1",
            prev,
            crate::Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        for s in 0..20 {
            let node = c.node(&format!("n{s}"));
            c.add(Resistor::new(&format!("R{s}"), prev, node, 1e3));
            prev = node;
        }
        c.add(Resistor::new("Rload", prev, crate::Circuit::GROUND, 1e3));
        let params = Params::default();
        let n = c.unknown_count();
        let x0 = Vector::zeros(n);
        let opts = NewtonOptions {
            max_step: f64::INFINITY,
            ..NewtonOptions::default()
        };
        let assemble = |x: &Vector, f: &mut Vector, j: &mut Matrix| -> Result<()> {
            let stamps = c.assemble(x, 0.0, &params, 1.0);
            f.copy_from(&stamps.f);
            j.copy_from(&stamps.g).unwrap();
            Ok(())
        };

        let mut dense_ws = NewtonWorkspace::new(n);
        solve_in_place(&mut dense_ws, &x0, &opts, None, assemble).unwrap();

        let mut sparse_ws = NewtonWorkspace::new(n);
        sparse_ws.set_sparse_solver(Some(SparseJacSolver::new(&c, &params).unwrap()));
        assert!(sparse_ws.sparse_solver().is_some());
        solve_in_place(&mut sparse_ws, &x0, &opts, None, assemble).unwrap();

        let diff = sparse_ws.x().sub(dense_ws.x()).norm_inf();
        assert!(diff < 1e-10, "sparse vs dense newton diverged: {diff:e}");
        // The ladder divides 1 V evenly: node s sits at (20 − s)/21 V.
        assert!((sparse_ws.x()[1] - 20.0 / 21.0).abs() < 1e-9);
    }

    #[test]
    fn damping_caps_update_magnitude() {
        // A huge first step would overshoot; damping keeps |Δ| ≤ max_step.
        let x0 = Vector::from_slice(&[100.0]);
        let opts = NewtonOptions {
            max_step: 1.0,
            max_iters: 300,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new(1);
        let iters = solve_in_place(&mut ws, &x0, &opts, None, |x, f, j| {
            f.as_mut_slice()[0] = x[0];
            j[(0, 0)] = 1.0;
            Ok(())
        })
        .unwrap();
        assert!(ws.x()[0].abs() < 1e-6);
        // Pure linear problem with unit slope and damping 1.0 needs ~100 steps.
        assert!(iters >= 99);
    }

    #[test]
    fn reports_divergence() {
        // F(x) = 1 (no root): Newton cannot converge because J is tiny.
        let x0 = Vector::from_slice(&[0.0]);
        let opts = NewtonOptions {
            max_iters: 5,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new(1);
        let err = solve_in_place(&mut ws, &x0, &opts, None, |_x, f, j| {
            f.as_mut_slice()[0] = 1.0;
            j[(0, 0)] = 1e-3;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, SpiceError::NewtonDiverged { .. }));
    }

    #[test]
    fn detects_nan_blowup() {
        let x0 = Vector::from_slice(&[1.0]);
        let mut ws = NewtonWorkspace::new(1);
        let err = solve_in_place(&mut ws, &x0, &NewtonOptions::default(), None, |_x, f, j| {
            f.as_mut_slice()[0] = f64::NAN;
            j[(0, 0)] = 1.0;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, SpiceError::NumericalBlowup { .. }));
    }

    #[test]
    fn in_place_solve_matches_allocating_solve_without_iteration_allocs() {
        let x0 = Vector::from_slice(&[2.5, 0.5]);
        let opts = NewtonOptions {
            max_step: f64::INFINITY,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new(2);
        // First solve may allocate (the LU factor is created lazily).
        solve_in_place(&mut ws, &x0, &opts, None, fill_2d).unwrap();
        assert!((ws.x()[0] - 2.0).abs() < 1e-8);
        assert!((ws.x()[1] - 1.0).abs() < 1e-8);

        // A second solve with warm buffers must not allocate a single matrix.
        let before = shc_linalg::matrix_allocations();
        solve_in_place(&mut ws, &x0, &opts, None, fill_2d).unwrap();
        assert_eq!(shc_linalg::matrix_allocations(), before);
    }

    fn fill_2d(x: &Vector, f: &mut Vector, j: &mut Matrix) -> Result<()> {
        f.as_mut_slice()[0] = x[0] * x[0] + x[1] * x[1] - 5.0;
        f.as_mut_slice()[1] = x[0] * x[1] - 2.0;
        j[(0, 0)] = 2.0 * x[0];
        j[(0, 1)] = 2.0 * x[1];
        j[(1, 0)] = x[1];
        j[(1, 1)] = x[0];
        Ok(())
    }

    /// The production retry shape (see the transient step loop): a plain
    /// first attempt, then [`retry_in_place`] on its failure.
    fn solve_then_retry(
        ws: &mut NewtonWorkspace,
        x0: &Vector,
        opts: &NewtonOptions,
        retries: usize,
    ) -> Result<usize> {
        solve_in_place(ws, x0, opts, None, fill_2d)
            .or_else(|e| retry_in_place(ws, x0, opts, retries, e, fill_2d))
    }

    #[test]
    fn retry_is_transparent_when_newton_converges() {
        let x0 = Vector::from_slice(&[2.5, 0.5]);
        let opts = NewtonOptions {
            max_step: f64::INFINITY,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new(2);
        let iters = solve_in_place(&mut ws, &x0, &opts, None, fill_2d).unwrap();
        let plain = ws.x().as_slice().to_vec();
        let mut ws2 = NewtonWorkspace::new(2);
        let iters2 = solve_then_retry(&mut ws2, &x0, &opts, 3).unwrap();
        assert_eq!(iters, iters2);
        assert_eq!(ws2.x().as_slice(), plain.as_slice());
    }

    #[test]
    fn injected_fault_fails_plain_solve_and_retry_rescues_it() {
        use shc_fault::{FaultKind, FaultPlan, Injector, Site};

        let plan_with = |seed: u64| FaultPlan {
            probability: 0.5,
            site: Some(Site::Newton),
            kind: FaultKind::NonConvergence,
            seed,
        };
        // Find a seed whose Newton fault stream starts (fire, pass): the
        // first solve is killed, the retry draws a fresh index and runs.
        let seed = (0..256u64)
            .find(|&s| {
                let inj = Injector::new(plan_with(s));
                let _g = shc_fault::install_scoped(&inj);
                shc_fault::check(Site::Newton).is_some() && shc_fault::check(Site::Newton).is_none()
            })
            .expect("some seed fires then passes");

        let x0 = Vector::from_slice(&[2.5, 0.5]);
        let opts = NewtonOptions {
            max_step: f64::INFINITY,
            ..NewtonOptions::default()
        };

        // Plain solve: the injected fault surfaces as NewtonDiverged.
        let inj = Injector::new(plan_with(seed));
        let guard = shc_fault::install_scoped(&inj);
        let mut ws = NewtonWorkspace::new(2);
        let err = solve_in_place(&mut ws, &x0, &opts, None, fill_2d).unwrap_err();
        assert!(matches!(err, SpiceError::NewtonDiverged { .. }), "{err:?}");
        drop(guard);

        // Solve plus retry under the same plan: retry rescues, telemetry
        // records both the injection and the recovery.
        let collector = shc_obs::Collector::new();
        let _obs = shc_obs::install_scoped(&collector);
        let inj = Injector::new(plan_with(seed));
        let _g = shc_fault::install_scoped(&inj);
        let mut ws = NewtonWorkspace::new(2);
        solve_then_retry(&mut ws, &x0, &opts, 2).unwrap();
        assert!((ws.x()[0] - 2.0).abs() < 1e-6);
        assert!((ws.x()[1] - 1.0).abs() < 1e-6);
        assert_eq!(inj.injected(), 1);
        assert_eq!(collector.counter(shc_obs::Metric::FaultsInjected), 1);
        assert_eq!(collector.counter(shc_obs::Metric::NewtonRecoveries), 1);
    }

    #[test]
    fn retry_exhausts_its_budget_and_reports_last_failure() {
        use shc_fault::{FaultKind, FaultPlan, Injector, Site};
        let inj = Injector::new(FaultPlan {
            probability: 1.0,
            site: Some(Site::Newton),
            kind: FaultKind::NonConvergence,
            seed: 0,
        });
        let _g = shc_fault::install_scoped(&inj);
        let x0 = Vector::from_slice(&[2.5, 0.5]);
        let mut ws = NewtonWorkspace::new(2);
        let err = solve_then_retry(&mut ws, &x0, &NewtonOptions::default(), 3).unwrap_err();
        assert!(matches!(err, SpiceError::NewtonDiverged { .. }));
        assert_eq!(inj.injected(), 4, "initial attempt + 3 retries");
    }
}
