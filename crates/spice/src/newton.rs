//! Damped Newton-Raphson driver shared by DC and transient analyses.

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
/// through [`solve_in_place_lapped`] and the transient assembly closure.
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

/// Outcome of a converged Newton solve.
#[derive(Debug)]
pub struct NewtonSolution {
    /// The converged state.
    pub x: Vector,
    /// Iterations used.
    pub iterations: usize,
    /// LU factors of the last Jacobian — reusable for sensitivity solves
    /// without re-factoring (the efficiency trick of the paper's eq. (11)).
    pub jacobian_lu: LuFactor,
}

/// Solves `F(x) = 0` with damped Newton-Raphson.
///
/// `assemble` must return the residual `F(x)` and Jacobian `∂F/∂x` at the
/// trial point. Convergence is declared when the weighted update norm
/// `max_i |Δx_i| / (reltol·|x_i| + abstol)` drops to `≤ 1`.
///
/// # Errors
///
/// - [`SpiceError::NewtonDiverged`] after `max_iters` iterations;
/// - [`SpiceError::NumericalBlowup`] if a non-finite value appears;
/// - propagated linear-solver failures.
pub fn solve<F>(x0: &Vector, opts: &NewtonOptions, mut assemble: F) -> Result<NewtonSolution>
where
    F: FnMut(&Vector) -> Result<(Vector, Matrix)>,
{
    if let Some(e) = injected_fault() {
        return Err(e);
    }
    let mut x = x0.clone();
    let mut last_norm = f64::INFINITY;

    for iter in 1..=opts.max_iters {
        let (residual, jacobian) = assemble(&x)?;
        if !residual.is_finite() || !jacobian.is_finite() {
            return Err(SpiceError::NumericalBlowup { time: f64::NAN });
        }
        let lu = jacobian.lu()?;
        let mut delta = lu.solve(&residual)?;
        // Newton step is x ← x − J⁻¹F.
        for d in delta.iter_mut() {
            *d = -*d;
            if d.abs() > opts.max_step {
                *d = d.signum() * opts.max_step;
            }
        }
        let norm = delta.weighted_norm(&x, opts.reltol, opts.abstol);
        x = x.add(&delta);
        if !x.is_finite() {
            return Err(SpiceError::NumericalBlowup { time: f64::NAN });
        }
        last_norm = norm;
        if norm <= 1.0 {
            return Ok(NewtonSolution {
                x,
                iterations: iter,
                jacobian_lu: lu,
            });
        }
    }

    Err(SpiceError::NewtonDiverged {
        context: "newton solve",
        iterations: opts.max_iters,
        residual: last_norm,
    })
}

/// Reusable buffers for [`solve_in_place`].
///
/// A transient analysis performs one Newton solve per time step with a
/// fixed system dimension; allocating the iterate, update, residual,
/// Jacobian, and LU factors once per *run* instead of once per *iteration*
/// removes every per-step heap allocation from the Newton path.
#[derive(Debug)]
pub struct NewtonWorkspace {
    x: Vector,
    delta: Vector,
    residual: Vector,
    jacobian: Matrix,
    lu: Option<LuFactor>,
    /// When installed, linear solves go through the sparse-direct path
    /// instead of the dense `lu` (see [`crate::solver::SolverChoice`]).
    sparse: Option<SparseJacSolver>,
    /// Whether the next solve's first iteration takes `lu` as its own
    /// factor ([`NewtonWorkspace::prime`]).
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
            lu: None,
            sparse: None,
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
        if solver.is_some() {
            self.lu = None;
        }
        self.sparse = solver;
    }

    /// The installed sparse solver, if any.
    pub fn sparse_solver(&self) -> Option<&SparseJacSolver> {
        self.sparse.as_ref()
    }

    /// Mutable access to the installed sparse solver, if any.
    pub fn sparse_solver_mut(&mut self) -> Option<&mut SparseJacSolver> {
        self.sparse.as_mut()
    }

    /// The Jacobian buffer: the last solve's last Jacobian, or one a
    /// caller built through [`NewtonWorkspace::jacobian_and_lu`].
    pub(crate) fn jacobian(&self) -> &Matrix {
        &self.jacobian
    }

    /// The Jacobian buffer and the dense LU slot, for building and
    /// factoring a Jacobian outside a solve — the sensitivity matrix at an
    /// accepted transient state — that the next solve may take as its
    /// first iteration's ([`NewtonWorkspace::prime`]).
    pub(crate) fn jacobian_and_lu(&mut self) -> (&mut Matrix, &mut Option<LuFactor>) {
        (&mut self.jacobian, &mut self.lu)
    }

    /// Lets the next solve's first iteration take the dense LU as the
    /// factor of the Jacobian it assembles instead of refactoring. Sound
    /// only when that Jacobian is bitwise the factored one: the caller
    /// vouches for it. Every later iteration, and every retry, factors
    /// afresh; the sparse path ignores the flag.
    pub(crate) fn prime(&mut self) {
        self.primed = true;
    }
}

/// Allocation-free variant of [`solve`] operating on a [`NewtonWorkspace`].
///
/// `assemble` writes the residual `F(x)` and Jacobian `∂F/∂x` into the
/// provided buffers (which arrive zeroed only on the first call — overwrite,
/// don't accumulate). On success the converged state is in `ws.x()` and the
/// iteration count is returned. Apart from the first call (which populates
/// the LU buffers), no heap allocation occurs inside the iteration loop.
///
/// # Errors
///
/// Same conditions as [`solve`].
///
/// # Panics
///
/// Panics if `x0.len() != ws.dim()`.
pub fn solve_in_place<F>(
    ws: &mut NewtonWorkspace,
    x0: &Vector,
    opts: &NewtonOptions,
    assemble: F,
) -> Result<usize>
where
    F: FnMut(&Vector, &mut Vector, &mut Matrix) -> Result<()>,
{
    solve_in_place_lapped(ws, x0, opts, None, assemble)
}

/// [`solve_in_place`] with an optional per-iteration profiling
/// accumulator, and a first iteration that takes the dense factor as its
/// own when the workspace is [`NewtonWorkspace::prime`]d.
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
/// Same conditions as [`solve`].
///
/// # Panics
///
/// Panics if `x0.len() != ws.dim()`.
pub fn solve_in_place_lapped<F>(
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
        .sparse
        .as_ref()
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
        if let Some(sp) = ws.sparse.as_mut() {
            // Sparse-direct path: gather + allocation-free refactor (the
            // first call performs the one-time analysis inside the solver).
            // Jacobian blow-up is detected on the gathered O(nnz) values
            // inside `factor_from`; the O(n²) dense scan is skipped.
            sp.factor_from(&ws.jacobian)?;
            if let Some(l) = laps {
                l.end_region(lap::FACTOR);
                l.bump(lap::FACTOR, 1, factor_work);
            }
            sp.solve_into(&ws.residual, &mut ws.delta)?;
        } else if !ws.jacobian.is_finite() {
            return Err(SpiceError::NumericalBlowup { time: f64::NAN });
        } else {
            let reuse = primed && iter == 1;
            let lu = match ws.lu.as_mut() {
                Some(lu) if reuse => lu,
                Some(lu) => {
                    lu.refactor(&ws.jacobian)?;
                    lu
                }
                None => ws.lu.insert(LuFactor::new(&ws.jacobian)?), // lint: allow(hot-path-certify, reason = "cold path: the factor is built once on the first solve; every later iteration takes the refactor arm")
            };
            if let (Some(l), false) = (laps, reuse) {
                l.end_region(lap::FACTOR);
                l.bump(lap::FACTOR, 1, factor_work);
            }
            lu.solve_into(&ws.residual, &mut ws.delta)?;
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
        match solve_in_place(ws, &start, &damped, &mut assemble) {
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
        let sol = solve(&x0, &opts, |x| {
            let f = Vector::from_slice(&[x[0] * x[0] - 4.0]);
            let j = Matrix::from_rows(&[&[2.0 * x[0]]]).unwrap();
            Ok((f, j))
        })
        .unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-8);
        assert!(sol.iterations <= 10);
    }

    #[test]
    fn solves_2d_nonlinear_system() {
        // x² + y² = 5, x·y = 2 → (2, 1) from a nearby start.
        let x0 = Vector::from_slice(&[2.5, 0.5]);
        let opts = NewtonOptions {
            max_step: f64::INFINITY,
            ..NewtonOptions::default()
        };
        let sol = solve(&x0, &opts, |x| {
            let f = Vector::from_slice(&[x[0] * x[0] + x[1] * x[1] - 5.0, x[0] * x[1] - 2.0]);
            let j = Matrix::from_rows(&[&[2.0 * x[0], 2.0 * x[1]], &[x[1], x[0]]]).unwrap();
            Ok((f, j))
        })
        .unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-8);
        assert!((sol.x[1] - 1.0).abs() < 1e-8);
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
        solve_in_place(&mut dense_ws, &x0, &opts, assemble).unwrap();

        let mut sparse_ws = NewtonWorkspace::new(n);
        sparse_ws.set_sparse_solver(Some(SparseJacSolver::new(&c, &params).unwrap()));
        assert!(sparse_ws.sparse_solver().is_some());
        solve_in_place(&mut sparse_ws, &x0, &opts, assemble).unwrap();

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
        let sol = solve(&x0, &opts, |x| {
            let f = Vector::from_slice(&[x[0]]);
            let j = Matrix::identity(1);
            Ok((f, j))
        })
        .unwrap();
        assert!(sol.x[0].abs() < 1e-6);
        // Pure linear problem with unit slope and damping 1.0 needs ~100 steps.
        assert!(sol.iterations >= 99);
    }

    #[test]
    fn reports_divergence() {
        // F(x) = 1 (no root): Newton cannot converge because J is tiny.
        let x0 = Vector::from_slice(&[0.0]);
        let opts = NewtonOptions {
            max_iters: 5,
            ..NewtonOptions::default()
        };
        let err = solve(&x0, &opts, |_x| {
            Ok((
                Vector::from_slice(&[1.0]),
                Matrix::from_rows(&[&[1e-3]]).unwrap(),
            ))
        })
        .unwrap_err();
        assert!(matches!(err, SpiceError::NewtonDiverged { .. }));
    }

    #[test]
    fn detects_nan_blowup() {
        let x0 = Vector::from_slice(&[1.0]);
        let err = solve(&x0, &NewtonOptions::default(), |_x| {
            Ok((Vector::from_slice(&[f64::NAN]), Matrix::identity(1)))
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
        let reference = solve(&x0, &opts, |x| {
            let f = Vector::from_slice(&[x[0] * x[0] + x[1] * x[1] - 5.0, x[0] * x[1] - 2.0]);
            let j = Matrix::from_rows(&[&[2.0 * x[0], 2.0 * x[1]], &[x[1], x[0]]]).unwrap();
            Ok((f, j))
        })
        .unwrap();

        let mut ws = NewtonWorkspace::new(2);
        let fill = |x: &Vector, f: &mut Vector, j: &mut Matrix| {
            f.as_mut_slice()[0] = x[0] * x[0] + x[1] * x[1] - 5.0;
            f.as_mut_slice()[1] = x[0] * x[1] - 2.0;
            j[(0, 0)] = 2.0 * x[0];
            j[(0, 1)] = 2.0 * x[1];
            j[(1, 0)] = x[1];
            j[(1, 1)] = x[0];
            Ok(())
        };
        // First solve may allocate (LU buffers are created lazily).
        let iters = solve_in_place(&mut ws, &x0, &opts, fill).unwrap();
        assert_eq!(iters, reference.iterations);
        assert_eq!(ws.x().as_slice(), reference.x.as_slice());

        // A second solve with warm buffers must not allocate a single matrix.
        let before = shc_linalg::matrix_allocations();
        solve_in_place(&mut ws, &x0, &opts, fill).unwrap();
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
        solve_in_place(ws, x0, opts, fill_2d)
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
        let iters = solve_in_place(&mut ws, &x0, &opts, fill_2d).unwrap();
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
        let err = solve_in_place(&mut ws, &x0, &opts, fill_2d).unwrap_err();
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

    #[test]
    fn jacobian_lu_is_reusable() {
        let x0 = Vector::from_slice(&[3.0]);
        let opts = NewtonOptions {
            max_step: f64::INFINITY,
            ..NewtonOptions::default()
        };
        let sol = solve(&x0, &opts, |x| {
            let f = Vector::from_slice(&[x[0] - 1.0]);
            let j = Matrix::from_rows(&[&[1.0]]).unwrap();
            Ok((f, j))
        })
        .unwrap();
        let y = sol.jacobian_lu.solve(&Vector::from_slice(&[5.0])).unwrap();
        assert_eq!(y[0], 5.0);
    }
}
