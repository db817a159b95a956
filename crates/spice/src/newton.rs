//! The crate's one damped Newton-Raphson loop, shared by DC and transient
//! analyses, and the workspace that owns its buffers and Jacobian factor.

use shc_linalg::{CsrMatrix, LuFactor, SparseLu, Vector};

use crate::stamp::Layout;
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

/// The Jacobian buffer of a [`NewtonWorkspace`] in its assembly layout
/// ([`crate::stamp`]) and its LU factor: the one factor of the Newton
/// iterations and of a transient's sensitivity solves. Dense, the buffer
/// is the factor's own storage, row-major: the Jacobian is assembled
/// into it and factored in place, so writing it ends the factor. Sparse,
/// it is the CSR values the sparse assembly stamps into, and the factor,
/// built on the first factorization, is refactored in place after it.
#[derive(Debug)]
#[allow(
    clippy::large_enum_variant,
    reason = "one per workspace, built once per analysis and never moved in a loop; boxing the sparse variant would only add an allocation"
)]
pub(crate) enum Factor {
    Dense(LuFactor),
    Sparse {
        jacobian: CsrMatrix,
        lu: Option<SparseLu>,
        /// Whether the next factorization pivots afresh on `lu`'s symbolic
        /// analysis instead of replaying its pivots ([`Factor::repivot`]).
        repivot: bool,
    },
}

impl Factor {
    /// The Jacobian buffer, one value per slot. Dense, handing it out ends
    /// the factor: no solve succeeds until the next factorization.
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        match self {
            Factor::Dense(lu) => lu.values_mut(),
            Factor::Sparse { jacobian, .. } => jacobian.values_mut(),
        }
    }

    /// Factors the Jacobian buffer in place: builds the sparse factor the
    /// first time and refactors it after that. A
    /// [`SpiceError::NumericalBlowup`] if the buffer holds a non-finite
    /// value.
    ///
    /// A dense factorization overwrites the buffer with the factors
    /// ([`LuFactor::factor_values`]): once it has run, successfully or
    /// not, the buffer holds no Jacobian, so every factorization needs a
    /// freshly assembled one. A sparse refactor replays the pivots of the
    /// last fresh factorization, or pivots afresh after
    /// [`Factor::repivot`].
    pub(crate) fn factorize(&mut self) -> Result<()> {
        let values = match self {
            Factor::Dense(lu) => lu.values(),
            Factor::Sparse { jacobian, .. } => jacobian.values(),
        };
        if !values.iter().all(|v| v.is_finite()) {
            return Err(SpiceError::NumericalBlowup { time: f64::NAN });
        }
        match self {
            Factor::Dense(lu) => lu.factor_values()?,
            Factor::Sparse {
                jacobian,
                lu: Some(lu),
                repivot,
            } => {
                if *repivot {
                    // lint: allow(hot-path-certify, reason = "cold path: a fresh pivoting runs once per run that follows its DC start's solves in the same workspace; every later iteration replays its pivots")
                    lu.factor(jacobian)?;
                    *repivot = false;
                } else {
                    lu.refactor(jacobian)?;
                }
            }
            Factor::Sparse { jacobian, lu, .. } => {
                // lint: allow(hot-path-certify, reason = "cold path: the first factorization performs the symbolic analysis (allocating, span-instrumented); every later iteration takes a refactor arm")
                *lu = Some(SparseLu::new(jacobian)?);
            }
        }
        Ok(())
    }

    /// Solves `J·x = b` with the factor.
    pub(crate) fn solve_into(&mut self, b: &Vector, x: &mut Vector) -> Result<()> {
        match self {
            Factor::Dense(lu) => lu.solve_into(b, x)?,
            Factor::Sparse { lu: Some(lu), .. } => lu.solve_into(b, x)?,
            Factor::Sparse { lu: None, .. } => return Err(solved_before_factoring()),
        }
        Ok(())
    }

    /// Whether a factor is in place to solve with: the dense one since its
    /// last successful factorization, the sparse one once built.
    fn ready(&self) -> bool {
        match self {
            Factor::Dense(lu) => lu.is_factored(),
            Factor::Sparse { lu, .. } => lu.is_some(),
        }
    }

    /// Makes the next sparse factorization pivot afresh, keeping the
    /// symbolic analysis: the pivots the factor holds are another solve's
    /// (a DC start's), and replaying them would move the results. A dense
    /// factor keeps no pivots.
    pub(crate) fn repivot(&mut self) {
        if let Factor::Sparse { repivot, .. } = self {
            *repivot = true;
        }
    }

    /// Whether the factor holds pivots that its next factorization
    /// replays: the sparse one, once built, until [`Factor::repivot`].
    pub(crate) fn keeps_pivots(&self) -> bool {
        matches!(
            self,
            Factor::Sparse {
                lu: Some(_),
                repivot: false,
                ..
            }
        )
    }
}

#[cfg(test)]
impl Factor {
    /// `out = A·v` for `A` given by its slot values `a`: per row, ascending
    /// columns accumulated from `+0.0`, skipping the zero values of `a`.
    /// For finite `v` that is bitwise the dense product: a skipped entry,
    /// structural or stored, would add only `±0` to a sum that starts at
    /// `+0.0` and so is never `-0.0`. The transient forms its products
    /// over a list of the nonzero slots instead
    /// (`crate::stamp::NonzeroSlots`), which keeps this order.
    pub(crate) fn mul_slots_into(&self, a: &[f64], v: &Vector, out: &mut Vector) {
        match self {
            Factor::Dense(lu) => {
                for (row, o) in a.chunks_exact(lu.dim()).zip(out.iter_mut()) {
                    *o = ordered_dot(row, 0..row.len(), v);
                }
            }
            Factor::Sparse { jacobian, .. } => {
                let (ptr, cols) = (jacobian.row_ptr(), jacobian.col_indices());
                for ((o, &lo), &hi) in out.iter_mut().zip(ptr).zip(&ptr[1..]) {
                    *o = ordered_dot(&a[lo..hi], cols[lo..hi].iter().copied(), v);
                }
            }
        }
    }
}

/// The error of a solve or primed iteration before any factorization.
fn solved_before_factoring() -> SpiceError {
    let reason = "jacobian solved before its first factorization";
    shc_linalg::LinalgError::InvalidInput { reason }.into()
}

/// `Σ_k a_k·v[col_k]` in order, from `+0.0`, over the nonzero `a_k`.
#[cfg(test)]
fn ordered_dot(a: &[f64], cols: impl Iterator<Item = usize>, v: &Vector) -> f64 {
    a.iter().zip(cols).fold(0.0, |acc, (&a, j)| {
        // lint: allow(float-eq, reason = "exact-zero skip: a zero entry adds only ±0 to the sum")
        if a == 0.0 {
            acc
        } else {
            acc + a * v[j]
        }
    })
}

/// Largest ratio of successive weighted update norms at which an armed
/// chord solve ([`NewtonWorkspace::chord`]) keeps its factor.
///
/// A chord iteration contracts linearly, by a ratio θ that grows with the
/// distance between the factored Jacobian and the one at the iterate.
/// While θ ≤ 1/2, the error left after an accepted update of weighted
/// norm ‖Δx‖ ≤ 1 is at most θ/(1−θ)·‖Δx‖ ≤ 1: inside the tolerance the
/// update test already enforces. After an update norm above this ratio
/// times the one before it, the next iteration refactors at its iterate.
/// Ratios of 0.2 and 0.9 read within 2% of this one on the benchmark's
/// contour and bank workloads (EXPERIMENTS.md, "Ablations"), so the
/// value is set by the error bound.
const CHORD_CONTRACTION: f64 = 0.5;

/// Reusable buffers for [`solve_in_place`].
///
/// A transient analysis performs one Newton solve per time step with a
/// fixed system dimension, and a DC operating point one per homotopy
/// step; allocating the iterate, update, residual, Jacobian and factor
/// once per *analysis* instead of once per *iteration* removes every
/// per-iteration heap allocation from the Newton path. Two flags, each
/// taken by the next solve, let it skip factorizations: a primed solve's
/// first iteration takes the factor in place
/// (`NewtonWorkspace::prime`), and an armed chord solve keeps one factor
/// over its later iterations (`NewtonWorkspace::chord`).
#[derive(Debug)]
pub struct NewtonWorkspace {
    x: Vector,
    delta: Vector,
    residual: Vector,
    factor: Factor,
    /// Whether the next solve's first iteration takes the factor as its
    /// own ([`NewtonWorkspace::prime`]).
    primed: bool,
    /// Whether the next solve runs chord iterations
    /// ([`NewtonWorkspace::chord`]).
    chord: bool,
    /// Iterations of the last solve that kept an earlier iteration's
    /// factor.
    chords: usize,
}

impl NewtonWorkspace {
    /// Creates a workspace for systems of dimension `n` (dense solves).
    pub fn new(n: usize) -> Self {
        NewtonWorkspace::with_factor(n, Factor::Dense(LuFactor::unfactored(n)))
    }

    /// Creates a workspace whose Jacobian and factor follow `layout`.
    pub(crate) fn for_layout(layout: &Layout) -> Result<Self> {
        Ok(match layout {
            Layout::Dense(n) => NewtonWorkspace::new(*n),
            Layout::Sparse(map) => {
                let factor = Factor::Sparse {
                    jacobian: map.csr()?,
                    lu: None,
                    repivot: false,
                };
                NewtonWorkspace::with_factor(map.dim(), factor)
            }
        })
    }

    fn with_factor(n: usize, factor: Factor) -> Self {
        let x = Vector::zeros(n);
        let (delta, residual) = (x.clone(), x.clone());
        NewtonWorkspace {
            x,
            delta,
            residual,
            factor,
            primed: false,
            chord: false,
            chords: 0,
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

    /// The Jacobian buffer and its factor, for building and factoring a
    /// Jacobian outside a solve — the sensitivity matrix at an accepted
    /// transient state — that the next solve may take as its first
    /// iteration's ([`NewtonWorkspace::prime`]).
    pub(crate) fn factor_mut(&mut self) -> &mut Factor {
        &mut self.factor
    }

    /// Lets the next solve's first iteration take the factor as the
    /// factor of the Jacobian it assembles instead of refactoring, on
    /// either backend; its assembly gets an empty Jacobian buffer. Sound
    /// only when that Jacobian is bitwise the factored one: the caller
    /// vouches for it. Every later iteration, and every retry, factors
    /// afresh.
    pub(crate) fn prime(&mut self) {
        self.primed = true;
    }

    /// Arms the next solve for chord iterations: after its first, each
    /// iteration keeps the factor in place unless the update norm before
    /// it exceeded `CHORD_CONTRACTION` times the one before that, and then
    /// refactors at its iterate. Its assembly gets an empty Jacobian
    /// buffer on every iteration that keeps the factor
    /// ([`solve_in_place`]). Retries, and every unarmed solve, run plain
    /// Newton.
    pub(crate) fn chord(&mut self) {
        self.chord = true;
    }

    /// Iterations of the last solve that solved with a factor an earlier
    /// iteration built: zero unless it was armed by
    /// [`NewtonWorkspace::chord`].
    pub(crate) fn chord_iterations(&self) -> usize {
        self.chords
    }
}

/// Solves `F(x) = 0` with damped Newton-Raphson in the buffers of a
/// [`NewtonWorkspace`].
///
/// `assemble` writes the residual `F(x)` and the Jacobian `∂F/∂x` at the
/// trial point into the provided buffers, every entry of both: they
/// arrive zeroed only on the first call, and a dense factorization
/// factors the Jacobian buffer in place, leaving it the factors.
/// The Jacobian buffer holds one value per slot of the workspace's
/// layout: row-major `n×n` on the dense path, the CSR values of the
/// resolved pattern on the sparse path. An iteration that factors
/// nothing — a primed first one, or a chord one — gets an empty Jacobian
/// buffer instead, and `assemble` must then skip the Jacobian.
/// Convergence is declared when the weighted update norm
/// `max_i |Δx_i| / (reltol·|x_i| + abstol)` drops to `≤ 1`; the converged
/// state is then in `ws.x()` and the iteration count is returned. Apart
/// from the first factorization of a workspace, no heap allocation occurs
/// inside the iteration loop. A primed workspace's first iteration takes
/// the factor already in place as its own (the transient primes it when
/// a step's first Jacobian is bitwise the one the previous step last
/// factored).
///
/// A solve armed by `NewtonWorkspace::chord` runs chord iterations:
/// iteration `k ≥ 2` solves with the factor in place, and refactors at
/// its iterate only when the update norm of iteration `k − 1` exceeds
/// `CHORD_CONTRACTION` (1/2) times that of iteration `k − 2`.
/// While updates contract by θ ≤ 1/2,
/// the accepted iterate's remaining error, at most θ/(1−θ)·‖Δx‖ in the
/// weighted norm, stays inside the tolerance the update test enforces;
/// results move from plain Newton's only within that tolerance. The DC
/// operating point and the retries run plain Newton.
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
    F: FnMut(&Vector, &mut Vector, &mut [f64]) -> Result<()>,
{
    // Taken before anything can fail, so no retry inherits them.
    let primed = std::mem::take(&mut ws.primed);
    let chord = std::mem::take(&mut ws.chord);
    ws.chords = 0;
    if let Some(e) = injected_fault() {
        return Err(e);
    }
    ws.x.copy_from(x0);
    // The weighted update norms of the last two iterations.
    let (mut last_norm, mut norm_before) = (f64::INFINITY, f64::INFINITY);
    // Work units for the linear-algebra lap slots: factor work follows
    // the backend (pattern nonzeros sparse, dimension dense).
    let solve_work = ws.dim() as u64;
    let factor_work = match &ws.factor {
        Factor::Dense(..) => solve_work,
        Factor::Sparse { jacobian, .. } => jacobian.nnz() as u64,
    };

    // Every iteration works in workspace buffers sized at construction;
    // the only allocation is the one-time factor below.
    // lint: hot-loop
    for iter in 1..=opts.max_iters {
        // A primed first iteration's Jacobian is bitwise the factored one;
        // a chord iteration keeps the factor while the update contracts.
        let factors = if iter == 1 {
            !primed
        } else {
            !chord || last_norm > CHORD_CONTRACTION * norm_before
        };
        // Every iteration that factors nothing gets an empty buffer: the
        // dense buffer is the factor's storage, which a write would end.
        let jacobian = if factors {
            ws.factor.values_mut()
        } else if ws.factor.ready() {
            &mut []
        } else {
            return Err(solved_before_factoring());
        };
        // lint: allow(hot-path-certify, reason = "closure parameter: name resolution cannot see through `F` and blames `Circuit::assemble`; the closure body's real effects are charged to the caller that defines it")
        assemble(&ws.x, &mut ws.residual, jacobian)?;
        if !ws.residual.is_finite() {
            return Err(SpiceError::NumericalBlowup { time: f64::NAN });
        }
        if factors {
            ws.factor.factorize()?;
            if let Some(l) = laps {
                l.end_region(lap::FACTOR);
                l.bump(lap::FACTOR, 1, factor_work);
            }
        } else if iter > 1 {
            ws.chords += 1;
        }
        ws.factor.solve_into(&ws.residual, &mut ws.delta)?;
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
        (norm_before, last_norm) = (last_norm, norm);
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
    F: FnMut(&Vector, &mut Vector, &mut [f64]) -> Result<()>,
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
            j[0] = 2.0 * x[0];
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
        use crate::stamp::Stamper;
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
        // Both layouts through the one slot-stamping path; only the DC
        // shunt-free `G` enters the Jacobian.
        let solve = |layout: Layout| {
            let mut ws = NewtonWorkspace::for_layout(&layout).unwrap();
            let mut q = Vector::zeros(n);
            solve_in_place(&mut ws, &x0, &opts, None, |x, f, j| {
                f.fill_zero();
                j.fill(0.0);
                let mut stamper = Stamper::in_layout(&layout, &mut q, f, None, j);
                c.stamp(&mut stamper, x, 0.0, &params, 1.0);
                Ok(())
            })
            .unwrap();
            ws
        };
        let dense_ws = solve(Layout::Dense(n));
        let sparse_ws = solve(Layout::Sparse(c.slot_map(&params)));
        assert!(matches!(sparse_ws.factor, Factor::Sparse { .. }));
        let diff = sparse_ws.x().sub(dense_ws.x()).norm_inf();
        assert!(diff < 1e-10, "sparse vs dense newton diverged: {diff:e}");
        // The ladder divides 1 V evenly: node s sits at (20 − s)/21 V.
        assert!((sparse_ws.x()[1] - 20.0 / 21.0).abs() < 1e-9);
    }

    /// An RC ladder behind a voltage source, for the layout tests below.
    fn rc_ladder(stages: usize) -> crate::Circuit {
        use crate::devices::{Capacitor, Resistor, VoltageSource};
        use crate::waveform::Waveform;
        let mut c = crate::Circuit::new();
        let mut prev = c.node("in");
        c.add(VoltageSource::new(
            "V1",
            prev,
            crate::Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        for s in 0..stages {
            let node = c.node(&format!("n{s}"));
            c.add(Resistor::new(&format!("R{s}"), prev, node, 1e3));
            c.add(Capacitor::new(
                &format!("C{s}"),
                node,
                crate::Circuit::GROUND,
                1e-12,
            ));
            prev = node;
        }
        c
    }

    /// `C·v` from slot values is bitwise the dense product on both
    /// layouts: the sensitivity right-hand side does not move with the
    /// backend.
    #[test]
    fn slot_products_are_bitwise_the_dense_product() {
        use crate::waveform::Params;
        let c = rc_ladder(12);
        let params = Params::default();
        let n = c.unknown_count();
        let x = Vector::from_slice(&(0..n).map(|i| 0.1 * i as f64 - 0.4).collect::<Vec<_>>());
        let v = Vector::from_slice(&(0..n).map(|i| (i as f64).sin()).collect::<Vec<_>>());
        let dense = c.assemble(&x, 1e-9, &params, 1.0);
        let expect = dense.c.mul_vec(&v);

        let (c_csr, _) = c.assemble_csr(&x, 1e-9, &params).unwrap();
        let mut out = Vector::zeros(n);
        let sparse_ws = NewtonWorkspace::for_layout(&Layout::Sparse(c.slot_map(&params))).unwrap();
        sparse_ws
            .factor
            .mul_slots_into(c_csr.values(), &v, &mut out);
        assert_eq!(out, expect);

        let dense_ws = NewtonWorkspace::new(n);
        dense_ws
            .factor
            .mul_slots_into(dense.c.as_slice(), &v, &mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn non_finite_jacobian_is_a_blowup_on_both_layouts() {
        use crate::waveform::Params;
        let c = rc_ladder(3);
        let n = c.unknown_count();
        let sparse = Layout::Sparse(c.slot_map(&Params::default()));
        for layout in [Layout::Dense(n), sparse] {
            let mut ws = NewtonWorkspace::for_layout(&layout).unwrap();
            let x0 = Vector::zeros(n);
            let err = solve_in_place(&mut ws, &x0, &NewtonOptions::default(), None, |_x, f, j| {
                f.fill_zero();
                j.fill(1.0);
                j[0] = f64::NAN;
                Ok(())
            })
            .unwrap_err();
            assert!(matches!(err, SpiceError::NumericalBlowup { .. }), "{err:?}");
        }
    }

    #[test]
    fn a_primed_workspace_without_a_factor_reports_it() {
        let mut ws = NewtonWorkspace::new(2);
        ws.prime();
        let err = solve_in_place(
            &mut ws,
            &Vector::from_slice(&[2.5, 0.5]),
            &NewtonOptions::default(),
            None,
            fill_2d,
        )
        .unwrap_err();
        assert!(matches!(err, SpiceError::Linalg(_)), "{err:?}");
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
            j[0] = 1.0;
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
            j[0] = 1e-3;
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
            j[0] = 1.0;
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

    /// The 2-D system below, its Jacobian row-major (the dense layout).
    fn fill_2d(x: &Vector, f: &mut Vector, j: &mut [f64]) -> Result<()> {
        f.as_mut_slice()[0] = x[0] * x[0] + x[1] * x[1] - 5.0;
        f.as_mut_slice()[1] = x[0] * x[1] - 2.0;
        j[0] = 2.0 * x[0];
        j[1] = 2.0 * x[1];
        j[2] = x[1];
        j[3] = x[0];
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
