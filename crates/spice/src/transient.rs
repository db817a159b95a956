//! Transient analysis with forward sensitivity propagation.
//!
//! Integrates the circuit DAE `d/dt q(x) + f(x, t) = 0` with fixed
//! Backward Euler steps. Alongside the state, it can propagate the forward
//! sensitivities `m_p(t) = ∂x/∂p` for the skew parameters, using the
//! Backward Euler recursion of the paper's eq. (11) (`C` is constant):
//!
//! ```text
//! (C + Δt·G_i) m_i = C m_{i−1} − Δt·(∂f/∂p)_i
//! ```
//!
//! The step Jacobian is factored once per accepted step and **reused** for
//! every sensitivity solve, so the 1×2 characterization Jacobian costs only
//! two extra back-substitutions per step — the paper's key efficiency
//! observation. Each accepted state is also stamped once: at the next
//! step's time, where its stamps — and, at an unchanged step size, that
//! factor — serve as the next step's first Newton iterate.
//!
//! A step's later Newton iterations are chord iterations: they solve with
//! the step's first factor while their updates contract, stamp only `q`
//! and `f`, and refactor at the iterate when an update stalls
//! ([`newton::solve_in_place`]). That first factor is `C + Δt·G` at the
//! previous state whether it was primed or built, so runs with and without
//! sensitivities, resumed and full, take the same iterates bit for bit.

use std::cell::Cell;
use std::mem;
use std::sync::{Mutex, OnceLock};

use shc_linalg::Vector;

use crate::circuit::Circuit;
use crate::dcop::{self, DcOptions};
use crate::newton::{self, NewtonOptions};
use crate::solver::SolverChoice;
use crate::stamp::{Layout, SlotMap, StateStamps, Trace};
use crate::waveform::{Param, Params};
use crate::{Result, SpiceError};

/// Jittered damped-Newton retries granted when a step diverges at the
/// `dt_min` floor (where there is no smaller step to cut to).
pub(crate) const NEWTON_FLOOR_RETRIES: usize = 2;

/// Same-`dt` retries granted per diverged step while a fault injector is
/// installed, *before* the step-cut policy engages.
///
/// An injected Newton fault draws a fresh decision on every solve, so a
/// same-`dt` retry usually clears it and the accepted step sequence — and
/// with it the trajectory the characterization corrector differentiates —
/// stays identical to the fault-free run. Cutting `dt` instead would
/// "recover" but perturb every downstream step, turning a transient fault
/// into a millivolt-scale bias on the measured state transition. Genuine
/// divergence is unaffected: retries exhaust quickly and the normal cut
/// policy below takes over. Sized so that at a 10% per-solve injection
/// rate the leak-through probability per step is ~1e-7.
pub(crate) const NEWTON_FAULT_RETRIES: usize = 6;

/// Re-runs a deterministic LU operation when a fault injector is active.
///
/// The sensitivity propagation after an accepted step factors and solves
/// outside the Newton loop, so injected LU faults there would kill the
/// whole run with no recovery rung. Each re-run draws a fresh fault
/// decision and recomputes from unchanged inputs, so absorption cannot
/// alter the result; without an injector the operation runs exactly once.
pub(crate) fn with_lu_fault_retries<T, E>(
    mut op: impl FnMut() -> std::result::Result<T, E>,
) -> std::result::Result<T, E> {
    let mut last = op();
    if shc_fault::enabled() {
        for _ in 0..NEWTON_FAULT_RETRIES {
            if last.is_ok() {
                break;
            }
            last = op();
        }
    }
    last
}

/// Relative slack for "is this step at the `dt_min` floor?" tests.
///
/// The effective step is `(t_prev + dt) - t_prev`, which re-rounds the
/// nominal `dt`; near large `t_prev` a floor-sized step can come back a
/// few ulps *above* `dt_min`, and an exact comparison then keeps cutting
/// to the same floor value forever instead of engaging the floor policy.
pub(crate) const DT_FLOOR_SLACK: f64 = 1.0 + 1e-9;

/// Relative endpoint slack for the outer time loop: integration stops
/// once `t_prev` is within this fraction of `tstop` (scaled by
/// `tstop.max(1.0)` so a zero-length window still terminates). Guards
/// against a final ulp-sized step that Newton would reject.
pub(crate) const TSTOP_ENDPOINT_SLACK: f64 = 1e-18;

/// Per-step lap slots (see `shc_prof::Laps`): the stepping loop is a
/// contiguous chain NEWTON → SENS → STEP_SELF, one clock read per
/// boundary, so the default profiling detail costs ~3 reads per step.
const LAP_NEWTON: usize = 0;
/// The sensitivity factor and solves; runs without sensitivities never
/// enter it. Stamping the accepted state they read is charged to
/// [`LAP_NEWTON`] and to the device-evaluation and stamp iteration laps:
/// it is the next step's first Newton iterate.
const LAP_SENS: usize = 1;
/// Stamp rotation and result recording; never flushed — it remains the
/// `Transient` frame's own self-time.
const LAP_STEP_SELF: usize = 2;

/// Flushes the per-run lap accumulators into the profile tree, exactly
/// once, when the run exits — on success, on error returns, and on
/// fault-injected aborts alike. Lives inside the open
/// `shc_prof::Phase::Transient` frame so every recorded path lands under
/// it.
struct ProfFlush<'l> {
    step: &'l shc_prof::Laps,
    iter: &'l shc_prof::Laps,
    sparse: bool,
}

impl Drop for ProfFlush<'_> {
    fn drop(&mut self) {
        if !(self.step.active() || self.iter.active()) {
            return;
        }
        use crate::newton::lap;
        use shc_prof::{record, Phase, Sample};
        let dev = self.iter.sample(lap::DEV);
        let stamp = self.iter.sample(lap::STAMP);
        let factor = self.iter.sample(lap::FACTOR);
        let solve = self.iter.sample(lap::SOLVE);
        // The iteration slots carry exact counts at every detail level
        // and ticks only at `Detail::Iter`; phase names follow the
        // solver backend.
        let (dev_phase, factor_phase, solve_phase) = if self.sparse {
            (
                Phase::AssembleSparse,
                Phase::SparseRefactor,
                Phase::SparseSolve,
            )
        } else {
            (Phase::DeviceEval, Phase::LuRefactor, Phase::LuSolve)
        };
        record(&[Phase::NewtonOverhead, dev_phase], dev);
        record(&[Phase::NewtonOverhead, Phase::Stamp], stamp);
        record(&[Phase::NewtonOverhead, factor_phase], factor);
        record(&[Phase::NewtonOverhead, solve_phase], solve);
        // Newton self-time is the per-step lap total minus the four
        // iteration regions; at `Detail::Step` those are zero and the
        // whole solve is Newton self.
        let newton = self.step.sample(LAP_NEWTON);
        let children = dev.ticks + stamp.ticks + factor.ticks + solve.ticks;
        record(
            &[Phase::NewtonOverhead],
            Sample {
                ticks: newton.ticks.saturating_sub(children),
                ..newton
            },
        );
        record(&[Phase::SensSolve], self.step.sample(LAP_SENS));
    }
}

/// Time-integration method: Backward Euler, the only one. Retained, with
/// [`TransientOptionsBuilder::integrator`], for the benchmark of record
/// until it drops its pass-through (ROADMAP item 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Backward Euler: L-stable, first order — robust for stiff latch
    /// circuits.
    #[default]
    BackwardEuler,
}

/// What state history to retain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordMode {
    /// Keep every state vector (small circuits only).
    #[default]
    Full,
    /// Keep only one unknown's trajectory.
    Probe(usize),
    /// Keep nothing but the final state and the final time: no history,
    /// so a run resumed from a prefix ladder copies no prefix.
    FinalOnly,
}

/// How the initial condition is obtained.
#[derive(Debug, Clone, Default)]
pub enum InitialCondition {
    /// Solve the DC operating point at `t = 0` (the default).
    #[default]
    DcOperatingPoint,
    /// Start from the given state vector.
    Given(Vector),
}

/// Transient analysis options. Build with [`TransientOptions::builder`].
#[derive(Debug, Clone)]
pub struct TransientOptions {
    /// Stop time in seconds.
    pub tstop: f64,
    /// Time step in seconds.
    pub dt: f64,
    /// Floor of the Newton step-cut policy: a step that diverges at this
    /// size gets damped retries instead of a further cut.
    pub dt_min: f64,
    /// Newton settings per time step.
    pub newton: NewtonOptions,
    /// DC operating-point settings (for the initial condition).
    pub dc: DcOptions,
    /// Parameters whose sensitivities `∂x/∂p` to propagate.
    pub sensitivities: Vec<Param>,
    /// History retention.
    pub record: RecordMode,
    /// Initial condition.
    pub initial: InitialCondition,
    /// Linear-solver backend for the per-step Newton solves (and, via
    /// [`DcOptions::solver`], the DC operating point).
    pub solver: SolverChoice,
}

impl TransientOptions {
    /// Starts a builder with the mandatory stop time.
    pub fn builder(tstop: f64) -> TransientOptionsBuilder {
        TransientOptionsBuilder {
            opts: TransientOptions {
                tstop,
                dt: tstop / 1000.0,
                dt_min: tstop * 1e-9,
                newton: NewtonOptions::default(),
                dc: DcOptions::default(),
                sensitivities: Vec::new(),
                record: RecordMode::default(),
                initial: InitialCondition::default(),
                solver: SolverChoice::Auto,
            },
        }
    }
}

/// Builder for [`TransientOptions`].
#[derive(Debug, Clone)]
pub struct TransientOptionsBuilder {
    opts: TransientOptions,
}

impl TransientOptionsBuilder {
    /// Sets the time step.
    pub fn dt(mut self, dt: f64) -> Self {
        self.opts.dt = dt;
        self
    }

    /// Does nothing: Backward Euler is the only method. Retained for the
    /// benchmark of record until ROADMAP item 3.
    pub fn integrator(self, _method: Integrator) -> Self {
        self
    }

    /// Requests sensitivity propagation for the given parameters.
    pub fn sensitivities(mut self, params: &[Param]) -> Self {
        self.opts.sensitivities = params.to_vec();
        self
    }

    /// Sets the history retention mode.
    pub fn record(mut self, mode: RecordMode) -> Self {
        self.opts.record = mode;
        self
    }

    /// Sets the initial condition.
    pub fn initial(mut self, ic: InitialCondition) -> Self {
        self.opts.initial = ic;
        self
    }

    /// Overrides the per-step Newton options.
    pub fn newton(mut self, newton: NewtonOptions) -> Self {
        self.opts.newton = newton;
        self
    }

    /// Selects the linear-solver backend for both the transient Newton
    /// solves and the DC operating point.
    pub fn solver(mut self, solver: SolverChoice) -> Self {
        self.opts.solver = solver;
        self.opts.dc.solver = solver;
        self
    }

    /// Finalizes the options. A `tstop` or `dt` that is not positive and
    /// finite is reported when the analysis runs.
    pub fn build(self) -> TransientOptions {
        self.opts
    }
}

/// Counters describing the work a transient run performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransientStats {
    /// Accepted time steps.
    pub steps: usize,
    /// Total Newton iterations across all steps.
    pub newton_iterations: usize,
    /// Steps rejected by the Newton step-cut policy: each divergence
    /// above `dt_min` quarters the step and counts once.
    pub rejected_steps: usize,
}

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    states: Vec<Vector>,
    probe: Vec<f64>,
    probe_index: Option<usize>,
    final_state: Vector,
    final_sensitivities: Vec<(Param, Vector)>,
    stats: TransientStats,
}

impl TransientResult {
    /// Accepted time points: every one from `t = 0` in
    /// [`RecordMode::Full`] and [`RecordMode::Probe`]; in
    /// [`RecordMode::FinalOnly`] the final time alone.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Full state history (empty unless [`RecordMode::Full`]).
    pub fn states(&self) -> &[Vector] {
        &self.states
    }

    /// The state at `tstop`.
    pub fn final_state(&self) -> &Vector {
        &self.final_state
    }

    /// Final sensitivity `∂x/∂p (tstop)` for a propagated parameter.
    pub fn final_sensitivity(&self, param: Param) -> Option<&Vector> {
        self.final_sensitivities
            .iter()
            .find(|(p, _)| *p == param)
            .map(|(_, v)| v)
    }

    /// Work counters.
    pub fn stats(&self) -> &TransientStats {
        &self.stats
    }

    /// The trajectory of one unknown.
    ///
    /// Works in [`RecordMode::Full`] (any index) and [`RecordMode::Probe`]
    /// (the probed index); returns `None` otherwise.
    pub fn trajectory(&self, unknown: usize) -> Option<Vec<f64>> {
        self.series(unknown).map(|s| s.into_owned())
    }

    /// Borrowing access to a trajectory: the probe series is returned
    /// without copying; full-record series are extracted column-wise.
    fn series(&self, unknown: usize) -> Option<std::borrow::Cow<'_, [f64]>> {
        if let Some(p) = self.probe_index {
            if p == unknown {
                return Some(std::borrow::Cow::Borrowed(&self.probe));
            }
        }
        if !self.states.is_empty() {
            return Some(std::borrow::Cow::Owned(
                self.states.iter().map(|x| x[unknown]).collect(),
            ));
        }
        None
    }

    /// Linearly interpolates one unknown's value at time `t`.
    ///
    /// Returns `None` if the trajectory is unavailable or `t` is outside the
    /// simulated range.
    pub fn value_at(&self, unknown: usize, t: f64) -> Option<f64> {
        let traj = self.series(unknown)?;
        let times = &self.times;
        if times.is_empty() || t < times[0] || t > *times.last()? {
            return None;
        }
        let idx = times.partition_point(|&ti| ti < t);
        if idx == 0 {
            return Some(traj[0]);
        }
        let (t0, t1) = (times[idx - 1], times[idx.min(times.len() - 1)]);
        let (v0, v1) = (traj[idx - 1], traj[idx.min(traj.len() - 1)]);
        if t1 == t0 {
            return Some(v1);
        }
        Some(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
    }

    /// First time after `t_after` at which the unknown crosses `level` in
    /// the given direction, found by linear interpolation.
    pub fn crossing_time(
        &self,
        unknown: usize,
        level: f64,
        t_after: f64,
        direction: CrossingDirection,
    ) -> Option<f64> {
        let traj = self.series(unknown)?;
        let crossing = Crossing {
            level,
            t_after,
            direction,
        };
        for i in 1..self.times.len() {
            let (v0, v1) = (traj[i - 1], traj[i]);
            if crossing.hit(self.times[i], v0, v1) {
                let (t0, t1) = (self.times[i - 1], self.times[i]);
                let frac = if v1 == v0 {
                    0.0
                } else {
                    (level - v0) / (v1 - v0)
                };
                return Some(t0 + frac * (t1 - t0));
            }
        }
        None
    }
}

/// Direction selector for [`TransientResult::crossing_time`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossingDirection {
    /// Upward crossing.
    Rising,
    /// Downward crossing.
    Falling,
    /// Either direction.
    Any,
}

/// A crossing through `level` in `direction` after `t_after`: what
/// [`TransientResult::crossing_time`] measures and
/// [`TransientAnalysis::stop_at_crossing`] stops at, by one predicate.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    level: f64,
    t_after: f64,
    direction: CrossingDirection,
}

impl Crossing {
    /// Whether the accepted step that ends at `t` and takes the unknown
    /// from `v0` to `v1` makes the crossing.
    fn hit(&self, t: f64, v0: f64, v1: f64) -> bool {
        let rising = v0 < self.level && v1 >= self.level;
        let falling = v0 > self.level && v1 <= self.level;
        t > self.t_after
            && match self.direction {
                CrossingDirection::Rising => rising,
                CrossingDirection::Falling => falling,
                CrossingDirection::Any => rising || falling,
            }
    }
}

/// Work a run's accepted steps reused instead of redoing it, flushed to
/// telemetry with the run's other counters.
#[derive(Debug, Default)]
struct Reused {
    /// Steps whose first Newton iterate took the accepted state's stamps.
    stamps: u64,
    /// Of those, the ones whose first iterate took its factor too.
    factors: u64,
    /// Newton iterations after a step's first that solved with a factor
    /// an earlier iteration of the step built (chord iterations).
    chords: u64,
}

/// The scalars of the stepping loop's carried state after an accepted
/// step (or at the DC start, step 0).
#[derive(Debug, Clone, Copy)]
struct Mark {
    t: f64,
    /// The step size the next attempt will use.
    dt: f64,
    stats: TransientStats,
    /// Latest time any assembly touched up to this step, rejected Newton
    /// attempts included. Never below `t`.
    reach: f64,
}

/// Where a run starts stepping: the carried state, copied bit for bit.
struct Start {
    mark: Mark,
    x: Vector,
    /// One per parameter of the run's options.
    sens: Vec<Vector>,
}

/// Where the stepping loop under `opts` stops: a step starts only below
/// this time.
fn loop_end(opts: &TransientOptions) -> f64 {
    opts.tstop - TSTOP_ENDPOINT_SLACK * opts.tstop.max(1.0)
}

/// The time before which no skew-dependent source of `circuit` moves at
/// skews `at`: the earlier of the two data ramps' starts
/// ([`ramp_start`]), before which every `∂u/∂p` is exactly zero.
fn quiet_until(circuit: &Circuit, at: &Params) -> f64 {
    ramp_start(circuit, at, Param::Setup).min(ramp_start(circuit, at, Param::Hold))
}

/// The time before which no source of `circuit` depends on `param` at
/// skews `at`: the start of that parameter's data ramp — the leading one
/// for [`Param::Setup`], the trailing one for [`Param::Hold`]. Before it,
/// `∂u/∂p` is exactly zero, and a run at `at` agrees with one whose
/// `param` moves that ramp later ([`Circuit::agreement_horizon`]);
/// non-finite skews claim nothing.
fn ramp_start(circuit: &Circuit, at: &Params, param: Param) -> f64 {
    if !(at.tau_s.is_finite() && at.tau_h.is_finite()) {
        return 0.0;
    }
    let later = match param {
        Param::Setup => Params::new(at.tau_s.next_down(), at.tau_h),
        Param::Hold => Params::new(at.tau_s, at.tau_h.next_up()),
    };
    circuit.agreement_horizon(at, &later)
}

/// Checkpoints captured during one run, stored flat: `states` holds each
/// mark's `x`. A mark is kept only while its `reach` lies in
/// `[from, below)` and, for a `clean` capture, while no step has been
/// rejected.
struct Capture {
    from: f64,
    below: f64,
    clean: bool,
    marks: Vec<Mark>,
    states: Vec<f64>,
}

impl Capture {
    fn new(below: f64, clean: bool) -> Self {
        Capture::window(f64::NEG_INFINITY, below, clean)
    }

    fn window(from: f64, below: f64, clean: bool) -> Self {
        Capture {
            from,
            below,
            clean,
            marks: Vec::new(),
            states: Vec::new(),
        }
    }

    fn push(&mut self, mark: Mark, x: &Vector) {
        let kept = self.from <= mark.reach && mark.reach < self.below;
        if kept && !(self.clean && mark.stats.rejected_steps > 0) {
            self.marks.push(mark);
            self.states.extend_from_slice(x.as_slice());
        }
    }
}

/// Accepted steps between two checkpoints of a [`PrefixLadder`]: a seed
/// cell's ladder stays near 15 KB, and a resumed run recomputes at most
/// this many steps it could have adopted.
const LADDER_STRIDE: usize = 16;

/// How far below the start of its trailing ramp, beyond one
/// [`LADDER_STRIDE`] of steps, a sibling run keeps rungs
/// ([`TransientAnalysis::with_siblings`]): the longest hold-skew move
/// between chained runs that resume from each other. The
/// characterization corrector caps a Newton step in τh at 100 ps, so its
/// next run's trailing ramp starts at most that much earlier, and the
/// extra stride keeps a rung below it. Older rungs would only grow the
/// chain's memory.
/// unit: s
const SIBLING_WINDOW: f64 = 100e-12;

/// A prefix ladder: state checkpoints of one reference transient at fixed
/// skews, from which later runs of the same analysis at other skews
/// resume ([`TransientAnalysis::with_ladder`]).
///
/// A run at skews `p` may adopt any checkpoint whose `reach` — the latest
/// time any of the reference run's assemblies touched up to it — lies
/// strictly below the agreement horizon of the two skews
/// ([`Circuit::agreement_horizon`]): until then both runs evaluate
/// bitwise-identical device stamps, so they perform the same steps on the
/// same state. Checkpoints stop before the reference's first data ramp
/// starts, where every skew sensitivity is still exactly zero, so they
/// keep states only. A ladder starts empty ([`PrefixLadder::default`]);
/// the first run that may resume from it builds it, once, even when
/// threads share it — from the checkpoints a seeding run left
/// ([`TransientAnalysis::seeding`]) when they fit. Until then it is two
/// locks.
#[derive(Default)]
pub struct PrefixLadder {
    rungs: OnceLock<Option<Box<Rungs>>>,
    /// A seeding run's checkpoints, until the build takes them.
    seed: Mutex<Option<Box<Rungs>>>,
}

/// The checkpoints of a [`PrefixLadder`] or of its seed: one at the DC
/// start and one every [`LADDER_STRIDE`] accepted steps. They keep no
/// accepted times: the runs that resume from them record the final
/// state and time only ([`RecordMode::FinalOnly`]).
struct Rungs {
    /// The skews of the run that computed them.
    reference: Params,
    /// That run's options, without sensitivities.
    opts: TransientOptions,
    /// Circuit dimension: each mark owns `n` states.
    n: usize,
    marks: Vec<Mark>,
    states: Vec<f64>,
}

impl std::fmt::Debug for PrefixLadder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixLadder")
            .field("built", &self.is_built())
            .finish_non_exhaustive()
    }
}

impl PrefixLadder {
    /// Whether the reference run has happened (successfully or not).
    pub fn is_built(&self) -> bool {
        self.rungs.get().is_some()
    }
}

/// States-only checkpoints that one run of a sweep leaves for the next
/// ([`TransientAnalysis::with_siblings`]): sibling rungs. A run keeps them
/// past its leading data ramp, up to where its trailing ramp starts, so a
/// later run at the same setup skew and a later hold skew adopts the
/// latest one below the two runs' agreement horizon — most of its
/// prefix. Empty by default, and at most one run's worth. Not `Sync`:
/// one per thread, like the sweep row it serves.
#[derive(Default)]
pub struct SiblingRungs {
    rungs: Cell<Option<Rungs>>,
}

impl std::fmt::Debug for SiblingRungs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiblingRungs").finish_non_exhaustive()
    }
}

impl Rungs {
    /// The checkpoints `capture` kept of a run at `reference` under `opts`;
    /// `None` if it kept none.
    fn new(
        reference: Params,
        opts: &TransientOptions,
        n: usize,
        capture: Capture,
    ) -> Option<Rungs> {
        let Capture {
            mut marks,
            mut states,
            ..
        } = capture;
        if marks.is_empty() {
            return None;
        }
        // The ladder lives as long as its owner: keep no growth slack.
        marks.shrink_to_fit();
        states.shrink_to_fit();
        Some(Rungs {
            reference,
            opts: TransientOptions {
                sensitivities: Vec::new(),
                ..opts.clone()
            },
            n,
            marks,
            states,
        })
    }

    /// Whether a run under `opts` on an `n`-unknown circuit takes the steps
    /// these checkpoints' run took, for as long as neither run rejects a
    /// step or nears its stop time: same dimension, step, Newton and DC
    /// settings, and solver.
    fn seeds(&self, opts: &TransientOptions, n: usize) -> bool {
        let o = &self.opts;
        self.n == n
            && o.dt.to_bits() == opts.dt.to_bits()
            && o.newton == opts.newton
            && o.dc == opts.dc
            && o.solver == opts.solver
    }

    /// Whether a run under `opts` on an `n`-unknown circuit steps exactly
    /// as the reference run did: [`Rungs::seeds`], plus the same stop time
    /// and step floor.
    fn fits(&self, opts: &TransientOptions, n: usize) -> bool {
        self.seeds(opts, n)
            && self.opts.tstop.to_bits() == opts.tstop.to_bits()
            && self.opts.dt_min.to_bits() == opts.dt_min.to_bits()
    }

    // lint: trunk-fence
    /// Adopts the latest checkpoint whose `reach` lies strictly below
    /// `horizon`, with `sens` zero sensitivities; `None` when even the DC
    /// start touched the horizon. Everything adopted was computed before
    /// the horizon, so the state is copied verbatim, and every sensitivity
    /// was exactly zero there. The run still has a step to take from it:
    /// the capture kept only checkpoints with `reach` below the loop's end
    /// ([`Capture`]), so the final mark is never a rung. That step turns
    /// the zeros' signs into the full run's: the recursion reads the
    /// previous sensitivities only through `C·m`, summed from `+0.0`.
    fn adopt(&self, horizon: f64, sens: usize) -> Option<Start> {
        // `reach` never decreases along the ladder.
        let k = self
            .marks
            .partition_point(|m| m.reach < horizon)
            .checked_sub(1)?;
        let mark = self.marks[k];
        let n = self.n;
        Some(Start {
            mark,
            x: Vector::from_slice(&self.states[k * n..(k + 1) * n]),
            sens: (0..sens).map(|_| Vector::zeros(n)).collect(),
        })
    }

    // lint: trunk-fence
    /// Hands these checkpoints to the run that extends them — a seed to the
    /// ladder's reference run, or a sibling's rungs to the next sibling:
    /// those whose `reach` lies strictly below `horizon` and at or above
    /// `capture`'s lower bound move into `capture`, except the latest below
    /// `horizon`, which becomes the run's start, with `sens` zero
    /// sensitivities (the run captures its start itself). `None` when even
    /// the first checkpoint touched the horizon. Everything handed on was
    /// computed before the horizon, so it is kept verbatim, and every
    /// sensitivity was exactly zero there ([`Rungs::adopt`]).
    fn extend_into(self, horizon: f64, sens: usize, capture: &mut Capture) -> Option<Start> {
        // `reach` never decreases along the seed.
        let k = self
            .marks
            .partition_point(|m| m.reach < horizon)
            .checked_sub(1)?;
        let Rungs {
            n,
            mut marks,
            mut states,
            ..
        } = self;
        let mark = marks[k];
        let x = Vector::from_slice(&states[k * n..(k + 1) * n]);
        let first = marks[..k].partition_point(|m| m.reach < capture.from);
        marks.truncate(k);
        states.truncate(k * n);
        marks.drain(..first);
        states.drain(..first * n);
        capture.marks = marks;
        capture.states = states;
        Some(Start {
            mark,
            x,
            sens: (0..sens).map(|_| Vector::zeros(n)).collect(),
        })
    }
}

/// A configured transient analysis, ready to run for any skew values.
#[derive(Debug)]
pub struct TransientAnalysis<'a> {
    circuit: &'a Circuit,
    opts: TransientOptions,
    ladder: Option<(&'a PrefixLadder, Params)>,
    seed: Option<&'a PrefixLadder>,
    siblings: Option<&'a SiblingRungs>,
    stop: Option<(usize, Crossing)>,
}

impl<'a> TransientAnalysis<'a> {
    /// Binds options to a circuit.
    pub fn new(circuit: &'a Circuit, opts: TransientOptions) -> Self {
        TransientAnalysis {
            circuit,
            opts,
            ladder: None,
            seed: None,
            siblings: None,
            stop: None,
        }
    }

    /// Resumes every run that may — final-only recording, a DC start,
    /// dense solves, no fault injector — from `ladder`, skipping the DC
    /// solve and every step before the latest checkpoint below the run's
    /// agreement horizon. The first such
    /// run builds the ladder with one reference transient of this circuit
    /// at skews `reference` under these options, without sensitivities,
    /// keeping checkpoints until the reference's first data ramp starts;
    /// later runs keep the skews it was built at.
    ///
    /// Results stay bitwise identical to a run from the DC start — state,
    /// sensitivities, stats and final time — as long as `ladder` only ever
    /// serves analyses of one circuit. Analyses whose options step
    /// differently from the reference run's run from the DC start.
    pub fn with_ladder(mut self, ladder: &'a PrefixLadder, reference: Params) -> Self {
        self.ladder = Some((ladder, reference));
        self
    }

    /// Seeds `ladder` from runs of this analysis that start at DC under
    /// dense solves and no fault injector, whatever they record: each
    /// keeps its checkpoints until its first data ramp starts or a step is
    /// rejected. The reference run that builds `ladder`
    /// ([`TransientAnalysis::with_ladder`]) then resumes from the latest
    /// seeded checkpoint below the two skews' agreement horizon, if its
    /// options differ from these at most in stop time, step floor,
    /// sensitivities and recording; results stay bitwise identical. A
    /// built ladder takes no seed.
    pub fn seeding(mut self, ladder: &'a PrefixLadder) -> Self {
        self.seed = Some(ladder);
        self
    }

    /// Chains the runs of this analysis through `siblings`. Each run
    /// starts from the latest checkpoint the run before it left whose
    /// `reach` lies strictly below the agreement horizon of the two runs'
    /// skews, and only without one from the prefix ladder
    /// ([`Self::with_ladder`]). It then leaves the earlier run's
    /// checkpoints below its start and its own, from a little below where
    /// its trailing data ramp starts up to there. Runs at one setup skew
    /// share everything before the earlier of their trailing ramps, in
    /// whatever order their hold skews come.
    ///
    /// Sibling rungs keep states only. A run with sensitivities adopts one
    /// only below the start of each requested parameter's data ramp — the
    /// leading ramp for [`Param::Setup`], the trailing one for
    /// [`Param::Hold`] — where that sensitivity is still exactly zero. A
    /// run that may not resume from a ladder at all (final-only recording,
    /// a DC start, dense solves, no fault injector) neither adopts nor
    /// leaves any, and empties `siblings`. Results stay bitwise identical
    /// to a run from the DC start, as long as `siblings` only ever serves
    /// analyses of one circuit.
    pub fn with_siblings(mut self, siblings: &'a SiblingRungs) -> Self {
        self.siblings = Some(siblings);
        self
    }

    /// Ends every run at the first accepted step after `t_after` at which
    /// `unknown` crosses `level` in `direction`: the crossing
    /// [`TransientResult::crossing_time`] finds first, decided by the same
    /// predicate, so measuring it on the shortened run gives the same
    /// time. Everything up to that step stays bitwise identical to a run
    /// to `tstop`; a run that never crosses runs to `tstop`.
    ///
    /// # Panics
    ///
    /// Runs panic if `unknown` is not an unknown of the circuit.
    pub fn stop_at_crossing(
        mut self,
        unknown: usize,
        level: f64,
        t_after: f64,
        direction: CrossingDirection,
    ) -> Self {
        let crossing = Crossing {
            level,
            t_after,
            direction,
        };
        self.stop = Some((unknown, crossing));
        self
    }

    /// The options in effect.
    pub fn options(&self) -> &TransientOptions {
        &self.opts
    }

    /// Runs the transient for the given skew parameters.
    ///
    /// Allocates a fresh [`TransientScratch`] for the run; callers that
    /// perform many runs on the same circuit (characterization sweeps)
    /// should hold one scratch per thread and use
    /// [`TransientAnalysis::run_with_scratch`] instead.
    ///
    /// # Errors
    ///
    /// Propagates DC, Newton, and step-control failures.
    pub fn run(&self, params: &Params) -> Result<TransientResult> {
        let mut scratch = TransientScratch::new(self.circuit.unknown_count());
        self.run_with_scratch(params, &mut scratch)
    }

    /// Runs the transient reusing a caller-owned workspace.
    ///
    /// After the scratch buffers are warm (one prior step anywhere in the
    /// scratch's lifetime), the stepping loop performs no matrix
    /// allocation: Newton residual/Jacobian/LU, the per-step stamps, and
    /// every sensitivity temporary live in `scratch`. The scratch is
    /// resized automatically if the circuit dimension changed.
    ///
    /// # Errors
    ///
    /// [`SpiceError::BadCircuit`] if `tstop` or `dt` is not positive and
    /// finite; otherwise propagates DC, Newton, and step-control failures.
    pub fn run_with_scratch(
        &self,
        params: &Params,
        scratch: &mut TransientScratch,
    ) -> Result<TransientResult> {
        let o = &self.opts;
        let span_ok = o.tstop.is_finite() && o.tstop > 0.0 && o.dt.is_finite() && o.dt > 0.0;
        if !span_ok {
            return Err(SpiceError::BadCircuit {
                reason: format!(
                    "transient tstop ({:e} s) and dt ({:e} s) must be positive and finite",
                    o.tstop, o.dt
                ),
            });
        }
        match self.siblings {
            Some(siblings) => self.run_sibling(params, scratch, siblings),
            None => self.run_unchained(params, scratch),
        }
    }

    /// A run that neither adopts nor leaves sibling rungs.
    fn run_unchained(
        &self,
        params: &Params,
        scratch: &mut TransientScratch,
    ) -> Result<TransientResult> {
        let start = self.resume_point(params);
        match self
            .seed
            .filter(|ladder| start.is_none() && !ladder.is_built() && self.ladder_capable())
        {
            Some(ladder) => self.run_seeding(params, scratch, ladder),
            None => self.run_from(params, scratch, start, None),
        }
    }

    /// A run through [`Self::with_siblings`]: from the latest of
    /// `siblings`' checkpoints below the two runs' agreement horizon and
    /// below the ramp start of each requested sensitivity, or else from the
    /// prefix ladder. It leaves in `siblings` the earlier run's checkpoints
    /// below its start and its own, within [`SIBLING_WINDOW`] and one
    /// stride below where its trailing data ramp starts.
    fn run_sibling(
        &self,
        params: &Params,
        scratch: &mut TransientScratch,
        siblings: &SiblingRungs,
    ) -> Result<TransientResult> {
        let prior = siblings.rungs.take();
        if !self.prefix_resumable() {
            return self.run_unchained(params, scratch);
        }
        let circuit = self.circuit;
        let n = circuit.unknown_count();
        let trail = ramp_start(circuit, params, Param::Hold).min(loop_end(&self.opts));
        let window = SIBLING_WINDOW + LADDER_STRIDE as f64 * self.opts.dt;
        let mut capture = Capture::window(trail - window, trail, false);
        // Rungs keep states only: below each requested parameter's ramp
        // its sensitivity is still exactly zero.
        let zero_until = self
            .opts
            .sensitivities
            .iter()
            .map(|&p| ramp_start(circuit, params, p))
            .fold(f64::INFINITY, f64::min);
        let start = prior
            .filter(|rungs| rungs.fits(&self.opts, n))
            .and_then(|rungs| {
                let horizon = circuit.agreement_horizon(&rungs.reference, params);
                let sens = self.opts.sensitivities.len();
                rungs.extend_into(horizon.min(zero_until), sens, &mut capture)
            })
            .or_else(|| self.resume_point(params));
        let res = self.run_from(params, scratch, start, Some(&mut capture))?;
        siblings
            .rungs
            .set(Rungs::new(*params, &self.opts, n, capture));
        Ok(res)
    }

    /// Whether runs of this analysis step as a [`PrefixLadder`]'s
    /// checkpoints need: a DC start, dense solves (a sparse refactor
    /// replays the pivots of an earlier factorization, so a resumed factor
    /// could differ), and no fault injector (sharing work would change the
    /// draw cadence).
    fn ladder_capable(&self) -> bool {
        let o = &self.opts;
        matches!(o.initial, InitialCondition::DcOperatingPoint)
            && !o.solver.wants_sparse(self.circuit.unknown_count())
            && !shc_fault::enabled()
    }

    /// Whether a run of this analysis may start from a [`PrefixLadder`]
    /// checkpoint: [`Self::ladder_capable`], recording the final state only.
    fn prefix_resumable(&self) -> bool {
        matches!(self.opts.record, RecordMode::FinalOnly) && self.ladder_capable()
    }

    /// The checkpoint a run at `params` resumes from, building the ladder
    /// first if this is its first eligible run.
    fn resume_point(&self, params: &Params) -> Option<Start> {
        let (ladder, reference) = self.ladder?;
        if !self.prefix_resumable() {
            return None;
        }
        let rungs = ladder
            .rungs
            .get_or_init(|| self.capture(ladder, reference).map(Box::new))
            .as_ref()?;
        if !rungs.fits(&self.opts, self.circuit.unknown_count()) {
            return None;
        }
        let horizon = self.circuit.agreement_horizon(&rungs.reference, params);
        rungs.adopt(horizon, self.opts.sensitivities.len())
    }

    /// The reference run of `ladder` at skews `reference`, without
    /// sensitivities, resumed from the ladder's seed when that fits. It
    /// counts as one transient run, under a calibration span; `None` if it
    /// fails or keeps no checkpoint.
    fn capture(&self, ladder: &PrefixLadder, reference: Params) -> Option<Rungs> {
        let _span = shc_obs::span(shc_obs::SpanKind::Calibration);
        let analysis = TransientAnalysis {
            circuit: self.circuit,
            opts: TransientOptions {
                sensitivities: Vec::new(),
                ..self.opts.clone()
            },
            ladder: None,
            seed: None,
            siblings: None,
            stop: None,
        };
        let n = self.circuit.unknown_count();
        let quiet = quiet_until(self.circuit, &reference).min(loop_end(&self.opts));
        let mut capture = Capture::new(quiet, false);
        let seed = ladder.seed.lock().ok().and_then(|mut seed| seed.take());
        let start = seed
            .filter(|seed| seed.seeds(&self.opts, n))
            .and_then(|seed| {
                let horizon = self.circuit.agreement_horizon(&seed.reference, &reference);
                seed.extend_into(horizon.min(quiet), 0, &mut capture)
            });
        let mut scratch = TransientScratch::new(n);
        analysis
            .run_from(&reference, &mut scratch, start, Some(&mut capture))
            .ok()?;
        Rungs::new(reference, &analysis.opts, n, capture)
    }

    /// A run from the DC start that leaves its checkpoints in `ladder` as
    /// its seed ([`Self::seeding`]).
    fn run_seeding(
        &self,
        params: &Params,
        scratch: &mut TransientScratch,
        ladder: &PrefixLadder,
    ) -> Result<TransientResult> {
        let quiet = quiet_until(self.circuit, params).min(loop_end(&self.opts));
        let mut capture = Capture::new(quiet, true);
        let res = self.run_from(params, scratch, None, Some(&mut capture))?;
        let n = self.circuit.unknown_count();
        if let (Some(seed), Ok(mut slot)) = (
            Rungs::new(*params, &self.opts, n, capture),
            ladder.seed.lock(),
        ) {
            *slot = Some(Box::new(seed));
        }
        Ok(res)
    }

    /// One run from the DC start or an adopted checkpoint, wrapped in its
    /// telemetry. One span + one counter flush per *run* (not per step):
    /// the stepping loop itself stays untouched by telemetry. The flush
    /// happens on success AND failure so counters reconcile with the work
    /// actually performed by aborted runs, and it counts only the steps
    /// this run computed; the reused prefix is counted apart. The profiler
    /// frame follows the same shape: run_core's lap accumulators flush
    /// beneath it before it closes.
    fn run_from(
        &self,
        params: &Params,
        scratch: &mut TransientScratch,
        start: Option<Start>,
        capture: Option<&mut Capture>,
    ) -> Result<TransientResult> {
        let _span = shc_obs::span(shc_obs::SpanKind::Transient);
        let _frame = shc_prof::enter(shc_prof::Phase::Transient);
        shc_obs::count(shc_obs::Metric::TransientRuns, 1);
        let reused = start
            .as_ref()
            .map_or_else(TransientStats::default, |s| s.mark.stats);
        if start.is_some() {
            shc_obs::count(shc_obs::Metric::PrefixResumes, 1);
            shc_obs::count(shc_obs::Metric::PrefixStepsReused, reused.steps as u64);
        }
        let mut stats = reused;
        let mut skipped = Reused::default();
        let result = match self.injected_run_fault() {
            Some(e) => Err(e),
            None => self.run_core(params, scratch, &mut stats, &mut skipped, start, capture),
        };
        let steps = (stats.steps - reused.steps) as u64;
        shc_prof::add_work(steps);
        if shc_obs::enabled() {
            shc_obs::observe(shc_obs::Metric::TransientSteps, steps);
            shc_obs::observe(
                shc_obs::Metric::NewtonIterations,
                (stats.newton_iterations - reused.newton_iterations) as u64,
            );
            shc_obs::observe(
                shc_obs::Metric::LteRejections,
                (stats.rejected_steps - reused.rejected_steps) as u64,
            );
            shc_obs::count(shc_obs::Metric::StampsReused, skipped.stamps);
            shc_obs::count(shc_obs::Metric::FactorsReused, skipped.factors);
            shc_obs::count(shc_obs::Metric::ChordIterations, skipped.chords);
        }
        result
    }

    /// Deterministic fault hook for the whole-run site: maps an injected
    /// fault onto the error each real failure mode would produce.
    fn injected_run_fault(&self) -> Option<SpiceError> {
        let kind = shc_fault::check(shc_fault::Site::Transient)?;
        shc_obs::count(shc_obs::Metric::FaultsInjected, 1);
        Some(match kind {
            shc_fault::FaultKind::SingularMatrix => {
                SpiceError::Linalg(shc_linalg::LinalgError::Singular {
                    pivot: 0,
                    value: 0.0,
                })
            }
            shc_fault::FaultKind::NanResidual => SpiceError::NumericalBlowup { time: 0.0 },
            shc_fault::FaultKind::LteStall => SpiceError::TimestepTooSmall {
                time: 0.0,
                dt: self.opts.dt_min,
                rejected_steps: 0,
            },
            shc_fault::FaultKind::NonConvergence => SpiceError::NewtonDiverged {
                context: "transient run (injected fault)",
                iterations: 0,
                residual: f64::INFINITY,
            },
        })
    }

    /// The stepping loop proper, from `start` (or, without one, from
    /// checkpoint zero: the DC operating point or given state at `t = 0`).
    /// Accumulates work counters into `stats`, which arrive holding the
    /// start's counters, so [`TransientAnalysis::run_from`] can flush them
    /// to telemetry on both the success and the failure path; `reused`
    /// gathers the stamps and factors it took from earlier steps. With
    /// `capture`, the start and every [`LADDER_STRIDE`]-th accepted step
    /// are offered to it as [`PrefixLadder`] checkpoints.
    fn run_core(
        &self,
        params: &Params,
        scratch: &mut TransientScratch,
        stats: &mut TransientStats,
        reused: &mut Reused,
        start: Option<Start>,
        mut capture: Option<&mut Capture>,
    ) -> Result<TransientResult> {
        let circuit = self.circuit;
        let opts = &self.opts;
        let n = circuit.unknown_count();
        scratch.ensure(n);
        let TransientScratch {
            assembly,
            trace,
            sens_rhs,
            sens_tmp,
            dfdp_tmp,
            zero_x,
        } = scratch;
        // Disjoint field borrows let the Newton closure, which mutates
        // `nr_stamps`, share the previous step's stamps.
        let Assembly {
            layout,
            newton: nw,
            c,
            nr: nr_stamps,
            prev: stamps_prev,
            new: stamps_new,
        } = Assembly::configure(assembly, trace, zero_x, circuit, params, opts.solver)?;

        let Start {
            mark,
            x: mut x_prev,
            sens,
        } = match start {
            Some(start) => start,
            None => {
                let (x, reach) = match &opts.initial {
                    InitialCondition::DcOperatingPoint => {
                        // The DC start solves in this run's layout and
                        // workspace when its solver picks the same layout,
                        // unless the workspace keeps a sparse factor whose
                        // pivots this run's first factorization replays.
                        // Then the run's first factorization pivots afresh,
                        // as on a fresh workspace, on the DC's analysis.
                        let shared = opts.dc.solver.wants_sparse(n)
                            == matches!(layout, Layout::Sparse(_))
                            && !nw.factor_mut().keeps_pivots();
                        let dc = if shared {
                            let dc = dcop::solve_dc_in(circuit, params, &opts.dc, layout, nw);
                            nw.factor_mut().repivot();
                            dc
                        } else {
                            dcop::solve_dc(circuit, params, &opts.dc)
                        };
                        (dc?.x, 0.0)
                    }
                    InitialCondition::Given(x) => {
                        if x.len() != n {
                            return Err(SpiceError::BadCircuit {
                                reason: format!(
                                    "initial condition has {} entries, circuit has {n} unknowns",
                                    x.len()
                                ),
                            });
                        }
                        (x.clone(), 0.0)
                    }
                };
                Start {
                    mark: Mark {
                        t: 0.0,
                        dt: opts.dt.min(opts.tstop),
                        stats: TransientStats::default(),
                        reach,
                    },
                    x,
                    // Sensitivities start at zero: x(0) is held fixed across
                    // skews (the data pulse is at its rest level at t = 0).
                    sens: vec![Vector::zeros(n); opts.sensitivities.len()],
                }
            }
        };
        let Mark {
            t: mut t_prev,
            mut dt,
            mut reach,
            ..
        } = mark;

        // A final-only run keeps its final time alone; the others keep
        // every accepted time. Only final-only runs resume from a rung.
        let history = opts.record != RecordMode::FinalOnly;
        let mut times = Vec::new();
        let mut states = Vec::new();
        let mut probe = Vec::new();
        let probe_index = match opts.record {
            RecordMode::Probe(i) => Some(i),
            _ => None,
        };
        match opts.record {
            RecordMode::Full => states.push(x_prev.clone()),
            RecordMode::Probe(i) => probe.push(x_prev[i]),
            RecordMode::FinalOnly => {}
        }
        if history {
            times.push(t_prev);
        }

        let mut sens: Vec<(Param, Vector)> = opts.sensitivities.iter().copied().zip(sens).collect();
        let [setup_from, hold_from] = Param::ALL.map(|p| ramp_start(circuit, params, p));
        if let Some(cap) = capture.as_mut() {
            cap.push(mark, &x_prev);
        }

        // Profiling accumulators, shared by `&` (all-`Cell` state) between
        // this loop, the assembly closure, and the Newton solver. With no
        // profiler installed both are inert: every call below reduces to a
        // branch on a struct flag, no clock read, no thread-local access.
        // The guard flushes them into the open `Transient` frame on every
        // exit path, including fault-injected aborts.
        let lap_step = shc_prof::Laps::step();
        let lap_iter = shc_prof::Laps::iter();
        let _prof_flush = ProfFlush {
            step: &lap_step,
            iter: &lap_iter,
            sparse: matches!(layout, Layout::Sparse(_)),
        };
        let device_work = circuit.device_count() as u64;

        // Every device stamps a constant `C`, so the run assembles it once,
        // with the start point's stamps; each later assembly leaves it out.
        // Backward Euler reads no `f` at an accepted state, so each state —
        // the start included — is stamped at the time of the step that
        // leaves it: those stamps are that step's first Newton iterate.
        let mut stamped_at = (t_prev + dt).min(opts.tstop);
        c.fill(0.0);
        let stamper = &mut stamps_prev.stamper(layout, Some(c), true);
        circuit.stamp(stamper, &x_prev, stamped_at, params, 1.0);
        let c = &*c;
        // The step size of the sensitivity Jacobian the Newton workspace
        // factors at the last accepted state, until a Newton solve
        // refactors it. Under fault injection every factorization runs, so
        // LU fault draws fall as they always have.
        let mut factored_dt: Option<f64> = None;
        let reuse_factors = !shc_fault::enabled();

        while t_prev < loop_end(opts) {
            let t_new = (t_prev + dt).min(opts.tstop);
            let dt_eff = t_new - t_prev;
            reach = reach.max(t_new);

            // The first iterate is `x_prev`, already stamped at `t_new`
            // unless a Newton cut moved `t_new`. When the workspace's
            // factor is its Jacobian's too — the same `dt_eff` — the
            // iterate skips the refactor.
            let was_fresh = t_new.to_bits() == stamped_at.to_bits();
            let fresh = Cell::new(was_fresh);
            let primed = was_fresh
                && reuse_factors
                && factored_dt.map(f64::to_bits) == Some(dt_eff.to_bits());
            factored_dt = None;
            if primed {
                nw.prime();
            }
            // The step's first factor serves its later iterations while
            // their updates contract; a retry runs plain Newton.
            nw.chord();

            // Newton solve of the discretized step equation. Residual and
            // Jacobian are built directly in the workspace buffers; no
            // allocation happens per iteration.
            let mut assemble = |x: &Vector, r: &mut Vector, j: &mut [f64]| {
                // Re-arm the lap cursor so time between iterations is
                // never charged to the device loop. An iteration that
                // factors nothing — a primed first one or a chord one —
                // gets an empty Jacobian buffer, and builds no `G`.
                lap_iter.end_region(newton::lap::ITER_SELF);
                let factors = !j.is_empty();
                let s = if fresh.take() {
                    &*stamps_prev
                } else {
                    let stamper = &mut nr_stamps.stamper(layout, None, factors);
                    circuit.stamp(stamper, x, t_new, params, 1.0);
                    lap_iter.end_region(newton::lap::DEV);
                    lap_iter.bump(newton::lap::DEV, 1, device_work);
                    &*nr_stamps
                };
                r.copy_from(&s.q);
                r.axpy(-1.0, &stamps_prev.q);
                r.axpy(dt_eff, &s.f);
                if factors {
                    combine_step_jacobian_into(j, c, &s.g, dt_eff);
                }
                lap_iter.end_region(newton::lap::STAMP);
                lap_iter.bump(newton::lap::STAMP, 1, n as u64);
                Ok(())
            };
            let first =
                newton::solve_in_place(nw, &x_prev, &opts.newton, Some(&lap_iter), &mut assemble);
            // Retries start from jittered states, never from `x_prev`.
            let took_stamps = was_fresh && !fresh.replace(false);
            let solve_result = match first {
                // At the dt floor there is no smaller step to cut to, so a
                // divergence used to kill the whole run; try the damped
                // jittered-retry policy before giving up.
                Err(e @ SpiceError::NewtonDiverged { .. })
                    if dt_eff <= opts.dt_min * DT_FLOOR_SLACK =>
                {
                    newton::retry_in_place(
                        nw,
                        &x_prev,
                        &opts.newton,
                        NEWTON_FLOOR_RETRIES,
                        e,
                        &mut assemble,
                    )
                }
                // Under fault injection, retry at the same dt first: a fresh
                // solve draws a fresh fault decision, so this absorbs the
                // injected failure without perturbing the accepted step
                // sequence (see `NEWTON_FAULT_RETRIES`). Covers injected
                // LU faults surfacing through the solve as well; failures
                // that survive the retries fall through to the step-cut
                // policy below.
                Err(e) if shc_fault::enabled() && newton::retryable(&e) => newton::retry_in_place(
                    nw,
                    &x_prev,
                    &opts.newton,
                    NEWTON_FAULT_RETRIES,
                    e,
                    &mut assemble,
                ),
                other => other,
            };

            // An accepted solve's lap ends after its state is stamped.
            let iterations = match solve_result {
                Ok(iters) => iters,
                Err(SpiceError::NewtonDiverged { .. }) if dt_eff > opts.dt_min * DT_FLOOR_SLACK => {
                    dt = (dt_eff / 4.0).max(opts.dt_min);
                    stats.rejected_steps += 1;
                    lap_step.end_region(LAP_NEWTON);
                    lap_step.bump(LAP_NEWTON, 1, 0);
                    continue;
                }
                Err(e) => {
                    lap_step.end_region(LAP_NEWTON);
                    return Err(e);
                }
            };
            stats.newton_iterations += iterations;
            reused.stamps += u64::from(took_stamps);
            reused.factors += u64::from(took_stamps && primed);
            reused.chords += nw.chord_iterations() as u64;
            lap_step.bump(LAP_NEWTON, 1, iterations as u64);
            let x_new = nw.x();
            if !x_new.is_finite() {
                return Err(SpiceError::NumericalBlowup { time: t_new });
            }
            let stop = self
                .stop
                .is_some_and(|(i, at)| at.hit(t_new, x_prev[i], x_new[i]));
            x_prev.copy_from(x_new);

            // A Newton-failure cut must not persist: recover toward the
            // configured step after each accepted step.
            if dt < opts.dt {
                dt = (dt * 2.0).min(opts.dt);
            }

            // Accepted: stamp the new state (for its `q` and `G`) at the
            // next step's time, charged like any Newton assembly.
            stamped_at = (t_new + dt).min(opts.tstop);
            lap_iter.end_region(newton::lap::ITER_SELF);
            let stamper = &mut stamps_new.stamper(layout, None, true);
            circuit.stamp(stamper, &x_prev, stamped_at, params, 1.0);
            lap_iter.end_region(newton::lap::DEV);
            lap_iter.bump(newton::lap::DEV, 1, device_work);
            if sens.is_empty() {
                lap_step.end_region(LAP_NEWTON);
            } else {
                let factor = nw.factor_mut();
                combine_step_jacobian_into(factor.values_mut(), c, &stamps_new.g, dt_eff);
                lap_iter.end_region(newton::lap::STAMP);
                lap_iter.bump(newton::lap::STAMP, 1, n as u64);
                lap_step.end_region(LAP_NEWTON);

                // One factor of the sensitivity Jacobian per accepted step,
                // in the Newton workspace's own factor on either backend,
                // where the next step's first iterate may take it; then
                // one back-substitution per parameter. A failed dense
                // factorization has taken the Jacobian's storage, so each
                // retry rewrites it first.
                let mut retry = false;
                with_lu_fault_retries(|| {
                    if mem::replace(&mut retry, true) {
                        combine_step_jacobian_into(factor.values_mut(), c, &stamps_new.g, dt_eff);
                    }
                    factor.factorize()
                })?;
                factored_dt = Some(dt_eff);
                let mut solves = 0;
                for (param, m) in sens.iter_mut() {
                    // Every start's sensitivities are zero, and before its
                    // ramp a parameter's `∂f/∂p` is exactly zero too: the
                    // solve would return zeros. Leaving `+0.0` where it
                    // could return `-0.0` changes no later step, which
                    // reads `m` only through `C·m`, summed from `+0.0`.
                    let zero_until = match param {
                        Param::Setup => setup_from,
                        Param::Hold => hold_from,
                    };
                    if t_new < zero_until {
                        continue;
                    }
                    circuit.assemble_dfdp_into(dfdp_tmp, zero_x, t_new, params, *param);
                    factor.mul_slots_into(c, m, sens_rhs);
                    sens_rhs.axpy(-dt_eff, dfdp_tmp);
                    with_lu_fault_retries(|| factor.solve_into(sens_rhs, sens_tmp))?;
                    m.copy_from(sens_tmp);
                    solves += 1;
                }
                lap_step.end_region(LAP_SENS);
                lap_step.bump(LAP_SENS, 1, solves);
            }

            stats.steps += 1;
            match opts.record {
                RecordMode::Full => states.push(x_prev.clone()),
                RecordMode::Probe(i) => probe.push(x_prev[i]),
                RecordMode::FinalOnly => {}
            }
            if history {
                times.push(t_new);
            }

            // Allocation-free: the freshly stamped step becomes the
            // previous one, and the displaced buffers are the next step's
            // assembly target.
            mem::swap(stamps_prev, stamps_new);
            t_prev = t_new;

            if let Some(cap) = capture.as_mut() {
                if stats.steps.is_multiple_of(LADDER_STRIDE) {
                    let mark = Mark {
                        t: t_prev,
                        dt,
                        stats: *stats,
                        reach,
                    };
                    cap.push(mark, &x_prev);
                }
            }
            lap_step.end_region(LAP_STEP_SELF);
            if stop {
                break;
            }
        }

        if !history {
            times.push(t_prev);
        }
        Ok(TransientResult {
            times,
            states,
            probe,
            probe_index,
            final_state: x_prev,
            final_sensitivities: sens,
            stats: *stats,
        })
    }
}

/// Writes the step Jacobian `C + a·G` into `j`, one slot at a time, on
/// either layout: bitwise a copy of `C` followed by an `axpy` of `G`.
// lint: hot-fn
fn combine_step_jacobian_into(j: &mut [f64], c: &[f64], g: &[f64], a: f64) {
    for ((j, &c), &g) in j.iter_mut().zip(c).zip(g) {
        *j = c + a * g;
    }
}

/// Reusable per-run workspace for [`TransientAnalysis::run_with_scratch`].
///
/// A characterization sweep performs thousands of transient runs over a
/// fixed-dimension circuit; this workspace owns every per-step buffer
/// and the sensitivity solve temporaries, so the stepping loop performs
/// no matrix allocation once the buffers are warm. It holds no `n×n`
/// buffer until a run picks the dense layout, and a sparse run holds none
/// at all.
/// Not `Sync`: create one per thread when running sweeps in parallel.
#[derive(Debug)]
pub struct TransientScratch {
    /// The last run's layout and its buffers; `None` until a run
    /// configures one.
    assembly: Option<Assembly>,
    /// The recording assembly a sparse run checks its slots against.
    trace: Trace,
    sens_rhs: Vector,
    sens_tmp: Vector,
    dfdp_tmp: Vector,
    zero_x: Vector,
}

/// One layout's per-run buffers: the Newton workspace, whose Jacobian
/// buffer and factor (dense or sparse) the sensitivity solves share; the
/// run's constant `C`; and the stamps of the Newton iterate, the previous
/// step and the freshly accepted one — all in the layout's slot order.
#[derive(Debug)]
struct Assembly {
    layout: Layout,
    newton: newton::NewtonWorkspace,
    /// The run's constant `C`: per-step assemblies leave it out.
    c: Vec<f64>,
    nr: StateStamps,
    prev: StateStamps,
    new: StateStamps,
}

impl Assembly {
    /// The buffers of one run of `circuit` under `choice`: the last run's
    /// when they fit, else new ones.
    ///
    /// A sparse run records one assembly at `x = 0` into `trace` (no
    /// allocation once the trace is warm) and keeps the slots, and the
    /// symbolic analysis on their pattern, while the circuit still stamps
    /// exactly the traced positions in order; so repeated runs over one
    /// topology analyze once.
    fn configure<'s>(
        assembly: &'s mut Option<Assembly>,
        trace: &mut Trace,
        zero_x: &Vector,
        circuit: &Circuit,
        params: &Params,
        choice: SolverChoice,
    ) -> Result<&'s mut Assembly> {
        let n = circuit.unknown_count();
        let sparse = choice.wants_sparse(n);
        if sparse {
            circuit.stamp(&mut trace.recorder(n), zero_x, 0.0, params, 1.0);
        }
        let fits = match assembly.as_ref().map(|a| &a.layout) {
            Some(Layout::Sparse(map)) => sparse && map.matches(trace),
            Some(Layout::Dense(m)) => !sparse && *m == n,
            None => false,
        };
        if !fits {
            // Freed before the replacement is built.
            *assembly = None;
        }
        match assembly {
            Some(a) => Ok(a),
            none => {
                let layout = match sparse {
                    true => Layout::Sparse(SlotMap::resolve(n, trace)),
                    false => Layout::Dense(n),
                };
                Ok(none.insert(Assembly {
                    newton: newton::NewtonWorkspace::for_layout(&layout)?,
                    c: vec![0.0; layout.len()],
                    nr: StateStamps::new(n, &layout),
                    prev: StateStamps::new(n, &layout),
                    new: StateStamps::new(n, &layout),
                    layout,
                }))
            }
        }
    }
}

impl TransientScratch {
    /// Creates a workspace for circuits with `n` MNA unknowns.
    pub fn new(n: usize) -> Self {
        TransientScratch {
            assembly: None,
            trace: Trace::default(),
            sens_rhs: Vector::zeros(n),
            sens_tmp: Vector::zeros(n),
            dfdp_tmp: Vector::zeros(n),
            zero_x: Vector::zeros(n),
        }
    }

    /// The MNA dimension this workspace is currently sized for.
    pub fn dim(&self) -> usize {
        self.zero_x.len()
    }

    /// Resizes (re-allocating) only when the circuit dimension changed
    /// since the last run.
    fn ensure(&mut self, n: usize) {
        if self.dim() != n {
            *self = TransientScratch::new(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Resistor, VoltageSource};
    use crate::waveform::{DataPulse, RampShape, Waveform};
    use crate::Circuit;

    fn rc_circuit() -> (Circuit, usize) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.add(VoltageSource::new(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(Resistor::new("R1", vin, vout, 1e3));
        c.add(Capacitor::new("C1", vout, Circuit::GROUND, 1e-9));
        let out = c.unknown_of(vout).unwrap();
        (c, out)
    }

    #[test]
    fn rc_charging_matches_analytic_be() {
        let (c, out) = rc_circuit();
        // Start from v_out = 0 explicitly (DC would give the charged state).
        let mut x0 = Vector::zeros(c.unknown_count());
        x0[c.unknown_of(c.find_node("in").unwrap()).unwrap()] = 1.0;
        let opts = TransientOptions::builder(2e-6)
            .dt(2e-9)
            .initial(InitialCondition::Given(x0))
            .build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        // tau = 1us; at t = 1us, v = 1 - e^{-1} ≈ 0.6321.
        let v = res.value_at(out, 1e-6).unwrap();
        assert!((v - 0.6321).abs() < 5e-3, "v(tau) = {v}");
        let v_end = res.final_state()[out];
        assert!((v_end - (1.0 - (-2.0f64).exp())).abs() < 5e-3);
    }

    #[test]
    fn dc_initial_condition_starts_settled() {
        let (c, out) = rc_circuit();
        let opts = TransientOptions::builder(1e-7).dt(1e-9).build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        // Already charged at t=0 from the DC solution: stays at 1V.
        assert!((res.final_state()[out] - 1.0).abs() < 1e-6);
    }

    /// RC driven by the data pulse: sensitivity of the final state w.r.t.
    /// τs/τh must match a finite-difference estimate.
    #[test]
    fn forward_sensitivity_matches_finite_difference() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        let pulse = DataPulse {
            v_rest: 0.0,
            v_active: 1.0,
            t_edge: 5e-7,
            rise: 1e-7,
            fall: 1e-7,
            shape: RampShape::Smoothstep,
        };
        c.add(VoltageSource::new(
            "Vd",
            vin,
            Circuit::GROUND,
            Waveform::Data(pulse),
        ));
        c.add(Resistor::new("R1", vin, vout, 1e3));
        c.add(Capacitor::new("C1", vout, Circuit::GROUND, 1e-10));
        let out = c.unknown_of(vout).unwrap();

        let make_opts = || {
            TransientOptions::builder(8e-7)
                .dt(1e-9)
                .sensitivities(&Param::ALL)
                .record(RecordMode::FinalOnly)
                .build()
        };
        let base = Params::new(1e-7, 1e-7);
        let res = TransientAnalysis::new(&c, make_opts()).run(&base).unwrap();
        for param in Param::ALL {
            let analytic = res.final_sensitivity(param).unwrap()[out];
            let h = 1e-12;
            let plus = TransientAnalysis::new(&c, make_opts())
                .run(&base.with(param, base.get(param) + h))
                .unwrap()
                .final_state()[out];
            let minus = TransientAnalysis::new(&c, make_opts())
                .run(&base.with(param, base.get(param) - h))
                .unwrap()
                .final_state()[out];
            let fd = (plus - minus) / (2.0 * h);
            assert!(
                (analytic - fd).abs() <= 2e-3 * fd.abs().max(1e3),
                "{param:?}: analytic {analytic:.6e}, fd {fd:.6e}"
            );
        }
    }

    /// Acceptance guard for the hot-loop optimization: once the scratch is
    /// warm, a full transient run — Newton iterations, sensitivity solves,
    /// LU refactorizations, stamp rotation — must allocate zero matrices.
    #[test]
    fn warm_stepping_loop_allocates_no_matrices() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        let pulse = DataPulse {
            v_rest: 0.0,
            v_active: 1.0,
            t_edge: 2e-7,
            rise: 1e-7,
            fall: 1e-7,
            shape: RampShape::Smoothstep,
        };
        c.add(VoltageSource::new(
            "Vd",
            vin,
            Circuit::GROUND,
            Waveform::Data(pulse),
        ));
        c.add(Resistor::new("R1", vin, vout, 1e3));
        c.add(Capacitor::new("C1", vout, Circuit::GROUND, 1e-10));

        let opts = TransientOptions::builder(6e-7)
            .dt(1e-9)
            .sensitivities(&Param::ALL)
            .record(RecordMode::FinalOnly)
            .initial(InitialCondition::Given(Vector::zeros(c.unknown_count())))
            .build();
        let analysis = TransientAnalysis::new(&c, opts);
        let params = Params::new(1e-7, 1e-7);
        let mut scratch = TransientScratch::new(c.unknown_count());
        let warm = analysis.run_with_scratch(&params, &mut scratch).unwrap();
        assert!(warm.stats().steps > 100, "test wants a real stepping loop");

        let before = shc_linalg::matrix_allocations();
        let res = analysis.run_with_scratch(&params, &mut scratch).unwrap();
        let allocated = shc_linalg::matrix_allocations() - before;
        assert_eq!(
            allocated,
            0,
            "{} steps allocated {allocated} matrices",
            res.stats().steps
        );
    }

    /// Builds an RC delay chain behind the parameterized data pulse so
    /// sensitivity propagation has something real to track.
    fn rc_chain_with_pulse(stages: usize) -> Circuit {
        let mut c = Circuit::new();
        let mut prev = c.node("in");
        let pulse = DataPulse {
            v_rest: 0.0,
            v_active: 1.0,
            t_edge: 2e-7,
            rise: 1e-7,
            fall: 1e-7,
            shape: RampShape::Smoothstep,
        };
        c.add(VoltageSource::new(
            "Vd",
            prev,
            Circuit::GROUND,
            Waveform::Data(pulse),
        ));
        for s in 0..stages {
            let node = c.node(&format!("n{s}"));
            c.add(Resistor::new(&format!("R{s}"), prev, node, 1e3));
            c.add(Capacitor::new(
                &format!("C{s}"),
                node,
                Circuit::GROUND,
                1e-11,
            ));
            prev = node;
        }
        c
    }

    /// The sparse path must reproduce the dense trajectory (state AND
    /// sensitivities) to solver tolerance on the same circuit, and the
    /// warm sparse stepping loop must stay matrix-allocation-free —
    /// including the per-run slot check and the sensitivity
    /// factorizations in the Newton solver.
    #[test]
    fn sparse_transient_matches_dense_and_keeps_warm_loop_allocation_free() {
        let c = rc_chain_with_pulse(30);
        let n = c.unknown_count();
        let params = Params::new(1e-7, 1e-7);
        let run = |choice: crate::SolverChoice, scratch: &mut TransientScratch| {
            let opts = TransientOptions::builder(6e-7)
                .dt(2e-9)
                .sensitivities(&Param::ALL)
                .record(RecordMode::FinalOnly)
                .initial(InitialCondition::Given(Vector::zeros(n)))
                .solver(choice)
                .build();
            TransientAnalysis::new(&c, opts)
                .run_with_scratch(&params, scratch)
                .unwrap()
        };

        let mut scratch = TransientScratch::new(n);
        let dense = run(crate::SolverChoice::Dense, &mut scratch);
        let sparse = run(crate::SolverChoice::Sparse, &mut scratch);
        assert_eq!(dense.stats().steps, sparse.stats().steps);
        let diff = dense.final_state().sub(sparse.final_state()).norm_inf();
        assert!(diff < 1e-9, "sparse vs dense final state: {diff:e}");
        for p in Param::ALL {
            let md = dense.final_sensitivity(p).unwrap();
            let ms = sparse.final_sensitivity(p).unwrap();
            let sdiff = md.sub(ms).norm_inf();
            assert!(sdiff < 1e-6 * md.norm_inf().max(1.0), "{p:?}: {sdiff:e}");
        }

        // The sparse scratch is warm now: a repeat run (slot check,
        // Newton refactors, sensitivity solves) must allocate nothing.
        let before = shc_linalg::matrix_allocations();
        let warm = run(crate::SolverChoice::Sparse, &mut scratch);
        let allocated = shc_linalg::matrix_allocations() - before;
        assert!(warm.stats().steps > 100, "test wants a real stepping loop");
        assert_eq!(
            allocated, 0,
            "warm sparse run allocated {allocated} matrix/sparse buffers"
        );
    }

    /// The sparse path holds no `n×n` matrix. On a fresh scratch, a
    /// forced-sparse run with a DC start and sensitivities allocates only
    /// the sparse buffers of its one analysis, which the DC solve makes in
    /// the transient's workspace and the transient's first factorization
    /// pivots afresh on: a CSR Jacobian, a symbolic analysis and the
    /// storage of its first factor.
    #[test]
    fn sparse_runs_allocate_no_dense_matrix() {
        let c = rc_chain_with_pulse(30);
        let opts = TransientOptions::builder(6e-7)
            .dt(2e-9)
            .sensitivities(&Param::ALL)
            .record(RecordMode::FinalOnly)
            .solver(crate::SolverChoice::Sparse)
            .build();
        assert!(matches!(opts.initial, InitialCondition::DcOperatingPoint));
        let collector = shc_obs::Collector::new();
        let _obs = shc_obs::install_scoped(&collector);
        let mut scratch = TransientScratch::new(c.unknown_count());
        let res = TransientAnalysis::new(&c, opts)
            .run_with_scratch(&Params::new(1e-7, 1e-7), &mut scratch)
            .unwrap();
        assert!(res.stats().steps > 100, "test wants a real stepping loop");
        let analyses = collector.counter(shc_obs::Metric::SparseAnalyses);
        assert_eq!(analyses, 1, "the DC solve's, which the transient keeps");
        let allocations = collector.counter(shc_obs::Metric::MatrixAllocations);
        assert_eq!(
            allocations,
            3 * analyses,
            "matrix allocations beyond the sparse analyses' own buffers"
        );
    }

    /// The sparse work counters must reconcile with the run shape: one
    /// analysis per topology, one fresh factor, refactors on every later
    /// factorization (all but the reused ones), and a solve per iteration
    /// plus one per accepted step and parameter whose data ramp has
    /// started.
    #[test]
    fn sparse_transient_work_counters_reconcile() {
        let c = rc_chain_with_pulse(20);
        let n = c.unknown_count();
        let params = Params::new(1e-7, 1e-7);
        let opts = TransientOptions::builder(4e-7)
            .dt(4e-9)
            .sensitivities(&Param::ALL)
            .record(RecordMode::FinalOnly)
            .initial(InitialCondition::Given(Vector::zeros(n)))
            .solver(crate::SolverChoice::Sparse)
            .build();
        let collector = shc_obs::Collector::new();
        let stats = {
            let _guard = shc_obs::install_scoped(&collector);
            *TransientAnalysis::new(&c, opts.clone())
                .run(&params)
                .unwrap()
                .stats()
        };
        let snap = collector.snapshot();
        assert_eq!(snap.counter(shc_obs::Metric::SparseAnalyses), 1);
        let factors = snap.counter(shc_obs::Metric::SparseFactors);
        let refactors = snap.counter(shc_obs::Metric::SparseRefactors);
        let solves = snap.counter(shc_obs::Metric::SparseSolves);
        let reused = snap.counter(shc_obs::Metric::FactorsReused);
        let chords = snap.counter(shc_obs::Metric::ChordIterations);
        // One solver factors every Newton iteration (the first via
        // `SparseLu::new`, later ones as refactors) and the sensitivity
        // Jacobian of every accepted step, except the first iterations
        // that took the previous step's sensitivity factor and the chord
        // iterations that kept their step's first factor.
        assert!(factors >= 1, "factors = {factors}");
        assert!(reused > 0, "an equal-step run reuses factors");
        assert!(
            chords > 0,
            "second iterations keep their step's first factor"
        );
        assert_eq!(
            factors + refactors + chords,
            stats.newton_iterations as u64 + stats.steps as u64 - reused,
            "factor work must match newton + sensitivity factorizations"
        );
        // Each parameter's solves start with the first step that ends at
        // or past its data ramp's start.
        let times = step_times(&c, &opts, &params);
        let live: u64 = Param::ALL
            .iter()
            .map(|&p| {
                let from = ramp_start(&c, &params, p);
                times[1..].iter().filter(|&&t| t >= from).count() as u64
            })
            .sum();
        assert!(
            live < 2 * stats.steps as u64,
            "the ramps start after the first step"
        );
        assert_eq!(
            solves,
            stats.newton_iterations as u64 + live,
            "solve count must match newton iterations + the live sens solves"
        );
    }

    /// Telemetry must be free where it matters: with a collector installed
    /// the warm stepping loop still allocates zero matrices, produces a
    /// bitwise-identical final state and sensitivities, and the
    /// collector's per-run flush sees the true step counts.
    #[test]
    fn telemetry_keeps_warm_loop_allocation_free_and_bitwise_identical() {
        let c = rc_chain_with_pulse(2);
        // Pin the initial condition so the (allocating) DC operating-point
        // solve stays out of the measured loop, as in the test above.
        let opts = TransientOptions::builder(6e-7)
            .dt(2e-9)
            .sensitivities(&Param::ALL)
            .initial(InitialCondition::Given(Vector::zeros(c.unknown_count())))
            .build();
        let analysis = TransientAnalysis::new(&c, opts);
        let params = Params::new(1e-7, 1e-7);
        let mut scratch = TransientScratch::new(c.unknown_count());
        let quiet = analysis.run_with_scratch(&params, &mut scratch).unwrap();
        let quiet_stats = *quiet.stats();

        let collector = shc_obs::Collector::new();
        let _guard = shc_obs::install_scoped(&collector);
        let before = shc_linalg::matrix_allocations();
        let observed = analysis.run_with_scratch(&params, &mut scratch).unwrap();
        let allocated = shc_linalg::matrix_allocations() - before;

        assert_eq!(allocated, 0, "telemetry allocated {allocated} matrices");
        assert_bitwise_eq(&observed, &quiet);
        let snap = collector.snapshot();
        assert_eq!(snap.counter(shc_obs::Metric::TransientRuns), 1);
        assert_eq!(
            snap.counter(shc_obs::Metric::TransientSteps),
            quiet_stats.steps as u64
        );
        assert_eq!(
            snap.counter(shc_obs::Metric::NewtonIterations),
            quiet_stats.newton_iterations as u64
        );
        assert_eq!(snap.counter(shc_obs::Metric::MatrixAllocations), 0);
    }

    /// A Newton solve that fails at every step size: the step-cut policy
    /// quarters `dt` down to the `dt_min` floor, the floor retries fail
    /// too, and the run aborts. The telemetry flushed on that failure
    /// path must reconcile with the work actually done.
    #[test]
    fn newton_abort_at_dt_floor_flushes_populated_diagnostics() {
        let (c, _) = rc_circuit();
        // A given initial condition keeps the DC solve's own Newton out
        // of the injected failures.
        let mut opts = TransientOptions::builder(2e-6)
            .dt(2e-9)
            .initial(InitialCondition::Given(Vector::zeros(c.unknown_count())))
            .build();
        // Two cuts reach the floor: dt → dt/4 → dt/16.
        opts.dt_min = opts.dt / 16.0;
        let injector = shc_fault::Injector::new(shc_fault::FaultPlan {
            probability: 1.0,
            site: Some(shc_fault::Site::Newton),
            kind: shc_fault::FaultKind::NonConvergence,
            seed: 3,
        });
        let collector = shc_obs::Collector::new();
        let err = {
            let _faults = shc_fault::install_scoped(&injector);
            let _guard = shc_obs::install_scoped(&collector);
            TransientAnalysis::new(&c, opts)
                .run(&Params::default())
                .unwrap_err()
        };
        assert!(matches!(err, SpiceError::NewtonDiverged { .. }), "{err}");
        let rejected_steps = 2;
        let snap = collector.snapshot();
        assert_eq!(snap.counter(shc_obs::Metric::TransientRuns), 1);
        assert_eq!(
            snap.counter(shc_obs::Metric::LteRejections),
            rejected_steps,
            "every rejection must be flushed despite the abort"
        );
        assert_eq!(snap.counter(shc_obs::Metric::TransientSteps), 0);
    }

    /// `run` and `run_with_scratch` must be observably identical,
    /// sensitivities included.
    #[test]
    fn scratch_reuse_is_bitwise_identical_to_fresh_runs() {
        let c = rc_chain_with_pulse(2);
        let out = c.unknown_of(c.find_node("n1").unwrap()).unwrap();
        let make_opts = || {
            TransientOptions::builder(6e-7)
                .dt(2e-9)
                .sensitivities(&Param::ALL)
                .build()
        };
        let params = Params::new(1e-7, 1e-7);
        let fresh = TransientAnalysis::new(&c, make_opts())
            .run(&params)
            .unwrap();
        assert!(fresh.final_sensitivity(Param::Setup).unwrap()[out] != 0.0);
        let mut scratch = TransientScratch::new(c.unknown_count());
        let analysis = TransientAnalysis::new(&c, make_opts());
        for _ in 0..2 {
            let reused = analysis.run_with_scratch(&params, &mut scratch).unwrap();
            assert_bitwise_eq(&reused, &fresh);
            assert_eq!(reused.series(out), fresh.series(out));
        }
    }

    /// A clock step that Newton cannot follow in one `dt` (three damped
    /// iterations move the source node at most ~1 V) plus the data pulse
    /// behind an RC load. The data ramps sit after `tstop` at
    /// [`quiescent`]; the clock edge at 310 ns forces dt-cuts in step 32,
    /// so the ladder's checkpoint after that step sits inside them.
    fn clocked_rc() -> (Circuit, TransientOptions) {
        let mut c = Circuit::new();
        let clk = c.node("clk");
        let din = c.node("d");
        let out = c.node("out");
        let clock = crate::waveform::Pulse {
            v0: 0.0,
            v1: 2.5,
            delay: 310e-9,
            rise: 1e-9,
            fall: 1e-9,
            width: 1.0,
            period: 0.0,
            shape: RampShape::Linear,
        };
        c.add(VoltageSource::new(
            "Vclk",
            clk,
            Circuit::GROUND,
            Waveform::Pulse(clock),
        ));
        c.add(Resistor::new("Rclk", clk, Circuit::GROUND, 1e3));
        let pulse = DataPulse {
            v_rest: 0.0,
            v_active: 1.0,
            t_edge: 300e-9,
            rise: 100e-9,
            fall: 100e-9,
            shape: RampShape::Smoothstep,
        };
        c.add(VoltageSource::new(
            "Vd",
            din,
            Circuit::GROUND,
            Waveform::Data(pulse),
        ));
        c.add(Resistor::new("R1", din, out, 1e3));
        c.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));
        let opts = TransientOptions::builder(400e-9)
            .dt(10e-9)
            .newton(crate::newton::NewtonOptions {
                max_iters: 3,
                ..Default::default()
            })
            .sensitivities(&Param::ALL)
            .record(RecordMode::FinalOnly)
            .build();
        (c, opts)
    }

    /// Skews whose data ramps both start after the 400 ns stop time.
    fn quiescent() -> Params {
        Params::new(-200e-9, 400e-9)
    }

    /// Stats, final time, state and sensitivities, bit for bit.
    fn assert_bitwise_eq(a: &TransientResult, b: &TransientResult) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let last = |r: &TransientResult| r.times().last().map(|t| t.to_bits());
        assert_eq!(last(a), last(b), "final time");
        assert_eq!(a.stats(), b.stats());
        assert_eq!(
            bits(a.final_state().as_slice()),
            bits(b.final_state().as_slice())
        );
        assert_eq!(a.final_sensitivities.len(), b.final_sensitivities.len());
        for p in Param::ALL {
            assert_eq!(
                a.final_sensitivity(p).map(|m| bits(m.as_slice())),
                b.final_sensitivity(p).map(|m| bits(m.as_slice()))
            );
        }
    }

    /// The captured rungs of a ladder some run has built.
    fn rungs(ladder: &PrefixLadder) -> &Rungs {
        ladder.rungs.get().unwrap().as_ref().unwrap()
    }

    /// A Newton dt-cut inside the prefix leaves a checkpoint whose `reach`
    /// (the rejected attempt's endpoint) lies past its own `t`. A run whose
    /// data ramp starts between the two must not adopt that checkpoint,
    /// only the one before it, and must reproduce the full run bit for bit.
    #[test]
    fn checkpoint_past_a_dt_cut_is_excluded_by_its_reach() {
        let (c, opts) = clocked_rc();
        let ladder = PrefixLadder::default();
        let analysis = TransientAnalysis::new(&c, opts.clone()).with_ladder(&ladder, quiescent());
        let full_analysis = TransientAnalysis::new(&c, opts.clone());
        assert!(analysis.prefix_resumable());
        analysis.run(&quiescent()).unwrap();
        let marks = &rungs(&ladder).marks;
        let cut = marks
            .iter()
            .position(|k| k.reach > k.t)
            .expect("the clock edge forces a dt-cut");
        let (before, past) = (&marks[cut - 1], &marks[cut]);
        assert!(past.stats.rejected_steps > 0 && before.reach < past.t);

        // Leading ramp start = t_edge − τs − rise/2, halfway into (t, reach].
        let ramp_start = 0.5 * (past.t + past.reach);
        let at = Params::new(300e-9 - ramp_start - 50e-9, 100e-9);
        let horizon = c.agreement_horizon(&quiescent(), &at);
        assert!(past.t < horizon && horizon < past.reach, "{horizon:e}");

        let full = full_analysis.run(&at).unwrap();

        let collector = shc_obs::Collector::new();
        let resumed = {
            let _guard = shc_obs::install_scoped(&collector);
            analysis.run(&at).unwrap()
        };
        assert_bitwise_eq(&resumed, &full);
        assert_eq!(collector.counter(shc_obs::Metric::TransientRuns), 1);
        assert_eq!(collector.counter(shc_obs::Metric::PrefixResumes), 1);
        assert_eq!(
            collector.counter(shc_obs::Metric::PrefixStepsReused),
            before.stats.steps as u64
        );
        assert_eq!(
            collector.counter(shc_obs::Metric::TransientSteps),
            (full.stats().steps - before.stats.steps) as u64
        );
    }

    /// Skews at the setup skew of the sibling-rung tests (leading ramp
    /// 150–250 ns, before the clock edge's cut at 310 ns) whose trailing
    /// ramp starts at `t`.
    fn trailing_at(t: f64) -> Params {
        Params::new(100e-9, t + 50e-9 - 300e-9)
    }

    /// The checkpoints `siblings` holds, left in place.
    fn held(siblings: &SiblingRungs) -> Option<Vec<Mark>> {
        let rungs = siblings.rungs.take();
        let marks = rungs.as_ref().map(|r| r.marks.clone());
        siblings.rungs.set(rungs);
        marks
    }

    /// Runs `p` under `opts` on the chain `siblings`, checks it against a
    /// run from the DC start bit for bit, and returns the steps it reused.
    fn sibling_run(
        c: &Circuit,
        opts: &TransientOptions,
        p: Params,
        siblings: &SiblingRungs,
        scratch: &mut TransientScratch,
    ) -> usize {
        let collector = shc_obs::Collector::new();
        let res = {
            let _guard = shc_obs::install_scoped(&collector);
            TransientAnalysis::new(c, opts.clone())
                .with_siblings(siblings)
                .run_with_scratch(&p, scratch)
                .unwrap()
        };
        let full = TransientAnalysis::new(c, opts.clone()).run(&p).unwrap();
        assert_bitwise_eq(&res, &full);
        collector.counter(shc_obs::Metric::PrefixStepsReused) as usize
    }

    /// Sibling rungs across a Newton dt-cut. Runs at one setup skew share
    /// everything before the earlier of their trailing ramps, a prefix
    /// that here contains the cut. A run adopts the latest rung its
    /// sibling left below that horizon — past the cut, or, when the
    /// horizon falls between the cut checkpoint's `t` and its `reach`, the
    /// one before it — and reproduces a full run bit for bit in state,
    /// stats and final time. A run with hold sensitivities adopts the
    /// same rung as one without; a run with setup sensitivities adopts
    /// none past its leading ramp, yet leaves its own rungs.
    #[test]
    fn sibling_rungs_resume_a_row_bitwise_across_a_dt_cut() {
        let (c, mut opts) = clocked_rc();
        opts.tstop = 600e-9;
        let sens_opts = opts.clone();
        let hold_opts = TransientOptions {
            sensitivities: vec![Param::Hold],
            ..opts.clone()
        };
        opts.sensitivities = Vec::new();
        let mut scratch = TransientScratch::new(c.unknown_count());
        let mut run = |opts: &TransientOptions, p: Params, siblings: &SiblingRungs| {
            sibling_run(&c, opts, p, siblings, &mut scratch)
        };
        // `far`'s window holds the cut rung and the one after it.
        let far = trailing_at(470e-9);
        let near = trailing_at(400e-9);
        let siblings = SiblingRungs::default();
        assert_eq!(run(&opts, far, &siblings), 0, "no ladder: DC start");
        let marks = held(&siblings).unwrap();
        let past = *marks
            .iter()
            .find(|k| k.reach > k.t)
            .expect("the clock edge forces a dt-cut");
        assert!(past.stats.rejected_steps > 0);

        // `near` adopts the rung past the cut, not the later one `far`
        // keeps past `near`'s own trailing ramp.
        let horizon = c.agreement_horizon(&far, &near);
        assert_eq!(horizon, ramp_start(&c, &near, Param::Hold));
        assert!(marks.iter().any(|m| m.reach > horizon));
        let adopted = marks.iter().rfind(|m| m.reach < horizon).unwrap();
        assert!(adopted.stats.steps >= past.stats.steps);
        assert_eq!(run(&opts, near, &siblings), adopted.stats.steps);
        let kept = held(&siblings).unwrap();
        assert_eq!(
            kept[0].stats.steps, adopted.stats.steps,
            "a run captures from its start"
        );

        // A first run whose trailing ramp starts just past the cut rung's
        // reach keeps the rung before the cut too. A trailing ramp
        // starting halfway into the cut rung's (t, reach] resumes from
        // that one.
        let siblings = SiblingRungs::default();
        run(&opts, trailing_at(past.reach + 0.05e-9), &siblings);
        let marks = held(&siblings).unwrap();
        let before = marks[marks.len() - 2];
        assert_eq!(marks[marks.len() - 1].stats, past.stats);
        assert!(before.reach < past.t);
        let at_cut = trailing_at(0.5 * (past.t + past.reach));
        let horizon = c.agreement_horizon(&marks_reference(&siblings), &at_cut);
        assert!(past.t < horizon && horizon < past.reach, "{horizon:e}");
        assert_eq!(run(&opts, at_cut, &siblings), before.stats.steps);

        // Hold sensitivities: the same rung, zero-started.
        let siblings = SiblingRungs::default();
        run(&opts, far, &siblings);
        assert_eq!(run(&hold_opts, near, &siblings), adopted.stats.steps);
        assert!(
            held(&siblings).is_some(),
            "a run with sensitivities leaves rungs"
        );
        // Setup sensitivities too: every rung lies past the leading ramp.
        let lead = ramp_start(&c, &near, Param::Setup);
        assert!(held(&siblings).unwrap().iter().all(|m| m.reach >= lead));
        assert_eq!(run(&sens_opts, near, &siblings), 0);
        assert!(
            held(&siblings).is_some(),
            "a run with sensitivities leaves rungs"
        );
    }

    /// A run with setup sensitivities adopts no sibling rung past its
    /// leading ramp, where `∂x/∂τs` is no longer zero, even one below the
    /// two runs' agreement horizon; without them, or with hold
    /// sensitivities alone, the same run adopts that rung. Each matches a
    /// run from the DC start bit for bit.
    #[test]
    fn setup_sensitivity_runs_adopt_no_rung_past_the_leading_ramp() {
        let (c, mut opts) = clocked_rc();
        opts.tstop = 600e-9;
        let with = |sensitivities: &[Param]| TransientOptions {
            sensitivities: sensitivities.to_vec(),
            ..opts.clone()
        };
        // Leading ramp from 400 ns; trailing ramps from 475 and 470 ns.
        let first = Params::new(-150e-9, 225e-9);
        let next = Params::new(-150e-9, 220e-9);
        let lead = ramp_start(&c, &next, Param::Setup);
        let horizon = c.agreement_horizon(&first, &next);
        let mut scratch = TransientScratch::new(c.unknown_count());
        let mut adopted = Vec::new();
        for sensitivities in [&[][..], &[Param::Hold], &[Param::Setup], &Param::ALL] {
            let siblings = SiblingRungs::default();
            sibling_run(&c, &with(&[]), first, &siblings, &mut scratch);
            let marks = held(&siblings).unwrap();
            assert!(marks.iter().any(|m| lead < m.reach && m.reach < horizon));
            assert!(marks.iter().any(|m| m.reach < lead));
            let reused = sibling_run(&c, &with(sensitivities), next, &siblings, &mut scratch);
            let rung = marks.iter().find(|m| m.stats.steps == reused).unwrap();
            adopted.push(rung.reach);
        }
        assert!(adopted[0] > lead && adopted[1] == adopted[0], "{adopted:?}");
        assert!(adopted[2] < lead && adopted[3] == adopted[2], "{adopted:?}");
    }

    /// The skews of the run that left `siblings`' rungs.
    fn marks_reference(siblings: &SiblingRungs) -> Params {
        let rungs = siblings.rungs.take();
        let reference = rungs.as_ref().unwrap().reference;
        siblings.rungs.set(rungs);
        reference
    }

    /// A chain at one setup skew, its hold skews in bisection order —
    /// down as well as up — matches runs from the DC start bit for bit,
    /// without sensitivities, with hold sensitivities and with both. Runs
    /// without setup sensitivities resume from their siblings wherever
    /// the one before left a rung below their horizon; a run with them
    /// adopts nothing past its leading ramp. After each run the chain
    /// holds exactly the full run's checkpoints inside its window below
    /// the trailing ramp.
    #[test]
    fn sibling_chain_resumes_bisection_probes_bitwise() {
        let (c, mut opts) = clocked_rc();
        opts.tstop = 600e-9;
        let window = SIBLING_WINDOW + LADDER_STRIDE as f64 * opts.dt;
        // Trailing ramp starts of a bisection between 330 and 590 ns.
        let mut probes = vec![590e-9, 330e-9];
        let (mut lo, mut hi) = (330e-9, 590e-9);
        for pass in [true, false, true, false, false] {
            let mid = 0.5 * (lo + hi);
            probes.push(mid);
            if pass {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        for sensitivities in [vec![], vec![Param::Hold], Param::ALL.to_vec()] {
            let opts = TransientOptions {
                sensitivities: sensitivities.clone(),
                ..opts.clone()
            };
            let lead = ramp_start(&c, &trailing_at(probes[0]), Param::Setup);
            let mut scratch = TransientScratch::new(c.unknown_count());
            let siblings = SiblingRungs::default();
            let mut resumed = 0;
            for &t in &probes {
                let p = trailing_at(t);
                let reused = sibling_run(&c, &opts, p, &siblings, &mut scratch);
                resumed += usize::from(reused > 0);
                let times = step_times(&c, &opts, &p);
                let trail = ramp_start(&c, &p, Param::Hold).min(loop_end(&opts));
                let want: Vec<usize> = (0..times.len())
                    .step_by(LADDER_STRIDE)
                    .filter(|&k| trail - window <= times[k] && times[k] < trail)
                    .collect();
                let got: Vec<usize> = held(&siblings)
                    .unwrap_or_default()
                    .iter()
                    .map(|m| m.stats.steps)
                    .collect();
                assert_eq!(got, want, "{sensitivities:?} at {t:e}");
                if sensitivities.contains(&Param::Setup) {
                    assert!(reused == 0 || times[reused] < lead);
                }
            }
            if sensitivities.contains(&Param::Setup) {
                assert_eq!(resumed, 0, "{sensitivities:?}");
            } else {
                assert!(resumed >= 3, "{sensitivities:?}: {resumed} resumed");
            }
        }
    }

    /// Full and ladder-backed runs of `analysis` at each of `at`, bit for
    /// bit, every one resumed from the ladder.
    fn assert_resumes_bitwise(
        c: &Circuit,
        opts: &TransientOptions,
        analysis: &TransientAnalysis<'_>,
        at: &[Params],
    ) {
        for p in at {
            let collector = shc_obs::Collector::new();
            let resumed = {
                let _guard = shc_obs::install_scoped(&collector);
                analysis.run(p).unwrap()
            };
            let full = TransientAnalysis::new(c, opts.clone()).run(p).unwrap();
            assert_bitwise_eq(&resumed, &full);
            assert_eq!(collector.counter(shc_obs::Metric::PrefixResumes), 1);
        }
    }

    /// Every accepted time of a run under `opts` at `at`: the same run,
    /// recording one unknown's trajectory instead of the final state only.
    fn step_times(c: &Circuit, opts: &TransientOptions, at: &Params) -> Vec<f64> {
        let probed = TransientOptions {
            record: RecordMode::Probe(0),
            ..opts.clone()
        };
        let res = TransientAnalysis::new(c, probed).run(at).unwrap();
        res.times().to_vec()
    }

    /// The steps of a run whose first iterate may reuse the previous
    /// step's factor and its stamps: those whose `dt_eff` equals the
    /// previous step's, and those that end where the previous step
    /// planned them — the step size that step left, clipped to `tstop` —
    /// rather than a quarter of it after a Newton cut.
    fn reusable_steps(times: &[f64], opts: &TransientOptions) -> (u64, u64) {
        let dts: Vec<u64> = times.windows(2).map(|w| (w[1] - w[0]).to_bits()).collect();
        let equal_steps = dts.windows(2).filter(|d| d[0] == d[1]).count() as u64;
        let mut planned_dt = opts.dt;
        let mut planned_steps = 0;
        for w in times.windows(2) {
            let dt_eff = w[1] - w[0];
            if w[1] == opts.tstop || dt_eff > 0.5 * planned_dt {
                planned_steps += 1;
            }
            planned_dt = (2.0 * dt_eff).min(opts.dt);
        }
        (equal_steps, planned_steps)
    }

    /// The edges of stamp and factor reuse: Newton dt-cuts, the steps
    /// that double `dt` back after them, and a last step that `tstop`
    /// clips. With sensitivities on, a full run and a run resumed from a
    /// ladder rung below the cut agree bit for bit; the full run's first
    /// iterates take the previous step's stamps on every step but those a
    /// Newton cut shortened, and its factor exactly on the steps whose
    /// `dt_eff` equals the previous step's. The sparse backend reuses on
    /// the same steps, bitwise identically to a run that reuses nothing.
    #[test]
    fn reuse_edges_stay_bitwise_and_reuse_only_equal_step_factors() {
        let (c, mut opts) = clocked_rc();
        opts.tstop = 405e-9;
        // Leading ramp 200–300 ns, trailing ramp 300–400 ns: both
        // sensitivities move, and a ladder-backed run resumes from the
        // rung at step 16, before the cut.
        let at = Params::new(50e-9, 50e-9);
        let collector = shc_obs::Collector::new();
        let full = {
            let _guard = shc_obs::install_scoped(&collector);
            TransientAnalysis::new(&c, opts.clone()).run(&at).unwrap()
        };
        let times = step_times(&c, &opts, &at);
        let (equal_steps, planned_steps) = reusable_steps(&times, &opts);
        assert!(full.stats().rejected_steps > 0, "the clock edge cuts dt");
        assert!(times[times.len() - 1] - times[times.len() - 2] < opts.dt);
        assert!(equal_steps + 1 < full.stats().steps as u64);
        assert_eq!(
            collector.counter(shc_obs::Metric::FactorsReused),
            equal_steps
        );
        assert!(planned_steps < full.stats().steps as u64);
        assert_eq!(
            collector.counter(shc_obs::Metric::StampsReused),
            planned_steps
        );

        // Sparse: the same reuse counts, and a never-firing fault plan
        // (under which no factor is reused) changes no bit.
        let sparse_opts = TransientOptions {
            solver: SolverChoice::Sparse,
            ..opts.clone()
        };
        let collector = shc_obs::Collector::new();
        let sparse = {
            let _guard = shc_obs::install_scoped(&collector);
            TransientAnalysis::new(&c, sparse_opts.clone())
                .run(&at)
                .unwrap()
        };
        assert!(sparse.stats().rejected_steps > 0, "the clock edge cuts dt");
        let (equal_steps, planned_steps) =
            reusable_steps(&step_times(&c, &sparse_opts, &at), &opts);
        assert!(equal_steps + 1 < sparse.stats().steps as u64);
        assert_eq!(
            collector.counter(shc_obs::Metric::FactorsReused),
            equal_steps
        );
        assert_eq!(
            collector.counter(shc_obs::Metric::StampsReused),
            planned_steps
        );
        let silent = shc_fault::Injector::new(shc_fault::FaultPlan::default());
        let collector = shc_obs::Collector::new();
        let unreused = {
            let _faults = shc_fault::install_scoped(&silent);
            let _guard = shc_obs::install_scoped(&collector);
            TransientAnalysis::new(&c, sparse_opts).run(&at).unwrap()
        };
        assert_eq!(collector.counter(shc_obs::Metric::FactorsReused), 0);
        assert_bitwise_eq(&sparse, &unreused);

        let ladder = PrefixLadder::default();
        let analysis = TransientAnalysis::new(&c, opts.clone()).with_ladder(&ladder, quiescent());
        let collector = shc_obs::Collector::new();
        let resumed = {
            let _guard = shc_obs::install_scoped(&collector);
            analysis.run(&at).unwrap()
        };
        assert_bitwise_eq(&resumed, &full);
        assert_eq!(collector.counter(shc_obs::Metric::PrefixResumes), 1);
        assert_eq!(collector.counter(shc_obs::Metric::PrefixStepsReused), 16);
    }

    /// On a nonlinear circuit, where every Newton iteration's Jacobian
    /// differs, a sparse first iterate that takes the previous step's
    /// sensitivity factor reproduces a run that refactors it, bit for bit.
    #[test]
    fn sparse_factor_reuse_is_bitwise_on_a_nonlinear_circuit() {
        use crate::devices::{MosParams, Mosfet};
        let mut c = rc_chain_with_pulse(2);
        let vdd = c.node("vdd");
        c.add(VoltageSource::new(
            "Vdd",
            vdd,
            Circuit::GROUND,
            Waveform::dc(2.5),
        ));
        let mut input = c.find_node("n1").unwrap();
        for s in 0..2 {
            let out = c.node(&format!("inv{s}"));
            let (n, p) = (MosParams::nmos_250nm(), MosParams::pmos_250nm());
            c.add(Mosfet::new(
                &format!("MN{s}"),
                out,
                input,
                Circuit::GROUND,
                n,
                1e-6,
                0.25e-6,
            ));
            c.add(Mosfet::new(
                &format!("MP{s}"),
                out,
                input,
                vdd,
                p,
                2e-6,
                0.25e-6,
            ));
            c.add(Capacitor::new(
                &format!("CL{s}"),
                out,
                Circuit::GROUND,
                1e-13,
            ));
            input = out;
        }
        let opts = TransientOptions::builder(6e-7)
            .dt(2e-9)
            .sensitivities(&Param::ALL)
            .solver(SolverChoice::Sparse)
            .build();
        let params = Params::new(1e-7, 1e-7);
        let collector = shc_obs::Collector::new();
        let reused = {
            let _guard = shc_obs::install_scoped(&collector);
            TransientAnalysis::new(&c, opts.clone())
                .run(&params)
                .unwrap()
        };
        assert!(collector.counter(shc_obs::Metric::FactorsReused) > 0);
        assert!(reused.stats().newton_iterations > reused.stats().steps);
        let silent = shc_fault::Injector::new(shc_fault::FaultPlan::default());
        let refactored = {
            let _faults = shc_fault::install_scoped(&silent);
            TransientAnalysis::new(&c, opts).run(&params).unwrap()
        };
        assert_bitwise_eq(&reused, &refactored);
    }

    /// The circuit of `sparse_factor_reuse_is_bitwise_on_a_nonlinear_circuit`:
    /// the data pulse through an RC pair into two CMOS inverters.
    fn rc_into_inverter_pair() -> Circuit {
        use crate::devices::{MosParams, Mosfet};
        let mut c = rc_chain_with_pulse(2);
        let vdd = c.node("vdd");
        c.add(VoltageSource::new(
            "Vdd",
            vdd,
            Circuit::GROUND,
            Waveform::dc(2.5),
        ));
        let mut input = c.find_node("n1").unwrap();
        for s in 0..2 {
            let out = c.node(&format!("inv{s}"));
            let (n, p) = (MosParams::nmos_250nm(), MosParams::pmos_250nm());
            let (gnd, len) = (Circuit::GROUND, 0.25e-6);
            c.add(Mosfet::new(
                &format!("MN{s}"),
                out,
                input,
                gnd,
                n,
                1e-6,
                len,
            ));
            c.add(Mosfet::new(
                &format!("MP{s}"),
                out,
                input,
                vdd,
                p,
                2e-6,
                len,
            ));
            c.add(Capacitor::new(&format!("CL{s}"), out, gnd, 1e-13));
            input = out;
        }
        c
    }

    /// Chord iterations move a run only within the Newton tolerance: on
    /// both layouts, the final state at the default tolerances lies
    /// within the default tolerance bound of a run whose Newton solves
    /// converge to `reltol` 1e-12.
    #[test]
    fn chord_runs_stay_within_tolerance_of_a_tight_newton_run() {
        let c = rc_into_inverter_pair();
        let params = Params::new(1e-7, 1e-7);
        let tol = NewtonOptions::default();
        let tight = NewtonOptions {
            reltol: 1e-12,
            abstol: 1e-15,
            ..tol
        };
        for solver in [SolverChoice::Dense, SolverChoice::Sparse] {
            let run = |newton| {
                let opts = TransientOptions::builder(6e-7)
                    .dt(2e-9)
                    .sensitivities(&Param::ALL)
                    .solver(solver)
                    .newton(newton)
                    .build();
                let collector = shc_obs::Collector::new();
                let _guard = shc_obs::install_scoped(&collector);
                let res = TransientAnalysis::new(&c, opts).run(&params).unwrap();
                (res, collector.counter(shc_obs::Metric::ChordIterations))
            };
            let ((loose, chords), (exact, _)) = (run(tol), run(tight));
            assert!(chords > 0, "{solver:?}: no chord iteration");
            let (got, want) = (loose.final_state(), exact.final_state());
            for (i, (&a, &b)) in got.iter().zip(want.iter()).enumerate() {
                let bound = tol.reltol * b.abs() + tol.abstol;
                assert!((a - b).abs() <= bound, "{solver:?} x[{i}]: {a} vs {b}");
            }
        }
    }

    /// A step whose chord update does not contract by half refactors at
    /// its iterate and still converges. Without sensitivities nothing
    /// primes a step's first iteration, so every step factors once there;
    /// each factorization beyond one per step is a stall refactor.
    #[test]
    fn a_stalled_chord_iteration_refactors_and_converges() {
        let c = rc_into_inverter_pair();
        let params = Params::new(1e-7, 1e-7);
        for solver in [SolverChoice::Dense, SolverChoice::Sparse] {
            let opts = TransientOptions::builder(6e-7)
                .dt(2e-9)
                .solver(solver)
                .initial(InitialCondition::Given(Vector::zeros(c.unknown_count())))
                .build();
            let collector = shc_obs::Collector::new();
            let stats = {
                let _guard = shc_obs::install_scoped(&collector);
                *TransientAnalysis::new(&c, opts)
                    .run(&params)
                    .unwrap()
                    .stats()
            };
            use shc_obs::Metric;
            let factored = [
                Metric::LuFactorizations,
                Metric::LuRefactors,
                Metric::SparseFactors,
                Metric::SparseRefactors,
            ]
            .map(|m| collector.counter(m))
            .iter()
            .sum::<u64>();
            let (steps, chords) = (
                stats.steps as u64,
                collector.counter(Metric::ChordIterations),
            );
            assert_eq!(stats.rejected_steps, 0, "{solver:?}");
            assert_eq!(
                factored + chords,
                stats.newton_iterations as u64,
                "{solver:?}"
            );
            assert!(chords > 0, "{solver:?}: no chord iteration");
            assert!(factored > steps, "{solver:?}: no stalled chord refactored");
        }
    }

    /// A reference whose data pulse moves before the stop time: its ladder
    /// ends below the leading ramp's start, where the sensitivities the
    /// state-only rungs drop are still exactly zero. Runs at the reference
    /// and at a τh-only variant — whose horizons lie past that start —
    /// reproduce full runs bit for bit, sensitivities included.
    #[test]
    fn moving_reference_ladder_stops_below_its_first_ramp() {
        let (c, opts) = clocked_rc();
        // Leading ramp centred at 250 ns: it starts at 200 ns.
        let reference = Params::new(50e-9, 400e-9);
        let variant = Params::new(50e-9, 300e-9);
        assert!(c.agreement_horizon(&reference, &variant) > opts.tstop);
        let ladder = PrefixLadder::default();
        let analysis = TransientAnalysis::new(&c, opts.clone()).with_ladder(&ladder, reference);
        assert_resumes_bitwise(&c, &opts, &analysis, &[reference, variant]);
        let marks = &rungs(&ladder).marks;
        assert!(marks.iter().all(|m| m.reach < 200e-9));
        assert_eq!(marks.last().unwrap().stats.steps, 16);
    }

    /// A run at exactly a quiescent reference's skews adopts the latest
    /// rung from which a step remains, never the final state, and matches
    /// a full run bit for bit, final sensitivities included.
    #[test]
    fn run_at_the_reference_skews_matches_a_full_run() {
        let (c, opts) = clocked_rc();
        let ladder = PrefixLadder::default();
        let analysis = TransientAnalysis::new(&c, opts.clone()).with_ladder(&ladder, quiescent());
        let collector = shc_obs::Collector::new();
        let resumed = {
            let _guard = shc_obs::install_scoped(&collector);
            analysis.run(&quiescent()).unwrap()
        };
        assert_bitwise_eq(
            &resumed,
            &TransientAnalysis::new(&c, opts).run(&quiescent()).unwrap(),
        );
        let last = rungs(&ladder).marks.last().unwrap();
        assert!(last.stats.steps < resumed.stats().steps);
        assert_eq!(
            collector.counter(shc_obs::Metric::PrefixStepsReused),
            last.stats.steps as u64
        );
        assert_eq!(
            collector.counter(shc_obs::Metric::TransientSteps),
            (2 * resumed.stats().steps - last.stats.steps) as u64,
            "the ladder's reference run and the resumed one"
        );
    }

    /// A probe-recording run at other skews and another stop time seeds
    /// the ladder up to its first ramp or rejected step, whichever is
    /// first; the reference run resumes from the latest seeded rung below
    /// the two skews' agreement horizon, and everything stays bitwise
    /// identical. Seeds whose options step differently go unused.
    #[test]
    fn seeded_ladder_extends_the_seeding_run() {
        let (c, opts) = clocked_rc();
        let seeding_opts = TransientOptions {
            tstop: 450e-9,
            dt_min: 450e-9 * 1e-9,
            sensitivities: Vec::new(),
            record: RecordMode::Probe(0),
            ..opts.clone()
        };
        // Leading ramp centred at 300 ns: it starts at 250 ns, after the
        // rung at step 16 (160 ns) and before the one at step 32.
        let seeding_at = Params::new(0.0, 400e-9);
        let ladder = PrefixLadder::default();
        let seeding = TransientAnalysis::new(&c, seeding_opts.clone()).seeding(&ladder);
        let probe = seeding.run(&seeding_at).unwrap();
        let unseeded = TransientAnalysis::new(&c, seeding_opts)
            .run(&seeding_at)
            .unwrap();
        assert_eq!(probe.times(), unseeded.times());
        assert!(!ladder.is_built());

        let analysis = TransientAnalysis::new(&c, opts.clone()).with_ladder(&ladder, quiescent());
        let at = Params::new(100e-9, 100e-9);
        let collector = shc_obs::Collector::new();
        {
            let _guard = shc_obs::install_scoped(&collector);
            analysis.run(&at).unwrap();
        }
        assert_eq!(collector.counter(shc_obs::Metric::TransientRuns), 2);
        assert_eq!(collector.counter(shc_obs::Metric::PrefixResumes), 2);
        let built = rungs(&ladder);
        let resumed_at = c.agreement_horizon(&quiescent(), &at);
        let adopted = built
            .marks
            .iter()
            .rfind(|m| m.reach < resumed_at)
            .unwrap()
            .stats
            .steps;
        assert_eq!(
            collector.counter(shc_obs::Metric::PrefixStepsReused),
            (16 + adopted) as u64,
            "the reference run resumes from step 16"
        );
        assert!(built.marks.iter().any(|m| m.stats.rejected_steps > 0));
        let full = TransientAnalysis::new(&c, opts.clone())
            .run(&quiescent())
            .unwrap();
        let probed = TransientAnalysis::new(
            &c,
            TransientOptions {
                record: RecordMode::Probe(0),
                ..opts.clone()
            },
        )
        .run(&quiescent())
        .unwrap();
        assert_eq!(probed.stats(), full.stats());
        for mark in &built.marks {
            assert_eq!(mark.t.to_bits(), probed.times()[mark.stats.steps].to_bits());
        }
        assert_resumes_bitwise(&c, &opts, &analysis, &[at, quiescent()]);

        // A seed at another step size stays unused: the reference run
        // starts from DC.
        let ladder = PrefixLadder::default();
        let coarse = TransientOptions {
            dt: 20e-9,
            ..opts.clone()
        };
        TransientAnalysis::new(&c, coarse)
            .seeding(&ladder)
            .run(&seeding_at)
            .unwrap();
        let collector = shc_obs::Collector::new();
        {
            let _guard = shc_obs::install_scoped(&collector);
            TransientAnalysis::new(&c, opts.clone())
                .with_ladder(&ladder, quiescent())
                .run(&at)
                .unwrap();
        }
        assert_eq!(collector.counter(shc_obs::Metric::TransientRuns), 2);
        assert_eq!(collector.counter(shc_obs::Metric::PrefixResumes), 1);
    }

    /// A run falls back to the DC start, still bitwise equal, when its
    /// horizon is zero, its options step differently from the reference
    /// run's, or it may not resume at all; and the reference run happens
    /// once, on the first eligible run only.
    #[test]
    fn runs_without_an_eligible_checkpoint_start_from_dc() {
        let (c, opts) = clocked_rc();
        let ladder = PrefixLadder::default();
        let full_record = TransientOptions {
            record: RecordMode::Full,
            ..opts.clone()
        };
        let at = Params::new(100e-9, 100e-9);
        // Not resumable: no reference run yet.
        let collector = shc_obs::Collector::new();
        {
            let _guard = shc_obs::install_scoped(&collector);
            let analysis =
                TransientAnalysis::new(&c, full_record.clone()).with_ladder(&ladder, quiescent());
            analysis.run(&at).unwrap();
        }
        assert!(!ladder.is_built());
        assert_eq!(collector.counter(shc_obs::Metric::TransientRuns), 1);

        TransientAnalysis::new(&c, opts.clone())
            .with_ladder(&ladder, quiescent())
            .run(&at)
            .unwrap();
        assert!(ladder.is_built());
        assert_eq!(rungs(&ladder).marks[0].stats.steps, 0);
        let mut shorter = opts.clone();
        shorter.tstop = 300e-9;
        for (opts, at) in [
            (opts, Params::new(f64::NAN, 100e-9)),
            (shorter, at),
            (full_record, at),
        ] {
            let analysis =
                TransientAnalysis::new(&c, opts.clone()).with_ladder(&ladder, quiescent());
            let collector = shc_obs::Collector::new();
            let resumed = {
                let _guard = shc_obs::install_scoped(&collector);
                analysis.run(&at).unwrap()
            };
            assert_eq!(collector.counter(shc_obs::Metric::TransientRuns), 1);
            assert_eq!(collector.counter(shc_obs::Metric::PrefixResumes), 0);
            let full = TransientAnalysis::new(&c, opts).run(&at).unwrap();
            assert_eq!(resumed.times(), full.times());
            assert_eq!(resumed.stats(), full.stats());
            assert_eq!(
                resumed.final_state().as_slice(),
                full.final_state().as_slice()
            );
        }
    }

    #[test]
    fn crossing_time_and_interpolation() {
        let (c, out) = rc_circuit();
        let mut x0 = Vector::zeros(c.unknown_count());
        x0[0] = 1.0;
        let opts = TransientOptions::builder(5e-6)
            .dt(5e-9)
            .initial(InitialCondition::Given(x0))
            .build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        // v crosses 0.5 at t = tau·ln2 ≈ 0.693 µs.
        let t50 = res
            .crossing_time(out, 0.5, 0.0, CrossingDirection::Rising)
            .unwrap();
        assert!((t50 - 0.693e-6).abs() < 1e-8, "t50 = {t50:e}");
        assert!(res
            .crossing_time(out, 0.5, 4e-6, CrossingDirection::Rising)
            .is_none());
        assert!(res
            .crossing_time(out, 0.5, 0.0, CrossingDirection::Falling)
            .is_none());
        assert!(res.value_at(out, -1.0).is_none());
        assert!(res.value_at(out, 9e-6).is_none());
    }

    #[test]
    fn probe_mode_records_single_trajectory() {
        let (c, out) = rc_circuit();
        let opts = TransientOptions::builder(1e-7)
            .dt(1e-9)
            .record(RecordMode::Probe(out))
            .build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        assert!(res.states().is_empty());
        assert!(res.trajectory(out).is_some());
        assert!(res.trajectory(out + 1).is_none());
        assert_eq!(res.trajectory(out).unwrap().len(), res.times().len());
    }

    #[test]
    fn final_only_mode_keeps_nothing_but_final() {
        let (c, out) = rc_circuit();
        let opts = TransientOptions::builder(1e-7)
            .dt(1e-9)
            .record(RecordMode::FinalOnly)
            .build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        assert!(res.states().is_empty());
        assert!(res.trajectory(out).is_none());
        assert_eq!(res.final_state().len(), c.unknown_count());
        assert_eq!(res.times().len(), 1);
        assert!((res.times()[0] - 1e-7).abs() < 1e-18);
    }

    /// A final-only run keeps its final time and nothing before it, from
    /// the DC start and resumed from a ladder alike, with the same bits
    /// as the last time of a run that records every step.
    #[test]
    fn final_only_runs_hold_their_final_time_alone() {
        let (c, opts) = clocked_rc();
        let ladder = PrefixLadder::default();
        let analysis = TransientAnalysis::new(&c, opts.clone()).with_ladder(&ladder, quiescent());
        // Leading ramp 250–350 ns: the run adopts a rung past step 16.
        let at = Params::new(0.0, 400e-9);
        analysis.run(&quiescent()).unwrap();
        let collector = shc_obs::Collector::new();
        let resumed = {
            let _guard = shc_obs::install_scoped(&collector);
            analysis.run(&at).unwrap()
        };
        assert!(collector.counter(shc_obs::Metric::PrefixStepsReused) > 0);
        let full = TransientAnalysis::new(&c, opts.clone()).run(&at).unwrap();
        let probed = TransientAnalysis::new(
            &c,
            TransientOptions {
                record: RecordMode::Probe(0),
                ..opts
            },
        )
        .run(&at)
        .unwrap();
        assert_eq!(probed.times().len(), probed.stats().steps + 1);
        let last = probed.times().last().unwrap().to_bits();
        for run in [&resumed, &full] {
            assert_eq!(run.times().len(), 1);
            assert_eq!(run.times()[0].to_bits(), last);
            assert_eq!(run.stats(), probed.stats());
        }
    }

    #[test]
    fn bad_initial_condition_length_rejected() {
        let (c, _) = rc_circuit();
        let opts = TransientOptions::builder(1e-7)
            .dt(1e-9)
            .initial(InitialCondition::Given(Vector::zeros(1)))
            .build();
        let err = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap_err();
        assert!(matches!(err, SpiceError::BadCircuit { .. }));
    }

    #[test]
    fn builder_rejects_bad_tstop() {
        let (c, _) = rc_circuit();
        let built = TransientOptions::builder(-1.0).build();
        let direct = TransientOptions {
            dt: f64::NAN,
            ..TransientOptions::builder(1e-7).build()
        };
        for opts in [built, direct] {
            let err = TransientAnalysis::new(&c, opts)
                .run(&Params::default())
                .unwrap_err();
            assert!(
                matches!(&err, SpiceError::BadCircuit { reason } if reason.contains("positive")),
                "{err}"
            );
        }
    }
}
