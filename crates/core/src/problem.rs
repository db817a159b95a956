//! Problem formulation: the scalar equation `h(τs, τh) = 0`.

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};
use shc_cells::{OutputTransition, Register};
use shc_spice::transient::{
    CrossingDirection, Integrator, PrefixLadder, RecordMode, SiblingRungs, TransientAnalysis,
    TransientOptions, TransientResult, TransientScratch, TransientStats,
};
use shc_spice::waveform::{Param, Params};
use shc_spice::SolverChoice;

use crate::{CharError, Result};

/// How a problem evaluates a sequence of points
/// ([`CharacterizationProblem::evaluate_batch`], which
/// [`crate::surface::generate`] runs once per grid row). Both policies
/// give bitwise-identical values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BatchPolicy {
    /// Each point after the first resumes from the sibling rungs the
    /// point before it left, wherever the prefix ladder may resume a run
    /// ([`shc_spice::transient::TransientAnalysis::with_siblings`]).
    #[default]
    Auto,
    /// Every point is its own [`CharacterizationProblem::evaluate`]: the
    /// reference that sibling-resumed evaluations are checked against.
    Scalar,
}

/// Most fixed steps the calibration run may span, `(edge + 0.45·period)/dt`.
/// The shipped cells and examples need at most ~8k (paper clock at a 2 ps
/// step), so this leaves >100× headroom while a huge `--edge` or `--period`
/// becomes an error instead of a run that never ends.
const MAX_CALIBRATION_STEPS: f64 = 1e6;

/// One evaluation of `h` and (optionally) its 1×2 Jacobian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HEvaluation {
    /// `h(τs, τh) = cᵀx(t_f) − r`.
    /// unit: V
    pub h: f64,
    /// `∂h/∂τs` from forward sensitivity analysis.
    /// unit: V/s
    pub dh_dtau_s: f64,
    /// `∂h/∂τh` from forward sensitivity analysis.
    /// unit: V/s
    pub dh_dtau_h: f64,
    /// Work counters of the transient run behind this evaluation.
    pub stats: TransientStats,
}

impl HEvaluation {
    /// Euclidean norm of the Jacobian row.
    pub fn jacobian_norm(&self) -> f64 {
        (self.dh_dtau_s * self.dh_dtau_s + self.dh_dtau_h * self.dh_dtau_h).sqrt()
    }

    /// The unit tangent to the solution curve induced by the Jacobian —
    /// paper eq. (16): `T = (−∂h/∂τh, ∂h/∂τs) / ‖·‖`.
    ///
    /// Returns `None` if the Jacobian vanishes.
    pub fn tangent(&self) -> Option<(f64, f64)> {
        let n = self.jacobian_norm();
        if n == 0.0 || !n.is_finite() {
            return None;
        }
        Some((-self.dh_dtau_h / n, self.dh_dtau_s / n))
    }

    /// The Moore-Penrose Newton update `Δτ = −h·H⁺` — paper eqs. (23)/(24).
    ///
    /// For the 1×2 Jacobian, `H⁺ = Hᵀ/(H Hᵀ)`, so
    /// `Δτ = −h·(∂h/∂τs, ∂h/∂τh) / ‖H‖²`.
    ///
    /// Returns `None` if the Jacobian vanishes.
    pub fn mpnr_step(&self) -> Option<(f64, f64)> {
        let n2 = self.dh_dtau_s * self.dh_dtau_s + self.dh_dtau_h * self.dh_dtau_h;
        if n2 == 0.0 || !n2.is_finite() {
            return None;
        }
        let scale = -self.h / n2;
        Some((scale * self.dh_dtau_s, scale * self.dh_dtau_h))
    }
}

/// The interdependent setup/hold characterization problem for one register:
/// holds the measured characteristic delay, the degraded target `(t_f, r)`,
/// and evaluates `h(τs, τh)` by transient simulation.
///
/// Construct with [`CharacterizationProblem::builder`]; building runs one
/// reference simulation (generous skews) to measure the characteristic
/// clock-to-Q delay and derive `t_f` and `r` exactly as in the paper's
/// Sec. IV.
#[derive(Debug)]
pub struct CharacterizationProblem {
    register: Register,
    degradation: f64,
    capture_fraction: f64,
    dt: f64,
    solver: SolverChoice,
    batch: BatchPolicy,
    reference: Params,
    t_cq: f64,
    tf: f64,
    sim_count: AtomicUsize,
    /// Checkpoints every evaluation resumes from,
    /// built by the first eligible one at [`Self::quiescent_params`] from
    /// the calibration run's seed.
    ladder: PrefixLadder,
}

// The parallel sweeps in [`crate::parallel`] share problems across worker
// threads by reference: every field is plain data except `sim_count`,
// whose atomic updates make `evaluate` callable from many threads at once,
// and `ladder`, whose `OnceLock` builds it exactly once however many
// threads ask. This assertion turns any future non-thread-safe field (e.g.
// a `RefCell` scratch cache) into a compile error instead of a broken
// sweep.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CharacterizationProblem>();
};

impl CharacterizationProblem {
    /// Starts building a problem around a register fixture.
    pub fn builder(register: Register) -> ProblemBuilder {
        ProblemBuilder {
            register,
            degradation: 0.10,
            capture_fraction: None,
            dt: None,
            solver: SolverChoice::Auto,
            batch: BatchPolicy::default(),
            reference_skew: None,
            reference_setup: None,
        }
    }

    /// The register under characterization.
    pub fn register(&self) -> &Register {
        &self.register
    }

    /// The clock-to-Q degradation defining the contour (e.g. `0.10`).
    pub fn degradation(&self) -> f64 {
        self.degradation
    }

    /// The characteristic (undegraded) clock-to-Q delay, in seconds.
    pub fn characteristic_delay(&self) -> f64 {
        self.t_cq
    }

    /// The evaluation time `t_f` (absolute simulation time, seconds).
    pub fn t_f(&self) -> f64 {
        self.tf
    }

    /// The target output level `r`, in volts.
    pub fn r(&self) -> f64 {
        self.register.target_level(self.capture_fraction)
    }

    /// The fixed transient time step used for `h` evaluations.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Generous-skew parameters used for reference measurements.
    pub fn reference_params(&self) -> Params {
        self.reference
    }

    /// Whether an `h` value corresponds to a *successful* capture
    /// (output past the target level in the monitored direction).
    pub fn is_pass(&self, h: f64) -> bool {
        match self.register.transition() {
            OutputTransition::Rising => h > 0.0,
            OutputTransition::Falling => h < 0.0,
        }
    }

    /// Number of transient simulations performed through this problem since
    /// construction (or the last [`Self::reset_simulation_count`]).
    ///
    /// This is the user-visible simulation budget; the reference
    /// (calibration) run performed by the builder is accounted separately
    /// in [`Self::calibration_simulations`].
    pub fn simulation_count(&self) -> usize {
        self.sim_count.load(Ordering::Relaxed)
    }

    /// Number of transient simulations spent outside the user-visible
    /// budget: one measuring the characteristic delay at build time, plus
    /// one for the prefix ladder once the first evaluation has built it.
    /// Reported separately so the per-contour budget in
    /// [`Self::simulation_count`] stays an honest O(n) figure.
    pub fn calibration_simulations(&self) -> usize {
        1 + usize::from(self.ladder.is_built())
    }

    /// Resets the simulation counter to zero.
    pub fn reset_simulation_count(&self) {
        self.sim_count.store(0, Ordering::Relaxed);
    }

    fn transient_options(&self, sensitivities: &[Param]) -> TransientOptions {
        TransientOptions::builder(self.tf)
            .dt(self.dt)
            .solver(self.solver)
            .record(RecordMode::FinalOnly)
            .sensitivities(sensitivities)
            .build()
    }

    /// Evaluates `h(τs, τh)` with one transient simulation (no
    /// sensitivities).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn evaluate(&self, params: &Params) -> Result<f64> {
        let res = self.run_scalar(&[], params)?;
        Ok(self.h_of(&res))
    }

    /// Evaluates `h` *and* its Jacobian `[∂h/∂τs, ∂h/∂τh]` in one transient
    /// with forward sensitivity propagation (paper eqs. (21)–(22)).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn evaluate_with_jacobian(&self, params: &Params) -> Result<HEvaluation> {
        let res = self.run_scalar(&Param::ALL, params)?;
        self.jacobian_evaluation(&res)
    }

    /// One counted scalar transient at `params`, resumed from the prefix
    /// ladder when the analysis allows it; bitwise identical to a run from
    /// the DC start either way.
    fn run_scalar(&self, sensitivities: &[Param], params: &Params) -> Result<TransientResult> {
        self.sim_count.fetch_add(1, Ordering::Relaxed);
        Ok(self.analysis(sensitivities).run(params)?)
    }

    /// The analysis behind every evaluation with these sensitivities,
    /// resuming from the prefix ladder.
    fn analysis(&self, sensitivities: &[Param]) -> TransientAnalysis<'_> {
        TransientAnalysis::new(
            self.register.circuit(),
            self.transient_options(sensitivities),
        )
        .with_ladder(&self.ladder, self.quiescent_params())
    }

    /// `h` of a finished final-only transient of this problem's circuit.
    fn h_of(&self, res: &TransientResult) -> f64 {
        res.final_state()[self.register.output_unknown()] - self.r()
    }

    /// The prefix ladder's reference skews: a normal data pulse whose
    /// leading ramp starts `rise/2` after `t_f` and whose trailing ramp
    /// starts one full `fall` after the leading one ends.
    fn quiescent_params(&self) -> Params {
        let data = self.register.data_pulse();
        let lead = self.tf + data.rise;
        Params::new(
            data.t_edge - lead,
            lead + data.rise + data.fall - data.t_edge,
        )
    }

    /// Evaluates `h(τs, τh)` at each of `params`, in order, one counted
    /// transient each, bitwise identical to [`Self::evaluate`] per point.
    /// Under [`BatchPolicy::Scalar`] every point is an [`Self::evaluate`];
    /// otherwise each point after the first resumes from the sibling
    /// rungs the point before it left
    /// ([`TransientAnalysis::with_siblings`]), or from the prefix ladder
    /// when none lies below their agreement horizon. A surface row — one
    /// setup skew, rising hold skews — shares most of its prefix that
    /// way: its sibling rung is never earlier than the ladder's.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-index simulation failure.
    pub fn evaluate_batch(&self, params: &[Params]) -> Result<Vec<f64>> {
        if self.batch == BatchPolicy::Scalar {
            return params.iter().map(|p| self.evaluate(p)).collect();
        }
        let mut chain = EvalChain::new(self);
        params.iter().map(|p| chain.h(p)).collect()
    }

    /// Evaluates `h` *and* its Jacobian at each of `params`, in order: one
    /// [`Self::evaluate_with_jacobian`] per point. Retained for the
    /// benchmark of record, whose traced per-layer pass times it, until
    /// the benchmark drops its `*_batch*` metrics (ROADMAP item 3).
    ///
    /// # Errors
    ///
    /// Propagates the lowest-index simulation failure.
    pub fn evaluate_with_jacobian_batch(&self, params: &[Params]) -> Result<Vec<HEvaluation>> {
        params
            .iter()
            .map(|p| self.evaluate_with_jacobian(p))
            .collect()
    }

    /// Extracts an [`HEvaluation`] from a finished final-only transient of
    /// this problem's circuit.
    fn jacobian_evaluation(&self, res: &TransientResult) -> Result<HEvaluation> {
        let out = self.register.output_unknown();
        let ms = res
            .final_sensitivity(Param::Setup)
            .ok_or(CharError::Internal {
                reason: "transient ran with sensitivities on but returned no setup sensitivity",
            })?;
        let mh = res
            .final_sensitivity(Param::Hold)
            .ok_or(CharError::Internal {
                reason: "transient ran with sensitivities on but returned no hold sensitivity",
            })?;
        Ok(HEvaluation {
            h: self.h_of(res),
            dh_dtau_s: ms[out],
            dh_dtau_h: mh[out],
            stats: *res.stats(),
        })
    }

    /// Convenience: seed and trace an `n`-point constant clock-to-Q contour
    /// with default options.
    ///
    /// # Errors
    ///
    /// Propagates seeding, MPNR, and tracing failures.
    pub fn trace_contour(&self, n: usize) -> Result<crate::Contour> {
        self.trace_contour_with(
            n,
            &crate::SeedOptions::default(),
            &crate::TracerOptions::default(),
        )
    }

    /// Like [`Self::trace_contour`] with explicit seeding and tracing
    /// options.
    ///
    /// # Errors
    ///
    /// Propagates seeding, MPNR, and tracing failures.
    pub fn trace_contour_with(
        &self,
        n: usize,
        seed_opts: &crate::SeedOptions,
        tracer_opts: &crate::TracerOptions,
    ) -> Result<crate::Contour> {
        let seed = crate::seed::find_first_point(self, seed_opts)?;
        crate::tracer::trace(self, seed.params, n, tracer_opts)
    }
}

/// A chain of evaluations of one problem that resume from each other's
/// transient prefix: one set of sibling rungs and one scratch. Evaluations
/// at one setup skew share everything before the earlier of their
/// trailing data ramps, and each resumes from the latest rung the ones
/// before it left below that, in any order of hold skews
/// ([`TransientAnalysis::with_siblings`]). Each evaluation counts as one
/// simulation and is bitwise identical to the problem's own evaluation at
/// its point.
pub(crate) struct EvalChain<'p> {
    problem: &'p CharacterizationProblem,
    siblings: SiblingRungs,
    scratch: TransientScratch,
}

impl<'p> EvalChain<'p> {
    pub(crate) fn new(problem: &'p CharacterizationProblem) -> Self {
        EvalChain {
            problem,
            siblings: SiblingRungs::default(),
            scratch: TransientScratch::new(problem.register.circuit().unknown_count()),
        }
    }

    /// The problem the chain evaluates.
    pub(crate) fn problem(&self) -> &'p CharacterizationProblem {
        self.problem
    }

    /// `h` at `params`: [`CharacterizationProblem::evaluate`].
    pub(crate) fn h(&mut self, params: &Params) -> Result<f64> {
        let res = self.run(&[], params)?;
        Ok(self.problem.h_of(&res))
    }

    /// `h` and its Jacobian at `params`:
    /// [`CharacterizationProblem::evaluate_with_jacobian`].
    pub(crate) fn h_with_jacobian(&mut self, params: &Params) -> Result<HEvaluation> {
        let res = self.run(&Param::ALL, params)?;
        self.problem.jacobian_evaluation(&res)
    }

    /// `h` and `∂h/∂τh` at `params`, from one transient that propagates
    /// the hold sensitivity alone; `dh_dtau_s` is NaN.
    pub(crate) fn h_with_hold_derivative(&mut self, params: &Params) -> Result<HEvaluation> {
        let res = self.run(&[Param::Hold], params)?;
        let mh = res
            .final_sensitivity(Param::Hold)
            .ok_or(CharError::Internal {
                reason: "transient ran with the hold sensitivity on but returned none",
            })?;
        Ok(HEvaluation {
            h: self.problem.h_of(&res),
            dh_dtau_s: f64::NAN,
            dh_dtau_h: mh[self.problem.register.output_unknown()],
            stats: *res.stats(),
        })
    }

    fn run(&mut self, sensitivities: &[Param], params: &Params) -> Result<TransientResult> {
        self.problem.sim_count.fetch_add(1, Ordering::Relaxed);
        Ok(self
            .problem
            .analysis(sensitivities)
            .with_siblings(&self.siblings)
            .run_with_scratch(params, &mut self.scratch)?)
    }
}

/// Builder for [`CharacterizationProblem`].
#[derive(Debug)]
pub struct ProblemBuilder {
    register: Register,
    degradation: f64,
    capture_fraction: Option<f64>,
    dt: Option<f64>,
    solver: SolverChoice,
    batch: BatchPolicy,
    reference_skew: Option<f64>,
    reference_setup: Option<f64>,
}

impl ProblemBuilder {
    /// Sets the clock-to-Q degradation fraction defining the contour
    /// (default `0.10`, the paper's 10% criterion).
    pub fn degradation(mut self, degradation: f64) -> Self {
        self.degradation = degradation;
        self
    }

    /// Overrides the capture fraction (default: the register's own,
    /// 0.5 for TSPC, 0.9 for C²MOS).
    pub fn capture_fraction(mut self, fraction: f64) -> Self {
        self.capture_fraction = Some(fraction);
        self
    }

    /// Overrides the fixed transient step (default: 4 ps, 25 points per
    /// 0.1 ns signal edge).
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = Some(dt);
        self
    }

    /// Selects the linear-solver backend for every transient this problem
    /// runs (default [`SolverChoice::Auto`]: dense for the seed-cell-sized
    /// circuits, sparse-direct above the dispatch threshold).
    pub fn solver(mut self, solver: SolverChoice) -> Self {
        self.solver = solver;
        self
    }

    /// Selects how surface rows evaluate their points (default
    /// [`BatchPolicy::Auto`]: sibling rungs).
    pub fn batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Overrides the generous skew used for the reference measurement
    /// (default: 30% of the clock period).
    pub fn reference_skew(mut self, skew: f64) -> Self {
        self.reference_skew = Some(skew);
        self
    }

    /// Overrides the reference *setup* skew specifically. Level-sensitive
    /// latches need this near the closing edge (the output must still be
    /// in flight at the edge for a clock-referenced delay to exist);
    /// built-in latch fixtures set it automatically via
    /// [`shc_cells::Register::reference_setup_hint`].
    pub fn reference_setup(mut self, skew: f64) -> Self {
        self.reference_setup = Some(skew);
        self
    }

    /// Measures the characteristic clock-to-Q delay and finalizes the
    /// problem.
    ///
    /// # Errors
    ///
    /// - [`CharError::BadOption`] for invalid settings;
    /// - [`CharError::NoCharacteristicDelay`] if the output never crosses
    ///   the target level with generous skews;
    /// - propagated simulation failures.
    pub fn build(self) -> Result<CharacterizationProblem> {
        if !(0.0..1.0).contains(&self.degradation) {
            return Err(CharError::BadOption {
                reason: "degradation must be in [0, 1)",
            });
        }
        let capture_fraction = self
            .capture_fraction
            .unwrap_or_else(|| self.register.capture_fraction());
        if !(0.0..1.0).contains(&capture_fraction) || capture_fraction <= 0.0 {
            return Err(CharError::BadOption {
                reason: "capture fraction must be in (0, 1)",
            });
        }
        let dt = self.dt.unwrap_or(4e-12);
        if dt <= 0.0 || !dt.is_finite() {
            return Err(CharError::BadOption {
                reason: "dt must be positive and finite",
            });
        }
        let reference_hold = self
            .reference_skew
            .unwrap_or(0.3 * self.register.clock().period);
        // Level-sensitive latches need their reference capture near the
        // closing edge; edge-triggered registers use the generous skew.
        let reference_setup = self
            .reference_setup
            .or_else(|| self.register.reference_setup_hint())
            .unwrap_or(reference_hold);
        // Accept, not reject, so NaN fails too.
        let positive = |skew: f64| skew > 0.0 && skew.is_finite();
        if !(positive(reference_hold) && positive(reference_setup)) {
            return Err(CharError::BadOption {
                reason: "reference skew must be positive and finite",
            });
        }

        // Reference simulation with generous skews: measure t_c and derive
        // t_f = t_edge + (1 + degradation)·t_CQ, r = capture level.
        let register = self.register;
        let edge = register.active_edge_time();
        let r = register.target_level(capture_fraction);
        let settle = 0.45 * register.clock().period;
        // Accept, not reject, so NaN fails too.
        let within_budget = (edge + settle) / dt <= MAX_CALIBRATION_STEPS;
        if !within_budget {
            return Err(CharError::BadOption {
                reason: "calibration span (edge + 0.45·period) exceeds the step budget at this dt",
            });
        }
        let opts = TransientOptions::builder(edge + settle)
            .dt(dt)
            .solver(self.solver)
            .record(RecordMode::Probe(register.output_unknown()))
            .build();
        let params = Params::new(reference_setup, reference_hold);
        let direction = match register.transition() {
            OutputTransition::Rising => CrossingDirection::Rising,
            OutputTransition::Falling => CrossingDirection::Falling,
        };
        // The run ends at the crossing it measures. Its quiescent prefix is
        // the prefix ladder's too: it seeds the ladder.
        let ladder = PrefixLadder::default();
        let res = {
            let _span = shc_obs::span(shc_obs::SpanKind::Calibration);
            TransientAnalysis::new(register.circuit(), opts)
                .stop_at_crossing(register.output_unknown(), r, edge, direction)
                .seeding(&ladder)
                .run(&params)?
        };
        let tc = res
            .crossing_time(register.output_unknown(), r, edge, direction)
            .ok_or(CharError::NoCharacteristicDelay { level: r })?;
        let t_cq = tc - edge;
        let tf = edge + (1.0 + self.degradation) * t_cq;

        Ok(CharacterizationProblem {
            register,
            degradation: self.degradation,
            capture_fraction,
            dt,
            solver: self.solver,
            batch: self.batch,
            reference: params,
            t_cq,
            tf,
            // The calibration run above is accounted in
            // `calibration_simulations`, not in the user-visible budget.
            sim_count: AtomicUsize::new(0),
            ladder,
        })
    }
}

impl CharacterizationProblem {
    /// The capture fraction in effect.
    pub fn capture_fraction(&self) -> f64 {
        self.capture_fraction
    }

    /// The integration method in effect: Backward Euler, the only one.
    /// Retained for the benchmark of record until ROADMAP item 3.
    pub fn integrator(&self) -> Integrator {
        Integrator::BackwardEuler
    }

    /// The linear-solver backend in effect.
    pub fn solver(&self) -> SolverChoice {
        self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_cells::{tspc_register_with, ClockSpec, Technology};

    fn fast_problem() -> CharacterizationProblem {
        let tech = Technology::default_250nm();
        CharacterizationProblem::builder(tspc_register_with(&tech, ClockSpec::fast()))
            .build()
            .expect("problem builds")
    }

    #[test]
    fn characteristic_delay_is_plausible() {
        let p = fast_problem();
        // A few tens to a few hundred ps for this technology.
        assert!(
            p.characteristic_delay() > 10e-12 && p.characteristic_delay() < 1e-9,
            "t_CQ = {:.1} ps",
            p.characteristic_delay() * 1e12
        );
        assert!(p.t_f() > p.register().active_edge_time());
        assert!((p.r() - 1.25).abs() < 1e-12); // 50% of 2.5 V, rising
                                               // Calibration is accounted separately from the user budget.
        assert_eq!(p.simulation_count(), 0);
        assert_eq!(p.calibration_simulations(), 1);
    }

    #[test]
    fn h_sign_separates_pass_and_fail() {
        let p = fast_problem();
        let generous = p.evaluate(&p.reference_params()).unwrap();
        assert!(
            p.is_pass(generous),
            "generous skews must pass: h = {generous}"
        );
        // A data pulse entirely before the edge cannot be captured.
        let hopeless = p.evaluate(&Params::new(0.9e-9, -0.6e-9)).unwrap();
        assert!(
            !p.is_pass(hopeless),
            "hopeless skews must fail: h = {hopeless}"
        );
    }

    #[test]
    fn jacobian_matches_finite_differences_on_transition() {
        let p = fast_problem();
        // Find a point near the transition: shrink hold skew until h drops
        // into a responsive region.
        let tau_s = 0.35e-9;
        let mut tau_h = 0.30e-9;
        let mut chosen = None;
        for _ in 0..14 {
            let ev = p
                .evaluate_with_jacobian(&Params::new(tau_s, tau_h))
                .unwrap();
            if ev.jacobian_norm() > 1e6 {
                chosen = Some((tau_h, ev));
                break;
            }
            tau_h -= 0.02e-9;
        }
        let (tau_h, ev) = chosen.expect("found a responsive point");
        let d = 2e-13;
        let fd_s = (p.evaluate(&Params::new(tau_s + d, tau_h)).unwrap()
            - p.evaluate(&Params::new(tau_s - d, tau_h)).unwrap())
            / (2.0 * d);
        let fd_h = (p.evaluate(&Params::new(tau_s, tau_h + d)).unwrap()
            - p.evaluate(&Params::new(tau_s, tau_h - d)).unwrap())
            / (2.0 * d);
        let scale = ev.jacobian_norm();
        assert!(
            (ev.dh_dtau_s - fd_s).abs() < 0.08 * scale,
            "dh/dτs: sens {:.4e} vs fd {:.4e}",
            ev.dh_dtau_s,
            fd_s
        );
        assert!(
            (ev.dh_dtau_h - fd_h).abs() < 0.08 * scale,
            "dh/dτh: sens {:.4e} vs fd {:.4e}",
            ev.dh_dtau_h,
            fd_h
        );
    }

    #[test]
    fn tangent_is_unit_and_orthogonal_to_gradient() {
        let ev = HEvaluation {
            h: 0.1,
            dh_dtau_s: 3.0,
            dh_dtau_h: 4.0,
            stats: TransientStats::default(),
        };
        let (ts, th) = ev.tangent().unwrap();
        assert!((ts * ts + th * th - 1.0).abs() < 1e-12);
        assert!((ts * ev.dh_dtau_s + th * ev.dh_dtau_h).abs() < 1e-12);
    }

    #[test]
    fn mpnr_step_solves_linear_case_exactly() {
        // h(τ) = 2τs + τh − 4 at τ = (0,0): step must land on the line at
        // the closest point: Δ = 4·(2,1)/5.
        let ev = HEvaluation {
            h: -4.0,
            dh_dtau_s: 2.0,
            dh_dtau_h: 1.0,
            stats: TransientStats::default(),
        };
        let (ds, dh) = ev.mpnr_step().unwrap();
        assert!((ds - 1.6).abs() < 1e-12);
        assert!((dh - 0.8).abs() < 1e-12);
    }

    #[test]
    fn degenerate_jacobian_yields_none() {
        let ev = HEvaluation {
            h: 1.0,
            dh_dtau_s: 0.0,
            dh_dtau_h: 0.0,
            stats: TransientStats::default(),
        };
        assert!(ev.tangent().is_none());
        assert!(ev.mpnr_step().is_none());
    }

    #[test]
    fn builder_validates_options() {
        let tech = Technology::default_250nm();
        let reg = || tspc_register_with(&tech, ClockSpec::fast());
        // `0.0..1.0` holds both zeros and excludes 1 and NaN.
        for bad in [1.5, 1.0, -0.1, f64::NAN] {
            assert!(
                matches!(
                    CharacterizationProblem::builder(reg())
                        .degradation(bad)
                        .build(),
                    Err(CharError::BadOption { .. })
                ),
                "degradation {bad} accepted"
            );
        }
        for good in [0.0, -0.0] {
            let problem = CharacterizationProblem::builder(reg())
                .degradation(good)
                .build();
            assert!(problem.is_ok(), "degradation {good}: {problem:?}");
        }
        assert!(matches!(
            CharacterizationProblem::builder(reg()).dt(-1.0).build(),
            Err(CharError::BadOption { .. })
        ));
        // Non-finite reference skews are rejected before any simulation.
        let collector = shc_obs::Collector::new();
        let _guard = shc_obs::install_scoped(&collector);
        for skew in [f64::NAN, f64::INFINITY] {
            for built in [
                CharacterizationProblem::builder(reg())
                    .reference_skew(skew)
                    .build(),
                CharacterizationProblem::builder(reg())
                    .reference_setup(skew)
                    .build(),
            ] {
                assert!(
                    matches!(built, Err(CharError::BadOption { .. })),
                    "{skew}: {built:?}"
                );
            }
        }
        assert_eq!(collector.counter(shc_obs::Metric::TransientRuns), 0);
    }

    /// Over a traced contour, computed plus reused steps account for every
    /// run's steps. These cells never cut `dt`, so every run of a problem
    /// takes the same steps: the ladder's reference run resumes from the
    /// calibration run's seed and computes the rest, and every evaluation
    /// resumes from the ladder.
    #[test]
    fn computed_and_reused_steps_add_up_over_a_traced_contour() {
        use shc_obs::Metric;
        let p = fast_problem();
        let steps_per_run = full_run(&p, &p.reference_params()).stats().steps as u64;
        let collector = shc_obs::Collector::new();
        {
            let _guard = shc_obs::install_scoped(&collector);
            p.trace_contour(40).unwrap();
        }
        let runs = collector.counter(Metric::TransientRuns);
        assert_eq!(collector.counter(Metric::LteRejections), 0);
        assert_eq!(
            runs,
            p.simulation_count() as u64 + 1,
            "evaluations + ladder"
        );
        assert_eq!(collector.counter(Metric::PrefixResumes), runs);
        let computed = collector.counter(Metric::TransientSteps);
        let reused = collector.counter(Metric::PrefixStepsReused);
        assert_eq!(computed + reused, runs * steps_per_run);
        assert!(
            reused > 2 * computed,
            "{reused} reused vs {computed} computed"
        );
    }

    /// Over a traced contour, every Newton iteration and every accepted
    /// step's sensitivity solve factors a step Jacobian, except the first
    /// iterates that take the previous step's factor: the dense
    /// factorizations plus `FactorsReused` make up that whole count, so
    /// `FactorsReused` is exactly the drop in `LuRefactors`. These cells
    /// never cut `dt`, so every computed step's first iterate takes the
    /// stamps of the state before; and no DC solve runs, since the
    /// calibration took it before the trace.
    #[test]
    fn reused_factors_account_for_the_factorizations_a_traced_contour_skips() {
        use shc_obs::Metric;
        let p = fast_problem();
        let collector = shc_obs::Collector::new();
        let profiler = shc_prof::Profiler::new();
        {
            let _guard = shc_obs::install_scoped(&collector);
            let _profile = shc_prof::install_scoped(&profiler);
            p.trace_contour(40).unwrap();
        }
        let sens_steps = profiler
            .report("contour")
            .phases
            .iter()
            .find(|a| a.phase == shc_prof::Phase::SensSolve.name())
            .map_or(0, |a| a.count);
        assert_eq!(collector.counter(Metric::LteRejections), 0);
        let computed = collector.counter(Metric::TransientSteps);
        assert_eq!(collector.counter(Metric::StampsReused), computed);
        let factored =
            collector.counter(Metric::LuRefactors) + collector.counter(Metric::LuFactorizations);
        let reused = collector.counter(Metric::FactorsReused);
        assert_eq!(
            factored + reused,
            collector.counter(Metric::NewtonIterations) + sens_steps
        );
        assert!(
            sens_steps > 0 && 10 * reused > 9 * sens_steps,
            "{reused} factors reused over {sens_steps} steps with sensitivities"
        );
    }

    /// The full-run reference for a resumed evaluation: the problem's own
    /// options, from the DC start.
    fn full_run(p: &CharacterizationProblem, at: &Params) -> TransientResult {
        TransientAnalysis::new(p.register().circuit(), p.transient_options(&Param::ALL))
            .run(at)
            .unwrap()
    }

    fn assert_resumed_matches_full(p: &CharacterizationProblem, at: &Params) {
        let full = full_run(p, at);
        let resumed = p.run_scalar(&Param::ALL, at).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let what = format!("{} at {at:?}", p.register().name());
        assert_eq!(resumed.times().len(), 1, "{what}: final-only times");
        assert_eq!(
            bits(resumed.times()),
            bits(full.times()),
            "{what}: final time"
        );
        assert_eq!(resumed.stats(), full.stats(), "{what}: stats");
        assert_eq!(
            bits(resumed.final_state().as_slice()),
            bits(full.final_state().as_slice()),
            "{what}: state"
        );
        for param in Param::ALL {
            assert_eq!(
                bits(resumed.final_sensitivity(param).unwrap().as_slice()),
                bits(full.final_sensitivity(param).unwrap().as_slice()),
                "{what}: {param:?} sensitivity"
            );
        }
        let ev = p.evaluate_with_jacobian(at).unwrap();
        let want = p.jacobian_evaluation(&full).unwrap();
        assert_eq!(ev.h.to_bits(), want.h.to_bits(), "{what}: h");
        assert_eq!(ev.dh_dtau_s.to_bits(), want.dh_dtau_s.to_bits(), "{what}");
        assert_eq!(ev.dh_dtau_h.to_bits(), want.dh_dtau_h.to_bits(), "{what}");
        assert_eq!(ev.stats, want.stats, "{what}: stats");
        assert_eq!(
            p.evaluate(at).unwrap().to_bits(),
            want.h.to_bits(),
            "{what}"
        );
    }

    /// The ladder checkpoint (every 16 steps) a run at `at` adopts, as its
    /// step count: the latest one below the run's agreement horizon, the
    /// final mark excluded (a resumed run computes at least one step).
    /// These cells never cut `dt`, so a checkpoint's `reach` is its own
    /// time.
    fn rung_steps(p: &CharacterizationProblem, times: &[f64], at: &Params) -> u64 {
        let horizon = p
            .register()
            .circuit()
            .agreement_horizon(&p.quiescent_params(), at);
        (0..times.len() - 1)
            .step_by(16)
            .take_while(|&k| times[k] < horizon)
            .last()
            .unwrap() as u64
    }

    /// Ladder-backed evaluations must reproduce full runs bit for bit:
    /// every point of a 40-point trace, the seed bracket ends, a
    /// surface-grid chunk, and a point whose data ramp
    /// starts exactly on a checkpoint's step endpoint (so the strict
    /// `reach < h` must pass over that checkpoint). The cells are TSPC and
    /// C²MOS on the fast clock, a Monte Carlo sample of TSPC (per-sample
    /// device values) and TSPC on the paper clock; in each, evaluations
    /// adopt both rungs the calibration run seeded and rungs the ladder's
    /// reference run added.
    #[test]
    fn resumed_evaluations_are_bitwise_identical_to_full_runs() {
        use crate::montecarlo::ProcessVariation;
        use rand::{rngs::StdRng, SeedableRng};
        use shc_cells::{c2mos_register_with, C2MOS_CLKB_SKEW};
        let tech = Technology::default_250nm();
        let sample = ProcessVariation::default().sample(&tech, &mut StdRng::seed_from_u64(7));
        for register in [
            tspc_register_with(&tech, ClockSpec::fast()),
            c2mos_register_with(&tech, ClockSpec::fast(), C2MOS_CLKB_SKEW),
            tspc_register_with(&sample, ClockSpec::fast()),
            tspc_register_with(&tech, ClockSpec::paper()),
        ] {
            let p = CharacterizationProblem::builder(register).build().unwrap();
            let reference = p.reference_params();
            let collector = shc_obs::Collector::new();
            let contour = {
                let _guard = shc_obs::install_scoped(&collector);
                p.trace_contour(40).unwrap()
            };
            assert_eq!(
                collector.counter(shc_obs::Metric::PrefixResumes),
                collector.counter(shc_obs::Metric::TransientRuns),
                "the ladder resumes from its seed, every evaluation from the ladder"
            );
            let mut points: Vec<Params> = contour
                .points()
                .iter()
                .map(|q| Params::new(q.tau_s, q.tau_h))
                .collect();
            assert_eq!(points.len(), 40);
            points.push(Params::new(-0.3e-9, reference.tau_h));
            points.push(reference);
            let grid = crate::SurfaceOptions::around_contour(&contour, 4);
            let lin = |(a, b): (f64, f64), k: usize| a + (b - a) * k as f64 / 3.0;
            points.extend(
                (0..16).map(|k| {
                    Params::new(lin(grid.tau_s_range, k / 4), lin(grid.tau_h_range, k % 4))
                }),
            );
            let collector = shc_obs::Collector::new();
            {
                let _guard = shc_obs::install_scoped(&collector);
                for at in &points {
                    assert_resumed_matches_full(&p, at);
                }
            }
            let resumes = collector.counter(shc_obs::Metric::PrefixResumes);
            assert_eq!(resumes, 3 * points.len() as u64, "every evaluation resumes");
            assert!(collector.counter(shc_obs::Metric::PrefixStepsReused) > 0);

            // A leading ramp starting exactly at checkpoint `j`'s time; the
            // ladder keeps a checkpoint every 16 steps.
            const STRIDE: usize = 16;
            let times = {
                let opts = TransientOptions {
                    record: shc_spice::transient::RecordMode::Probe(0),
                    ..p.transient_options(&Param::ALL)
                };
                let analysis = TransientAnalysis::new(p.register().circuit(), opts);
                analysis.run(&reference).unwrap().times().to_vec()
            };
            let data = p.register().data_pulse();
            let j = (1..times.len() / STRIDE)
                .find(|j| times[j * STRIDE] > data.t_edge - 0.4e-9)
                .unwrap();
            let t_j = times[j * STRIDE];
            let circuit = p.register().circuit();
            let mut tau_s = data.t_edge - (t_j + data.rise / 2.0);
            let on_endpoint = (0..64).find_map(|_| {
                let at = Params::new(tau_s, reference.tau_h);
                let h = circuit.agreement_horizon(&p.quiescent_params(), &at);
                if h == t_j {
                    return Some(at);
                }
                // A later ramp start needs a smaller τs.
                tau_s = if h < t_j {
                    tau_s.next_down()
                } else {
                    tau_s.next_up()
                };
                None
            });
            let at = on_endpoint.expect("a τs whose ramp starts on the endpoint");
            let collector = shc_obs::Collector::new();
            {
                let _guard = shc_obs::install_scoped(&collector);
                p.run_scalar(&Param::ALL, &at).unwrap();
            }
            let reused = collector.counter(shc_obs::Metric::PrefixStepsReused);
            assert!(
                reused > 0 && reused < (j * STRIDE) as u64,
                "checkpoint {j} touches the horizon yet {reused} steps were reused"
            );
            assert_resumed_matches_full(&p, &at);

            assert_eq!(rung_steps(&p, &times, &at), ((j - 1) * STRIDE) as u64);
            // The calibration run seeded the rungs below its agreement
            // horizon with the ladder's reference skews.
            let seeded_until = circuit.agreement_horizon(&reference, &p.quiescent_params());
            let seeded: Vec<bool> = points
                .iter()
                .map(|at| times[rung_steps(&p, &times, at) as usize] < seeded_until)
                .collect();
            assert!(seeded.contains(&true), "no point adopts a seeded rung");
            assert!(seeded.contains(&false), "no point adopts an extended rung");
        }
    }
}
