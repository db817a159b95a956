//! Moore-Penrose pseudo-inverse Newton-Raphson (MPNR) for the
//! underdetermined equation `h(τs, τh) = 0` — the paper's Sec. III-C.
//!
//! Each iteration runs one transient simulation with forward sensitivities
//! to obtain `h` and its 1×2 Jacobian `H`, then updates
//! `τ ← τ − h·H⁺` with `H⁺ = Hᵀ(H Hᵀ)⁻¹` (paper eqs. (15), (23), (24)).
//! Under mild conditions MPNR converges to the point of the solution curve
//! *nearest* the initial guess (paper Fig. 4).

use serde::{Deserialize, Serialize};
use shc_spice::transient::TransientStats;
use shc_spice::waveform::Params;

use crate::{BatchPolicy, CharError, CharacterizationProblem, Result};

/// How far the hold-side bracket search may wander from the predicted
/// skew, in units of `max_step`. Beyond this span the predictor was so
/// far off that bisection would converge to the wrong sheet.
const BRACKET_SPAN_FACTOR: f64 = 8.0;

/// Bisection stops when the bracket width falls below this multiple of
/// the update tolerance, matching the Newton convergence criterion.
const BISECT_WIDTH_FACTOR: f64 = 2.0;

/// Convergence settings for MPNR.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MpnrOptions {
    /// Relative tolerance on the skew update.
    /// unit: 1
    pub reltol: f64,
    /// Absolute tolerance on the skew update, in seconds. The paper quotes
    /// contour points "accurate up to 5 digits"; the default (0.01 ps
    /// against ~100 ps skews) comfortably achieves that.
    /// unit: s
    pub abstol: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Cap on a single update's length, in seconds (guards against wild
    /// steps from a nearly flat `h`).
    /// unit: s
    pub max_step: f64,
}

impl Default for MpnrOptions {
    fn default() -> Self {
        MpnrOptions {
            reltol: 1e-5,
            abstol: 1e-14,
            max_iters: 15,
            max_step: 100e-12,
        }
    }
}

/// A converged MPNR solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MpnrResult {
    /// The converged point on the constant clock-to-Q curve.
    pub params: Params,
    /// Iterations (= transient simulations with sensitivities) used.
    pub iterations: usize,
    /// `|h|` at the converged point, in volts.
    /// unit: V
    pub residual: f64,
    /// Jacobian at the converged point, `[∂h/∂τs, ∂h/∂τh]`.
    pub jacobian: [f64; 2],
    /// Transient work accumulated over every iteration of this solve.
    pub transient: TransientStats,
}

/// Solves `h(τs, τh) = 0` by MPNR from the given initial guess.
///
/// # Errors
///
/// - [`CharError::VanishingJacobian`] if the Jacobian vanishes (iterate in
///   a flat region of the output surface — pick a better initial guess, or
///   seed via [`crate::seed`]);
/// - [`CharError::MpnrDiverged`] if `max_iters` is exhausted;
/// - propagated simulation failures.
pub fn solve(
    problem: &CharacterizationProblem,
    initial: Params,
    opts: &MpnrOptions,
) -> Result<MpnrResult> {
    let _span = shc_obs::span(shc_obs::SpanKind::MpnrSolve);
    // Self-time of this frame is the corrector's own bookkeeping; the
    // transient evaluations open their own frames beneath it.
    let _frame = shc_prof::enter(shc_prof::Phase::CorrectorOverhead);
    shc_obs::count(shc_obs::Metric::MpnrSolves, 1);
    if let Some(e) = injected_fault(initial) {
        shc_obs::count(shc_obs::Metric::MpnrFailures, 1);
        return Err(e);
    }
    let mut tau = initial;
    let mut last_h = f64::INFINITY;
    let mut transient = TransientStats::default();

    for iter in 1..=opts.max_iters {
        shc_prof::add_work(1);
        let ev = problem.evaluate_with_jacobian(&tau)?;
        transient.steps += ev.stats.steps;
        transient.newton_iterations += ev.stats.newton_iterations;
        transient.rejected_steps += ev.stats.rejected_steps;
        last_h = ev.h.abs();
        let (mut ds, mut dh) = ev.mpnr_step().ok_or(CharError::VanishingJacobian {
            tau_s: tau.tau_s,
            tau_h: tau.tau_h,
        })?;
        let step_len = (ds * ds + dh * dh).sqrt();
        if step_len > opts.max_step {
            let scale = opts.max_step / step_len;
            ds *= scale;
            dh *= scale;
        }
        tau = Params::new(tau.tau_s + ds, tau.tau_h + dh);

        let tol_s = opts.reltol * tau.tau_s.abs() + opts.abstol;
        let tol_h = opts.reltol * tau.tau_h.abs() + opts.abstol;
        if ds.abs() <= tol_s && dh.abs() <= tol_h {
            // Converged on the update criterion; report the residual and
            // Jacobian of the *last evaluated* point (ε-close to τ).
            shc_obs::observe(shc_obs::Metric::MpnrIterations, iter as u64);
            return Ok(MpnrResult {
                params: tau,
                iterations: iter,
                residual: ev.h.abs(),
                jacobian: [ev.dh_dtau_s, ev.dh_dtau_h],
                transient,
            });
        }
    }

    shc_obs::count(shc_obs::Metric::MpnrFailures, 1);
    Err(CharError::MpnrDiverged {
        iterations: opts.max_iters,
        h_value: last_h,
    })
}

/// Solves `h = 0` by MPNR for each `(problem, initial guess)` lane, in
/// order: one [`solve`] per lane; the policy is ignored. Retained, with
/// its signature, for the benchmark of record, whose traced per-layer
/// pass times it, until the benchmark drops its
/// `mpnr.solve_batch_ms_per_lane` metric (ROADMAP item 3).
///
/// # Errors
///
/// Per lane, as [`solve`]; when `problems` and `initials` differ in
/// length, every problem lane fails with [`CharError::BadOption`].
pub fn solve_batch(
    problems: &[&CharacterizationProblem],
    initials: &[Params],
    opts: &MpnrOptions,
    _policy: BatchPolicy,
) -> Vec<Result<MpnrResult>> {
    if problems.len() != initials.len() {
        return problems
            .iter()
            .map(|_| {
                Err(CharError::BadOption {
                    reason: "solve_batch needs one initial guess per problem lane",
                })
            })
            .collect();
    }
    problems
        .iter()
        .zip(initials)
        .map(|(problem, &initial)| solve(problem, initial, opts))
        .collect()
}

/// Consults the ambient fault injector for the MPNR site (no-op unless a
/// [`shc_fault::Injector`] is installed on this thread).
fn injected_fault(tau: Params) -> Option<CharError> {
    let kind = shc_fault::check(shc_fault::Site::Mpnr)?;
    shc_obs::count(shc_obs::Metric::FaultsInjected, 1);
    Some(match kind {
        shc_fault::FaultKind::SingularMatrix => CharError::VanishingJacobian {
            tau_s: tau.tau_s,
            tau_h: tau.tau_h,
        },
        shc_fault::FaultKind::NanResidual => CharError::MpnrDiverged {
            iterations: 0,
            h_value: f64::NAN,
        },
        shc_fault::FaultKind::NonConvergence | shc_fault::FaultKind::LteStall => {
            CharError::MpnrDiverged {
                iterations: 0,
                h_value: f64::INFINITY,
            }
        }
    })
}

/// Bisection fallback along the hold-skew axis, used by the tracer when
/// the MPNR corrector diverges at a predicted point.
///
/// The setup skew is frozen at the predicted value and the scalar equation
/// `h(τs, τh) = 0` is solved in τh alone: an expanding search (toward the
/// last on-curve `anchor` first, then away from it) brackets a sign change
/// of `h`, which bisection then shrinks below the MPNR update tolerance.
/// Bisection needs only sign information, so it is robust exactly where
/// the pseudo-inverse step is not — at the cost of more simulations.
///
/// # Errors
///
/// [`CharError::MpnrDiverged`] when no sign change is found within
/// `8 × max_step` of the predicted hold skew or the evaluation budget
/// (`3 × max_iters`) runs out; simulation failures propagate.
pub fn bisect_fallback(
    problem: &CharacterizationProblem,
    anchor: Params,
    predicted: Params,
    opts: &MpnrOptions,
) -> Result<MpnrResult> {
    let _span = shc_obs::span(shc_obs::SpanKind::MpnrSolve);
    let _frame = shc_prof::enter(shc_prof::Phase::CorrectorOverhead);
    let tau_s = predicted.tau_s;
    let budget = opts.max_iters.max(5) * 3;
    let mut transient = TransientStats::default();
    let mut evals = 0usize;
    let eval = |tau_h: f64,
                transient: &mut TransientStats,
                evals: &mut usize|
     -> Result<crate::HEvaluation> {
        *evals += 1;
        let ev = problem.evaluate_with_jacobian(&Params::new(tau_s, tau_h))?;
        transient.steps += ev.stats.steps;
        transient.newton_iterations += ev.stats.newton_iterations;
        transient.rejected_steps += ev.stats.rejected_steps;
        Ok(ev)
    };

    let ev0 = eval(predicted.tau_h, &mut transient, &mut evals)?;
    let h0 = ev0.h;

    // Expanding search for a sign change of h along τh.
    let seed_step = (anchor.tau_h - predicted.tau_h)
        .abs()
        .max(opts.max_step / 64.0);
    let toward = if anchor.tau_h >= predicted.tau_h {
        1.0
    } else {
        -1.0
    };
    let mut bracket: Option<(f64, f64, f64)> = None; // (a, ha, b)
    'directions: for dir in [toward, -toward] {
        let mut prev_tau = predicted.tau_h;
        let mut prev_h = h0;
        let mut step = seed_step;
        while (prev_tau - predicted.tau_h).abs() < BRACKET_SPAN_FACTOR * opts.max_step {
            if evals >= budget {
                return Err(CharError::MpnrDiverged {
                    iterations: evals,
                    h_value: prev_h.abs(),
                });
            }
            let tau_h = prev_tau + dir * step;
            let ev = eval(tau_h, &mut transient, &mut evals)?;
            if ev.h * prev_h < 0.0 {
                bracket = Some((prev_tau, prev_h, tau_h));
                break 'directions;
            }
            prev_tau = tau_h;
            prev_h = ev.h;
            step *= 2.0;
        }
    }
    let (mut a, mut ha, mut b) = bracket.ok_or(CharError::MpnrDiverged {
        iterations: evals,
        h_value: h0.abs(),
    })?;

    // Bisect to the MPNR update tolerance. The returned point is the last
    // evaluated midpoint, so the residual and Jacobian describe it exactly
    // (the same ε-close convention as [`solve`]).
    loop {
        let mid = 0.5 * (a + b);
        let ev = eval(mid, &mut transient, &mut evals)?;
        if ev.h * ha < 0.0 {
            b = mid;
        } else {
            a = mid;
            ha = ev.h;
        }
        let tol = opts.reltol * mid.abs() + opts.abstol;
        if (b - a).abs() <= BISECT_WIDTH_FACTOR * tol || evals >= budget {
            shc_obs::count(shc_obs::Metric::MpnrFallbacks, 1);
            shc_obs::observe(shc_obs::Metric::MpnrIterations, evals as u64);
            return Ok(MpnrResult {
                params: Params::new(tau_s, mid),
                iterations: evals,
                residual: ev.h.abs(),
                jacobian: [ev.dh_dtau_s, ev.dh_dtau_h],
                transient,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_cells::{tspc_register_with, ClockSpec, Technology};

    #[test]
    fn default_options_target_five_digits() {
        let o = MpnrOptions::default();
        // 1e-5 relative on a 100 ps skew = 1 fs — five significant digits.
        assert!(o.reltol <= 1e-5);
        assert!(o.abstol <= 1e-13);
    }

    /// End-to-end: from a guess near the transition region, MPNR must land
    /// on a point with |h| tiny and the pass/fail boundary nearby.
    #[test]
    fn converges_to_contour_point_on_tspc() {
        let tech = Technology::default_250nm();
        let problem =
            CharacterizationProblem::builder(tspc_register_with(&tech, ClockSpec::fast()))
                .build()
                .unwrap();
        // Seed by shrinking the hold skew until h becomes responsive.
        let tau_s = 0.35e-9;
        let mut guess = None;
        let mut tau_h = 0.3e-9;
        for _ in 0..20 {
            let ev = problem
                .evaluate_with_jacobian(&Params::new(tau_s, tau_h))
                .unwrap();
            if ev.jacobian_norm() > 1e7 {
                guess = Some(Params::new(tau_s, tau_h));
                break;
            }
            tau_h -= 0.015e-9;
        }
        let guess = guess.expect("responsive guess found");
        let result = solve(&problem, guess, &MpnrOptions::default()).unwrap();
        assert!(
            result.residual < 1e-3,
            "converged residual |h| = {}",
            result.residual
        );
        assert!(result.iterations <= 15);
        // The point is genuinely on the boundary: probing a few ps along
        // the reported gradient direction must change h monotonically.
        let gnorm = (result.jacobian[0].powi(2) + result.jacobian[1].powi(2)).sqrt();
        let (gs, gh) = (result.jacobian[0] / gnorm, result.jacobian[1] / gnorm);
        let eps = 5e-12;
        let h_plus = problem
            .evaluate(&Params::new(
                result.params.tau_s + eps * gs,
                result.params.tau_h + eps * gh,
            ))
            .unwrap();
        let h_minus = problem
            .evaluate(&Params::new(
                result.params.tau_s - eps * gs,
                result.params.tau_h - eps * gh,
            ))
            .unwrap();
        assert!(
            h_plus > h_minus,
            "h must increase along its gradient ({h_plus} vs {h_minus})"
        );
    }

    #[test]
    fn flat_region_reports_vanishing_jacobian_or_divergence() {
        let tech = Technology::default_250nm();
        let problem =
            CharacterizationProblem::builder(tspc_register_with(&tech, ClockSpec::fast()))
                .build()
                .unwrap();
        // Deep in the pass region the surface is flat: h > 0 everywhere and
        // the Jacobian ~ 0 ⇒ either error is acceptable, but not success.
        let err = solve(
            &problem,
            problem.reference_params(),
            &MpnrOptions {
                max_iters: 4,
                ..MpnrOptions::default()
            },
        );
        assert!(
            matches!(
                err,
                Err(CharError::VanishingJacobian { .. }) | Err(CharError::MpnrDiverged { .. })
            ),
            "expected failure, got {err:?}"
        );
    }

    /// A guess count that does not match the problem lanes fails every
    /// lane with a typed error, before any simulation.
    #[test]
    fn solve_batch_rejects_mismatched_guesses_per_lane() {
        let tech = Technology::default_250nm();
        let problem =
            CharacterizationProblem::builder(tspc_register_with(&tech, ClockSpec::fast()))
                .build()
                .unwrap();
        let guess = problem.reference_params();
        let collector = shc_obs::Collector::new();
        let _guard = shc_obs::install_scoped(&collector);
        for policy in [BatchPolicy::Auto, BatchPolicy::Scalar] {
            let lanes = solve_batch(
                &[&problem, &problem],
                &[guess],
                &MpnrOptions::default(),
                policy,
            );
            assert_eq!(lanes.len(), 2);
            for lane in lanes {
                assert!(matches!(lane, Err(CharError::BadOption { .. })), "{lane:?}");
            }
            let none = solve_batch(&[], &[guess], &MpnrOptions::default(), policy);
            assert!(none.is_empty());
        }
        assert_eq!(collector.counter(shc_obs::Metric::TransientRuns), 0);
        assert_eq!(problem.simulation_count(), 0);
    }
}
