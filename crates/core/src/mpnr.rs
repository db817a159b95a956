//! Moore-Penrose pseudo-inverse Newton-Raphson (MPNR) for the
//! underdetermined equation `h(τs, τh) = 0` — the paper's Sec. III-C.
//!
//! Each iteration runs one transient simulation with forward sensitivities
//! to obtain `h` and its 1×2 Jacobian `H`, then updates
//! `τ ← τ − h·H⁺` with `H⁺ = Hᵀ(H Hᵀ)⁻¹` (paper eqs. (15), (23), (24)).
//! Under mild conditions MPNR converges to the point of the solution curve
//! *nearest* the initial guess (paper Fig. 4).

use serde::{Deserialize, Serialize};
use shc_spice::batch::BatchPolicy;
use shc_spice::transient::TransientStats;
use shc_spice::waveform::Params;

use crate::problem::{evaluate_jacobian_lockstep, lockstep_compatible};
use crate::{CharError, CharacterizationProblem, Result};

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

/// Per-lane state of a lockstep MPNR batch.
struct BatchSolveLane {
    tau: Params,
    last_h: f64,
    transient: TransientStats,
    done: Option<Result<MpnrResult>>,
}

/// Solves `h = 0` by MPNR for many `(problem, initial guess)` lanes in
/// lockstep: each outer iteration evaluates every still-active lane's `h`
/// and Jacobian through one batched transient
/// ([`crate::CharacterizationProblem::evaluate_with_jacobian_batch`]'s
/// cross-problem form), then applies the scalar update rule per lane.
/// Lanes may carry *different* problems — e.g. one per degradation level
/// of [`crate::tracer::trace_batch`] — as long as they share the circuit
/// dimension and solver settings; a converged or failed lane simply stops
/// being evaluated.
///
/// Per lane, the returned `Result<MpnrResult>` is bitwise identical to
/// [`solve`] on that lane alone: the update trajectory depends only on the
/// lane's own evaluations, which the lockstep engine reproduces exactly.
/// When `policy` declines (scalar policy, lane floor, fault injector under
/// [`BatchPolicy::Auto`], out-of-envelope configuration) or the lanes are
/// not lockstep-compatible, every lane runs through the scalar [`solve`].
///
/// Lockstep lanes run every iteration from DC, while the scalar [`solve`]
/// resumes each evaluation from its problem's prefix ladder, which the
/// problem's calibration run seeds; Monte Carlo and corner sweeps
/// therefore solve per problem.
///
/// # Errors
///
/// Per lane, as [`solve`]; when `problems` and `initials` differ in
/// length, every problem lane fails with [`CharError::BadOption`].
pub fn solve_batch(
    problems: &[&CharacterizationProblem],
    initials: &[Params],
    opts: &MpnrOptions,
    policy: BatchPolicy,
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
    if !lockstep_compatible(problems, policy) {
        return problems
            .iter()
            .zip(initials)
            .map(|(problem, &initial)| solve(problem, initial, opts))
            .collect();
    }

    let _span = shc_obs::span(shc_obs::SpanKind::MpnrSolve);
    let _frame = shc_prof::enter(shc_prof::Phase::CorrectorOverhead);
    shc_obs::count(shc_obs::Metric::MpnrSolves, problems.len() as u64);
    let mut lanes: Vec<BatchSolveLane> = initials
        .iter()
        .map(|&initial| BatchSolveLane {
            tau: initial,
            last_h: f64::INFINITY,
            transient: TransientStats::default(),
            done: match injected_fault(initial) {
                Some(e) => {
                    shc_obs::count(shc_obs::Metric::MpnrFailures, 1);
                    Some(Err(e))
                }
                None => None,
            },
        })
        .collect();

    let mut eval_lanes: Vec<(&CharacterizationProblem, Params)> =
        Vec::with_capacity(problems.len());
    let mut active: Vec<usize> = Vec::with_capacity(problems.len());
    for iter in 1..=opts.max_iters {
        eval_lanes.clear();
        active.clear();
        for (l, lane) in lanes.iter().enumerate() {
            if lane.done.is_none() {
                eval_lanes.push((problems[l], lane.tau));
                active.push(l);
            }
        }
        if active.is_empty() {
            break;
        }
        shc_prof::add_work(active.len() as u64);
        let evaluations = evaluate_jacobian_lockstep(&eval_lanes);
        for (&l, evaluation) in active.iter().zip(evaluations) {
            let lane = &mut lanes[l];
            let ev = match evaluation {
                Ok(ev) => ev,
                Err(e) => {
                    lane.done = Some(Err(e));
                    continue;
                }
            };
            lane.transient.steps += ev.stats.steps;
            lane.transient.newton_iterations += ev.stats.newton_iterations;
            lane.transient.rejected_steps += ev.stats.rejected_steps;
            lane.last_h = ev.h.abs();
            let Some((mut ds, mut dh)) = ev.mpnr_step() else {
                shc_obs::count(shc_obs::Metric::MpnrFailures, 1);
                lane.done = Some(Err(CharError::VanishingJacobian {
                    tau_s: lane.tau.tau_s,
                    tau_h: lane.tau.tau_h,
                }));
                continue;
            };
            let step_len = (ds * ds + dh * dh).sqrt();
            if step_len > opts.max_step {
                let scale = opts.max_step / step_len;
                ds *= scale;
                dh *= scale;
            }
            lane.tau = Params::new(lane.tau.tau_s + ds, lane.tau.tau_h + dh);

            let tol_s = opts.reltol * lane.tau.tau_s.abs() + opts.abstol;
            let tol_h = opts.reltol * lane.tau.tau_h.abs() + opts.abstol;
            if ds.abs() <= tol_s && dh.abs() <= tol_h {
                shc_obs::observe(shc_obs::Metric::MpnrIterations, iter as u64);
                lane.done = Some(Ok(MpnrResult {
                    params: lane.tau,
                    iterations: iter,
                    residual: ev.h.abs(),
                    jacobian: [ev.dh_dtau_s, ev.dh_dtau_h],
                    transient: lane.transient,
                }));
            }
        }
    }

    lanes
        .into_iter()
        .map(|lane| {
            lane.done.unwrap_or_else(|| {
                shc_obs::count(shc_obs::Metric::MpnrFailures, 1);
                Err(CharError::MpnrDiverged {
                    iterations: opts.max_iters,
                    h_value: lane.last_h,
                })
            })
        })
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

    /// The bits a lockstep lane must share with its scalar solve.
    fn solve_bits(result: &Result<MpnrResult>) -> Option<[u64; 9]> {
        result.as_ref().ok().map(|r| {
            [
                r.params.tau_s.to_bits(),
                r.params.tau_h.to_bits(),
                r.iterations as u64,
                r.residual.to_bits(),
                r.jacobian[0].to_bits(),
                r.jacobian[1].to_bits(),
                r.transient.steps as u64,
                r.transient.newton_iterations as u64,
                r.transient.rejected_steps as u64,
            ]
        })
    }

    /// Cross-problem lockstep lanes — Monte Carlo–perturbed TSPC cells
    /// plus the nominal cell at another degradation — reproduce, lane for
    /// lane, the scalar solve on each problem alone, although lockstep
    /// lanes step every iteration from DC and the scalar solve resumes
    /// each evaluation from its problem's prefix ladder.
    #[test]
    fn lockstep_lanes_match_scalar_solves_bitwise() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let base = Technology::default_250nm();
        let problems = |batch: BatchPolicy| -> Vec<CharacterizationProblem> {
            let variation = crate::montecarlo::ProcessVariation::default();
            let mut registers: Vec<(shc_cells::Register, f64)> = (0..4)
                .map(|k| {
                    let tech = variation.sample(&base, &mut StdRng::seed_from_u64(k));
                    (tspc_register_with(&tech, ClockSpec::fast()), 0.10)
                })
                .collect();
            registers.push((tspc_register_with(&base, ClockSpec::fast()), 0.20));
            registers
                .into_iter()
                .map(|(register, degradation)| {
                    let problem = CharacterizationProblem::builder(register)
                        .degradation(degradation)
                        .batch(batch)
                        .build()
                        .unwrap();
                    problem.reset_simulation_count();
                    problem
                })
                .collect()
        };
        let nominal =
            CharacterizationProblem::builder(tspc_register_with(&base, ClockSpec::fast()))
                .build()
                .unwrap();
        let guess = crate::seed::find_first_point(&nominal, &crate::seed::SeedOptions::default())
            .unwrap()
            .params;

        let lockstep = problems(BatchPolicy::Batched);
        let refs: Vec<&CharacterizationProblem> = lockstep.iter().collect();
        assert!(lockstep_compatible(&refs, BatchPolicy::Batched));
        let guesses = vec![guess; refs.len()];
        let collector = shc_obs::Collector::new();
        let batched = {
            let _guard = shc_obs::install_scoped(&collector);
            solve_batch(
                &refs,
                &guesses,
                &MpnrOptions::default(),
                BatchPolicy::Batched,
            )
        };
        assert_eq!(collector.counter(shc_obs::Metric::PrefixResumes), 0);

        let scalar_problems = problems(BatchPolicy::Scalar);
        let resumed = shc_obs::Collector::new();
        let _guard = shc_obs::install_scoped(&resumed);
        for (lane, ((batched, lockstep_problem), problem)) in batched
            .iter()
            .zip(&lockstep)
            .zip(&scalar_problems)
            .enumerate()
        {
            let scalar = solve(problem, guess, &MpnrOptions::default());
            let bits = solve_bits(&scalar);
            assert!(
                bits.is_some(),
                "lane {lane}: scalar solve failed: {scalar:?}"
            );
            assert_eq!(solve_bits(batched), bits, "lane {lane}");
            assert_eq!(
                lockstep_problem.simulation_count(),
                problem.simulation_count(),
                "lane {lane}"
            );
        }
        // Every scalar evaluation resumed (the first of each problem's
        // also extends its seeded ladder).
        let runs = resumed.counter(shc_obs::Metric::TransientRuns);
        assert_eq!(
            resumed.counter(shc_obs::Metric::PrefixResumes),
            runs,
            "every scalar run resumes"
        );
        let distinct: std::collections::BTreeSet<u64> = batched
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|r| r.params.tau_s.to_bits()))
            .collect();
        assert_eq!(distinct.len(), batched.len(), "lanes must differ");
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
        for policy in [BatchPolicy::Scalar, BatchPolicy::Batched] {
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
