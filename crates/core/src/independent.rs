//! Independent setup/hold characterization (paper Sec. III-B and ref \[6\]).
//!
//! When one skew is pinned to a generous value, `h` reduces to a scalar
//! equation in the other skew. Two solvers are provided:
//!
//! - [`binary_search`]: the industry-practice bisection on the pass/fail
//!   boundary (each probe is one transient simulation);
//! - [`newton`]: scalar Newton-Raphson using the sensitivity-computed
//!   derivative `∂h/∂τ` — the paper's ref \[6\] (DATE 2007), which it credits
//!   with 4–10× speedups over binary search.

use serde::{Deserialize, Serialize};
use shc_spice::waveform::{Param, Params};

use crate::problem::EvalChain;
use crate::{CharError, CharacterizationProblem, Result};

/// Which skew is being solved for (the other is pinned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkewAxis {
    /// Solve for the setup skew at a pinned (generous) hold skew.
    Setup,
    /// Solve for the hold skew at a pinned (generous) setup skew.
    Hold,
}

impl SkewAxis {
    fn param(self) -> Param {
        match self {
            SkewAxis::Setup => Param::Setup,
            SkewAxis::Hold => Param::Hold,
        }
    }
}

/// Result of an independent (one-axis) characterization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndependentResult {
    /// The solved skew (setup or hold time), in seconds.
    pub skew: f64,
    /// Transient simulations consumed.
    pub simulations: usize,
    /// Iterations (bisections or Newton steps).
    pub iterations: usize,
}

/// Options for the independent solvers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndependentOptions {
    /// Search range `[min, max]` for the solved skew, in seconds.
    pub range: (f64, f64),
    /// Solution tolerance, in seconds.
    pub tol: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Optional warm start for [`newton`]: a previously known skew (e.g.
    /// the same cell at a neighboring PVT corner, as the paper suggests in
    /// its Sec. III-E step 1a). When set, the coarse bracketing phase is
    /// skipped entirely.
    pub initial_guess: Option<f64>,
}

impl Default for IndependentOptions {
    fn default() -> Self {
        IndependentOptions {
            range: (-100e-12, 1.5e-9),
            tol: 0.1e-12,
            max_iters: 60,
            initial_guess: None,
        }
    }
}

fn params_on_axis(problem: &CharacterizationProblem, axis: SkewAxis, value: f64) -> Params {
    problem.reference_params().with(axis.param(), value)
}

/// Bisection on the pass/fail boundary — one transient per probe, each
/// resumed from the probes before it where they share its prefix.
///
/// # Errors
///
/// - [`CharError::SeedBracketFailed`] if the range does not bracket the
///   boundary;
/// - propagated simulation failures.
pub fn binary_search(
    problem: &CharacterizationProblem,
    axis: SkewAxis,
    opts: &IndependentOptions,
) -> Result<IndependentResult> {
    binary_search_on(&mut EvalChain::new(problem), axis, opts)
}

/// [`binary_search`] with its probes on `chain`: along [`SkewAxis::Hold`]
/// they share the pinned setup skew, so each resumes from the probes
/// before it up to the earlier of their trailing data ramps.
pub(crate) fn binary_search_on(
    chain: &mut EvalChain<'_>,
    axis: SkewAxis,
    opts: &IndependentOptions,
) -> Result<IndependentResult> {
    let problem = chain.problem();
    let sims_before = problem.simulation_count();
    let (mut lo, mut hi) = opts.range;
    let mut pass = |v: f64| -> Result<bool> {
        let h = chain.h(&params_on_axis(problem, axis, v))?;
        Ok(problem.is_pass(h))
    };
    if !pass(hi)? {
        return Err(CharError::SeedBracketFailed {
            reason: "upper end of range fails to latch",
        });
    }
    if pass(lo)? {
        return Err(CharError::SeedBracketFailed {
            reason: "lower end of range already latches",
        });
    }
    let mut iterations = 0;
    while hi - lo > opts.tol && iterations < opts.max_iters {
        let mid = 0.5 * (lo + hi);
        if pass(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
        iterations += 1;
    }
    Ok(IndependentResult {
        skew: 0.5 * (lo + hi),
        simulations: problem.simulation_count() - sims_before,
        iterations,
    })
}

/// Scalar Newton-Raphson on `h(τ) = 0` along one axis, with the derivative
/// from forward sensitivity analysis (paper ref \[6\]).
///
/// Needs an initial guess inside the Newton convergence basin; a *coarse*
/// bisection (a handful of probes, as in the paper's Fig. 7) provides it.
///
/// # Errors
///
/// - [`CharError::SeedBracketFailed`] / [`CharError::MpnrDiverged`]
///   depending on which phase fails;
/// - propagated simulation failures.
pub fn newton(
    problem: &CharacterizationProblem,
    axis: SkewAxis,
    opts: &IndependentOptions,
) -> Result<IndependentResult> {
    let sims_before = problem.simulation_count();
    let mut iterations = 0;
    let (mut lo, mut hi) = opts.range;
    let mut tau = match opts.initial_guess {
        Some(guess) => guess,
        None => {
            // Coarse bracketing until the interval is small enough for
            // Newton (a transition-region width or so).
            let coarse_tol = (opts.tol * 500.0).max(80e-12);
            let pass = |v: f64| -> Result<bool> {
                let h = problem.evaluate(&params_on_axis(problem, axis, v))?;
                Ok(problem.is_pass(h))
            };
            if !pass(hi)? {
                return Err(CharError::SeedBracketFailed {
                    reason: "upper end of range fails to latch",
                });
            }
            if pass(lo)? {
                return Err(CharError::SeedBracketFailed {
                    reason: "lower end of range already latches",
                });
            }
            while hi - lo > coarse_tol {
                let mid = 0.5 * (lo + hi);
                if pass(mid)? {
                    hi = mid;
                } else {
                    lo = mid;
                }
                iterations += 1;
            }
            0.5 * (lo + hi)
        }
    };

    // Newton refinement.
    for _ in 0..opts.max_iters {
        iterations += 1;
        let ev = problem.evaluate_with_jacobian(&params_on_axis(problem, axis, tau))?;
        let dh = match axis {
            SkewAxis::Setup => ev.dh_dtau_s,
            SkewAxis::Hold => ev.dh_dtau_h,
        };
        if dh == 0.0 || !dh.is_finite() {
            return Err(CharError::VanishingJacobian {
                tau_s: tau,
                tau_h: tau,
            });
        }
        let mut delta = -ev.h / dh;
        // Newton safeguard: cap the step at roughly a transition-region
        // width so a guess in a flat region cannot fly out of the skew
        // window (the bracketed range is irrelevant when warm-started).
        let max_step = 100e-12;
        if delta.abs() > max_step {
            delta = delta.signum() * max_step;
        }
        tau += delta;
        if delta.abs() <= opts.tol {
            return Ok(IndependentResult {
                skew: tau,
                simulations: problem.simulation_count() - sims_before,
                iterations,
            });
        }
    }
    Err(CharError::MpnrDiverged {
        iterations: opts.max_iters,
        h_value: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_cells::{tspc_register_with, ClockSpec, Technology};

    fn fast_problem() -> CharacterizationProblem {
        let tech = Technology::default_250nm();
        CharacterizationProblem::builder(tspc_register_with(&tech, ClockSpec::fast()))
            .build()
            .unwrap()
    }

    #[test]
    fn newton_and_bisection_agree_on_setup_time() {
        let problem = fast_problem();
        let opts = IndependentOptions {
            tol: 0.05e-12,
            ..IndependentOptions::default()
        };
        let bis = binary_search(&problem, SkewAxis::Setup, &opts).unwrap();
        let nwt = newton(&problem, SkewAxis::Setup, &opts).unwrap();
        assert!(
            (bis.skew - nwt.skew).abs() < 2e-12,
            "bisection {:.3} ps vs newton {:.3} ps",
            bis.skew * 1e12,
            nwt.skew * 1e12
        );
        // Newton should use fewer simulations (the paper's 4–10×; we only
        // require a strict improvement here to stay robust across cells).
        assert!(
            nwt.simulations < bis.simulations,
            "newton {} sims vs bisection {} sims",
            nwt.simulations,
            bis.simulations
        );
    }

    #[test]
    fn hold_axis_solves_too() {
        let problem = fast_problem();
        let opts = IndependentOptions::default();
        let hold = binary_search(&problem, SkewAxis::Hold, &opts).unwrap();
        assert!(
            hold.skew > -100e-12 && hold.skew < 1.0e-9,
            "hold time {:.1} ps",
            hold.skew * 1e12
        );
    }

    #[test]
    fn bad_range_is_reported() {
        let problem = fast_problem();
        let opts = IndependentOptions {
            range: (1.0e-9, 1.4e-9), // entirely in the pass region
            ..IndependentOptions::default()
        };
        assert!(matches!(
            binary_search(&problem, SkewAxis::Setup, &opts),
            Err(CharError::SeedBracketFailed { .. })
        ));
    }
}
