//! Finding the first point on the contour (paper Sec. IV-A).
//!
//! The hold skew is pinned to a generous value so the setup time becomes
//! (nearly) independent of it; a coarse binary search then brackets the
//! setup time between a passing and a failing skew until the interval is
//! small enough to lie inside MPNR's convergence basin (paper Fig. 7), and
//! MPNR polishes the midpoint onto the curve.

use serde::{Deserialize, Serialize};
use shc_spice::waveform::Params;

use crate::independent::{self, IndependentOptions, SkewAxis};
use crate::mpnr::{self, MpnrOptions};
use crate::{CharError, CharacterizationProblem, MpnrResult, Result};

/// Bracket width at which the setup-skew bisection stops and MPNR polishes
/// the midpoint: an estimate of MPNR's convergence range (paper Fig. 7).
/// unit: s
const BRACKET_TOL: f64 = 10e-12;

/// Pinned hold skew's margin above the estimated hold time: far enough that
/// the setup time barely depends on it, near enough that the trace starts
/// at the contour's bend rather than far up its flat asymptote.
/// unit: s
const HOLD_MARGIN: f64 = 100e-12;

/// Lower end of the coarse hold-time search (the upper end is the
/// problem's generous reference hold skew): below every library cell's
/// hold time.
/// unit: s
const HOLD_SEARCH_MIN: f64 = -150e-12;

/// Bracket width of the coarse hold-time search: coarser than
/// [`BRACKET_TOL`], since [`HOLD_MARGIN`] absorbs the estimate's error.
/// unit: s
const HOLD_SEARCH_TOL: f64 = 20e-12;

/// Iteration cap of the coarse hold-time search, which bisection reaches
/// [`HOLD_SEARCH_TOL`] far inside.
const HOLD_SEARCH_MAX_ITERS: usize = 40;

/// Options for seeding: the setup-skew search range. The hold skew is
/// pinned `HOLD_MARGIN` above a coarse hold-time estimate, and the bracket
/// tolerance and MPNR polish settings are fixed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeedOptions {
    /// Lower end of the initial setup-skew search range, in seconds.
    pub tau_s_min: f64,
    /// Upper end of the initial setup-skew search range; `None` uses the
    /// problem's generous reference skew.
    pub tau_s_max: Option<f64>,
}

impl Default for SeedOptions {
    fn default() -> Self {
        SeedOptions {
            // Pulsed latches can have substantially negative setup times
            // (the capture window opens after the clock edge).
            tau_s_min: -300e-12,
            tau_s_max: None,
        }
    }
}

/// Finds one point on the constant clock-to-Q contour.
///
/// # Errors
///
/// - [`CharError::SeedBracketFailed`] if both bracket ends pass (setup time
///   below the search range) or both fail (range too small / cell broken);
/// - propagated MPNR and simulation failures.
///
/// # Example
///
/// ```rust,no_run
/// use shc_cells::{tspc_register, Technology};
/// use shc_core::{seed, CharacterizationProblem, SeedOptions};
///
/// # fn main() -> Result<(), shc_core::CharError> {
/// let problem =
///     CharacterizationProblem::builder(tspc_register(&Technology::default_250nm()))
///         .build()?;
/// let first = seed::find_first_point(&problem, &SeedOptions::default())?;
/// println!("setup time at large hold skew: {:.1} ps", first.params.tau_s * 1e12);
/// # Ok(())
/// # }
/// ```
pub fn find_first_point(
    problem: &CharacterizationProblem,
    opts: &SeedOptions,
) -> Result<MpnrResult> {
    let _span = shc_obs::span(shc_obs::SpanKind::Seed);
    let _frame = shc_prof::enter(shc_prof::Phase::SeedSearch);
    let reference = problem.reference_params();
    // Coarse hold-time estimate at a generous setup skew.
    let hold = independent::binary_search(
        problem,
        SkewAxis::Hold,
        &IndependentOptions {
            range: (HOLD_SEARCH_MIN, reference.tau_h),
            tol: HOLD_SEARCH_TOL,
            max_iters: HOLD_SEARCH_MAX_ITERS,
            initial_guess: None,
        },
    )?;
    let tau_h = hold.skew + HOLD_MARGIN;
    let mut lo = opts.tau_s_min;
    let mut hi = opts.tau_s_max.unwrap_or(reference.tau_s);
    // NaN bounds must fail too, so the comparison accepts, not rejects.
    let range_ok = hi > lo;
    if !range_ok {
        return Err(CharError::SeedBracketFailed {
            reason: "empty search range",
        });
    }

    let pass_at = |tau_s: f64| -> Result<bool> {
        let h = problem.evaluate(&Params::new(tau_s, tau_h))?;
        Ok(problem.is_pass(h))
    };

    if !pass_at(hi)? {
        return Err(CharError::SeedBracketFailed {
            reason: "generous setup skew does not latch; cell or target level broken",
        });
    }
    if pass_at(lo)? {
        return Err(CharError::SeedBracketFailed {
            reason: "lower search bound already latches; decrease tau_s_min",
        });
    }

    // Coarse binary search until the bracket fits the NR convergence range.
    while hi - lo > BRACKET_TOL {
        let mid = 0.5 * (lo + hi);
        if pass_at(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }

    // Polish the midpoint onto the curve with MPNR.
    mpnr::solve(
        problem,
        Params::new(0.5 * (lo + hi), tau_h),
        &MpnrOptions::default(),
    )
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
    fn finds_setup_time_at_large_hold_skew() {
        let problem = fast_problem();
        let seed = find_first_point(&problem, &SeedOptions::default()).unwrap();
        // Positive setup time, well under the clock period.
        assert!(
            seed.params.tau_s > 0.0 && seed.params.tau_s < 1e-9,
            "setup time {:.1} ps",
            seed.params.tau_s * 1e12
        );
        assert!(seed.residual < 1e-3);
        // The point truly separates pass from fail along τs.
        let h_lo = problem
            .evaluate(&Params::new(seed.params.tau_s - 20e-12, seed.params.tau_h))
            .unwrap();
        let h_hi = problem
            .evaluate(&Params::new(seed.params.tau_s + 20e-12, seed.params.tau_h))
            .unwrap();
        assert!(!problem.is_pass(h_lo));
        assert!(problem.is_pass(h_hi));
    }

    #[test]
    fn rejects_empty_range() {
        let problem = fast_problem();
        let opts = SeedOptions {
            tau_s_max: Some(-1e-9),
            ..SeedOptions::default()
        };
        assert!(matches!(
            find_first_point(&problem, &opts),
            Err(CharError::SeedBracketFailed { .. })
        ));
    }

    #[test]
    fn rejects_range_entirely_in_pass_region() {
        let problem = fast_problem();
        let opts = SeedOptions {
            tau_s_min: 0.5e-9, // far above the setup time: always passes
            ..SeedOptions::default()
        };
        assert!(matches!(
            find_first_point(&problem, &opts),
            Err(CharError::SeedBracketFailed { .. })
        ));
    }
}
