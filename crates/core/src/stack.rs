//! Contour stacks: the constant clock-to-Q family over several degradation
//! levels.
//!
//! One contour answers "which (τs, τh) degrade clock-to-Q by exactly 10%?".
//! A *stack* of contours at several degradation levels (5%, 10%, 20%, …)
//! carries the same information as the paper's Fig. 1(a) output surface —
//! the full delay landscape — but costs O(levels × n) simulations instead
//! of the surface's O(n²), with each level warm-started from its neighbor.
//! Downstream, a timer can interpolate *between* levels to trade accuracy
//! against margin continuously.

use serde::{Deserialize, Serialize};
use shc_cells::Register;

use crate::mpnr::{self, MpnrOptions};
use crate::seed::{self};
use crate::tracer::{self};
use crate::{CharError, CharacterizationProblem, Contour, Result, SeedOptions, TracerOptions};

/// One degradation level's contour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StackLevel {
    /// Clock-to-Q degradation fraction (e.g. `0.10`).
    pub degradation: f64,
    /// Evaluation time `t_f` for this level, seconds.
    pub t_f: f64,
    /// The traced contour.
    pub contour: Contour,
    /// Simulations this level consumed.
    pub simulations: usize,
}

/// A family of constant clock-to-Q contours at increasing degradation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContourStack {
    levels: Vec<StackLevel>,
}

impl ContourStack {
    /// The levels, in the order they were traced.
    pub fn levels(&self) -> &[StackLevel] {
        &self.levels
    }

    /// Total simulations across all levels.
    pub fn total_simulations(&self) -> usize {
        self.levels.iter().map(|l| l.simulations).sum()
    }

    /// Interpolates the degradation at which a given (τs, τh) pair sits,
    /// by finding the two adjacent levels whose contours bracket it in the
    /// hold direction at that setup skew.
    ///
    /// Returns `None` outside the characterized band.
    pub fn degradation_at(&self, tau_s: f64, tau_h: f64) -> Option<f64> {
        // Larger degradation ⇒ more tolerant ⇒ contour at smaller skews.
        let mut below: Option<(f64, f64)> = None; // (degradation, hold@setup)
        let mut above: Option<(f64, f64)> = None;
        for level in &self.levels {
            // Levels whose traced range does not cover this setup skew are
            // simply not informative for the query.
            let Some(hold) = level.contour.hold_at_setup(tau_s) else {
                continue;
            };
            if hold <= tau_h {
                // This level's requirement is met (point above its contour).
                match below {
                    Some((_, h)) if h >= hold => {}
                    _ => below = Some((level.degradation, hold)),
                }
            } else {
                match above {
                    Some((_, h)) if h <= hold => {}
                    _ => above = Some((level.degradation, hold)),
                }
            }
        }
        match (below, above) {
            (Some((d_ok, h_ok)), Some((d_bad, h_bad))) => {
                if (h_bad - h_ok).abs() < 1e-30 {
                    return Some(d_ok);
                }
                let frac = (tau_h - h_ok) / (h_bad - h_ok);
                Some(d_ok + frac * (d_bad - d_ok))
            }
            (Some((d_ok, _)), None) => Some(d_ok),
            _ => None,
        }
    }
}

/// Traces a contour stack for a register fixture.
///
/// `degradations` must be nonempty; levels are traced in the given order,
/// each warm-started from the previous level's first contour point.
///
/// # Errors
///
/// - [`CharError::BadOption`] for an empty level list;
/// - propagated characterization failures (the first level is traced cold;
///   later levels fall back to cold seeding if the warm start fails).
///
/// # Panics
///
/// Panics for [`Register::custom`] fixtures (they cannot be rebuilt per
/// level); use library cells or build the stack manually.
pub fn trace_stack(
    register: &Register,
    degradations: &[f64],
    points: usize,
    tracer_opts: &TracerOptions,
) -> Result<ContourStack> {
    if degradations.is_empty() {
        return Err(CharError::BadOption {
            reason: "contour stack needs at least one degradation level",
        });
    }
    let mut levels = Vec::with_capacity(degradations.len());
    let mut previous_first = None;

    for &degradation in degradations {
        // Rebuild the same cell for this level (fresh problem, fresh t_f).
        let fixture = register.with_clock(*register.clock());
        let problem = CharacterizationProblem::builder(fixture)
            .degradation(degradation)
            .build()?;
        problem.reset_simulation_count();
        let first = match previous_first {
            Some(guess) => match mpnr::solve(&problem, guess, &MpnrOptions::default()) {
                Ok(p) => p,
                Err(_) => seed::find_first_point(&problem, &SeedOptions::default())?,
            },
            None => seed::find_first_point(&problem, &SeedOptions::default())?,
        };
        let contour = tracer::trace(&problem, first.params, points, tracer_opts)?;
        previous_first = Some(first.params);
        levels.push(StackLevel {
            degradation,
            t_f: problem.t_f(),
            contour,
            simulations: problem.simulation_count(),
        });
    }
    Ok(ContourStack { levels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_cells::{tspc_register_with, ClockSpec, Technology};

    fn small_stack() -> ContourStack {
        let tech = Technology::default_250nm();
        let reg = tspc_register_with(&tech, ClockSpec::fast());
        trace_stack(&reg, &[0.05, 0.10, 0.20], 8, &TracerOptions::default()).unwrap()
    }

    #[test]
    fn stack_levels_are_ordered_by_tolerance() {
        let stack = small_stack();
        assert_eq!(stack.levels().len(), 3);
        // More allowed degradation ⇒ smaller setup time at the seed's hold
        // level (the contour moves toward the origin).
        let setups: Vec<f64> = stack
            .levels()
            .iter()
            .map(|l| l.contour.points()[0].tau_s)
            .collect();
        assert!(
            setups[0] > setups[1] && setups[1] > setups[2],
            "setup at seed should shrink with tolerance: {setups:?}"
        );
        // t_f grows with the degradation level.
        let tfs: Vec<f64> = stack.levels().iter().map(|l| l.t_f).collect();
        assert!(tfs[0] < tfs[1] && tfs[1] < tfs[2]);
    }

    #[test]
    fn stack_is_far_cheaper_than_a_surface() {
        let stack = small_stack();
        // 3 levels × 8 points traced in far fewer sims than even a modest
        // 20×20 surface.
        assert!(
            stack.total_simulations() < 200,
            "stack cost {} sims",
            stack.total_simulations()
        );
    }

    #[test]
    fn degradation_interpolates_between_levels() {
        let stack = small_stack();
        // Pick the 10% level's mid point; its interpolated degradation must
        // be close to 10%.
        let mid = stack.levels()[1].contour.points()[2];
        if let Some(d) = stack.degradation_at(mid.tau_s, mid.tau_h) {
            assert!(
                (d - 0.10).abs() < 0.05,
                "interpolated degradation {d:.3} at a 10% contour point"
            );
        }
    }

    #[test]
    fn empty_levels_rejected() {
        let tech = Technology::default_250nm();
        let reg = tspc_register_with(&tech, ClockSpec::fast());
        assert!(matches!(
            trace_stack(&reg, &[], 8, &TracerOptions::default()),
            Err(CharError::BadOption { .. })
        ));
    }
}
