//! Multi-corner (PVT) characterization sweeps.
//!
//! The paper's motivation (Sec. I): setup/hold must be characterized "for
//! every register/cell of every standard cell library … for all
//! process-voltage-temperature (PVT) corners or statistical process
//! samples", which is why characterization takes "weeks or months even on
//! large dedicated computer clusters". This module implements that outer
//! loop over the Euler-Newton kernel, with the warm-start the paper's
//! Sec. III-E step 1a recommends: each corner's trace is seeded from the
//! previous corner's first contour point, skipping the bracketing search
//! entirely whenever the corners are adjacent enough.

use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use shc_cells::Register;
use shc_spice::waveform::Params;

use crate::mpnr::{self, MpnrOptions};
use crate::parallel::{self, Parallelism};
use crate::seed::{self, SeedOptions};
use crate::tracer::{self, TracerOptions};
use crate::{CharacterizationProblem, Contour, Result};

/// One corner's characterization outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerResult {
    /// Corner label (e.g. `"ss_2.3V"`).
    pub label: String,
    /// Characteristic clock-to-Q delay at this corner, seconds.
    pub t_cq: f64,
    /// The traced constant clock-to-Q contour.
    pub contour: Contour,
    /// Transient simulations this corner consumed (seeding + tracing).
    pub simulations: usize,
    /// Whether the warm start from the previous corner succeeded (false
    /// for the first corner and after warm-start fallbacks).
    pub warm_started: bool,
}

/// Options for a corner sweep. Every corner is seeded, polished and traced
/// with the default [`SeedOptions`], [`MpnrOptions`] and [`TracerOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepOptions {
    /// Contour points per corner.
    pub points: usize,
    /// Fan-out policy for the corner loop. Serial keeps the paper's
    /// corner-to-corner warm-start chain; parallel policies solve the
    /// first corner cold and warm-start every remaining corner from it
    /// concurrently.
    #[serde(skip)]
    pub parallelism: Parallelism,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            points: 20,
            parallelism: Parallelism::default(),
        }
    }
}

/// Characterizes one register fixture per corner.
///
/// Serial sweeps warm-start each corner from the previous one (the paper's
/// Sec. III-E chaining). With a parallel [`SweepOptions::parallelism`]
/// policy, the first corner runs cold and the remaining corners run
/// concurrently, each warm-started from the first corner's contour point;
/// results are always returned in input order.
///
/// `corners` yields `(label, register)` pairs — typically the same cell
/// rebuilt with shifted [`shc_cells::Technology`] parameters.
///
/// # Errors
///
/// Propagates the first corner's failures directly; later corners fall
/// back to full (cold) seeding before giving up.
///
/// # Example
///
/// ```rust,no_run
/// use shc_cells::{tspc_register, Technology};
/// use shc_core::corners::{sweep, SweepOptions};
///
/// # fn main() -> Result<(), shc_core::CharError> {
/// let mut corners = Vec::new();
/// for (label, vdd) in [("slow_2.3V", 2.3), ("typ_2.5V", 2.5), ("fast_2.7V", 2.7)] {
///     let mut tech = Technology::default_250nm();
///     tech.vdd = vdd;
///     corners.push((label.to_string(), tspc_register(&tech)));
/// }
/// let results = sweep(corners, &SweepOptions::default())?;
/// for r in &results {
///     println!("{}: t_CQ {:.1} ps, {} sims", r.label, r.t_cq * 1e12, r.simulations);
/// }
/// # Ok(())
/// # }
/// ```
pub fn sweep(
    corners: impl IntoIterator<Item = (String, Register)>,
    opts: &SweepOptions,
) -> Result<Vec<CornerResult>> {
    let _span = shc_obs::span(shc_obs::SpanKind::Corners);
    if opts.parallelism.is_serial() {
        let mut results = Vec::new();
        let mut previous_first: Option<Params> = None;
        for (label, register) in corners {
            let (result, first) = run_corner(label, register, opts, previous_first)?;
            previous_first = Some(first);
            results.push(result);
        }
        return Ok(results);
    }

    // Parallel sweep: concurrent corners cannot chain corner-to-corner, so
    // the first corner is solved cold on the calling thread and its first
    // contour point anchors the warm start of every remaining corner.
    // Registers are not `Clone`, so the fan-out claims each one by `take`.
    let mut rest = corners.into_iter();
    let Some((label, register)) = rest.next() else {
        return Ok(Vec::new());
    };
    let (anchor, anchor_params) = run_corner(label, register, opts, None)?;
    let slots: Vec<Mutex<Option<(String, Register)>>> =
        rest.map(|corner| Mutex::new(Some(corner))).collect();
    let mut results = vec![anchor];
    results.extend(parallel::run_indexed(opts.parallelism, slots.len(), |i| {
        let _frame = shc_prof::enter(shc_prof::Phase::Sweep);
        let (label, register) = slots[i]
            .lock()
            // lint: allow(no-panic, reason = "poisoned slot means a sibling corner already panicked; unwinding is the only option left")
            .expect("corner slot poisoned")
            .take()
            // lint: allow(no-panic, reason = "run_indexed dispatches each index exactly once")
            .expect("corner job ran twice");
        run_corner(label, register, opts, Some(anchor_params)).map(|(result, _)| result)
    })?);
    Ok(results)
}

/// Characterizes one corner, optionally polishing a warm-start guess onto
/// its contour with MPNR (falling back to cold seeding). Returns the
/// corner's result plus its first contour point, which seeds the next
/// corner in serial sweeps.
fn run_corner(
    label: String,
    register: Register,
    opts: &SweepOptions,
    warm_start: Option<Params>,
) -> Result<(CornerResult, Params)> {
    let problem = CharacterizationProblem::builder(register).build()?;
    problem.reset_simulation_count();

    let mut warm_started = false;
    let first_point = match warm_start {
        Some(guess) => match mpnr::solve(&problem, guess, &MpnrOptions::default()) {
            Ok(polished) => {
                warm_started = true;
                polished
            }
            Err(_) => seed::find_first_point(&problem, &SeedOptions::default())?,
        },
        None => seed::find_first_point(&problem, &SeedOptions::default())?,
    };

    let contour = tracer::trace(
        &problem,
        first_point.params,
        opts.points,
        &TracerOptions::default(),
    )?;
    let first_params = first_point.params;
    let result = CornerResult {
        label,
        t_cq: problem.characteristic_delay(),
        contour,
        simulations: problem.simulation_count(),
        warm_started,
    };
    Ok((result, first_params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_cells::{tspc_register_with, ClockSpec, Technology};

    fn corner_registers() -> Vec<(String, shc_cells::Register)> {
        [2.3, 2.5, 2.7]
            .iter()
            .map(|&vdd| {
                let mut tech = Technology::default_250nm();
                tech.vdd = vdd;
                (
                    format!("vdd_{vdd}"),
                    tspc_register_with(&tech, ClockSpec::fast()),
                )
            })
            .collect()
    }

    #[test]
    fn sweep_characterizes_every_corner() {
        let opts = SweepOptions {
            points: 6,
            ..SweepOptions::default()
        };
        let results = sweep(corner_registers(), &opts).unwrap();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.contour.points().len() >= 3, "{}: thin contour", r.label);
            assert!(r.t_cq > 0.0);
        }
        // Lower supply ⇒ slower cell.
        assert!(
            results[0].t_cq > results[2].t_cq,
            "slow corner {:.1} ps should exceed fast corner {:.1} ps",
            results[0].t_cq * 1e12,
            results[2].t_cq * 1e12
        );
    }

    #[test]
    fn parallel_sweep_covers_all_corners_in_order() {
        let opts = SweepOptions {
            points: 6,
            parallelism: Parallelism::Threads(3),
        };
        let results = sweep(corner_registers(), &opts).unwrap();
        let labels: Vec<&str> = results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["vdd_2.3", "vdd_2.5", "vdd_2.7"]);
        assert!(!results[0].warm_started, "anchor corner runs cold");
        for r in &results {
            assert!(r.contour.points().len() >= 3, "{}: thin contour", r.label);
            assert!(r.t_cq > 0.0);
        }
        assert!(
            results[0].t_cq > results[2].t_cq,
            "corner ordering lost in the parallel merge"
        );
    }

    #[test]
    fn warm_start_saves_simulations_on_later_corners() {
        let opts = SweepOptions {
            points: 6,
            ..SweepOptions::default()
        };
        let results = sweep(corner_registers(), &opts).unwrap();
        assert!(
            !results[0].warm_started,
            "first corner has nothing to reuse"
        );
        let warm_count = results[1..].iter().filter(|r| r.warm_started).count();
        assert!(
            warm_count >= 1,
            "adjacent corners should warm-start (got {warm_count}/2)"
        );
        // Warm-started corners must be cheaper than the cold first corner.
        for r in results[1..].iter().filter(|r| r.warm_started) {
            assert!(
                r.simulations < results[0].simulations,
                "{}: warm start did not save work ({} vs {} sims)",
                r.label,
                r.simulations,
                results[0].simulations
            );
        }
    }
}
