//! Euler-Newton curve tracing of the constant clock-to-Q contour
//! (paper Secs. III-D and III-E).
//!
//! A standard predictor-corrector continuation: from a point on the curve,
//! extrapolate along the unit tangent `T = (−∂h/∂τh, ∂h/∂τs)/‖·‖`
//! (paper eq. (16)) by a step length α (the Euler predictor), then correct
//! back onto the curve with MPNR. The step length adapts: it shrinks when
//! the corrector struggles and grows after easy corrections.
//!
//! Corrector failures no longer abort the trace outright. A bounded
//! recovery ladder kicks in instead — predictor step-halving, a bisection
//! fallback along the hold axis ([`crate::mpnr::bisect_fallback`]), and a
//! limited number of full restarts with the step length reset — and when
//! everything is exhausted the points accepted so far are returned as a
//! [`TraceOutcome::Partial`] rather than thrown away. The tracer can also
//! persist its walking state to a JSONL checkpoint file every K accepted
//! points and later resume from it ([`TraceStart::Resume`]), reproducing
//! the uninterrupted contour bit for bit.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use shc_spice::transient::TransientStats;
use shc_spice::waveform::Params;

use crate::mpnr::{self, MpnrOptions};
use crate::{CharError, CharacterizationProblem, Result};

/// First predictor step from the seed, and the step a restart resets to:
/// under a tenth of a setup time, so the first prediction stays near the
/// seed, where MPNR has just converged.
/// unit: s
const ALPHA_INIT: f64 = 10e-12;

/// Smallest predictor step: halving stops here and the bisection fallback
/// takes over. Half a picosecond is well below any feature of a contour.
/// unit: s
const ALPHA_MIN: f64 = 0.5e-12;

/// Largest predictor step: growth stops at a third of a setup time, so the
/// contour's bend is crossed in several corrected points, not one.
/// unit: s
const ALPHA_MAX: f64 = 50e-12;

/// Predictor step-length multiplier used both by the recovery ladder
/// (rung 1 halves `α` after a corrector failure) and by the post-accept
/// adaptation when the corrector needed more than [`EASY_ITERS`]
/// iterations. Halving keeps the retried point inside the previous
/// step's trust region while shedding length quickly under repeated
/// failures.
const ALPHA_BACKOFF: f64 = 0.5;

/// Predictor step-length multiplier after an easy correction: slower
/// growth than [`ALPHA_BACKOFF`]'s shrink, so the step settles below the
/// length at which corrections stop being easy instead of oscillating.
const ALPHA_GROWTH: f64 = 1.25;

/// Corrector iterations up to which a correction counts as easy and the
/// step grows: the paper reports 2–3 MPNR iterations per point.
const EASY_ITERS: usize = 3;

/// The walk stops when a predicted τs or τh leaves `±SKEW_BOUND`: two
/// nanoseconds holds every cell's setup/hold window with room to spare.
/// unit: s
const SKEW_BOUND: f64 = 2e-9;

/// Full restarts allowed per trace, each from the last accepted point with
/// α reset to [`ALPHA_INIT`], after step-halving and the bisection
/// fallback have both failed: two bound the work spent on a dead end.
const MAX_RESTARTS: usize = 2;

/// Which way to walk the contour from the seed point.
///
/// The contour in the (τs, τh) plane runs from large-setup/small-hold to
/// small-setup/large-hold. Seeding (at a generous hold skew) lands at the
/// small-setup end, so the default walks toward *decreasing* hold skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TraceDirection {
    /// Walk so that the hold skew decreases (default).
    #[default]
    DecreasingHold,
    /// Walk so that the hold skew increases.
    IncreasingHold,
}

/// Options for the Euler-Newton tracer. The step-length adaptation,
/// skew window, restart budget and MPNR corrector settings are fixed
/// (the `ALPHA_*` constants and their neighbours in this module, and
/// [`MpnrOptions::default`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TracerOptions {
    /// Initial walking direction.
    pub direction: TraceDirection,
    /// Stop when the unit tangent's hold component falls below this value,
    /// i.e. when the walk has reached the pure-setup asymptote where the
    /// contour carries no more interdependence information. `0.0` disables
    /// the check (the default: trace as far as requested).
    pub min_tangent_hold: f64,
}

/// One traced contour point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContourPoint {
    /// Setup skew, in seconds.
    /// unit: s
    pub tau_s: f64,
    /// Hold skew, in seconds.
    /// unit: s
    pub tau_h: f64,
    /// MPNR corrector iterations this point needed (0 for the seed).
    pub corrector_iterations: usize,
    /// `|h|` at the point, in volts.
    /// unit: V
    pub residual: f64,
}

/// A traced constant clock-to-Q contour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Contour {
    pub(crate) points: Vec<ContourPoint>,
    pub(crate) simulations: usize,
    pub(crate) total_corrector_iterations: usize,
}

impl Contour {
    /// The traced points, in walking order (starting at the seed).
    pub fn points(&self) -> &[ContourPoint] {
        &self.points
    }

    /// Number of transient simulations the trace consumed (excluding
    /// seeding).
    pub fn simulations(&self) -> usize {
        self.simulations
    }

    /// Total MPNR corrector iterations across all points.
    pub fn total_corrector_iterations(&self) -> usize {
        self.total_corrector_iterations
    }

    /// Mean corrector iterations per traced point (the paper reports 2–3).
    pub fn mean_corrector_iterations(&self) -> f64 {
        let corrected = self.points.len().saturating_sub(1);
        if corrected == 0 {
            return 0.0;
        }
        self.total_corrector_iterations as f64 / corrected as f64
    }

    /// Interpolates the contour's hold skew at a given setup skew, if the
    /// setup skew lies inside the traced range.
    pub fn hold_at_setup(&self, tau_s: f64) -> Option<f64> {
        let mut pts: Vec<(f64, f64)> = self.points.iter().map(|p| (p.tau_s, p.tau_h)).collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        if pts.len() < 2 || tau_s < pts[0].0 || tau_s > pts[pts.len() - 1].0 {
            return None;
        }
        for w in pts.windows(2) {
            let ((s0, h0), (s1, h1)) = (w[0], w[1]);
            if tau_s >= s0 && tau_s <= s1 {
                if s1 == s0 {
                    return Some(h1);
                }
                return Some(h0 + (h1 - h0) * (tau_s - s0) / (s1 - s0));
            }
        }
        None
    }
}

/// How a trace ended: with everything it was asked for, or with whatever
/// it managed before recovery ran out.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum TraceOutcome {
    /// The trace reached the requested point count or a clean stop
    /// (skew bound, step-length floor, flat asymptote).
    Complete(Contour),
    /// The recovery ladder was exhausted mid-trace; the points accepted so
    /// far (≥ 2) are kept instead of being discarded.
    Partial {
        /// The contour traced before the failure.
        contour: Contour,
        /// The corrector or simulation failure that ended the walk.
        failure: CharError,
    },
}

impl TraceOutcome {
    /// The traced contour, complete or not.
    pub fn contour(&self) -> &Contour {
        match self {
            TraceOutcome::Complete(c) => c,
            TraceOutcome::Partial { contour, .. } => contour,
        }
    }

    /// Consumes the outcome, returning the contour and discarding any
    /// failure annotation.
    pub fn into_contour(self) -> Contour {
        match self {
            TraceOutcome::Complete(c) => c,
            TraceOutcome::Partial { contour, .. } => contour,
        }
    }

    /// `true` for [`TraceOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, TraceOutcome::Complete(_))
    }

    /// The failure that truncated the trace, if any.
    pub fn failure(&self) -> Option<&CharError> {
        match self {
            TraceOutcome::Complete(_) => None,
            TraceOutcome::Partial { failure, .. } => Some(failure),
        }
    }
}

/// Where a trace begins.
#[derive(Debug, Clone)]
pub enum TraceStart {
    /// Start from a point already on the curve (use [`crate::seed`] to
    /// obtain one).
    Seed(Params),
    /// Continue from a checkpoint written by a previous (possibly killed)
    /// trace of the *same* problem. The walking state — last accepted
    /// point, tangent, α, accepted points, fault-injection cursors — is
    /// restored exactly, so the resumed contour is bitwise identical to an
    /// uninterrupted one.
    Resume(shc_obs::TraceCheckpoint),
}

/// Where and how often [`trace_session`] persists its walking state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// JSONL file checkpoints are appended to (one object per line; the
    /// last complete line wins on resume).
    pub path: PathBuf,
    /// Write a checkpoint after every `every`-th accepted point. Must be
    /// at least 1.
    pub every: usize,
}

/// Renders per-point phase-time deltas for the journal from consecutive
/// [`shc_prof::phase_totals`] snapshots. Inert (every delta is `None`)
/// when no profiler is installed on this thread.
struct PhaseLedger {
    prev: Option<[(u64, u64); shc_prof::Phase::COUNT]>,
}

impl PhaseLedger {
    fn new() -> PhaseLedger {
        PhaseLedger {
            prev: shc_prof::phase_totals(),
        }
    }

    /// Snapshots the thread's phase totals and renders the change since
    /// the previous snapshot as a compact JSON object — one
    /// `"name":{"self_ns":…,"count":…}` entry per phase that moved.
    fn delta_json(&mut self) -> Option<String> {
        let now = shc_prof::phase_totals()?;
        let prev = self
            .prev
            .replace(now)
            .unwrap_or([(0, 0); shc_prof::Phase::COUNT]);
        let mut s = String::from("{");
        let mut first = true;
        for (i, phase) in shc_prof::Phase::ALL.iter().enumerate() {
            let self_ns = now[i].0.saturating_sub(prev[i].0);
            let count = now[i].1.saturating_sub(prev[i].1);
            if self_ns == 0 && count == 0 {
                continue;
            }
            shc_obs::json::push_raw_field(
                &mut s,
                &mut first,
                phase.name(),
                &format!("{{\"self_ns\":{self_ns},\"count\":{count}}}"),
            );
        }
        s.push('}');
        Some(s)
    }
}

/// Emits the journal event for one traced contour point (no-op when
/// telemetry is off).
#[allow(clippy::too_many_arguments)]
fn journal_point(
    point: usize,
    tau: Params,
    residual: f64,
    jacobian: [f64; 2],
    tangent: (f64, f64),
    corrector_iterations: usize,
    alpha: f64,
    stats: TransientStats,
    recovery_attempts: usize,
    ledger: &mut PhaseLedger,
) {
    if !shc_obs::enabled() {
        return;
    }
    shc_obs::journal(&shc_obs::JournalEvent {
        point: point as u64,
        tau_s: tau.tau_s,
        tau_h: tau.tau_h,
        residual,
        jacobian_norm: (jacobian[0] * jacobian[0] + jacobian[1] * jacobian[1]).sqrt(),
        tangent: [tangent.0, tangent.1],
        corrector_iterations: corrector_iterations as u64,
        alpha,
        transient_steps: stats.steps as u64,
        newton_iterations: stats.newton_iterations as u64,
        rejected_steps: stats.rejected_steps as u64,
        recovery_attempts: recovery_attempts as u64,
        phases: ledger.delta_json(),
    });
}

/// Serializes the tracer's mid-walk state and appends it to the
/// checkpoint file.
#[allow(clippy::too_many_arguments)]
fn write_checkpoint(
    cfg: &CheckpointConfig,
    points: &[ContourPoint],
    current: Params,
    tangent: (f64, f64),
    alpha: f64,
    total_iters: usize,
    simulations: usize,
    restarts: usize,
) -> Result<()> {
    let checkpoint = shc_obs::TraceCheckpoint {
        tau_s: current.tau_s,
        tau_h: current.tau_h,
        tangent: [tangent.0, tangent.1],
        alpha,
        total_corrector_iterations: total_iters as u64,
        simulations: simulations as u64,
        restarts: restarts as u64,
        fault_cursors: shc_fault::current()
            .map(|inj| inj.cursors().to_vec())
            .unwrap_or_default(),
        points: points
            .iter()
            .map(|p| shc_obs::CheckpointPoint {
                tau_s: p.tau_s,
                tau_h: p.tau_h,
                corrector_iterations: p.corrector_iterations as u64,
                residual: p.residual,
            })
            .collect(),
    };
    checkpoint
        .append_to(&cfg.path)
        .map_err(|e| CharError::Checkpoint {
            reason: e.to_string(),
        })?;
    shc_obs::count(shc_obs::Metric::CheckpointsWritten, 1);
    Ok(())
}

/// Traces `n` points of the constant clock-to-Q contour starting from a
/// point already on the curve (use [`crate::seed`] to obtain it).
///
/// Compatibility wrapper over [`trace_session`]: partial contours are
/// returned as plain `Ok` unless the underlying failure was a simulation
/// error, which propagates as it always did.
///
/// # Errors
///
/// Returns [`CharError::TraceAborted`] if fewer than two points could be
/// traced; otherwise a shorter-than-requested contour is *not* an error —
/// tracing stops cleanly at the skew bounds.
pub fn trace(
    problem: &CharacterizationProblem,
    seed: Params,
    n: usize,
    opts: &TracerOptions,
) -> Result<Contour> {
    match trace_session(problem, TraceStart::Seed(seed), n, opts, None)? {
        TraceOutcome::Complete(contour) => Ok(contour),
        TraceOutcome::Partial {
            failure: CharError::Simulation(e),
            ..
        } => Err(CharError::Simulation(e)),
        TraceOutcome::Partial { contour, .. } => Ok(contour),
    }
}

/// Traces up to `n` points of the constant clock-to-Q contour with the
/// full recovery ladder, optional checkpointing, and resume support.
///
/// On a corrector failure the ladder runs, cheapest rung first:
///
/// 1. **Step-halving** — the Euler predictor step α is halved (down to
///    `ALPHA_MIN`) and the correction retried closer to the last accepted
///    point. Skipped for simulation failures, which a shorter predictor
///    step cannot fix.
/// 2. **Bisection fallback** — [`mpnr::bisect_fallback`] solves
///    `h(τs, ·) = 0` along the hold axis by sign bisection, which needs no
///    Jacobian and tolerates the near-singular geometry that defeats MPNR.
/// 3. **Restart** — α is reset to its initial value and the walk retried
///    from the last accepted point, at most `MAX_RESTARTS` (two) times per
///    trace.
///
/// Only when every rung fails does the trace stop, and even then the
/// accepted points are returned as [`TraceOutcome::Partial`] rather than
/// discarded.
///
/// # Errors
///
/// - [`CharError::BadOption`] for a zero checkpoint interval or an empty
///   resume checkpoint;
/// - [`CharError::Checkpoint`] if a checkpoint cannot be written;
/// - [`CharError::TraceAborted`] (or the underlying simulation failure)
///   if recovery is exhausted before two points exist;
/// - seed-evaluation failures propagate unchanged.
pub fn trace_session(
    problem: &CharacterizationProblem,
    start: TraceStart,
    n: usize,
    opts: &TracerOptions,
    checkpoint: Option<&CheckpointConfig>,
) -> Result<TraceOutcome> {
    let _span = shc_obs::span(shc_obs::SpanKind::Trace);
    // Self-time is the tracer's own bookkeeping (predictor, tangent,
    // recovery ladder, checkpoints); seed/corrector/transient work opens
    // child frames.
    let _frame = shc_prof::enter(shc_prof::Phase::TracerOverhead);
    if let Some(cfg) = checkpoint {
        if cfg.every == 0 {
            return Err(CharError::BadOption {
                reason: "checkpoint interval must be at least 1",
            });
        }
    }
    let sims_before = problem.simulation_count();
    // Baseline the per-point phase ledger before any simulation runs so
    // the seed point's journal entry charges only its own work.
    let mut phase_ledger = PhaseLedger::new();
    let mut points: Vec<ContourPoint> = Vec::with_capacity(n);
    let mut total_iters;
    let mut current;
    let mut tangent;
    let mut alpha;
    let mut restarts_used;
    let base_sims;

    match start {
        TraceStart::Seed(seed) => {
            total_iters = 0;
            restarts_used = 0;
            base_sims = 0;
            alpha = ALPHA_INIT;
            // Evaluate at the seed to obtain the starting tangent.
            let ev0 = problem.evaluate_with_jacobian(&seed)?;
            let mut t0 = ev0.tangent().ok_or(CharError::VanishingJacobian {
                tau_s: seed.tau_s,
                tau_h: seed.tau_h,
            })?;
            // Orient the starting tangent.
            let want_negative_hold = matches!(opts.direction, TraceDirection::DecreasingHold);
            if (t0.1 < 0.0) != want_negative_hold {
                t0 = (-t0.0, -t0.1);
            }
            tangent = t0;
            current = seed;
            points.push(ContourPoint {
                tau_s: seed.tau_s,
                tau_h: seed.tau_h,
                corrector_iterations: 0,
                residual: ev0.h.abs(),
            });
            journal_point(
                0,
                seed,
                ev0.h.abs(),
                [ev0.dh_dtau_s, ev0.dh_dtau_h],
                tangent,
                0,
                0.0,
                ev0.stats,
                0,
                &mut phase_ledger,
            );
        }
        TraceStart::Resume(ckpt) => {
            if ckpt.points.is_empty() {
                return Err(CharError::BadOption {
                    reason: "resume checkpoint holds no accepted points",
                });
            }
            if let Some(injector) = shc_fault::current() {
                injector.restore_cursors(&ckpt.fault_cursors);
            }
            points.extend(ckpt.points.iter().map(|p| ContourPoint {
                tau_s: p.tau_s,
                tau_h: p.tau_h,
                corrector_iterations: p.corrector_iterations as usize,
                residual: p.residual,
            }));
            total_iters = ckpt.total_corrector_iterations as usize;
            restarts_used = ckpt.restarts as usize;
            base_sims = ckpt.simulations as usize;
            alpha = ckpt.alpha;
            tangent = (ckpt.tangent[0], ckpt.tangent[1]);
            current = Params::new(ckpt.tau_s, ckpt.tau_h);
        }
    }

    let mut attempts_since_accept = 0usize;
    let mut failure: Option<CharError> = None;

    while points.len() < n {
        if alpha < ALPHA_MIN {
            break;
        }
        // Euler predictor along the tangent.
        let predicted = Params::new(
            current.tau_s + alpha * tangent.0,
            current.tau_h + alpha * tangent.1,
        );
        if predicted.tau_s.abs() > SKEW_BOUND || predicted.tau_h.abs() > SKEW_BOUND {
            break; // walked out of the characterization window
        }

        // MPNR corrector, with the recovery ladder on failure.
        let corrected = match mpnr::solve(problem, predicted, &MpnrOptions::default()) {
            Ok(corrected) => corrected,
            Err(err) => {
                attempts_since_accept += 1;
                let is_simulation = matches!(err, CharError::Simulation(_));
                // Rung 1: shrink the predictor step and retry closer to
                // the last accepted point. A simulation failure is not a
                // geometry problem, so it skips straight past this rung.
                if !is_simulation && alpha * ALPHA_BACKOFF >= ALPHA_MIN {
                    alpha *= ALPHA_BACKOFF;
                    shc_obs::count(shc_obs::Metric::AlphaAdaptations, 1);
                    continue;
                }
                // Rung 2: bisection along the hold axis.
                let rescued = if is_simulation {
                    None
                } else {
                    mpnr::bisect_fallback(problem, current, predicted, &MpnrOptions::default()).ok()
                };
                match rescued {
                    Some(corrected) => corrected,
                    None => {
                        // Rung 3: bounded restart with α reset.
                        if restarts_used < MAX_RESTARTS {
                            restarts_used += 1;
                            alpha = ALPHA_INIT;
                            shc_obs::count(shc_obs::Metric::TracerRestarts, 1);
                            continue;
                        }
                        failure = Some(err);
                        break;
                    }
                }
            }
        };

        // Refresh the tangent from the corrected point's Jacobian,
        // keeping the walking orientation consistent.
        let ev = crate::HEvaluation {
            h: 0.0,
            dh_dtau_s: corrected.jacobian[0],
            dh_dtau_h: corrected.jacobian[1],
            stats: corrected.transient,
        };
        let mut t_new = match ev.tangent() {
            Some(t) => t,
            None => break,
        };
        if t_new.0 * tangent.0 + t_new.1 * tangent.1 < 0.0 {
            t_new = (-t_new.0, -t_new.1);
        }
        tangent = t_new;
        journal_point(
            points.len(),
            corrected.params,
            corrected.residual,
            corrected.jacobian,
            tangent,
            corrected.iterations,
            alpha,
            corrected.transient,
            attempts_since_accept,
            &mut phase_ledger,
        );
        attempts_since_accept = 0;
        if tangent.1.abs() < opts.min_tangent_hold {
            // Reached the flat asymptote: record the point, stop.
            total_iters += corrected.iterations;
            points.push(ContourPoint {
                tau_s: corrected.params.tau_s,
                tau_h: corrected.params.tau_h,
                corrector_iterations: corrected.iterations,
                residual: corrected.residual,
            });
            break;
        }
        current = corrected.params;
        total_iters += corrected.iterations;
        points.push(ContourPoint {
            tau_s: current.tau_s,
            tau_h: current.tau_h,
            corrector_iterations: corrected.iterations,
            residual: corrected.residual,
        });
        // Step-length adaptation.
        let adapted = if corrected.iterations <= EASY_ITERS {
            (alpha * ALPHA_GROWTH).min(ALPHA_MAX)
        } else {
            (alpha * ALPHA_BACKOFF).max(ALPHA_MIN)
        };
        if adapted != alpha {
            shc_obs::count(shc_obs::Metric::AlphaAdaptations, 1);
        }
        alpha = adapted;
        // Persist the walking state. Written *after* the adaptation and
        // tangent refresh so the checkpoint is exactly the loop state an
        // uninterrupted trace would carry into the next iteration.
        if let Some(cfg) = checkpoint {
            if points.len().is_multiple_of(cfg.every) {
                write_checkpoint(
                    cfg,
                    &points,
                    current,
                    tangent,
                    alpha,
                    total_iters,
                    base_sims + (problem.simulation_count() - sims_before),
                    restarts_used,
                )?;
            }
        }
    }

    if points.len() < 2 {
        return Err(match failure {
            Some(CharError::Simulation(e)) => CharError::Simulation(e),
            _ => CharError::TraceAborted {
                points_found: points.len(),
                reason: "could not trace beyond the seed point",
            },
        });
    }

    shc_obs::count(shc_obs::Metric::ContourPoints, points.len() as u64);
    let contour = Contour {
        points,
        simulations: base_sims + (problem.simulation_count() - sims_before),
        total_corrector_iterations: total_iters,
    };
    Ok(match failure {
        None => TraceOutcome::Complete(contour),
        Some(failure) => TraceOutcome::Partial { contour, failure },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::{find_first_point, SeedOptions};
    use shc_cells::{tspc_register_with, ClockSpec, Technology};

    fn fast_problem() -> CharacterizationProblem {
        let tech = Technology::default_250nm();
        CharacterizationProblem::builder(tspc_register_with(&tech, ClockSpec::fast()))
            .build()
            .unwrap()
    }

    #[test]
    fn traces_contour_with_setup_hold_tradeoff() {
        let problem = fast_problem();
        let seed = find_first_point(&problem, &SeedOptions::default()).unwrap();
        let contour = trace(&problem, seed.params, 12, &TracerOptions::default()).unwrap();
        let pts = contour.points();
        assert!(pts.len() >= 6, "traced only {} points", pts.len());
        // Walking direction: hold skew decreases from the seed.
        assert!(
            pts.last().unwrap().tau_h < pts[0].tau_h,
            "hold skew should decrease along the walk"
        );
        // Interdependence: as hold decreases, setup must increase
        // (monotone tradeoff) over the traced stretch.
        let first = &pts[1];
        let last = pts.last().unwrap();
        assert!(
            last.tau_s > first.tau_s,
            "setup should grow as hold shrinks: {:.1} ps → {:.1} ps",
            first.tau_s * 1e12,
            last.tau_s * 1e12
        );
        // Every point satisfies h ≈ 0 to tight tolerance.
        for p in pts {
            assert!(p.residual < 5e-3, "loose point: |h| = {}", p.residual);
        }
        // Corrector efficiency: the paper reports 2–3 MPNR iterations.
        assert!(
            contour.mean_corrector_iterations() <= 6.0,
            "mean corrector iterations {}",
            contour.mean_corrector_iterations()
        );
        // O(n) simulations: a modest multiple of the point count.
        assert!(
            contour.simulations() <= 8 * pts.len(),
            "{} sims for {} points",
            contour.simulations(),
            pts.len()
        );
    }

    #[test]
    fn increasing_hold_direction_walks_up_the_asymptote() {
        let problem = fast_problem();
        let seed = find_first_point(&problem, &SeedOptions::default()).unwrap();
        let opts = TracerOptions {
            direction: TraceDirection::IncreasingHold,
            ..TracerOptions::default()
        };
        let contour = trace(&problem, seed.params, 6, &opts).unwrap();
        let pts = contour.points();
        assert!(pts.len() >= 3);
        for w in pts.windows(2) {
            assert!(
                w[1].tau_h >= w[0].tau_h - 1e-12,
                "hold skew decreased despite IncreasingHold"
            );
        }
        // Going up the setup asymptote, the required setup stays near the
        // seed's (already asymptotic) value.
        let drift = (pts.last().unwrap().tau_s - pts[0].tau_s).abs();
        assert!(drift < 30e-12, "setup drifted {:.1} ps", drift * 1e12);
    }

    /// With every MPNR solve failing, each point is rescued by the ladder's
    /// second rung: step-halving bottoms out at `ALPHA_MIN`, and bisection
    /// along the hold axis lands the point on the contour.
    #[test]
    fn bisection_fallback_rescues_every_point_when_mpnr_always_fails() {
        let problem = fast_problem();
        let seed = find_first_point(&problem, &SeedOptions::default()).unwrap();
        let n = 4;
        let injector = shc_fault::Injector::new(shc_fault::FaultPlan {
            probability: 1.0,
            site: Some(shc_fault::Site::Mpnr),
            kind: shc_fault::FaultKind::NonConvergence,
            seed: 1,
        });
        let collector = shc_obs::Collector::new();
        let outcome = {
            let _faults = shc_fault::install_scoped(&injector);
            let _telemetry = shc_obs::install_scoped(&collector);
            trace_session(
                &problem,
                TraceStart::Seed(seed.params),
                n,
                &TracerOptions::default(),
                None,
            )
            .unwrap()
        };
        let TraceOutcome::Complete(contour) = outcome else {
            panic!("the bisection rung should complete the trace: {outcome:?}");
        };
        let pts = contour.points();
        assert_eq!(pts.len(), n);
        assert_eq!(
            collector.counter(shc_obs::Metric::MpnrFallbacks),
            (n - 1) as u64
        );
        assert_eq!(collector.counter(shc_obs::Metric::TracerRestarts), 0);
        assert!(collector.counter(shc_obs::Metric::AlphaAdaptations) > 0);
        // Each rescued point brackets the level set along the hold axis.
        for p in &pts[1..] {
            let h = |dh: f64| {
                problem
                    .evaluate(&Params::new(p.tau_s, p.tau_h + dh))
                    .unwrap()
            };
            assert!(
                problem.is_pass(h(1e-13)) != problem.is_pass(h(-1e-13)),
                "point ({:e}, {:e}) is off the contour",
                p.tau_s,
                p.tau_h
            );
        }
    }

    #[test]
    fn session_checkpoint_and_resume_reproduce_the_contour() {
        let dir = std::env::temp_dir().join(format!(
            "shc-tracer-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.ckpt.jsonl");
        let _ = std::fs::remove_file(&path);
        let cfg = CheckpointConfig {
            path: path.clone(),
            every: 2,
        };

        let problem = fast_problem();
        let seed = find_first_point(&problem, &SeedOptions::default()).unwrap();
        let opts = TracerOptions::default();

        // The uninterrupted reference trace.
        let full = trace_session(&problem, TraceStart::Seed(seed.params), 9, &opts, None)
            .unwrap()
            .into_contour();

        // A "killed" first half…
        let problem2 = fast_problem();
        let half = trace_session(
            &problem2,
            TraceStart::Seed(seed.params),
            6,
            &opts,
            Some(&cfg),
        )
        .unwrap()
        .into_contour();
        assert_eq!(half.points().len(), 6);
        let ckpt = shc_obs::TraceCheckpoint::read_last(&path)
            .unwrap()
            .expect("checkpoint written");
        assert_eq!(ckpt.points.len(), 6);

        // …resumed on a fresh problem must continue to the identical
        // contour, bit for bit, including the simulation budget.
        let problem3 = fast_problem();
        let resumed = trace_session(&problem3, TraceStart::Resume(ckpt), 9, &opts, None)
            .unwrap()
            .into_contour();
        assert_eq!(resumed, full);

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn hold_at_setup_interpolates() {
        let contour = Contour {
            points: vec![
                ContourPoint {
                    tau_s: 1.0,
                    tau_h: 10.0,
                    corrector_iterations: 0,
                    residual: 0.0,
                },
                ContourPoint {
                    tau_s: 3.0,
                    tau_h: 6.0,
                    corrector_iterations: 2,
                    residual: 0.0,
                },
            ],
            simulations: 0,
            total_corrector_iterations: 2,
        };
        assert_eq!(contour.hold_at_setup(2.0), Some(8.0));
        assert_eq!(contour.hold_at_setup(0.5), None);
        assert_eq!(contour.hold_at_setup(3.5), None);
    }

    #[test]
    fn mean_iterations_handles_seed_only() {
        let c = Contour {
            points: vec![ContourPoint {
                tau_s: 0.0,
                tau_h: 0.0,
                corrector_iterations: 0,
                residual: 0.0,
            }],
            simulations: 1,
            total_corrector_iterations: 0,
        };
        assert_eq!(c.mean_corrector_iterations(), 0.0);
    }
}
