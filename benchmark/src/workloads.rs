//! The four workloads: inputs made from the seed, fixtures, one iteration
//! each, and the output checks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shc_cells::{
    c2mos_register_with, register_bank_with, tspc_register_with, ClockSpec, Register, Technology,
    C2MOS_CLKB_SKEW,
};
use shc_core::montecarlo::{self, MonteCarloOptions, ProcessVariation, SampleResult};
use shc_core::{
    seed, surface, tracer, BatchPolicy, CharError, CharacterizationProblem, Contour, OutputSurface,
    Parallelism, SeedOptions, SurfaceOptions, TracerOptions,
};
use shc_obs::json;
use shc_spice::transient::{TransientAnalysis, TransientOptions, TransientResult};
use shc_spice::waveform::Params;
use shc_spice::SolverChoice;

use crate::spans::Spans;

/// Points per traced contour (the paper's n = 40).
pub const CONTOUR_POINTS: usize = 40;
/// Surface grid points per axis: 20 × 20 = 400 final-only simulations.
pub const GRID_N: usize = 20;
/// Process samples per Monte Carlo run.
pub const MC_SAMPLES: usize = 32;
/// Register-bank width: 228 unknowns, on the sparse side of the dispatch.
pub const BANK_BITS: usize = 32;

/// Contour resolution and degradation of the committed goldens.
const GOLDEN_POINTS: usize = 12;
const GOLDEN_DEGRADATION: f64 = 0.10;
/// Per-coordinate relative tolerance against the goldens.
const GOLDEN_RTOL: f64 = 1e-6;
/// Absolute floor (s) so a near-zero skew does not demand exact equality.
const GOLDEN_ATOL: f64 = 1e-18;
const GOLDENS: [&str; 2] = [
    include_str!("../../goldens/tspc_contour.json"),
    include_str!("../../goldens/c2mos_contour.json"),
];
/// Degradation range the seed draws each contour cell's target from.
const DEGRADATION_RANGE: (f64, f64) = (0.08, 0.12);
/// Surface window: the bend of the TSPC golden padded by 20% (s). The seed
/// shifts it by up to [`WINDOW_SHIFT`] of its span on each axis.
const WINDOW_TAU_S: (f64, f64) = (127e-12, 313e-12);
const WINDOW_TAU_H: (f64, f64) = (22e-12, 158e-12);
const WINDOW_SHIFT: f64 = 0.10;
/// Range of the factor the seed scales the default process-variation
/// sigmas by. The samples' RNG stream stays fixed: sample 0 anchors every
/// warm start, so a seeded stream would move a run's simulation count by
/// about ±10%, while scaling the spread moves it by a few percent.
const MC_SIGMA_SCALE_RANGE: (f64, f64) = (0.9, 1.1);
/// Bank data lead range, as a multiple of the bank's setup hint.
const BANK_LEAD_RANGE: (f64, f64) = (1.3, 1.7);
/// Bank hold skew and the simulated time past the active edge (s).
const BANK_HOLD: f64 = 0.5e-9;
const BANK_SETTLE: f64 = 0.5e-9;
/// Bank transient time step (s).
const BANK_DT: f64 = 4e-12;
/// Largest allowed sparse-vs-dense deviation of the bank's final state (V).
const BANK_DENSE_TOL: f64 = 1e-9;
/// Band a Monte Carlo sample's clock-to-Q must fall in, as a multiple of
/// the nominal cell's.
const MC_TCQ_BAND: (f64, f64) = (0.5, 1.5);

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TSPC and C²MOS 40-point contour traces.
    Contour,
    /// 20 × 20 TSPC output-surface sweep.
    Surface,
    /// 32-sample TSPC Monte Carlo run.
    MonteCarlo,
    /// 32-bit register-bank capture transient.
    Bank,
}

impl Workload {
    /// Every workload, in round order.
    pub const ALL: [Workload; 4] = [
        Workload::Contour,
        Workload::Surface,
        Workload::MonteCarlo,
        Workload::Bank,
    ];

    /// Stable name, as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Contour => "contour",
            Workload::Surface => "surface",
            Workload::MonteCarlo => "montecarlo",
            Workload::Bank => "bank",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Iterations per round of a run over every workload; sized so that
    /// each workload takes a comparable share of a round.
    pub fn per_round(self) -> usize {
        match self {
            Workload::Contour | Workload::MonteCarlo => 1,
            Workload::Surface => 2,
            Workload::Bank => 5,
        }
    }

    /// Operations one iteration attempts: contours, grid evaluations,
    /// samples or transients.
    pub fn operations(self) -> usize {
        match self {
            Workload::Contour => 2,
            Workload::Surface => GRID_N * GRID_N,
            Workload::MonteCarlo => MC_SAMPLES,
            Workload::Bank => 1,
        }
    }
}

/// Everything the seed controls. The library receives only these values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inputs {
    /// Clock-to-Q degradation of the TSPC and C²MOS contours.
    pub degradation: [f64; 2],
    /// Surface window shift on each axis, as a share of the window span.
    pub window_shift: (f64, f64),
    /// Factor on the default process-variation sigmas.
    pub mc_sigma_scale: f64,
    /// Bank data lead, as a multiple of the bank's setup hint.
    pub bank_lead: f64,
}

impl Inputs {
    /// Draws the inputs of every workload from `seed`.
    pub fn from_seed(seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let (d0, d1) = DEGRADATION_RANGE;
        let (l0, l1) = BANK_LEAD_RANGE;
        Inputs {
            degradation: [rng.gen_range(d0..d1), rng.gen_range(d0..d1)],
            window_shift: (
                rng.gen_range(-WINDOW_SHIFT..WINDOW_SHIFT),
                rng.gen_range(-WINDOW_SHIFT..WINDOW_SHIFT),
            ),
            mc_sigma_scale: rng.gen_range(MC_SIGMA_SCALE_RANGE.0..MC_SIGMA_SCALE_RANGE.1),
            bank_lead: rng.gen_range(l0..l1),
        }
    }
}

fn technology() -> Technology {
    Technology::default_250nm()
}

fn tspc() -> Register {
    tspc_register_with(&technology(), ClockSpec::fast())
}

fn c2mos() -> Register {
    c2mos_register_with(&technology(), ClockSpec::fast(), C2MOS_CLKB_SKEW)
}

fn build_problem(
    spans: &mut Spans,
    register: Register,
    degradation: f64,
) -> Result<CharacterizationProblem, CharError> {
    spans.record("core.problem.build", |_| {
        CharacterizationProblem::builder(register)
            .degradation(degradation)
            .build()
    })
}

/// What a workload's iterations run on, built before timing starts.
#[derive(Debug)]
pub enum Fixture {
    /// The TSPC and C²MOS problems at their seeded degradations.
    Contour {
        /// TSPC, then C²MOS.
        problems: Vec<CharacterizationProblem>,
    },
    /// The TSPC problem and the seeded grid.
    Surface {
        /// TSPC at 10% degradation, [`BatchPolicy::Auto`].
        problem: CharacterizationProblem,
        /// The shifted window.
        grid: SurfaceOptions,
    },
    /// Monte Carlo options and the nominal cell the samples are checked
    /// against.
    MonteCarlo {
        /// Nominal TSPC at 10% degradation.
        nominal: CharacterizationProblem,
        /// 32 samples with seeded sigmas, serial, [`BatchPolicy::Auto`].
        opts: MonteCarloOptions,
    },
    /// The bank netlist and its transient.
    Bank {
        /// The 32-bit bank.
        register: Register,
        /// Fixed-step transient, [`SolverChoice::Auto`].
        opts: TransientOptions,
        /// Seeded data lead, fixed hold.
        params: Params,
    },
}

/// Builds a workload's fixture: its netlists and characterization
/// problems, each problem build running its calibration transient.
///
/// # Errors
///
/// Propagates problem-construction failures.
pub fn setup(w: Workload, inputs: &Inputs, spans: &mut Spans) -> Result<Fixture, CharError> {
    Ok(match w {
        Workload::Contour => Fixture::Contour {
            problems: vec![
                build_problem(spans, tspc(), inputs.degradation[0])?,
                build_problem(spans, c2mos(), inputs.degradation[1])?,
            ],
        },
        Workload::Surface => {
            let shift = |(lo, hi): (f64, f64), share: f64| {
                let d = share * (hi - lo);
                (lo + d, hi + d)
            };
            Fixture::Surface {
                problem: build_problem(spans, tspc(), GOLDEN_DEGRADATION)?,
                grid: SurfaceOptions {
                    tau_s_range: shift(WINDOW_TAU_S, inputs.window_shift.0),
                    tau_h_range: shift(WINDOW_TAU_H, inputs.window_shift.1),
                    n: GRID_N,
                    parallelism: Parallelism::Serial,
                },
            }
        }
        Workload::MonteCarlo => {
            let sigma = ProcessVariation::default();
            Fixture::MonteCarlo {
                nominal: build_problem(spans, tspc(), GOLDEN_DEGRADATION)?,
                opts: MonteCarloOptions {
                    samples: MC_SAMPLES,
                    variation: ProcessVariation {
                        sigma_vt: inputs.mc_sigma_scale * sigma.sigma_vt,
                        sigma_kp_rel: inputs.mc_sigma_scale * sigma.sigma_kp_rel,
                    },
                    parallelism: Parallelism::Serial,
                    batch: BatchPolicy::Auto,
                    ..MonteCarloOptions::default()
                },
            }
        }
        Workload::Bank => spans.record("cells.register_bank", |_| {
            let register = register_bank_with(&technology(), ClockSpec::fast(), BANK_BITS);
            let lead = inputs.bank_lead * register.reference_setup_hint().unwrap_or(0.5e-9);
            let opts = TransientOptions::builder(register.active_edge_time() + BANK_SETTLE)
                .dt(BANK_DT)
                .solver(SolverChoice::Auto)
                .build();
            Fixture::Bank {
                register,
                opts,
                params: Params::new(lead, BANK_HOLD),
            }
        }),
    })
}

/// What one iteration produced.
#[derive(Debug)]
pub enum Output {
    /// TSPC, then C²MOS.
    Contour(Vec<Contour>),
    /// The sampled surface.
    Surface(OutputSurface),
    /// Per-sample results.
    MonteCarlo(Vec<SampleResult>),
    /// The bank transient.
    Bank(TransientResult),
}

/// Work counts of one iteration, read from the library's public results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Transient simulations.
    pub sims: usize,
    /// Simulations spent in `find_first_point` (contour).
    pub seed_sims: usize,
    /// Simulations spent in `trace` (contour).
    pub trace_sims: usize,
    /// Accepted contour points (contour).
    pub points: usize,
    /// Corrected (non-seed) contour points (contour).
    pub corrected_points: usize,
    /// MPNR corrector iterations over all points (contour).
    pub corrector_iterations: usize,
}

/// One iteration's output and work.
#[derive(Debug)]
pub struct Iteration {
    /// The output, checked against the verification pass.
    pub output: Output,
    /// Work counts.
    pub work: Work,
}

/// Runs one iteration of the fixture's workload; every call into the
/// library runs inside a span.
///
/// # Errors
///
/// Propagates the library's error.
pub fn run_iteration(fixture: &Fixture, spans: &mut Spans) -> Result<Iteration, CharError> {
    let mut work = Work::default();
    let output = match fixture {
        Fixture::Contour { problems } => {
            let mut contours = Vec::with_capacity(problems.len());
            for problem in problems {
                let start = problem.simulation_count();
                let first = spans.record("core.seed.find_first_point", |_| {
                    seed::find_first_point(problem, &SeedOptions::default())
                })?;
                let seeded = problem.simulation_count();
                let contour = spans.record("core.tracer.trace", |_| {
                    tracer::trace(
                        problem,
                        first.params,
                        CONTOUR_POINTS,
                        &TracerOptions::default(),
                    )
                })?;
                let end = problem.simulation_count();
                work.seed_sims += seeded - start;
                work.trace_sims += end - seeded;
                work.sims += end - start;
                work.points += contour.points().len();
                work.corrected_points += contour.points().len().saturating_sub(1);
                work.corrector_iterations += contour.total_corrector_iterations();
                contours.push(contour);
            }
            Output::Contour(contours)
        }
        Fixture::Surface { problem, grid } => {
            let sampled = spans.record("core.surface.generate", |_| {
                surface::generate(problem, grid)
            })?;
            work.sims = sampled.simulations();
            Output::Surface(sampled)
        }
        Fixture::MonteCarlo { opts, .. } => {
            let (samples, stats) = spans.record("core.montecarlo.run", |_| {
                montecarlo::run(
                    &technology(),
                    |tech| tspc_register_with(tech, ClockSpec::fast()),
                    opts,
                )
            })?;
            work.sims = stats.total_simulations;
            Output::MonteCarlo(samples)
        }
        Fixture::Bank {
            register,
            opts,
            params,
        } => {
            let result = spans.record("spice.transient.run", |_| {
                TransientAnalysis::new(register.circuit(), opts.clone()).run(params)
            })?;
            work.sims = 1;
            Output::Bank(result)
        }
    };
    Ok(Iteration { output, work })
}

fn same_contour(a: &Contour, b: &Contour) -> bool {
    a.simulations() == b.simulations()
        && a.total_corrector_iterations() == b.total_corrector_iterations()
        && a.points().len() == b.points().len()
        && a.points().iter().zip(b.points()).all(|(p, q)| {
            p.tau_s.to_bits() == q.tau_s.to_bits()
                && p.tau_h.to_bits() == q.tau_h.to_bits()
                && p.residual.to_bits() == q.residual.to_bits()
                && p.corrector_iterations == q.corrector_iterations
        })
}

fn same_sample(a: &SampleResult, b: &SampleResult) -> bool {
    a.index == b.index
        && a.simulations == b.simulations
        && a.t_cq.to_bits() == b.t_cq.to_bits()
        && a.tau_s.to_bits() == b.tau_s.to_bits()
        && a.tau_h.to_bits() == b.tau_h.to_bits()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Output {
    /// Operations of `self` that are not bitwise equal to `reference`:
    /// contours, grid values, samples or transients. Outputs of different
    /// shapes count every operation as different.
    pub fn mismatches(&self, reference: &Output) -> usize {
        match (self, reference) {
            (Output::Contour(a), Output::Contour(b)) if a.len() == b.len() => {
                a.iter().zip(b).filter(|(x, y)| !same_contour(x, y)).count()
            }
            (Output::Surface(a), Output::Surface(b))
                if a.values().len() == b.values().len()
                    && same_bits(a.tau_s_grid(), b.tau_s_grid())
                    && same_bits(a.tau_h_grid(), b.tau_h_grid()) =>
            {
                a.values()
                    .iter()
                    .zip(b.values())
                    .map(|(ra, rb)| {
                        if ra.len() == rb.len() {
                            ra.iter()
                                .zip(rb)
                                .filter(|(x, y)| x.to_bits() != y.to_bits())
                                .count()
                        } else {
                            ra.len().max(rb.len())
                        }
                    })
                    .sum()
            }
            (Output::MonteCarlo(a), Output::MonteCarlo(b)) if a.len() == b.len() => {
                a.iter().zip(b).filter(|(x, y)| !same_sample(x, y)).count()
            }
            (Output::Bank(a), Output::Bank(b)) => usize::from(!same_bits(
                a.final_state().as_slice(),
                b.final_state().as_slice(),
            )),
            _ => self.operations(),
        }
    }

    /// Operations this output holds.
    fn operations(&self) -> usize {
        match self {
            Output::Contour(c) => c.len(),
            Output::Surface(s) => s.values().iter().map(Vec::len).sum(),
            Output::MonteCarlo(m) => m.len(),
            Output::Bank(_) => 1,
        }
    }

    /// Operations that fail on their own: contours shorter than
    /// [`CONTOUR_POINTS`].
    pub fn short_contours(&self) -> usize {
        match self {
            Output::Contour(c) => c
                .iter()
                .filter(|c| c.points().len() < CONTOUR_POINTS)
                .count(),
            _ => 0,
        }
    }
}

/// The verification pass of one workload.
#[derive(Debug)]
pub struct Verification {
    /// The untimed output every timed one must equal bitwise.
    pub reference: Option<Output>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Verification {
    fn fail(&mut self, count: usize, why: String) {
        self.failed += count;
        self.failures.push(why);
    }
}

/// Runs one untimed iteration and the workload's output checks; it also
/// serves as warm-up.
pub fn verify(w: Workload, fixture: &Fixture) -> Verification {
    let mut v = Verification {
        reference: None,
        attempted: w.operations(),
        failed: 0,
        failures: Vec::new(),
    };
    let iteration = match run_iteration(fixture, &mut Spans::off()) {
        Ok(it) => it,
        Err(e) => {
            v.fail(w.operations(), format!("{}: {e}", w.name()));
            return v;
        }
    };
    let short = iteration.output.short_contours();
    if short > 0 {
        v.fail(
            short,
            format!("contour: {short} contour(s) below {CONTOUR_POINTS} points"),
        );
    }
    let checked = match (fixture, &iteration.output) {
        (Fixture::Contour { problems }, Output::Contour(contours)) => {
            check_contours(&mut v, problems, contours)
        }
        (Fixture::Surface { grid, .. }, reference) => check_surface(&mut v, grid, reference),
        (Fixture::MonteCarlo { nominal, opts }, Output::MonteCarlo(samples)) => {
            check_montecarlo(&mut v, nominal, opts, samples)
        }
        (
            Fixture::Bank {
                register,
                opts,
                params,
            },
            Output::Bank(result),
        ) => check_bank(&mut v, register, opts, params, result),
        _ => Err(CharError::Internal {
            reason: "fixture and output belong to different workloads",
        }),
    };
    if let Err(e) = checked {
        v.fail(1, format!("{}: check could not run: {e}", w.name()));
    }
    v.reference = Some(iteration.output);
    v
}

/// Every point re-evaluates to a residual within the one MPNR accepted
/// when it converged, and one extra 12-point trace per cell at 10%
/// degradation matches the committed golden.
fn check_contours(
    v: &mut Verification,
    problems: &[CharacterizationProblem],
    contours: &[Contour],
) -> Result<(), CharError> {
    for (k, (problem, contour)) in problems.iter().zip(contours).enumerate() {
        let cell = problem.register().name();
        for (i, p) in contour.points().iter().enumerate() {
            let h = problem.evaluate(&Params::new(p.tau_s, p.tau_h))?;
            if !within(h.abs(), residual_tolerance(p.residual)) {
                v.fail(
                    1,
                    format!(
                        "contour: {cell} point {i} re-evaluates to |h| = {:.3e} V, \
                         converged residual {:.3e} V",
                        h.abs(),
                        p.residual
                    ),
                );
                break;
            }
        }
        v.attempted += 1;
        let golden_problem =
            CharacterizationProblem::builder(if k == 0 { tspc() } else { c2mos() })
                .degradation(GOLDEN_DEGRADATION)
                .build()?;
        let traced = golden_problem.trace_contour(GOLDEN_POINTS)?;
        if let Err(why) = matches_golden(GOLDENS[k], &traced) {
            v.fail(1, format!("contour: {cell} golden: {why}"));
        }
    }
    Ok(())
}

/// `value <= tol`, false for NaN.
fn within(value: f64, tol: f64) -> bool {
    value <= tol
}

/// Re-evaluation tolerance for a contour point: MPNR stops once its update
/// falls below the skew tolerance, after the evaluation that reported
/// `residual`, so re-evaluating the final point must not do worse than
/// that residual. The floor absorbs the last bits of a residual that is
/// already at the transient's own round-off.
fn residual_tolerance(residual: f64) -> f64 {
    residual.max(1e-9)
}

fn matches_golden(golden: &str, contour: &Contour) -> Result<(), String> {
    let tau_s = json::scan_f64_array(golden, "tau_s").ok_or("golden has no tau_s")?;
    let tau_h = json::scan_f64_array(golden, "tau_h").ok_or("golden has no tau_h")?;
    let points = contour.points();
    if points.len() != tau_s.len() || points.len() != tau_h.len() {
        return Err(format!(
            "{} points, golden has {}",
            points.len(),
            tau_s.len()
        ));
    }
    for (i, p) in points.iter().enumerate() {
        for (got, want) in [(p.tau_s, tau_s[i]), (p.tau_h, tau_h[i])] {
            if !within((got - want).abs(), GOLDEN_RTOL * want.abs() + GOLDEN_ATOL) {
                return Err(format!("point {i}: {got:e} vs golden {want:e}"));
            }
        }
    }
    Ok(())
}

/// The scalar sweep must equal the batched one bitwise.
fn check_surface(
    v: &mut Verification,
    grid: &SurfaceOptions,
    reference: &Output,
) -> Result<(), CharError> {
    let scalar = CharacterizationProblem::builder(tspc())
        .degradation(GOLDEN_DEGRADATION)
        .batch(BatchPolicy::Scalar)
        .build()?;
    let differ = Output::Surface(surface::generate(&scalar, grid)?).mismatches(reference);
    if differ > 0 {
        v.fail(
            differ,
            format!("surface: {differ} grid value(s) differ from the scalar sweep"),
        );
    }
    Ok(())
}

/// The scalar run must give identical samples, each with a plausible
/// clock-to-Q.
fn check_montecarlo(
    v: &mut Verification,
    nominal: &CharacterizationProblem,
    opts: &MonteCarloOptions,
    samples: &[SampleResult],
) -> Result<(), CharError> {
    let scalar_opts = MonteCarloOptions {
        batch: BatchPolicy::Scalar,
        ..*opts
    };
    let (scalar, _) = montecarlo::run(
        &technology(),
        |tech| tspc_register_with(tech, ClockSpec::fast()),
        &scalar_opts,
    )?;
    let differ = Output::MonteCarlo(scalar).mismatches(&Output::MonteCarlo(samples.to_vec()));
    if differ > 0 {
        v.fail(
            differ,
            format!("montecarlo: {differ} sample(s) differ from the scalar run"),
        );
    }
    let t_cq = nominal.characteristic_delay();
    let (lo, hi) = (MC_TCQ_BAND.0 * t_cq, MC_TCQ_BAND.1 * t_cq);
    let implausible = samples
        .iter()
        .filter(|s| !(lo..=hi).contains(&s.t_cq))
        .count();
    if implausible > 0 || samples.len() != opts.samples {
        v.fail(
            implausible.max(1),
            format!(
                "montecarlo: {} of {} sample(s), {implausible} with clock-to-Q outside \
                 [{lo:.3e}, {hi:.3e}] s",
                samples.len(),
                opts.samples
            ),
        );
    }
    Ok(())
}

/// The final state must match a dense-solver run.
fn check_bank(
    v: &mut Verification,
    register: &Register,
    opts: &TransientOptions,
    params: &Params,
    result: &TransientResult,
) -> Result<(), CharError> {
    let mut dense_opts = opts.clone();
    dense_opts.solver = SolverChoice::Dense;
    dense_opts.dc.solver = SolverChoice::Dense;
    let dense = TransientAnalysis::new(register.circuit(), dense_opts).run(params)?;
    let deviation = dense.final_state().sub(result.final_state()).norm_inf();
    if !within(deviation, BANK_DENSE_TOL) {
        v.fail(
            1,
            format!("bank: final state deviates from the dense run by {deviation:.3e} V"),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        assert_eq!(Inputs::from_seed(1), Inputs::from_seed(1));
        assert_ne!(Inputs::from_seed(1), Inputs::from_seed(2));
        for seed in 0..50 {
            let i = Inputs::from_seed(seed);
            for d in i.degradation {
                assert!((DEGRADATION_RANGE.0..DEGRADATION_RANGE.1).contains(&d));
            }
            assert!(i.window_shift.0.abs() <= WINDOW_SHIFT);
            assert!(i.window_shift.1.abs() <= WINDOW_SHIFT);
            assert!((BANK_LEAD_RANGE.0..BANK_LEAD_RANGE.1).contains(&i.bank_lead));
            assert!((MC_SIGMA_SCALE_RANGE.0..MC_SIGMA_SCALE_RANGE.1).contains(&i.mc_sigma_scale));
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    /// Each workload's verification pass, through the code `bench run`
    /// uses, passes on seed 1.
    #[test]
    fn verification_passes_on_every_workload() {
        let inputs = Inputs::from_seed(1);
        for w in Workload::ALL {
            let fixture = setup(w, &inputs, &mut Spans::off()).expect("fixture builds");
            let v = verify(w, &fixture);
            assert!(v.reference.is_some(), "{}: no reference output", w.name());
            assert_eq!(v.failed, 0, "{}: {:?}", w.name(), v.failures);
            assert!(v.attempted >= w.operations());
        }
    }
}
