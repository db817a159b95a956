//! The traced run's per-layer metrics.
//!
//! Three sources feed them, all read from outside the program:
//!
//! - spans the harness records around each call into a layer, plus the
//!   work counts the library returns ([`Value::Iter`]);
//! - an `shc-obs` collector and an `shc-prof` profiler at `Detail::Iter`,
//!   installed for each traced iteration ([`Value::Obs`], [`Value::Prof`]);
//! - a replay stage that times lower-layer public functions on the
//!   workloads' own inputs ([`Replay`], read through [`Value::Run`]).
//!
//! A metric measured per iteration is the median over the traced
//! iterations of its home workload: the first of its workloads that the
//! run selected, else the first of its workloads. Every traced run also
//! traces one iteration of each workload it did not select, so every
//! metric has a value.
//!
//! Which end-to-end metric each layer metric should move, and where:
//!
//! | metrics | moves | on |
//! |---|---|---|
//! | `problem.build_ms`, `dcop.ms` | `setup_s` | contour, surface |
//! | `problem.eval*`, `seed.*`, `tracer.*`, `transient.*`, `dcop.*`, `lu.*`, `circuit.assemble_us` | `wall_s`, `sims` | contour |
//! | `problem.eval_batch_ms_per_sim`, `surface.*`, `batch.*`, `soa_lu.*` | `wall_s` | surface |
//! | `problem.eval_jac_batch_ms_per_sim`, `montecarlo.*`, `mpnr.*`, `batch.sens_lane_ms` | `wall_s`, `sims` | montecarlo |
//! | `circuit.assemble_sparse_us`, `sparse_lu.*` | `wall_s`, `peak_heap_mb` | bank |
//! | `obs.*`, `prof.*` | `wall_s`, `sims` | each, where that layer works |

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use shc_cells::{tspc_register_with, ClockSpec, Technology};
use shc_core::mpnr::{self, MpnrOptions};
use shc_core::{BatchPolicy, CharError, CharacterizationProblem};
use shc_linalg::{CsrMatrix, LuFactor, SoaLu, SparseLu, Vector};
use shc_obs::{Collector, Metric, MetricsSnapshot, SpanKind};
use shc_prof::{Detail, Phase, ProfileReport, Profiler};
use shc_spice::batch::{run_lockstep, BatchLane, DEFAULT_LANES};
use shc_spice::dcop::{solve_dc, DcOptions};
use shc_spice::stamp::Stamps;
use shc_spice::transient::{RecordMode, TransientAnalysis, TransientOptions};
use shc_spice::waveform::{Param, Params};
use shc_spice::Circuit;

use crate::report::Better;
use crate::spans::{now, Spans};
use crate::stats::median_of;
use crate::workloads::{run_iteration, Fixture, Iteration, Output, Work, Workload, MC_SAMPLES};

/// One traced iteration.
#[derive(Debug)]
pub struct TracedIter {
    /// Its workload.
    pub workload: Workload,
    /// Wall time with tracing on (s).
    pub wall_s: f64,
    /// The iteration's output and work counts.
    pub iteration: Iteration,
    /// Counters of the installed collector.
    pub obs: MetricsSnapshot,
    /// Phase tree of the installed profiler.
    pub prof: ProfileReport,
    /// Total span time per name (s).
    span_s: Vec<(&'static str, f64)>,
}

impl TracedIter {
    fn span_s(&self, name: &str) -> f64 {
        self.span_s
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }

    fn work(&self) -> &Work {
        &self.iteration.work
    }

    fn count(&self, metric: Metric) -> f64 {
        self.obs.counter(metric) as f64
    }
}

fn root_span(w: Workload) -> &'static str {
    match w {
        Workload::Contour => "bench.contour",
        Workload::Surface => "bench.surface",
        Workload::MonteCarlo => "bench.montecarlo",
        Workload::Bank => "bench.bank",
    }
}

/// Runs one iteration of `w` with spans, a collector and a profiler on;
/// its spans carry iteration id `id`.
///
/// # Errors
///
/// Propagates the library's error.
pub fn traced_iteration(
    w: Workload,
    fixture: &Fixture,
    spans: &mut Spans,
    id: u32,
) -> Result<TracedIter, CharError> {
    spans.set_iteration(id);
    let collector = Collector::new();
    let profiler = Profiler::with_detail(Detail::Iter);
    let start = now();
    let iteration = {
        let _obs = shc_obs::install_scoped(&collector);
        let _prof = shc_prof::install_scoped(&profiler);
        spans.record(root_span(w), |s| run_iteration(fixture, s))
    }?;
    let wall_s = start.elapsed().as_secs_f64();
    let mut span_s: Vec<(&'static str, f64)> = Vec::new();
    for span in spans.spans().iter().filter(|s| s.iteration == id) {
        span_s.push((span.name, span.duration_ns() as f64 * 1e-9));
    }
    Ok(TracedIter {
        workload: w,
        wall_s,
        iteration,
        obs: collector.snapshot(),
        prof: profiler.report(w.name()),
        span_s,
    })
}

/// Lower-layer timings on the workloads' own inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    eval_ms: f64,
    eval_jac_ms: f64,
    ns_per_step: f64,
    eval_batch_ms_per_sim: f64,
    eval_jac_batch_ms_per_sim: f64,
    solve_batch_ms_per_lane: f64,
    dcop_ms: f64,
    batch_lane_ms: f64,
    batch_scalar_ms: f64,
    batch_sens_lane_ms: f64,
    assemble_us: f64,
    assemble_sparse_us: f64,
    lu_refactor_us: f64,
    lu_solve_us: f64,
    soa_factor_us_per_lane: f64,
    soa_solve_us_per_lane: f64,
    sparse_refactor_us: f64,
    sparse_solve_us: f64,
    sparse_factor_nnz: f64,
}

/// What the replay stage reads: each workload's fixture and verification
/// output.
pub struct ReplayInputs<'a> {
    /// Contour fixture and its verification contours.
    pub contour: (&'a Fixture, &'a Output),
    /// Surface fixture and its verification surface.
    pub surface: (&'a Fixture, &'a Output),
    /// Monte Carlo fixture and its verification samples.
    pub montecarlo: (&'a Fixture, &'a Output),
    /// Bank fixture.
    pub bank: &'a Fixture,
}

/// Median seconds per call over `blocks` timed blocks of `reps` calls.
fn per_call<T>(
    blocks: usize,
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut per = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let start = now();
        for _ in 0..reps {
            black_box(f()?);
        }
        per.push(start.elapsed().as_secs_f64() / reps as f64);
    }
    Ok(median_of(per))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Final-only transient options of a problem's `h` evaluations.
fn eval_options(problem: &CharacterizationProblem, sensitivities: bool) -> TransientOptions {
    let mut builder = TransientOptions::builder(problem.t_f())
        .dt(problem.dt())
        .integrator(problem.integrator())
        .solver(problem.solver())
        .record(RecordMode::FinalOnly);
    if sensitivities {
        builder = builder.sensitivities(&Param::ALL);
    }
    builder.build()
}

/// `G + C/dt` of `circuit` at its DC operating point, with that point.
fn step_jacobian(
    circuit: &Circuit,
    params: &Params,
    dt: f64,
) -> Result<(shc_linalg::Matrix, Vector, Stamps), String> {
    let x = solve_dc(circuit, params, &DcOptions::default())
        .map_err(err)?
        .x;
    let mut stamps = Stamps::new(circuit.unknown_count());
    circuit.assemble_into(&mut stamps, &x, 0.0, params, 1.0);
    let j = Circuit::combine_jacobian(&stamps.c, &stamps.g, 1.0 / dt).map_err(err)?;
    Ok((j, x, stamps))
}

/// Times the lower layers' public functions on the workloads' inputs.
///
/// # Errors
///
/// A library error, or a fixture of the wrong workload.
pub fn replay(inputs: &ReplayInputs<'_>, spans: &mut Spans) -> Result<Replay, String> {
    let (
        Fixture::Contour { problems },
        Output::Contour(contours),
        Fixture::Surface { problem: sweep, .. },
        Output::Surface(grid),
        Fixture::MonteCarlo { nominal, opts },
        Output::MonteCarlo(samples),
        Fixture::Bank {
            register: bank,
            opts: bank_opts,
            params: bank_params,
        },
    ) = (
        inputs.contour.0,
        inputs.contour.1,
        inputs.surface.0,
        inputs.surface.1,
        inputs.montecarlo.0,
        inputs.montecarlo.1,
        inputs.bank,
    )
    else {
        return Err("replay inputs belong to the wrong workloads".into());
    };
    let mut r = Replay::default();
    let tspc = &problems[0];
    let points: Vec<Params> = contours[0]
        .points()
        .iter()
        .map(|p| Params::new(p.tau_s, p.tau_h))
        .collect();
    let lanes = DEFAULT_LANES.min(points.len());
    let chunk: Vec<Params> = grid
        .tau_s_grid()
        .iter()
        .flat_map(|&s| grid.tau_h_grid().iter().map(move |&h| Params::new(s, h)))
        .take(DEFAULT_LANES)
        .collect();

    // core::problem, scalar: one evaluation per traced point.
    spans.record("replay.problem.evaluate", |_| -> Result<(), String> {
        let mut ms = Vec::with_capacity(points.len());
        for p in &points {
            let start = now();
            black_box(tspc.evaluate(p).map_err(err)?);
            ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        r.eval_ms = median_of(ms);
        Ok(())
    })?;
    spans.record(
        "replay.problem.evaluate_with_jacobian",
        |_| -> Result<(), String> {
            let (mut ms, mut ns_step) = (Vec::new(), Vec::new());
            for p in &points {
                let start = now();
                let ev = tspc.evaluate_with_jacobian(p).map_err(err)?;
                let s = start.elapsed().as_secs_f64();
                ms.push(s * 1e3);
                ns_step.push(s * 1e9 / ev.stats.steps.max(1) as f64);
            }
            r.eval_jac_ms = median_of(ms);
            r.ns_per_step = median_of(ns_step);
            Ok(())
        },
    )?;
    // core::problem, batched: one lane group.
    r.eval_batch_ms_per_sim = spans.record("replay.problem.evaluate_batch", |_| {
        per_call(3, 1, || sweep.evaluate_batch(&chunk).map_err(err))
    })? * 1e3
        / chunk.len() as f64;
    r.eval_jac_batch_ms_per_sim =
        spans.record("replay.problem.evaluate_with_jacobian_batch", |_| {
            per_call(3, 1, || {
                tspc.evaluate_with_jacobian_batch(&points[..lanes])
                    .map_err(err)
            })
        })? * 1e3
            / lanes as f64;

    // core::mpnr: one lockstep solve over 16 sampled process cards,
    // warm-started from the Monte Carlo anchor sample.
    r.solve_batch_ms_per_lane = spans.record("replay.mpnr.solve_batch", |_| {
        let mut rng = StdRng::seed_from_u64(opts.rng_seed);
        let cells: Vec<CharacterizationProblem> = (0..DEFAULT_LANES)
            .map(|_| {
                let tech = opts
                    .variation
                    .sample(&Technology::default_250nm(), &mut rng);
                CharacterizationProblem::builder(tspc_register_with(&tech, ClockSpec::fast()))
                    .degradation(nominal.degradation())
                    .build()
            })
            .collect::<Result<_, _>>()
            .map_err(err)?;
        let refs: Vec<&CharacterizationProblem> = cells.iter().collect();
        let anchor = samples
            .first()
            .map(|s| Params::new(s.tau_s, s.tau_h))
            .ok_or("no Monte Carlo anchor sample")?;
        let anchors = vec![anchor; refs.len()];
        per_call(3, 1, || {
            let solved =
                mpnr::solve_batch(&refs, &anchors, &MpnrOptions::default(), BatchPolicy::Auto);
            solved
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)
        })
    })? * 1e3
        / DEFAULT_LANES as f64;

    // spice::dcop and spice::batch on the same inputs.
    let circuit = tspc.register().circuit();
    let reference = tspc.reference_params();
    r.dcop_ms = spans.record("replay.dcop.solve_dc", |_| {
        per_call(11, 3, || {
            solve_dc(circuit, &reference, &DcOptions::default()).map_err(err)
        })
    })? * 1e3;
    let grid_opts = eval_options(sweep, false);
    let grid_lanes: Vec<BatchLane<'_>> = chunk
        .iter()
        .map(|&params| BatchLane {
            circuit: sweep.register().circuit(),
            params,
            tstop: sweep.t_f(),
        })
        .collect();
    r.batch_lane_ms = spans.record("replay.batch.run_lockstep", |_| {
        per_call(3, 1, || run_lockstep(&grid_lanes, &grid_opts).map_err(err))
    })? * 1e3
        / grid_lanes.len() as f64;
    r.batch_scalar_ms = spans.record("replay.transient.run", |_| {
        per_call(3, 1, || {
            for p in &chunk {
                black_box(
                    TransientAnalysis::new(sweep.register().circuit(), grid_opts.clone())
                        .run(p)
                        .map_err(err)?,
                );
            }
            Ok(())
        })
    })? * 1e3
        / chunk.len() as f64;
    let sens_opts = eval_options(tspc, true);
    let sens_lanes: Vec<BatchLane<'_>> = points[..lanes]
        .iter()
        .map(|&params| BatchLane {
            circuit,
            params,
            tstop: tspc.t_f(),
        })
        .collect();
    r.batch_sens_lane_ms = spans.record("replay.batch.run_lockstep_sens", |_| {
        per_call(3, 1, || run_lockstep(&sens_lanes, &sens_opts).map_err(err))
    })? * 1e3
        / lanes as f64;

    // spice::circuit and linalg::{lu, soa_lu} on TSPC's step Jacobian.
    let (j, x, mut stamps) = step_jacobian(circuit, &reference, tspc.dt())?;
    r.assemble_us = spans.record("replay.circuit.assemble_into", |_| {
        per_call(21, 200, || {
            circuit.assemble_into(&mut stamps, &x, 0.0, &reference, 1.0);
            Ok(())
        })
    })? * 1e6;
    let n = j.rows();
    let b = Vector::filled(n, 1.0);
    let mut lu = LuFactor::new(&j).map_err(err)?;
    r.lu_refactor_us = spans.record("replay.lu.refactor", |_| {
        per_call(21, 200, || lu.refactor(&j).map_err(err))
    })? * 1e6;
    let mut xs = Vector::zeros(n);
    r.lu_solve_us = spans.record("replay.lu.solve_into", |_| {
        per_call(21, 500, || lu.solve_into(&b, &mut xs).map_err(err))
    })? * 1e6;
    let mut a = vec![0.0; n * n * DEFAULT_LANES];
    let mut rhs = vec![0.0; n * DEFAULT_LANES];
    for i in 0..n {
        for k in 0..n {
            for l in 0..DEFAULT_LANES {
                a[(i * n + k) * DEFAULT_LANES + l] = j[(i, k)];
            }
        }
        for l in 0..DEFAULT_LANES {
            rhs[i * DEFAULT_LANES + l] = b[i];
        }
    }
    let mut soa = SoaLu::new(DEFAULT_LANES, n);
    let active = vec![true; DEFAULT_LANES];
    let mut errs = vec![None; DEFAULT_LANES];
    r.soa_factor_us_per_lane = spans.record("replay.soa_lu.factor_all", |_| {
        per_call(21, 50, || {
            soa.factor_all(&a, &active, &mut errs);
            Ok(())
        })
    })? * 1e6
        / DEFAULT_LANES as f64;
    let mut xb = vec![0.0; n * DEFAULT_LANES];
    r.soa_solve_us_per_lane = spans.record("replay.soa_lu.solve_all", |_| {
        per_call(21, 200, || {
            soa.solve_all(&rhs, &mut xb, &active, &mut errs);
            Ok(())
        })
    })? * 1e6
        / DEFAULT_LANES as f64;
    if let Some(e) = errs.iter().flatten().next() {
        return Err(format!("soa_lu: {e}"));
    }

    // spice::circuit (sparse) and linalg::sparse_lu on the bank.
    let bank_circuit = bank.circuit();
    let (jb, xb0, mut bank_stamps) = step_jacobian(bank_circuit, bank_params, bank_opts.dt)?;
    let pattern = bank_circuit.jacobian_pattern(bank_params);
    bank_stamps.clear();
    r.assemble_sparse_us = spans.record("replay.circuit.assemble_sparse_into", |_| {
        per_call(21, 50, || {
            bank_circuit.assemble_sparse_into(
                &mut bank_stamps,
                &xb0,
                0.0,
                bank_params,
                1.0,
                &pattern,
            );
            Ok(())
        })
    })? * 1e6;
    let csr = CsrMatrix::from_dense(&jb, 0.0).map_err(err)?;
    let mut sparse = SparseLu::new(&csr).map_err(err)?;
    r.sparse_factor_nnz = sparse.factor_nnz() as f64;
    r.sparse_refactor_us = spans.record("replay.sparse_lu.refactor", |_| {
        per_call(21, 50, || sparse.refactor(&csr).map_err(err))
    })? * 1e6;
    let bb = Vector::filled(jb.rows(), 1.0);
    let mut xsb = Vector::zeros(jb.rows());
    r.sparse_solve_us = spans.record("replay.sparse_lu.solve_into", |_| {
        per_call(21, 200, || sparse.solve_into(&bb, &mut xsb).map_err(err))
    })? * 1e6;
    Ok(r)
}

/// Everything a per-layer metric may read.
pub struct LayerCtx<'a> {
    /// The workloads the run selected.
    pub selected: &'a [Workload],
    /// Every traced iteration.
    pub traced: &'a [TracedIter],
    /// The replay stage.
    pub replay: &'a Replay,
    /// Median `ProblemBuilder::build` span while building fixtures (ms).
    pub build_ms: f64,
    /// Traced round wall ÷ untraced round wall − 1, medians.
    pub trace_overhead: f64,
}

/// How a per-layer metric is measured.
pub enum Value {
    /// Per traced iteration of the home workload among these.
    Iter(&'static [Workload], fn(&TracedIter) -> f64),
    /// An `shc-obs` counter per traced iteration of the home workload.
    Obs(&'static [Workload], Metric),
    /// An `shc-prof` phase's self time per traced iteration (ms).
    Prof(&'static [Workload], Phase),
    /// Once per run.
    Run(fn(&LayerCtx<'_>) -> f64),
}

/// One per-layer metric.
pub struct LayerMetric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// How it is measured.
    pub value: Value,
}

const C: &[Workload] = &[Workload::Contour];
const S: &[Workload] = &[Workload::Surface];
const M: &[Workload] = &[Workload::MonteCarlo];
const B: &[Workload] = &[Workload::Bank];
const CB: &[Workload] = &[Workload::Contour, Workload::Bank];
const CM: &[Workload] = &[Workload::Contour, Workload::MonteCarlo];
const CMB: &[Workload] = &[Workload::Contour, Workload::MonteCarlo, Workload::Bank];
const CSM: &[Workload] = &[Workload::Contour, Workload::Surface, Workload::MonteCarlo];
const SM: &[Workload] = &[Workload::Surface, Workload::MonteCarlo];
const ALL: &[Workload] = &Workload::ALL;

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    value: Value,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        value,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, in output order.
pub static PER_LAYER: [LayerMetric; 58] = [
    metric("problem.build_ms", "ms", Lower, Value::Run(|c| c.build_ms)),
    metric(
        "problem.eval_ms",
        "ms",
        Lower,
        Value::Run(|c| c.replay.eval_ms),
    ),
    metric(
        "problem.eval_jac_ms",
        "ms",
        Lower,
        Value::Run(|c| c.replay.eval_jac_ms),
    ),
    metric(
        "problem.sens_ratio",
        "ratio",
        Lower,
        Value::Run(|c| c.replay.eval_jac_ms / c.replay.eval_ms),
    ),
    metric(
        "problem.eval_batch_ms_per_sim",
        "ms",
        Lower,
        Value::Run(|c| c.replay.eval_batch_ms_per_sim),
    ),
    metric(
        "problem.eval_jac_batch_ms_per_sim",
        "ms",
        Lower,
        Value::Run(|c| c.replay.eval_jac_batch_ms_per_sim),
    ),
    metric(
        "seed.ms",
        "ms",
        Lower,
        Value::Iter(C, |t| t.span_s("core.seed.find_first_point") * 1e3),
    ),
    metric(
        "seed.sims",
        "count",
        Lower,
        Value::Iter(C, |t| t.work().seed_sims as f64),
    ),
    metric(
        "tracer.ms",
        "ms",
        Lower,
        Value::Iter(C, |t| t.span_s("core.tracer.trace") * 1e3),
    ),
    metric(
        "tracer.sims",
        "count",
        Lower,
        Value::Iter(C, |t| t.work().trace_sims as f64),
    ),
    metric(
        "tracer.points_per_sim",
        "ratio",
        Higher,
        Value::Iter(C, |t| t.work().points as f64 / t.work().trace_sims as f64),
    ),
    metric(
        "tracer.corrector_iters_per_point",
        "count",
        Lower,
        Value::Iter(C, |t| {
            t.work().corrector_iterations as f64 / t.work().corrected_points as f64
        }),
    ),
    metric(
        "surface.ms_per_sim",
        "ms",
        Lower,
        Value::Iter(S, |t| {
            t.span_s("core.surface.generate") * 1e3 / t.work().sims as f64
        }),
    ),
    metric(
        "montecarlo.ms_per_sample",
        "ms",
        Lower,
        Value::Iter(M, |t| {
            t.span_s("core.montecarlo.run") * 1e3 / MC_SAMPLES as f64
        }),
    ),
    metric(
        "montecarlo.sims_per_sample",
        "count",
        Lower,
        Value::Iter(M, |t| t.work().sims as f64 / MC_SAMPLES as f64),
    ),
    metric(
        "mpnr.warm_ratio",
        "ratio",
        Higher,
        Value::Iter(M, warm_ratio),
    ),
    metric(
        "mpnr.solve_batch_ms_per_lane",
        "ms",
        Lower,
        Value::Run(|c| c.replay.solve_batch_ms_per_lane),
    ),
    metric(
        "transient.ns_per_step",
        "ns",
        Lower,
        Value::Run(|c| c.replay.ns_per_step),
    ),
    metric(
        "transient.steps_per_sim",
        "count",
        Lower,
        Value::Iter(CB, |t| {
            t.count(Metric::TransientSteps) / t.count(Metric::TransientRuns)
        }),
    ),
    metric(
        "transient.newton_per_step",
        "count",
        Lower,
        Value::Iter(CB, |t| {
            t.count(Metric::NewtonIterations) / t.count(Metric::TransientSteps)
        }),
    ),
    metric("dcop.ms", "ms", Lower, Value::Run(|c| c.replay.dcop_ms)),
    metric(
        "dcop.share",
        "ratio",
        Lower,
        Value::Run(|c| c.replay.dcop_ms / c.replay.eval_jac_ms),
    ),
    metric(
        "batch.lane_ms",
        "ms",
        Lower,
        Value::Run(|c| c.replay.batch_lane_ms),
    ),
    metric(
        "batch.scalar_ms",
        "ms",
        Lower,
        Value::Run(|c| c.replay.batch_scalar_ms),
    ),
    metric(
        "batch.speedup",
        "ratio",
        Higher,
        Value::Run(|c| c.replay.batch_scalar_ms / c.replay.batch_lane_ms),
    ),
    metric(
        "batch.sens_lane_ms",
        "ms",
        Lower,
        Value::Run(|c| c.replay.batch_sens_lane_ms),
    ),
    metric(
        "circuit.assemble_us",
        "us",
        Lower,
        Value::Run(|c| c.replay.assemble_us),
    ),
    metric(
        "circuit.assemble_sparse_us",
        "us",
        Lower,
        Value::Run(|c| c.replay.assemble_sparse_us),
    ),
    metric(
        "lu.refactor_us",
        "us",
        Lower,
        Value::Run(|c| c.replay.lu_refactor_us),
    ),
    metric(
        "lu.solve_us",
        "us",
        Lower,
        Value::Run(|c| c.replay.lu_solve_us),
    ),
    metric(
        "soa_lu.factor_us_per_lane",
        "us",
        Lower,
        Value::Run(|c| c.replay.soa_factor_us_per_lane),
    ),
    metric(
        "soa_lu.solve_us_per_lane",
        "us",
        Lower,
        Value::Run(|c| c.replay.soa_solve_us_per_lane),
    ),
    metric(
        "sparse_lu.refactor_us",
        "us",
        Lower,
        Value::Run(|c| c.replay.sparse_refactor_us),
    ),
    metric(
        "sparse_lu.solve_us",
        "us",
        Lower,
        Value::Run(|c| c.replay.sparse_solve_us),
    ),
    metric(
        "sparse_lu.factor_nnz",
        "count",
        Lower,
        Value::Run(|c| c.replay.sparse_factor_nnz),
    ),
    metric(
        "obs.transient_runs",
        "count",
        Lower,
        Value::Obs(ALL, Metric::TransientRuns),
    ),
    metric(
        "obs.transient_steps",
        "count",
        Lower,
        Value::Obs(ALL, Metric::TransientSteps),
    ),
    metric(
        "obs.newton_iterations",
        "count",
        Lower,
        Value::Obs(ALL, Metric::NewtonIterations),
    ),
    metric(
        "obs.lu_refactors",
        "count",
        Lower,
        Value::Obs(CSM, Metric::LuRefactors),
    ),
    metric(
        "obs.sparse_refactors",
        "count",
        Lower,
        Value::Obs(B, Metric::SparseRefactors),
    ),
    metric(
        "obs.mpnr_iterations",
        "count",
        Lower,
        Value::Obs(CM, Metric::MpnrIterations),
    ),
    metric(
        "obs.matrix_allocations",
        "count",
        Lower,
        Value::Obs(ALL, Metric::MatrixAllocations),
    ),
    metric(
        "prof.device_eval.self_ms",
        "ms",
        Lower,
        Value::Prof(CSM, Phase::DeviceEval),
    ),
    metric(
        "prof.stamp.self_ms",
        "ms",
        Lower,
        Value::Prof(CSM, Phase::Stamp),
    ),
    metric(
        "prof.lu_refactor.self_ms",
        "ms",
        Lower,
        Value::Prof(CSM, Phase::LuRefactor),
    ),
    metric(
        "prof.lu_solve.self_ms",
        "ms",
        Lower,
        Value::Prof(CSM, Phase::LuSolve),
    ),
    metric(
        "prof.sens_solve.self_ms",
        "ms",
        Lower,
        Value::Prof(CM, Phase::SensSolve),
    ),
    metric(
        "prof.dc_op.self_ms",
        "ms",
        Lower,
        Value::Prof(ALL, Phase::DcOp),
    ),
    metric(
        "prof.newton_overhead.self_ms",
        "ms",
        Lower,
        Value::Prof(ALL, Phase::NewtonOverhead),
    ),
    metric(
        "prof.transient.self_ms",
        "ms",
        Lower,
        Value::Prof(CMB, Phase::Transient),
    ),
    metric(
        "prof.assemble_sparse.self_ms",
        "ms",
        Lower,
        Value::Prof(B, Phase::AssembleSparse),
    ),
    metric(
        "prof.sparse_refactor.self_ms",
        "ms",
        Lower,
        Value::Prof(B, Phase::SparseRefactor),
    ),
    metric(
        "prof.sparse_solve.self_ms",
        "ms",
        Lower,
        Value::Prof(B, Phase::SparseSolve),
    ),
    metric(
        "prof.corrector_overhead.self_ms",
        "ms",
        Lower,
        Value::Prof(CM, Phase::CorrectorOverhead),
    ),
    metric(
        "prof.tracer_overhead.self_ms",
        "ms",
        Lower,
        Value::Prof(C, Phase::TracerOverhead),
    ),
    metric(
        "prof.seed_search.self_ms",
        "ms",
        Lower,
        Value::Prof(CM, Phase::SeedSearch),
    ),
    metric(
        "prof.sweep.self_ms",
        "ms",
        Lower,
        Value::Prof(SM, Phase::Sweep),
    ),
    metric(
        "trace_overhead",
        "ratio",
        Lower,
        Value::Run(|c| c.trace_overhead),
    ),
];

/// `1 − cold-seed fallbacks ÷ warm-started samples`: sample 0 is seeded
/// cold by design; every further `find_first_point` under the Monte Carlo
/// run is a warm start that failed.
fn warm_ratio(t: &TracedIter) -> f64 {
    let seeds: u64 = t
        .obs
        .spans
        .iter()
        .filter(|e| e.kind == SpanKind::Seed)
        .map(|e| e.count)
        .sum();
    let warm = MC_SAMPLES.saturating_sub(1).max(1) as f64;
    1.0 - seeds.saturating_sub(1) as f64 / warm
}

/// The home workload of a metric measured on `on`.
fn home(on: &[Workload], selected: &[Workload]) -> Workload {
    on.iter()
        .copied()
        .find(|w| selected.contains(w))
        .unwrap_or(on[0])
}

fn iter_median(ctx: &LayerCtx<'_>, on: &[Workload], f: impl Fn(&TracedIter) -> f64) -> f64 {
    let w = home(on, ctx.selected);
    median_of(ctx.traced.iter().filter(|t| t.workload == w).map(f))
}

/// Every per-layer value, indexed like [`PER_LAYER`].
pub fn layer_values(ctx: &LayerCtx<'_>) -> Vec<f64> {
    PER_LAYER
        .iter()
        .map(|m| match &m.value {
            Value::Iter(on, f) => iter_median(ctx, on, f),
            Value::Obs(on, metric) => iter_median(ctx, on, |t| t.count(*metric)),
            Value::Prof(on, phase) => iter_median(ctx, on, |t| {
                t.prof
                    .phase(phase.name())
                    .map_or(0.0, |p| p.self_ns as f64 * 1e-6)
            }),
            Value::Run(f) => f(ctx),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_phase_metrics_are_named_after_their_source() {
        for m in &PER_LAYER {
            match &m.value {
                Value::Obs(_, metric) => assert_eq!(m.name, format!("obs.{}", metric.name())),
                Value::Prof(_, phase) => {
                    assert_eq!(m.name, format!("prof.{}.self_ms", phase.name()));
                }
                Value::Iter(..) | Value::Run(_) => {}
            }
        }
    }

    #[test]
    fn home_prefers_a_selected_workload() {
        let on = &[Workload::Contour, Workload::Bank];
        assert_eq!(home(on, &[Workload::Bank]), Workload::Bank);
        assert_eq!(home(on, &[Workload::Surface]), Workload::Contour);
        assert_eq!(home(on, &Workload::ALL), Workload::Contour);
    }
}
