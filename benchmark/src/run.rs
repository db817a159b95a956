//! `bench run`: set-up, the verification pass, timed rounds, and the
//! traced run.

use crate::heap;
use crate::layers::{
    layer_values, replay, traced_iteration, LayerCtx, Replay, ReplayInputs, TracedIter,
};
use crate::spans::{now, Spans, SETUP_ITERATION};
use crate::stats::median_of;
use crate::workloads::{run_iteration, setup, verify, Fixture, Inputs, Output, Workload};

/// Timed rounds a run makes even when `--seconds` is already spent.
const MIN_ROUNDS: usize = 3;
/// Traced rounds a traced run makes at least.
const MIN_TRACED_ROUNDS: usize = 2;
/// Failure lines kept per workload.
const MAX_FAILURE_LINES: usize = 20;

/// What `bench run` was asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// One workload, or every workload interleaved.
    pub workload: Option<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget (s).
    pub seconds: f64,
    /// Traced run instead of the untraced one.
    pub trace: bool,
}

/// One workload's end-to-end samples and operation counts.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// Fixture build times (s): the one the run keeps, then one before
    /// each timed iteration, so the samples span the run.
    pub setup_s: Vec<f64>,
    /// Untraced iteration wall times (s).
    pub wall_s: Vec<f64>,
    /// Simulations per iteration.
    pub sims: Vec<f64>,
    /// Peak heap above the iteration's starting live bytes (MB).
    pub heap_mb: Vec<f64>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Why, one line per failure (capped).
    pub failures: Vec<String>,
}

impl WorkloadRun {
    fn new(workload: Workload) -> WorkloadRun {
        WorkloadRun {
            workload,
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            sims: Vec::new(),
            heap_mb: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, count: usize, why: String) {
        self.failed += count;
        if self.failures.len() < MAX_FAILURE_LINES {
            self.failures.push(why);
        }
    }

    /// Counts `output`'s operations that differ from the verification
    /// pass or fail on their own.
    fn check(&mut self, output: &Output, reference: &Output) {
        let bad = (output.mismatches(reference) + output.short_contours())
            .min(self.workload.operations());
        if bad > 0 {
            self.fail(
                bad,
                format!(
                    "{}: {bad} operation(s) differ from the verification pass or fell short",
                    self.workload.name()
                ),
            );
        }
    }
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunReport {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget (s).
    pub seconds: f64,
    /// Per workload, in preparation order.
    pub workloads: Vec<WorkloadRun>,
    /// Per-layer values, indexed like `layers::PER_LAYER` (traced runs).
    pub layers: Option<Vec<f64>>,
    /// Why the replay stage failed, if it did (traced runs).
    pub replay_failure: Option<String>,
    /// Spans recorded (traced runs).
    pub spans: Spans,
    /// Iteration ids of the spans, with the workload each ran.
    pub iterations: Vec<(u32, &'static str)>,
}

impl RunReport {
    /// Operations attempted, the replay stage counting as one.
    pub fn attempted(&self) -> usize {
        self.workloads.iter().map(|r| r.attempted).sum::<usize>()
            + usize::from(self.layers.is_some())
    }

    /// Operations failed.
    pub fn failed(&self) -> usize {
        self.workloads.iter().map(|r| r.failed).sum::<usize>()
            + usize::from(self.replay_failure.is_some())
    }
}

struct Prepared {
    fixture: Option<Fixture>,
    reference: Option<Output>,
    run: WorkloadRun,
}

/// Builds a fixture, timing the build into `run.setup_s`.
fn timed_setup(run: &mut WorkloadRun, inputs: &Inputs, spans: &mut Spans) -> Option<Fixture> {
    let w = run.workload;
    let start = now();
    let built = setup(w, inputs, spans);
    let seconds = start.elapsed().as_secs_f64();
    match built {
        Ok(fixture) => {
            run.setup_s.push(seconds);
            Some(fixture)
        }
        Err(e) => {
            run.attempted += w.operations();
            run.fail(w.operations(), format!("{}: setup: {e}", w.name()));
            None
        }
    }
}

/// Builds the fixture and runs the verification pass on it.
fn prepare(w: Workload, inputs: &Inputs, spans: &mut Spans) -> Prepared {
    let mut run = WorkloadRun::new(w);
    let Some(fixture) = timed_setup(&mut run, inputs, spans) else {
        return Prepared {
            fixture: None,
            reference: None,
            run,
        };
    };
    let v = verify(w, &fixture);
    run.attempted += v.attempted;
    run.failed += v.failed;
    run.failures.extend(v.failures);
    Prepared {
        fixture: Some(fixture),
        reference: v.reference,
        run,
    }
}

/// One timed fixture build, dropped, then one iteration with tracing
/// off: wall time, simulations and peak heap.
fn timed_iteration(p: &mut Prepared, inputs: &Inputs) -> Option<f64> {
    let (Some(fixture), Some(reference)) = (&p.fixture, &p.reference) else {
        return None;
    };
    let w = p.run.workload;
    let mut spans = Spans::off();
    drop(timed_setup(&mut p.run, inputs, &mut spans)?);
    let live = heap::COUNTER.reset_peak();
    let start = now();
    let result = run_iteration(fixture, &mut spans);
    let wall = start.elapsed().as_secs_f64();
    let peak = heap::COUNTER.peak().saturating_sub(live);
    p.run.attempted += w.operations();
    match result {
        Ok(it) => {
            p.run.wall_s.push(wall);
            p.run.sims.push(it.work.sims as f64);
            p.run.heap_mb.push(peak as f64 * 1e-6);
            p.run.check(&it.output, reference);
        }
        Err(e) => p.run.fail(w.operations(), format!("{}: {e}", w.name())),
    }
    Some(wall)
}

/// Runs rounds over `selected` until `budget` seconds have passed and at
/// least `min_rounds` are done. A round runs each selected workload once,
/// or [`Workload::per_round`] times when several are selected, starting
/// one workload later each round so a burst of host noise is spread over
/// the workloads. Returns each round's wall time.
fn rounds(
    selected: &[Workload],
    prepared: &mut [Prepared],
    budget: f64,
    min_rounds: usize,
    mut iterate: impl FnMut(&mut Prepared) -> Option<f64>,
) -> Vec<f64> {
    let start = now();
    let mut round_s = Vec::new();
    while round_s.len() < min_rounds || start.elapsed().as_secs_f64() < budget {
        let mut total = None;
        for k in 0..selected.len() {
            let w = selected[(round_s.len() + k) % selected.len()];
            let reps = if selected.len() == 1 {
                1
            } else {
                w.per_round()
            };
            let Some(p) = prepared.iter_mut().find(|p| p.run.workload == w) else {
                continue;
            };
            for _ in 0..reps {
                if let Some(wall) = iterate(p) {
                    total = Some(total.unwrap_or(0.0) + wall);
                }
            }
        }
        let Some(total) = total else {
            break;
        };
        round_s.push(total);
    }
    round_s
}

/// Runs the benchmark.
pub fn run(opts: &RunOptions) -> RunReport {
    let inputs = Inputs::from_seed(opts.seed);
    let selected: Vec<Workload> = opts.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    // A traced run prepares every workload: the replay stage reads all of
    // their inputs, and every per-layer metric needs its home workload.
    let prepare_set = if opts.trace {
        Workload::ALL.to_vec()
    } else {
        selected.clone()
    };
    let mut spans = if opts.trace {
        Spans::on()
    } else {
        Spans::off()
    };
    spans.set_iteration(SETUP_ITERATION);
    let mut prepared: Vec<Prepared> = prepare_set
        .iter()
        .map(|&w| prepare(w, &inputs, &mut spans))
        .collect();
    let mut report = RunReport {
        seed: opts.seed,
        seconds: opts.seconds,
        workloads: Vec::new(),
        layers: None,
        replay_failure: None,
        spans: Spans::off(),
        iterations: vec![(SETUP_ITERATION, "setup")],
    };
    if !opts.trace {
        rounds(&selected, &mut prepared, opts.seconds, MIN_ROUNDS, |p| {
            timed_iteration(p, &inputs)
        });
    } else {
        // Half the budget untraced, half traced: the ratio of the two is
        // the tracing overhead.
        let untraced = rounds(
            &selected,
            &mut prepared,
            opts.seconds / 2.0,
            MIN_TRACED_ROUNDS,
            |p| timed_iteration(p, &inputs),
        );
        let mut traced: Vec<TracedIter> = Vec::new();
        let traced_rounds = {
            let mut next_id = SETUP_ITERATION + 1;
            let mut trace_one = |p: &mut Prepared| -> Option<f64> {
                let (Some(fixture), Some(reference)) = (&p.fixture, &p.reference) else {
                    return None;
                };
                let w = p.run.workload;
                let id = next_id;
                next_id += 1;
                report.iterations.push((id, w.name()));
                p.run.attempted += w.operations();
                match traced_iteration(w, fixture, &mut spans, id) {
                    Ok(t) => {
                        p.run.check(&t.iteration.output, reference);
                        let wall = t.wall_s;
                        traced.push(t);
                        Some(wall)
                    }
                    Err(e) => {
                        p.run
                            .fail(w.operations(), format!("{} (traced): {e}", w.name()));
                        None
                    }
                }
            };
            for p in prepared.iter_mut() {
                if !selected.contains(&p.run.workload) {
                    trace_one(p);
                }
            }
            rounds(
                &selected,
                &mut prepared,
                opts.seconds / 2.0,
                MIN_TRACED_ROUNDS,
                trace_one,
            )
        };
        let replay_id = report.iterations.last().map_or(1, |(id, _)| id + 1);
        spans.set_iteration(replay_id);
        report.iterations.push((replay_id, "replay"));
        let replayed = replay_inputs(&prepared)
            .ok_or_else(|| "replay: a workload has no verified fixture".to_string())
            .and_then(|inputs| replay(&inputs, &mut spans));
        let replay = replayed.unwrap_or_else(|e| {
            report.replay_failure = Some(e);
            Replay::default()
        });
        let build_ms = median_of(spans.durations_s(SETUP_ITERATION, "core.problem.build")) * 1e3;
        let ctx = LayerCtx {
            selected: &selected,
            traced: &traced,
            replay: &replay,
            build_ms,
            trace_overhead: median_of(traced_rounds) / median_of(untraced) - 1.0,
        };
        report.layers = Some(layer_values(&ctx));
    }
    report.workloads = prepared.into_iter().map(|p| p.run).collect();
    report.spans = spans;
    report
}

fn replay_inputs(prepared: &[Prepared]) -> Option<ReplayInputs<'_>> {
    let find = |w: Workload| {
        prepared
            .iter()
            .find(|p| p.run.workload == w)
            .and_then(|p| Some((p.fixture.as_ref()?, p.reference.as_ref()?)))
    };
    Some(ReplayInputs {
        contour: find(Workload::Contour)?,
        surface: find(Workload::Surface)?,
        montecarlo: find(Workload::MonteCarlo)?,
        bank: find(Workload::Bank)?.0,
    })
}
