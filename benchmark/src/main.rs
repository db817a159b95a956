//! # The shc benchmark of record
//!
//! One harness, one process, one thread: it drives four seeded workloads
//! through the public APIs of `shc-core`, `shc-spice` and `shc-linalg`,
//! checks every output, and prints each metric by name with its unit. Its
//! definition lives in `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 1 --out bench-results.json
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --workload contour --seed 2 --seconds 10
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --trace 1 --spans spans.json
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare base.json change.json
//! ```
//!
//! ## Workloads
//!
//! Every input comes from `--seed` (default 1); the library receives only
//! those inputs. Every sweep runs serially, and the load is a closed loop:
//! one caller, the next iteration only after the previous one returns.
//!
//! | name | one iteration | the seed controls | why |
//! |---|---|---|---|
//! | `contour` | `find_first_point` + `trace` to 40 points on TSPC and C²MOS, fast clock | each cell's degradation, uniform in [0.08, 0.12] | the paper's headline workload: tracer, MPNR, scalar transient with forward sensitivities, DC operating point and dense LU do the work; the batched engine and sparse LU do none |
//! | `surface` | `surface::generate` of a 20 × 20 TSPC grid, `BatchPolicy::Auto` | a shift of the window τs ∈ [127, 313] ps × τh ∈ [22, 158] ps by up to ±10% of its span | the batched lockstep engine, its agreement-horizon trunk and `SoaLu` do the work, with no tracer and no sensitivities |
//! | `montecarlo` | `montecarlo::run` with 32 TSPC samples | a factor on the process-variation sigmas, uniform in [0.9, 1.1] | the batched engine with per-lane device values, sensitivities and no trunk, plus 32 calibration builds |
//! | `bank` | one 32-bit register-bank capture transient (228 unknowns), `SolverChoice::Auto` | the data lead, uniform in [1.3, 1.7] × the bank's setup hint | sparse LU and sparse assembly do the work; the bypass workload for everything above |
//!
//! A run builds each workload's fixture, runs an untimed verification
//! pass on it that also warms up, then runs timed rounds until `--seconds`
//! have passed (at least 3). Every timed iteration is preceded by one
//! timed fixture build, so set-up samples span the run as iteration
//! samples do. With `--workload` a round is one iteration; without it, a
//! round runs `contour` ×1, `surface` ×2, `montecarlo` ×1 and `bank` ×5,
//! starting one workload later each round so a burst of host noise
//! spreads over all of them.
//!
//! ## End-to-end metrics (tracing off)
//!
//! | name | unit | bound | value of the run's samples |
//! |---|---|---|---|
//! | `wall_s` | s | 25% | 10th percentile of one iteration's wall time |
//! | `setup_s` | s | 25% | median time of one fixture build, calibration transients included |
//! | `sims` | count | 10% | median transient simulations per iteration, from the library's own counts |
//! | `peak_heap_mb` | MB | 10% | median peak live heap above the iteration's start, from the counting allocator |
//! | `fail_frac` | ratio | +0 absolute | failed ÷ attempted operations (contours, grid values, samples, transients) |
//!
//! The bound is how far the change's value may get worse before `compare`
//! calls it a regression. Wall time reports the fast end of the run, not
//! its median: on a shared host, contention only adds time, in bursts
//! that can cover most of a 20 s run. Over sets of ten seeded 20 s runs
//! the 10th percentile's interquartile spread stayed under 7% where the
//! median's reached 27%, except during multi-minute contention episodes
//! that no per-run statistic absorbs. The bounds leave that spread a
//! third of their width; seeded inputs move `sims` by up to 2.5%.
//! `fail_frac` is 0 on a healthy run, so the final JSON line carries it as
//! its `attempted` and `failed` counts. For each metric the results file
//! also stores the sample count, the median, quartiles and 10th
//! percentile, the highest percentile with at least 10 samples beyond it
//! (p50 at n = 20, p75 at n = 40, p90 at n = 100) and the raw samples.
//!
//! ## Output checks
//!
//! Every run checks its outputs; a failure counts toward `fail_frac`, and
//! `bench run` prints every metric before exiting 1.
//!
//! - `contour`: 40 points per cell; every point re-evaluates with
//!   `evaluate` to no more than the residual MPNR accepted; one extra
//!   12-point trace per cell at 10% degradation is within rtol 1e-6 of
//!   `goldens/*.json`; every timed contour is bitwise the verification
//!   contour.
//! - `surface`: the `BatchPolicy::Scalar` sweep is bitwise the `Auto`
//!   sweep, and so is every timed sweep.
//! - `montecarlo`: the scalar run gives identical samples, each with a
//!   clock-to-Q within ±50% of the nominal cell's; every timed run is
//!   identical.
//! - `bank`: the final state is within 1e-9 V of a dense-solver run, and
//!   every timed run is bitwise the verification run.
//!
//! ## The last line
//!
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, each
//! metric as `{"value": …, "unit": …}`: every end-to-end metric's value as
//! defined above (named `<workload>.<metric>` when the run covers every
//! workload), or, with `--trace 1`, every per-layer metric.
//!
//! ## Traced run
//!
//! `--trace 1` prepares and verifies every workload, spends half of
//! `--seconds` on untraced rounds and half on traced ones (after one traced
//! iteration of each workload not selected), then replays lower-layer
//! public functions on the workloads' inputs. Spans come from this
//! harness around each call into a layer; counts from an installed
//! `shc-obs` collector; phase self times from `shc-prof` at `Detail::Iter`.
//! No probe is added to the program. `trace_overhead` is the traced
//! round's median wall time over the untraced one's, minus 1. The metric
//! list, and which end-to-end metric each should move, is in `layers.rs`.
//!
//! `--spans <file>` writes `spans.json`: `iterations` maps each iteration
//! id to its workload (id 0 is fixture set-up; the last is the replay);
//! `spans` lists every span with `id`, `name` (`<layer>.<function>`, or
//! `bench.<workload>` for an iteration's root), `start_ns` and `end_ns`
//! since the run began, `parent` (the enclosing span's id or `null`),
//! `iteration`, and `self_ns`, the duration minus what its direct children
//! cover.
//!
//! ## Recorded runs
//!
//! `results/` holds the runs recorded when this harness was added, with
//! their host facts: two full untraced runs (`run_a.json`, `run_b.json`:
//! `run --seed 1`) and one traced run (`trace.json`: `run --seed 1
//! --trace 1 --seconds 10`).
//!
//! ## Compare
//!
//! `compare <base.json> <change.json>` reads two results files written by
//! `--out` and prints, for each workload and end-to-end metric, both
//! reported statistics and quartiles, the relative change and a verdict:
//! `worse` or `better` beyond the bound, `same` within it, or
//! `unresolved` when a side's reported statistic is less certain than the
//! bound and neither side's samples all beat the other's. The certainty
//! is the interquartile range of the statistic over seeded bootstrap
//! resamples of that side's samples: it estimates how far the statistic
//! moves from run to run, which a burst of slow samples does not widen
//! for the 10th percentile as it widens the samples' own quartiles. It
//! exits 1 on any `worse` or any rise in `fail_frac`.

mod compare;
mod heap;
mod layers;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::RunOptions;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: heap::CountingAlloc = heap::CountingAlloc;

const USAGE: &str = "usage:
  bench run [--workload contour|surface|montecarlo|bank] [--seed N] [--seconds S]
            [--trace 0|1] [--out results.json] [--spans spans.json]
  bench compare <base.json> <change.json>";

/// Measurement budget of a run over every workload: about 20 rounds.
const DEFAULT_SECONDS_ALL: f64 = 70.0;
/// Measurement budget of a single-workload run.
const DEFAULT_SECONDS_ONE: f64 = 10.0;

struct RunArgs {
    opts: RunOptions,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = false;
    let mut out = None;
    let mut spans = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let default_seconds = if workload.is_some() {
        DEFAULT_SECONDS_ONE
    } else {
        DEFAULT_SECONDS_ALL
    };
    Ok(RunArgs {
        opts: RunOptions {
            workload,
            seed,
            seconds: seconds.unwrap_or(default_seconds),
            trace,
        },
        out,
        spans,
    })
}

fn write(path: &PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run(args)?;
    let report = run::run(&args.opts);
    print!("{}", report::human(&report));
    if let Some(why) = &report.replay_failure {
        println!("FAILED: {why}");
    }
    if let Some(path) = &args.out {
        write(
            path,
            &report::results_json(&report, &report::Host::detect()),
        )?;
        println!("wrote {}", path.display());
    }
    if let Some(path) = &args.spans {
        write(path, &report.spans.to_json(&report.iterations))?;
        println!("wrote {}", path.display());
    }
    println!("{}", report::result_line(&report));
    Ok(if report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, change] = args else {
        return Err("compare takes two results files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let (text, pass) = compare::compare(&read(base)?, &read(change)?)?;
    print!("{text}");
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err("expected a subcommand".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("bench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
