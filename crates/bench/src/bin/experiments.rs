//! Regenerates every table and figure of the paper's evaluation section and
//! prints paper-vs-measured rows (the source for EXPERIMENTS.md).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p shc-bench --bin experiments            # paper clock (minutes)
//! cargo run --release -p shc-bench --bin experiments -- --fast  # compressed clock (seconds)
//! cargo run --release -p shc-bench --bin experiments -- --fast --surface-n 20
//! cargo run --release -p shc-bench --bin experiments -- --fast \
//!     --journal experiments.jsonl --metrics experiments-metrics.json
//! ```
//!
//! `--surface-n N` sets the surface grid edge (default 40, at least 2).
//!
//! `--batch auto|scalar|batched` picks the batched-engine policy for every
//! characterization problem (default `auto`: serial sweeps of supported
//! circuits run lanes in lockstep; `scalar` forces the per-simulation
//! path, `batched` asserts the lockstep path engages).
//!
//! `--journal <path>` records every traced contour point as one JSONL
//! event; `--metrics <path>` dumps end-of-run solver counters, histograms,
//! and span timings as JSON (and prints the human-readable summary).
//!
//! `--profile <path>` runs everything under an shc-prof profiler and
//! writes the phase report as JSON (plus a collapsed-stack `.folded`
//! flamegraph next to it); `--profile-detail step|iter` picks the
//! granularity.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use shc_obs::{Collector, FileSink, Metric, Sink};

use shc_bench::{Cell, Timing};
use shc_core::independent::{binary_search, newton, IndependentOptions, SkewAxis};
use shc_core::report::{CellReport, ContourTable, OverlayReport, SpeedupRow};
use shc_core::{
    surface, BatchPolicy, CharacterizationProblem, SeedOptions, SurfaceOptions, TracerOptions,
};

const USAGE: &str = "usage: experiments [--fast] [--surface-n N] [--batch auto|scalar|batched]
                   [--journal <path>] [--metrics <path>]
                   [--profile <path>] [--profile-detail step|iter]";

/// This binary exists to measure wall-clock (the paper's speedup table),
/// so it gets its own sanctioned timer beside shc-obs spans (clippy.toml).
#[allow(clippy::disallowed_methods)]
fn now() -> Instant {
    Instant::now()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let timing = if args.iter().any(|a| a == "--fast") {
        Timing::Fast
    } else {
        Timing::Paper
    };
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let surface_n: usize = match flag_value("--surface-n") {
        None => 40,
        Some(v) => match v.parse() {
            Ok(n) if n >= 2 => n,
            _ => {
                eprintln!("--surface-n must be an integer of at least 2, got '{v}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        },
    };
    let batch: BatchPolicy = match flag_value("--batch").as_deref() {
        None => BatchPolicy::default(),
        Some(v) => match v.parse() {
            Ok(policy) => policy,
            Err(e) => {
                eprintln!("--batch: {e}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        },
    };
    let journal_path = flag_value("--journal");
    let metrics_path = flag_value("--metrics");
    let profile_path = flag_value("--profile");
    let profile_detail = match flag_value("--profile-detail").as_deref() {
        None | Some("step") => shc_prof::Detail::Step,
        Some("iter") => shc_prof::Detail::Iter,
        Some(other) => {
            eprintln!("--profile-detail must be step or iter, got '{other}'\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // A collector is always installed: its transient-run counter feeds
    // the end-of-run summary line on both the success and failure paths.
    let collector = match &journal_path {
        Some(path) => match FileSink::create(Path::new(path)) {
            Ok(sink) => {
                let sink: Arc<dyn Sink> = Arc::new(sink);
                Collector::with_sink(sink)
            }
            Err(e) => {
                eprintln!("cannot create --journal '{path}': {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Collector::new(),
    };
    let profiler = profile_path
        .as_ref()
        .map(|_| shc_prof::Profiler::with_detail(profile_detail));

    let t0 = now();
    let result = {
        let _telemetry = shc_obs::install_scoped(&collector);
        let _profile = profiler.as_ref().map(shc_prof::install_scoped);
        run_experiments(
            timing,
            surface_n,
            batch,
            &collector,
            journal_path.as_deref(),
            metrics_path.as_deref(),
        )
    };
    let wall_seconds = t0.elapsed().as_secs_f64();

    if let (Some(path), Some(profiler)) = (&profile_path, profiler) {
        let report = profiler.report("experiments");
        let folded_path = Path::new(path).with_extension("folded");
        let written = std::fs::write(path, report.to_json())
            .and_then(|()| std::fs::write(&folded_path, report.to_folded()));
        print!("\n{}", report.table());
        match written {
            Ok(()) => println!(
                "profile written to {path} (flamegraph: {})",
                folded_path.display()
            ),
            Err(e) => eprintln!("cannot write --profile '{path}': {e}"),
        }
    }

    // One-line accounting on *both* paths: a run that dies mid-table
    // should still say how much simulation budget it burned and where
    // it stopped.
    let simulations = collector.counter(Metric::TransientRuns);
    match result {
        Ok(()) => {
            println!("experiments: {simulations} transient simulations in {wall_seconds:.1} s");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "experiments: FAILED after {simulations} transient simulations in {wall_seconds:.1} s"
            );
            ExitCode::FAILURE
        }
    }
}

/// The evaluation pipeline proper. Telemetry/profiling guards are
/// installed by `main`, which also owns the end-of-run accounting line.
fn run_experiments(
    timing: Timing,
    surface_n: usize,
    batch: BatchPolicy,
    collector: &Collector,
    journal_path: Option<&str>,
    metrics_path: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let n_points = 40;

    println!("=== shc experiments: DAC 2007 reproduction ({timing:?} clock) ===\n");

    // ---------------------------------------------------------------- //
    // Characteristic delays (paper Sec. IV-A/IV-B prose).
    // ---------------------------------------------------------------- //
    println!("--- Characterization targets (paper: TSPC t_CQ = 298 ps @50%, r = 1.25 V;");
    println!("---                          C2MOS 90% criterion, r = 0.25 V) ---");
    let mut problems: Vec<(Cell, CharacterizationProblem)> = Vec::new();
    for cell in Cell::ALL {
        let problem = cell.problem_with_batch(timing, batch)?;
        let report = CellReport {
            cell: cell.name().to_string(),
            t_cq: problem.characteristic_delay(),
            t_f: problem.t_f(),
            r: problem.r(),
            degradation: problem.degradation(),
        };
        println!("{report}");
        problems.push((cell, problem));
    }

    // ---------------------------------------------------------------- //
    // FIG 8 / FIG 12a: Euler-Newton contours.
    // FIG 9/10, 12b: surface + overlay.
    // TBL-SPEEDUP: trace vs surface, simulations and wall clock.
    // ---------------------------------------------------------------- //
    println!("\n--- Contours, overlays, speedups (paper: ~26x at n = 40; 2-3 MPNR iters/pt) ---");
    // Figure contours stop at the pure-setup asymptote (the paper's plots
    // cover the bend region: setup 150-350 ps in its Fig. 8).
    let figure_tracer = TracerOptions {
        min_tangent_hold: 0.05,
        ..TracerOptions::default()
    };
    for (cell, problem) in &problems {
        problem.reset_simulation_count();
        let t0 = now();
        let contour =
            problem.trace_contour_with(n_points, &SeedOptions::default(), &figure_tracer)?;
        let trace_seconds = t0.elapsed().as_secs_f64();
        let trace_sims = problem.simulation_count();

        println!("\n{}", ContourTable::from_contour(cell.name(), &contour));

        problem.reset_simulation_count();
        let grid = SurfaceOptions::around_contour(&contour, surface_n);
        let t0 = now();
        let surf = surface::generate(problem, &grid)?;
        let surface_seconds = t0.elapsed().as_secs_f64();
        let surface_contour = surf.contour_at(problem.r());

        let row = SpeedupRow {
            cell: cell.name().to_string(),
            n_points,
            points_traced: contour.points().len(),
            trace_simulations: trace_sims,
            surface_simulations: surf.simulations(),
            trace_seconds: Some(trace_seconds),
            surface_seconds: Some(surface_seconds),
            mean_corrector_iterations: contour.mean_corrector_iterations(),
        };
        println!("{row}");
        let overlay = OverlayReport::compare(cell.name(), &contour, &surface_contour, surface_n);
        println!("overlay: {overlay}");
    }

    // ---------------------------------------------------------------- //
    // Speedup scaling: linear in n (paper Sec. I: O(n) vs O(n^2)).
    // ---------------------------------------------------------------- //
    println!("\n--- Speedup vs contour resolution n (paper: speedup grows linearly in n) ---");
    println!(
        "{:<8} {:>4} {:>12} {:>14} {:>10}",
        "cell", "n", "trace sims", "surface sims", "speedup"
    );
    for (cell, problem) in &problems {
        if !Cell::PAPER.iter().any(|c| c.name() == cell.name()) {
            continue;
        }
        for n in [10usize, 20, 40] {
            problem.reset_simulation_count();
            let contour = problem.trace_contour(n)?;
            let trace_sims = problem.simulation_count();
            let surface_sims = n * n; // by construction of the baseline
            println!(
                "{:<8} {:>4} {:>12} {:>14} {:>9.1}x",
                cell.name(),
                n,
                trace_sims,
                surface_sims,
                surface_sims as f64 / trace_sims as f64,
            );
            let _ = contour;
        }
    }

    // ---------------------------------------------------------------- //
    // TBL-INDEP: independent characterization, bisection vs Newton
    // (paper ref [6]: 4-10x).
    // ---------------------------------------------------------------- //
    println!("\n--- Independent characterization (paper ref [6]: Newton 4-10x over bisection) ---");
    println!(
        "{:<8} {:>6} {:>12} {:>6} {:>12} {:>6} {:>9}",
        "cell", "axis", "bisect(ps)", "sims", "newton(ps)", "sims", "speedup"
    );
    for (cell, problem) in &problems {
        for axis in [SkewAxis::Setup, SkewAxis::Hold] {
            let opts = IndependentOptions {
                tol: 0.1e-12,
                ..IndependentOptions::default()
            };
            problem.reset_simulation_count();
            let bis = binary_search(problem, axis, &opts)?;
            let warm = IndependentOptions {
                initial_guess: Some(bis.skew * 0.85),
                ..opts
            };
            problem.reset_simulation_count();
            let nwt = newton(problem, axis, &warm)?;
            println!(
                "{:<8} {:>6} {:>12.2} {:>6} {:>12.2} {:>6} {:>8.1}x",
                cell.name(),
                format!("{axis:?}"),
                bis.skew * 1e12,
                bis.simulations,
                nwt.skew * 1e12,
                nwt.simulations,
                bis.simulations as f64 / nwt.simulations as f64,
            );
        }
    }

    collector.flush()?;
    if metrics_path.is_some() || journal_path.is_some() {
        let snapshot = collector.snapshot();
        if let Some(path) = metrics_path {
            std::fs::write(path, snapshot.to_json())?;
            println!("\nwrote {path}");
        }
        if let Some(path) = journal_path {
            println!("wrote {path}");
        }
        println!("\n{snapshot}");
    }

    println!("\ndone.");
    Ok(())
}
