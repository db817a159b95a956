//! Regenerates every table and figure of the paper's evaluation section and
//! prints paper-vs-measured rows (the source for EXPERIMENTS.md).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p shc-bench --bin experiments            # paper clock
//! cargo run --release -p shc-bench --bin experiments -- --fast  # compressed clock (seconds)
//! cargo run --release -p shc-bench --bin experiments -- --fast --surface-n 20
//! cargo run --release -p shc-bench --bin experiments -- --fast \
//!     --journal experiments.jsonl --metrics experiments-metrics.json
//! ```
//!
//! `--surface-n N` sets the surface grid edge (default 40, at least 2).
//!
//! `--journal <path>` records every traced contour point as one JSONL
//! event; `--metrics <path>` dumps end-of-run solver counters, histograms,
//! and span timings as JSON (and prints the human-readable summary).
//!
//! `--profile <path>` runs everything under an shc-prof profiler and
//! writes the phase report as JSON (plus a collapsed-stack `.folded`
//! flamegraph next to it); `--profile-detail step|iter` picks the
//! granularity.
//!
//! An unknown flag or a flag without its value prints the usage and exits
//! with a failure.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use shc_obs::{Collector, FileSink, Metric, Sink};

use shc_bench::{Cell, Timing};
use shc_core::independent::{binary_search, newton, IndependentOptions, SkewAxis};
use shc_core::report::{CellReport, ContourTable, OverlayReport, SpeedupRow};
use shc_core::{surface, CharacterizationProblem, SeedOptions, SurfaceOptions, TracerOptions};

const USAGE: &str = "usage: experiments [--fast] [--surface-n N]
                   [--journal <path>] [--metrics <path>]
                   [--profile <path>] [--profile-detail step|iter]";

/// This binary exists to measure wall-clock (the paper's speedup table),
/// so it gets its own sanctioned timer beside shc-obs spans (clippy.toml).
#[allow(clippy::disallowed_methods)]
fn now() -> Instant {
    Instant::now()
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    timing: Timing,
    surface_n: usize,
    journal: Option<String>,
    metrics: Option<String>,
    profile: Option<String>,
    profile_detail: shc_prof::Detail,
}

/// Parses the arguments after the program name. Every flag must be known
/// and every value-taking flag must have its value.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        timing: Timing::Paper,
        surface_n: 40,
        journal: None,
        metrics: None,
        profile: None,
        profile_detail: shc_prof::Detail::Step,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--fast" => parsed.timing = Timing::Fast,
            "--surface-n" => {
                let v = value_for("--surface-n")?;
                parsed.surface_n = match v.parse() {
                    Ok(n) if n >= 2 => n,
                    _ => {
                        return Err(format!(
                            "--surface-n must be an integer of at least 2, got '{v}'"
                        ))
                    }
                };
            }
            "--journal" => parsed.journal = Some(value_for("--journal")?),
            "--metrics" => parsed.metrics = Some(value_for("--metrics")?),
            "--profile" => parsed.profile = Some(value_for("--profile")?),
            "--profile-detail" => {
                parsed.profile_detail = match value_for("--profile-detail")?.as_str() {
                    "step" => shc_prof::Detail::Step,
                    "iter" => shc_prof::Detail::Iter,
                    other => {
                        return Err(format!(
                            "--profile-detail must be step or iter, got '{other}'"
                        ))
                    }
                };
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        timing,
        surface_n,
        journal: journal_path,
        metrics: metrics_path,
        profile: profile_path,
        profile_detail,
    } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
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
        let problem = cell.problem(timing)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_set() {
        let parsed = parse_args(&args(&[
            "--fast",
            "--surface-n",
            "12",
            "--journal",
            "j.jsonl",
            "--metrics",
            "m.json",
            "--profile",
            "p.json",
            "--profile-detail",
            "iter",
        ]))
        .unwrap();
        assert_eq!(
            parsed,
            Args {
                timing: Timing::Fast,
                surface_n: 12,
                journal: Some("j.jsonl".into()),
                metrics: Some("m.json".into()),
                profile: Some("p.json".into()),
                profile_detail: shc_prof::Detail::Iter,
            }
        );
        let defaults = parse_args(&[]).unwrap();
        assert_eq!((defaults.timing, defaults.surface_n), (Timing::Paper, 40));
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        for (bad, message) in [
            (&["--surfce-n", "10"][..], "unknown flag '--surfce-n'"),
            (&["--batch", "scalar"][..], "unknown flag '--batch'"),
            (&["--fast", "--surface-n"][..], "--surface-n needs a value"),
            (&["--surface-n", "1"][..], "--surface-n must be"),
            (
                &["--profile-detail", "frame"][..],
                "--profile-detail must be",
            ),
        ] {
            let e = parse_args(&args(bad)).unwrap_err();
            assert!(e.contains(message), "{bad:?}: {e}");
        }
    }
}
