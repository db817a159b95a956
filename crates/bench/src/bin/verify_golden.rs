//! Golden-contour comparator for CI.
//!
//! Traces the paper's two cells (TSPC, C²MOS) on the compressed clock and
//! compares every contour point against the committed goldens under
//! `goldens/`. Any drift beyond the relative tolerance fails the run and
//! leaves a machine-readable diff artifact for the CI job to upload.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p shc-bench --bin verify_golden               # compare
//! cargo run --release -p shc-bench --bin verify_golden -- --generate # rewrite goldens
//! cargo run --release -p shc-bench --bin verify_golden -- --rtol 1e-6 \
//!     --goldens-dir goldens --diff golden-diff.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use shc_bench::{Cell, Timing};
use shc_core::ContourPoint;
use shc_obs::json;
use shc_spice::SolverChoice;

const USAGE: &str =
    "usage: verify_golden [--generate] [--rtol R] [--goldens-dir <dir>] [--diff <path>]";

/// Contour resolution the goldens pin.
const GOLDEN_POINTS: usize = 12;
/// Default per-coordinate relative tolerance.
const DEFAULT_RTOL: f64 = 1e-6;
/// Absolute floor (seconds) so near-zero skews don't demand exact equality.
const ATOL: f64 = 1e-18;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("verify_golden: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let generate = args.iter().any(|a| a == "--generate");
    let rtol: f64 = match flag_value("--rtol") {
        None => DEFAULT_RTOL,
        Some(v) => match v.parse::<f64>() {
            Ok(r) if r.is_finite() && r >= 0.0 => r,
            _ => {
                eprintln!("--rtol must be a finite non-negative number, got '{v}'\n{USAGE}");
                return Ok(ExitCode::FAILURE);
            }
        },
    };
    let goldens_dir =
        PathBuf::from(flag_value("--goldens-dir").unwrap_or_else(default_goldens_dir));
    let diff_path =
        PathBuf::from(flag_value("--diff").unwrap_or_else(|| "golden-diff.json".into()));

    let mut drifted = false;
    let mut diff = String::from("{\"schema\":\"shc-golden-diff-v1\",\"cells\":[");
    for (i, cell) in Cell::PAPER.iter().enumerate() {
        let golden_path = goldens_dir.join(format!("{}_contour.json", cell.name()));
        let points = trace_cell(*cell)?;
        if generate {
            std::fs::create_dir_all(&goldens_dir)?;
            std::fs::write(&golden_path, golden_json(*cell, &points))?;
            println!("wrote {} ({} points)", golden_path.display(), points.len());
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).map_err(|e| {
            format!(
                "cannot read {} (run --generate?): {e}",
                golden_path.display()
            )
        })?;
        let report = compare(*cell, &golden, &points, rtol)?;
        if i > 0 {
            diff.push(',');
        }
        diff.push_str(&report.json);
        if report.ok {
            println!(
                "{}: OK ({} points, max relative deviation {:.3e})",
                cell.name(),
                points.len(),
                report.max_rel
            );
        } else {
            drifted = true;
            eprintln!("{}: DRIFT — {}", cell.name(), report.message);
        }
    }
    if !generate {
        // sparse_vs_dense identity canary: the TSPC contour traced with the
        // sparse-direct solver forced on must still hit the (dense-traced)
        // golden within the same tolerance. This pins the two linear-solver
        // backends to each other, not just the dense path to history.
        let golden_path = goldens_dir.join(format!("{}_contour.json", Cell::Tspc.name()));
        let golden = std::fs::read_to_string(&golden_path)
            .map_err(|e| format!("cannot read {}: {e}", golden_path.display()))?;
        let points = trace_cell_with(Cell::Tspc, SolverChoice::Sparse)?;
        let mut report = compare(Cell::Tspc, &golden, &points, rtol)?;
        report.json = report
            .json
            .replacen("\"tspc\"", "\"tspc_sparse_vs_dense\"", 1);
        diff.push(',');
        diff.push_str(&report.json);
        if report.ok {
            println!(
                "tspc (sparse solver): OK ({} points, max relative deviation {:.3e})",
                points.len(),
                report.max_rel
            );
        } else {
            drifted = true;
            eprintln!("tspc (sparse solver): DRIFT — {}", report.message);
        }
    }
    diff.push_str("]}\n");

    if generate {
        return Ok(ExitCode::SUCCESS);
    }
    std::fs::write(&diff_path, &diff)?;
    println!("wrote {}", diff_path.display());
    if drifted {
        eprintln!("golden contours drifted; inspect the diff artifact or re-run with --generate");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `goldens/` next to the workspace root, independent of the invocation cwd.
fn default_goldens_dir() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../goldens").to_string()
}

fn trace_cell(cell: Cell) -> Result<Vec<ContourPoint>, Box<dyn std::error::Error>> {
    trace_cell_with(cell, SolverChoice::Auto)
}

fn trace_cell_with(
    cell: Cell,
    solver: SolverChoice,
) -> Result<Vec<ContourPoint>, Box<dyn std::error::Error>> {
    let problem = cell.problem_with_solver(Timing::Fast, solver)?;
    let contour = problem.trace_contour(GOLDEN_POINTS)?;
    Ok(contour.points().to_vec())
}

/// Renders a golden file: one flat JSON object with parallel skew arrays,
/// formatted for exact round-trip (`json::fmt_f64`).
fn golden_json(cell: Cell, points: &[ContourPoint]) -> String {
    let mut out = String::from("{");
    let mut first = true;
    json::push_str_field(&mut out, &mut first, "cell", cell.name());
    json::push_str_field(&mut out, &mut first, "clock", "fast");
    json::push_u64_field(&mut out, &mut first, "n", points.len() as u64);
    for (key, pick) in [
        (
            "tau_s",
            (|p: &ContourPoint| p.tau_s) as fn(&ContourPoint) -> f64,
        ),
        ("tau_h", |p: &ContourPoint| p.tau_h),
    ] {
        let mut arr = String::from("[");
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                arr.push(',');
            }
            arr.push_str(&json::fmt_f64(pick(p)));
        }
        arr.push(']');
        json::push_raw_field(&mut out, &mut first, key, &arr);
    }
    out.push_str("}\n");
    out
}

struct CellDiff {
    ok: bool,
    max_rel: f64,
    message: String,
    json: String,
}

fn compare(
    cell: Cell,
    golden: &str,
    measured: &[ContourPoint],
    rtol: f64,
) -> Result<CellDiff, Box<dyn std::error::Error>> {
    let g_s = json::scan_f64_array(golden, "tau_s")
        .ok_or_else(|| format!("{}: golden missing tau_s array", cell.name()))?;
    let g_h = json::scan_f64_array(golden, "tau_h")
        .ok_or_else(|| format!("{}: golden missing tau_h array", cell.name()))?;
    let mut max_rel = 0.0f64;
    let mut worst = String::new();
    let mut ok = g_s.len() == measured.len() && g_h.len() == measured.len();
    let mut message = if ok {
        String::new()
    } else {
        format!("point count {} vs golden {}", measured.len(), g_s.len())
    };
    for (i, p) in measured.iter().enumerate() {
        let (Some(gs), Some(gh)) = (g_s.get(i), g_h.get(i)) else {
            break;
        };
        for (axis, m, g) in [("tau_s", p.tau_s, *gs), ("tau_h", p.tau_h, *gh)] {
            let rel = (m - g).abs() / g.abs().max(1e-15);
            if rel > max_rel {
                max_rel = rel;
                worst = format!("point {i} {axis}: measured {m:e} vs golden {g:e}");
            }
            if (m - g).abs() > rtol * g.abs() + ATOL {
                ok = false;
                if message.is_empty() {
                    message = format!(
                        "point {i} {axis} off by {:.3e} (relative {rel:.3e} > {rtol:.0e}): \
                         measured {m:e} vs golden {g:e}",
                        (m - g).abs()
                    );
                }
            }
        }
    }
    let mut json_row = String::from("{");
    let mut first = true;
    json::push_str_field(&mut json_row, &mut first, "cell", cell.name());
    json::push_raw_field(
        &mut json_row,
        &mut first,
        "ok",
        if ok { "true" } else { "false" },
    );
    json::push_f64_field(&mut json_row, &mut first, "max_relative_deviation", max_rel);
    json::push_u64_field(&mut json_row, &mut first, "points", measured.len() as u64);
    json::push_u64_field(&mut json_row, &mut first, "golden_points", g_s.len() as u64);
    json::push_str_field(&mut json_row, &mut first, "worst", &worst);
    json_row.push('}');
    Ok(CellDiff {
        ok,
        max_rel,
        message,
        json: json_row,
    })
}
