//! Curve-level check of the golden contours: a change that moves contour
//! points along the curve must leave every traced point on the level set
//! `h = 0` and on the committed golden polyline, before the goldens are
//! regenerated to the new points.

use shc_bench::{Cell, Timing};
use shc_core::CharacterizationProblem;
use shc_obs::json;
use shc_spice::transient::{RecordMode, TransientAnalysis, TransientOptions};
use shc_spice::waveform::Params;

/// Contour resolution the goldens pin.
const GOLDEN_POINTS: usize = 12;

/// Largest distance of a traced point from the golden polyline, relative
/// to the point's norm: a point that moved along the curve stays on it to
/// well within this, while one on another sheet of `h = 0` does not.
const POLYLINE_RTOL: f64 = 1e-3;

/// Floor of the re-evaluation tolerance: the last bits of a residual
/// already at the transient's own round-off.
/// unit: V
const RESIDUAL_FLOOR: f64 = 1e-9;

/// The committed golden contour of `cell`, as `(τs, τh)` points.
fn golden(cell: Cell) -> Vec<(f64, f64)> {
    let path = format!(
        "{}/../../goldens/{}_contour.json",
        env!("CARGO_MANIFEST_DIR"),
        cell.name()
    );
    let text = std::fs::read_to_string(&path).expect("golden file reads");
    let tau_s = json::scan_f64_array(&text, "tau_s").expect("golden has tau_s");
    let tau_h = json::scan_f64_array(&text, "tau_h").expect("golden has tau_h");
    assert_eq!(tau_s.len(), tau_h.len());
    tau_s.into_iter().zip(tau_h).collect()
}

/// Distance from `p` to the segment `a`–`b`.
fn segment_distance(p: (f64, f64), a: (f64, f64), b: (f64, f64)) -> f64 {
    let (dx, dy) = (b.0 - a.0, b.1 - a.1);
    let len2 = dx * dx + dy * dy;
    let t = if len2 > 0.0 {
        (((p.0 - a.0) * dx + (p.1 - a.1) * dy) / len2).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (p.0 - (a.0 + t * dx)).hypot(p.1 - (a.1 + t * dy))
}

/// `h` at `at` from a run from the DC start, with no prefix ladder.
fn h_from_dc(problem: &CharacterizationProblem, at: Params) -> f64 {
    let opts = TransientOptions::builder(problem.t_f())
        .dt(problem.dt())
        .solver(problem.solver())
        .record(RecordMode::FinalOnly)
        .build();
    let register = problem.register();
    let res = TransientAnalysis::new(register.circuit(), opts)
        .run(&at)
        .expect("re-evaluation runs");
    res.final_state()[register.output_unknown()] - problem.r()
}

#[test]
fn traced_golden_contours_lie_on_the_level_set_and_the_golden_polyline() {
    for cell in Cell::PAPER {
        let problem = cell.problem(Timing::Fast).expect("problem builds");
        let contour = problem.trace_contour(GOLDEN_POINTS).expect("trace");
        let golden = golden(cell);
        assert_eq!(contour.points().len(), golden.len(), "{}", cell.name());
        for (i, p) in contour.points().iter().enumerate() {
            let h = h_from_dc(&problem, Params::new(p.tau_s, p.tau_h));
            assert!(
                h.abs() <= p.residual.max(RESIDUAL_FLOOR),
                "{} point {i}: |h| = {:.3e} V from DC, residual {:.3e} V",
                cell.name(),
                h.abs(),
                p.residual
            );
            let at = (p.tau_s, p.tau_h);
            let distance = golden
                .windows(2)
                .map(|w| segment_distance(at, w[0], w[1]))
                .fold(f64::INFINITY, f64::min);
            let norm = p.tau_s.hypot(p.tau_h);
            assert!(
                distance <= POLYLINE_RTOL * norm,
                "{} point {i}: {:.3e} relative from the golden polyline",
                cell.name(),
                distance / norm
            );
        }
    }
}
