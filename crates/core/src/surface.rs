//! Brute-force output-surface generation and contour extraction — the
//! prior-art baseline the paper compares against (its Figs. 1, 9, 10, 12b).
//!
//! The register output at `t_f` is sampled on an n×n grid of (τs, τh)
//! skews (n² transient simulations); the constant clock-to-Q contour is
//! then extracted by intersecting the surface with the plane at level `r`
//! using marching-squares-style linear interpolation — exactly the
//! post-processing the paper describes, including its accuracy limitation
//! (interpolated points, versus MPNR-refined ones).

use serde::{Deserialize, Serialize};
use shc_spice::waveform::Params;

use crate::parallel::{self, Parallelism};
use crate::{CharError, CharacterizationProblem, Result};

/// Grid specification for surface generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurfaceOptions {
    /// Setup-skew range `[min, max]`, in seconds.
    pub tau_s_range: (f64, f64),
    /// Hold-skew range `[min, max]`, in seconds.
    pub tau_h_range: (f64, f64),
    /// Grid points per axis (the paper uses 40×40).
    pub n: usize,
    /// Fan-out policy for the n² independent cell simulations. Serial by
    /// default; parallel runs produce bitwise-identical surfaces (each
    /// cell is an independent transient, merged in grid order).
    #[serde(skip)]
    pub parallelism: Parallelism,
}

impl SurfaceOptions {
    /// A grid centered on a traced contour, padded by 20% on each side —
    /// convenient for the overlay comparison of the paper's Fig. 10.
    pub fn around_contour(contour: &crate::Contour, n: usize) -> Self {
        let (mut s_min, mut s_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut h_min, mut h_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in contour.points() {
            s_min = s_min.min(p.tau_s);
            s_max = s_max.max(p.tau_s);
            h_min = h_min.min(p.tau_h);
            h_max = h_max.max(p.tau_h);
        }
        let pad_s = 0.2 * (s_max - s_min).max(10e-12);
        let pad_h = 0.2 * (h_max - h_min).max(10e-12);
        SurfaceOptions {
            tau_s_range: (s_min - pad_s, s_max + pad_s),
            tau_h_range: (h_min - pad_h, h_max + pad_h),
            n,
            parallelism: Parallelism::default(),
        }
    }

    /// Sets the fan-out policy (builder style).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// A sampled output surface `Q(t_f)` over the skew grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputSurface {
    tau_s: Vec<f64>,
    tau_h: Vec<f64>,
    /// `values[i][j]` = output at `(tau_s[i], tau_h[j])`.
    values: Vec<Vec<f64>>,
    simulations: usize,
}

impl OutputSurface {
    /// Setup-skew grid.
    pub fn tau_s_grid(&self) -> &[f64] {
        &self.tau_s
    }

    /// Hold-skew grid.
    pub fn tau_h_grid(&self) -> &[f64] {
        &self.tau_h
    }

    /// Sampled output values, indexed `[setup][hold]`.
    pub fn values(&self) -> &[Vec<f64>] {
        &self.values
    }

    /// Number of transient simulations used (n²).
    pub fn simulations(&self) -> usize {
        self.simulations
    }

    /// Extracts the level-`r` contour by marching-squares edge
    /// interpolation, returning (τs, τh) points sorted by τs.
    pub fn contour_at(&self, r: f64) -> SurfaceContour {
        let mut points = Vec::new();
        let n_s = self.tau_s.len();
        let n_h = self.tau_h.len();
        // Grid nodes lying exactly on the level (rare with real data, common
        // with synthetic surfaces) are contour points themselves; the edge
        // scans below use strict sign changes so these are not duplicated.
        for i in 0..n_s {
            for j in 0..n_h {
                if self.values[i][j] == r {
                    points.push((self.tau_s[i], self.tau_h[j]));
                }
            }
        }
        // Horizontal edges: fixed τs row, crossing between adjacent τh.
        for i in 0..n_s {
            for j in 0..n_h.saturating_sub(1) {
                let (v0, v1) = (self.values[i][j], self.values[i][j + 1]);
                if (v0 - r) * (v1 - r) < 0.0 {
                    let frac = (r - v0) / (v1 - v0);
                    let tau_h = self.tau_h[j] + frac * (self.tau_h[j + 1] - self.tau_h[j]);
                    points.push((self.tau_s[i], tau_h));
                }
            }
        }
        // Vertical edges: fixed τh column, crossing between adjacent τs.
        for j in 0..n_h {
            for i in 0..n_s.saturating_sub(1) {
                let (v0, v1) = (self.values[i][j], self.values[i + 1][j]);
                if (v0 - r) * (v1 - r) < 0.0 {
                    let frac = (r - v0) / (v1 - v0);
                    let tau_s = self.tau_s[i] + frac * (self.tau_s[i + 1] - self.tau_s[i]);
                    points.push((tau_s, self.tau_h[j]));
                }
            }
        }
        points.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        SurfaceContour { points }
    }
}

/// A contour extracted from an [`OutputSurface`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurfaceContour {
    pub(crate) points: Vec<(f64, f64)>,
}

impl SurfaceContour {
    /// The (τs, τh) points, sorted by τs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Interpolates the contour's hold skew at a setup skew within range.
    ///
    /// Queries an ulp or two outside the stored τs range — the common case
    /// when the query point was computed through a different floating-point
    /// path, e.g. a traced contour endpoint — are snapped to the nearest
    /// endpoint instead of rejected; anything farther out returns `None`.
    /// Degenerate contours still answer where they can: a single-segment
    /// (two-point) contour interpolates normally, and a single-point
    /// contour answers exactly at (within snap tolerance of) its own τs.
    pub fn hold_at_setup(&self, tau_s: f64) -> Option<f64> {
        if self.points.is_empty() || !tau_s.is_finite() {
            return None;
        }
        let s_first = self.points[0].0;
        let s_last = self.points[self.points.len() - 1].0;
        // Relative snap tolerance: picoseconds-scale skews make any
        // absolute epsilon meaningless.
        let scale = (s_last - s_first)
            .abs()
            .max(s_first.abs().max(s_last.abs()));
        let tol = 1e-9 * scale;
        if tau_s < s_first - tol || tau_s > s_last + tol {
            return None;
        }
        let t = tau_s.clamp(s_first, s_last);
        if self.points.len() == 1 {
            return Some(self.points[0].1);
        }
        for w in self.points.windows(2) {
            let ((s0, h0), (s1, h1)) = (w[0], w[1]);
            if t >= s0 && t <= s1 {
                if s1 == s0 {
                    return Some(0.5 * (h0 + h1));
                }
                return Some(h0 + (h1 - h0) * (t - s0) / (s1 - s0));
            }
        }
        None
    }

    /// Maximum over traced points of the distance to the *nearest* surface
    /// contour point — the quantitative version of the paper's Fig. 10
    /// overlay check.
    ///
    /// A nearest-point metric is used (rather than τh-at-τs interpolation)
    /// because the contour may double back in τs: real cells can be locally
    /// non-monotone near t_f.
    ///
    /// Returns `None` if either contour is empty.
    pub fn max_deviation_from(&self, contour: &crate::Contour) -> Option<f64> {
        if self.points.is_empty() || contour.points().is_empty() {
            return None;
        }
        let mut max_dev = 0.0_f64;
        for p in contour.points() {
            let nearest = self
                .points
                .iter()
                .map(|&(s, h)| ((s - p.tau_s).powi(2) + (h - p.tau_h).powi(2)).sqrt())
                .fold(f64::INFINITY, f64::min);
            max_dev = max_dev.max(nearest);
        }
        Some(max_dev)
    }
}

/// Generates the output surface with n² transient simulations.
///
/// The grid cells are independent transients, so they are fanned out
/// according to `opts.parallelism`; rows are merged back in grid order,
/// making the parallel surface bitwise identical to the serial one.
///
/// # Errors
///
/// - [`CharError::BadOption`] for degenerate grids;
/// - propagated simulation failures.
pub fn generate(problem: &CharacterizationProblem, opts: &SurfaceOptions) -> Result<OutputSurface> {
    let _span = shc_obs::span(shc_obs::SpanKind::Surface);
    if opts.n < 2 {
        return Err(CharError::BadOption {
            reason: "surface grid needs at least 2 points per axis",
        });
    }
    let (s0, s1) = opts.tau_s_range;
    let (h0, h1) = opts.tau_h_range;
    // NaN bounds must fail too, so the comparisons accept, not reject.
    let s_ok = s1 > s0;
    let h_ok = h1 > h0;
    if !s_ok || !h_ok {
        return Err(CharError::BadOption {
            reason: "surface ranges must be nonempty",
        });
    }
    let sims_before = problem.simulation_count();
    let lin = |a: f64, b: f64, k: usize| a + (b - a) * k as f64 / (opts.n - 1) as f64;
    let tau_s: Vec<f64> = (0..opts.n).map(|k| lin(s0, s1, k)).collect();
    let tau_h: Vec<f64> = (0..opts.n).map(|k| lin(h0, h1, k)).collect();
    let values = if opts.parallelism.is_serial() {
        // Serial sweeps route through the lockstep batched engine (per the
        // problem's `BatchPolicy`; `evaluate_batch` falls back to a scalar
        // loop outside its envelope): the row-major grid is cut into
        // lane-group chunks, each advancing in one SoA batch. Lane results
        // are bitwise identical to scalar evaluations, so this produces
        // the very same surface, faster.
        let cells: Vec<Params> = tau_s
            .iter()
            .flat_map(|&s| tau_h.iter().map(move |&h| Params::new(s, h)))
            .collect();
        let mut flat = Vec::with_capacity(cells.len());
        for chunk in cells.chunks(shc_spice::batch::DEFAULT_LANES) {
            // One sweep frame per lane-group chunk.
            let _frame = shc_prof::enter(shc_prof::Phase::Sweep);
            for hval in problem.evaluate_batch(chunk)? {
                flat.push(hval + problem.r()); // store the raw output level
            }
        }
        flat.chunks(opts.n).map(<[f64]>::to_vec).collect()
    } else {
        // One job per grid row: big enough to amortize scheduling, small
        // enough to balance n >> threads rows across workers.
        parallel::run_indexed(opts.parallelism, opts.n, |i| {
            // One sweep frame per grid-row job, on whichever thread runs it.
            let _frame = shc_prof::enter(shc_prof::Phase::Sweep);
            let s = tau_s[i];
            let mut row = Vec::with_capacity(opts.n);
            for &h in &tau_h {
                let hval = problem.evaluate(&Params::new(s, h))?;
                row.push(hval + problem.r()); // store the raw output level
            }
            Ok::<Vec<f64>, CharError>(row)
        })?
    };
    Ok(OutputSurface {
        tau_s,
        tau_h,
        values,
        simulations: problem.simulation_count() - sims_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_surface() -> OutputSurface {
        // Output = τs + τh on a unit grid: the level-1.0 contour is the
        // anti-diagonal τh = 1 − τs.
        let grid: Vec<f64> = (0..11).map(|k| k as f64 / 10.0).collect();
        let values: Vec<Vec<f64>> = grid
            .iter()
            .map(|s| grid.iter().map(|h| s + h).collect())
            .collect();
        OutputSurface {
            tau_s: grid.clone(),
            tau_h: grid,
            values,
            simulations: 121,
        }
    }

    #[test]
    fn contour_extraction_recovers_antidiagonal() {
        let surface = synthetic_surface();
        let contour = surface.contour_at(1.0);
        assert!(contour.points().len() >= 9);
        for &(s, h) in contour.points() {
            assert!(
                (s + h - 1.0).abs() < 1e-12,
                "point ({s}, {h}) off the τs + τh = 1 line"
            );
        }
        // Interpolation along the contour.
        let h = contour.hold_at_setup(0.25).unwrap();
        assert!((h - 0.75).abs() < 1e-12);
        assert!(contour.hold_at_setup(-0.5).is_none());
    }

    #[test]
    fn deviation_against_exact_contour_is_zero() {
        let surface = synthetic_surface();
        let sc = surface.contour_at(1.0);
        let exact = crate::Contour {
            points: vec![
                crate::ContourPoint {
                    tau_s: 0.3,
                    tau_h: 0.7,
                    corrector_iterations: 2,
                    residual: 0.0,
                },
                crate::ContourPoint {
                    tau_s: 0.6,
                    tau_h: 0.4,
                    corrector_iterations: 2,
                    residual: 0.0,
                },
            ],
            simulations: 6,
            total_corrector_iterations: 4,
        };
        let dev = sc.max_deviation_from(&exact).unwrap();
        assert!(dev < 1e-12, "deviation {dev}");
    }

    #[test]
    fn parallel_surface_is_bitwise_identical_to_serial() {
        use shc_cells::{tspc_register_with, ClockSpec, Technology};

        let tech = Technology::default_250nm();
        let problem =
            CharacterizationProblem::builder(tspc_register_with(&tech, ClockSpec::fast()))
                .build()
                .unwrap();
        let r = problem.reference_params();
        let opts = SurfaceOptions {
            tau_s_range: (r.tau_s - 50e-12, r.tau_s),
            tau_h_range: (r.tau_h - 50e-12, r.tau_h),
            n: 4,
            parallelism: Parallelism::Serial,
        };
        let serial = generate(&problem, &opts).unwrap();
        let fanned = generate(&problem, &opts.with_parallelism(Parallelism::Threads(4))).unwrap();
        assert_eq!(
            serial.values(),
            fanned.values(),
            "surfaces must match bitwise"
        );
        assert_eq!(serial.tau_s_grid(), fanned.tau_s_grid());
        assert_eq!(serial.tau_h_grid(), fanned.tau_h_grid());
        assert_eq!(serial.simulations(), 16);
        assert_eq!(fanned.simulations(), 16);
    }

    /// Scalar evaluations share the problem's prefix ladder: worker threads
    /// racing to build it on one fresh problem must build it once and
    /// reproduce the serial scalar sweep bit for bit.
    #[test]
    fn threaded_scalar_sweep_shares_one_ladder_bitwise() {
        use crate::BatchPolicy;
        use shc_cells::{tspc_register_with, ClockSpec, Technology};

        let tech = Technology::default_250nm();
        let problem = || {
            CharacterizationProblem::builder(tspc_register_with(&tech, ClockSpec::fast()))
                .batch(BatchPolicy::Scalar)
                .build()
                .unwrap()
        };
        let shared = problem();
        let r = shared.reference_params();
        let opts = SurfaceOptions {
            tau_s_range: (r.tau_s - 0.8e-9, r.tau_s - 0.6e-9),
            tau_h_range: (r.tau_h - 0.85e-9, r.tau_h),
            n: 6,
            parallelism: Parallelism::Threads(4),
        };
        let fanned = generate(&shared, &opts).unwrap();
        assert_eq!(shared.calibration_simulations(), 2, "one ladder build");
        let serial = generate(&problem(), &opts.with_parallelism(Parallelism::Serial)).unwrap();
        let bits = |s: &OutputSurface| -> Vec<u64> {
            s.values().iter().flatten().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&fanned), bits(&serial), "surfaces must match bitwise");
        assert_eq!(fanned.simulations(), 36);
    }

    #[test]
    fn batched_surface_is_bitwise_identical_to_scalar() {
        use crate::BatchPolicy;
        use shc_cells::{tspc_register_with, ClockSpec, Technology};

        let tech = Technology::default_250nm();
        let problem = |batch| {
            CharacterizationProblem::builder(tspc_register_with(&tech, ClockSpec::fast()))
                .batch(batch)
                .build()
                .unwrap()
        };
        let scalar = problem(BatchPolicy::Scalar);
        let batched = problem(BatchPolicy::Batched);
        // 6×6 around a short contour: 36 lanes fill two full lane groups
        // and a partial one.
        let grid = SurfaceOptions::around_contour(&scalar.trace_contour(4).unwrap(), 6);
        let s = generate(&scalar, &grid).unwrap();
        let profiler = shc_prof::Profiler::new();
        let b = {
            let _prof = shc_prof::install_scoped(&profiler);
            generate(&batched, &grid).unwrap()
        };
        // Three lockstep batches plus the prefix ladder's reference run,
        // whose DC solve is the only one: every lane resumed from the
        // ladder, so the batched engine and the ladder really ran.
        let frames = profiler.report("batched");
        for (phase, count) in [("transient", 4), ("dc_op", 1)] {
            assert_eq!(frames.phase(phase).map(|p| p.count), Some(count), "{phase}");
        }
        assert_eq!(s.simulations(), 36);
        assert_eq!(b.simulations(), 36);
        for (i, (row_s, row_b)) in s.values().iter().zip(b.values()).enumerate() {
            for (j, (vs, vb)) in row_s.iter().zip(row_b).enumerate() {
                assert_eq!(
                    vs.to_bits(),
                    vb.to_bits(),
                    "grid ({i}, {j}): scalar {vs:e} vs batched {vb:e}"
                );
            }
        }
    }

    #[test]
    fn hold_at_setup_snaps_endpoint_queries_within_tolerance() {
        let contour = synthetic_surface().contour_at(1.0);
        let s_last = contour.points().last().unwrap().0;
        // An endpoint computed through another floating-point path may sit
        // a few ulps outside the stored range: answer, don't reject.
        let h = contour.hold_at_setup(s_last + 1e-11).unwrap();
        assert!((h - contour.points().last().unwrap().1).abs() < 1e-12);
        let s_first = contour.points()[0].0;
        assert!(contour.hold_at_setup(s_first - 1e-11).is_some());
        // Clearly outside stays rejected.
        assert!(contour.hold_at_setup(s_last + 0.1).is_none());
        assert!(contour.hold_at_setup(s_first - 0.1).is_none());
        assert!(contour.hold_at_setup(f64::NAN).is_none());
    }

    #[test]
    fn hold_at_setup_single_segment_contour() {
        let contour = SurfaceContour {
            points: vec![(0.2, 0.8), (0.6, 0.4)],
        };
        assert!((contour.hold_at_setup(0.4).unwrap() - 0.6).abs() < 1e-12);
        assert_eq!(contour.hold_at_setup(0.2), Some(0.8));
        assert_eq!(contour.hold_at_setup(0.6), Some(0.4));
        assert!(contour.hold_at_setup(0.0).is_none());
        assert!(contour.hold_at_setup(1.0).is_none());
    }

    #[test]
    fn hold_at_setup_single_point_contour() {
        let contour = SurfaceContour {
            points: vec![(0.3, 0.7)],
        };
        assert_eq!(contour.hold_at_setup(0.3), Some(0.7));
        // Within snap tolerance of the lone point.
        assert_eq!(contour.hold_at_setup(0.3 + 1e-11), Some(0.7));
        assert!(contour.hold_at_setup(0.4).is_none());
        let empty = SurfaceContour { points: Vec::new() };
        assert!(empty.hold_at_setup(0.3).is_none());
    }

    #[test]
    fn flat_surface_has_no_contour() {
        let grid: Vec<f64> = (0..5).map(|k| k as f64).collect();
        let values = vec![vec![2.0; 5]; 5];
        let surface = OutputSurface {
            tau_s: grid.clone(),
            tau_h: grid,
            values,
            simulations: 25,
        };
        assert!(surface.contour_at(1.0).points().is_empty());
        assert!(surface.contour_at(1.0).hold_at_setup(2.0).is_none());
    }
}
