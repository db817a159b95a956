//! DC operating-point analysis.
//!
//! Solves `f(x, t₀) = 0` (charges do not enter DC). Plain Newton-Raphson is
//! attempted first; if it diverges, two classic homotopies are tried in
//! order — **gmin stepping** (a shunt conductance from every node to ground,
//! progressively reduced) and **source stepping** (all independent sources
//! ramped from 0 to full value). Both are, fittingly, simple continuation
//! methods — the same family of ideas as the Euler-Newton contour tracing
//! this simulator exists to support.

use shc_linalg::Vector;

use crate::circuit::Circuit;
use crate::newton::{self, NewtonOptions};
use crate::solver::SolverChoice;
use crate::stamp::{Layout, Stamper};
use crate::waveform::Params;
use crate::{Result, SpiceError};

/// Node shunt that gmin stepping starts from: 10 mS dominates the cells'
/// transistor conductances, so the first shunted solve is nearly linear.
/// unit: S
const GMIN_START: f64 = 1e-2;

/// Node shunt every DC solve keeps, where gmin stepping ends: SPICE's
/// 1 pS `GMIN`, which keeps a cut-off node from making the Jacobian
/// singular and moves node voltages far less than the Newton tolerance.
/// unit: S
const GMIN_FINAL: f64 = 1e-12;

/// Shunt reduction per gmin step: one decade, so each solve starts near
/// the last one's operating point.
const GMIN_FACTOR: f64 = 0.1;

/// Increments in which source stepping ramps the independent sources to
/// full value: 5% each, within the Newton step cap's reach of the last.
const SOURCE_STEPS: usize = 20;

/// Options for DC operating-point analysis. Sources are evaluated at
/// `t = 0`, and the homotopy schedules are fixed (`GMIN_START` to
/// `GMIN_FINAL` by `GMIN_FACTOR`, then `SOURCE_STEPS` source increments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcOptions {
    /// Newton settings for each inner solve.
    pub newton: NewtonOptions,
    /// Linear-solver backend for the inner Newton solves. Small circuits
    /// stay on the (bitwise-reproducible) dense path under `Auto`.
    pub solver: SolverChoice,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            newton: NewtonOptions::default(),
            solver: SolverChoice::Auto,
        }
    }
}

/// Result of a DC operating-point solve.
#[derive(Debug, Clone)]
pub struct DcSolution {
    /// The operating point (node voltages then branch currents).
    pub x: Vector,
    /// Which strategy succeeded.
    pub strategy: DcStrategy,
    /// Total Newton iterations across all homotopy steps.
    pub total_iterations: usize,
}

/// The homotopy (if any) that produced the operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcStrategy {
    /// Plain Newton from the initial guess.
    Direct,
    /// Gmin stepping.
    GminStepping,
    /// Source stepping.
    SourceStepping,
}

/// Computes the DC operating point of a circuit.
///
/// # Errors
///
/// Returns [`SpiceError::NewtonDiverged`] if all strategies fail, or other
/// simulation errors from the inner solves.
///
/// # Example
///
/// ```rust
/// use shc_spice::{Circuit, Resistor, VoltageSource, Waveform};
/// use shc_spice::dcop::{solve_dc, DcOptions};
/// use shc_spice::waveform::Params;
///
/// # fn main() -> Result<(), shc_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let b = ckt.node("b");
/// ckt.add(VoltageSource::new("V1", a, Circuit::GROUND, Waveform::dc(2.0)));
/// ckt.add(Resistor::new("R1", a, b, 1e3));
/// ckt.add(Resistor::new("R2", b, Circuit::GROUND, 1e3));
/// let sol = solve_dc(&ckt, &Params::default(), &DcOptions::default())?;
/// let vb = sol.x[ckt.unknown_of(b).expect("not ground")];
/// assert!((vb - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn solve_dc(circuit: &Circuit, params: &Params, opts: &DcOptions) -> Result<DcSolution> {
    let n = circuit.unknown_count();
    let layout = if opts.solver.wants_sparse(n) {
        Layout::Sparse(circuit.slot_map(params))
    } else {
        Layout::Dense(n)
    };
    let mut ws = newton::NewtonWorkspace::for_layout(&layout)?;
    solve_dc_in(circuit, params, opts, &layout, &mut ws)
}

/// [`solve_dc`] in a caller's assembly `layout` of `circuit` and a Newton
/// workspace that follows it: a transient solves its DC start in its own
/// buffers, so one slot map and one symbolic analysis serve both. The
/// workspace's factor is left holding the DC's pivots.
///
/// # Errors
///
/// As [`solve_dc`].
pub(crate) fn solve_dc_in(
    circuit: &Circuit,
    params: &Params,
    opts: &DcOptions,
    layout: &Layout,
    ws: &mut newton::NewtonWorkspace,
) -> Result<DcSolution> {
    // Once per transient run, outside the stepping hot loop: a full
    // profiler frame is affordable here.
    let _frame = shc_prof::enter(shc_prof::Phase::DcOp);
    let x0 = Vector::zeros(circuit.unknown_count());
    let mut dc = DcSolver::new(circuit, params, opts, layout, ws);

    // Strategy 1: plain Newton with the residual gmin.
    if let Ok((x, iterations)) = dc.newton(&x0, GMIN_FINAL, 1.0) {
        return Ok(DcSolution {
            x,
            strategy: DcStrategy::Direct,
            total_iterations: iterations,
        });
    }

    // Strategy 2: gmin stepping.
    if let Ok(sol) = dc.gmin_stepping(&x0) {
        return Ok(sol);
    }

    // Strategy 3: source stepping.
    dc.source_stepping(&x0)
}

/// Extra attempts granted per inner solve when a fault injector is active.
///
/// An injected fault draws a fresh decision on every call, so a retry
/// usually clears it; genuine divergence is deterministic, so without an
/// injector a retry would only replay the same failure — the homotopies
/// are the real recovery there, and fault-free behavior stays untouched.
/// A homotopy chains up to ~30 inner solves and a trace runs hundreds of
/// operating points, so the per-solve residual failure rate must be tiny:
/// at a 10% injection rate, 4 retries leave 1e-5 per solve.
const DC_FAULT_RETRIES: usize = 4;

/// One DC operating-point problem and the buffers every inner solve of
/// every strategy shares: the assembly layout and a Newton workspace that
/// follows it, into whose residual and Jacobian each solve stamps. No
/// homotopy step allocates a matrix or repeats an analysis.
struct DcSolver<'a> {
    circuit: &'a Circuit,
    params: &'a Params,
    opts: &'a DcOptions,
    layout: &'a Layout,
    ws: &'a mut newton::NewtonWorkspace,
    /// The charges each assembly stamps and DC ignores.
    q: Vector,
}

impl<'a> DcSolver<'a> {
    fn new(
        circuit: &'a Circuit,
        params: &'a Params,
        opts: &'a DcOptions,
        layout: &'a Layout,
        ws: &'a mut newton::NewtonWorkspace,
    ) -> Self {
        let q = Vector::zeros(circuit.unknown_count());
        DcSolver {
            circuit,
            params,
            opts,
            layout,
            ws,
            q,
        }
    }

    /// One inner Newton solve from `x0` with a node shunt `gmin` and the
    /// sources scaled by `source_scale`.
    fn newton(&mut self, x0: &Vector, gmin: f64, source_scale: f64) -> Result<(Vector, usize)> {
        let DcSolver {
            circuit,
            params,
            opts,
            layout,
            ws,
            q,
        } = self;
        let n_nodes = circuit.node_count();
        let mut assemble = |x: &Vector, f: &mut Vector, j: &mut [f64]| -> Result<()> {
            q.fill_zero();
            f.fill_zero();
            j.fill(0.0);
            let mut stamper = Stamper::in_layout(layout, q, f, None, j);
            circuit.stamp(&mut stamper, x, 0.0, params, source_scale);
            // Shunt gmin on every node (not on branch equations).
            for i in 0..n_nodes {
                f[i] += gmin * x[i];
                j[layout.diagonal(i)] += gmin;
            }
            Ok(())
        };
        let mut attempt = 0;
        loop {
            match newton::solve_in_place(ws, x0, &opts.newton, None, &mut assemble) {
                Ok(iters) => {
                    if attempt > 0 {
                        shc_obs::count(shc_obs::Metric::NewtonRecoveries, 1);
                    }
                    return Ok((ws.x().clone(), iters));
                }
                Err(e)
                    if shc_fault::enabled()
                        && attempt < DC_FAULT_RETRIES
                        && newton::retryable(&e) =>
                {
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn gmin_stepping(&mut self, x0: &Vector) -> Result<DcSolution> {
        let mut x = x0.clone();
        let mut gmin = GMIN_START;
        let mut total = 0;
        loop {
            let (xn, iters) = self.newton(&x, gmin, 1.0)?;
            x = xn;
            total += iters;
            if gmin <= GMIN_FINAL {
                return Ok(DcSolution {
                    x,
                    strategy: DcStrategy::GminStepping,
                    total_iterations: total,
                });
            }
            gmin = (gmin * GMIN_FACTOR).max(GMIN_FINAL);
        }
    }

    fn source_stepping(&mut self, x0: &Vector) -> Result<DcSolution> {
        let mut x = x0.clone();
        let mut total = 0;
        for k in 1..=SOURCE_STEPS {
            let scale = k as f64 / SOURCE_STEPS as f64;
            match self.newton(&x, GMIN_FINAL, scale) {
                Ok((xn, iters)) => {
                    x = xn;
                    total += iters;
                }
                Err(_) => {
                    return Err(SpiceError::NewtonDiverged {
                        context: "dc operating point (all strategies)",
                        iterations: total,
                        residual: f64::NAN,
                    })
                }
            }
        }
        Ok(DcSolution {
            x,
            strategy: DcStrategy::SourceStepping,
            total_iterations: total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::MosParams;
    use crate::devices::{CurrentSource, Mosfet, Resistor, VoltageSource};
    use crate::waveform::Waveform;

    #[test]
    fn divider_direct() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(VoltageSource::new(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::dc(2.0),
        ));
        c.add(Resistor::new("R1", a, b, 1e3));
        c.add(Resistor::new("R2", b, Circuit::GROUND, 3e3));
        let sol = solve_dc(&c, &Params::default(), &DcOptions::default()).unwrap();
        assert_eq!(sol.strategy, DcStrategy::Direct);
        assert!((sol.x[0] - 2.0).abs() < 1e-6);
        assert!((sol.x[1] - 1.5).abs() < 1e-6);
        // Branch current: 2V across 4k total = 0.5 mA, flowing out of +.
        assert!((sol.x[2] + 0.5e-3).abs() < 1e-8);
    }

    #[test]
    fn inverter_transfer_points() {
        // CMOS inverter: input low → output at vdd; input high → output ~0.
        let tech_n = MosParams::nmos_250nm();
        let tech_p = MosParams::pmos_250nm();
        for (vin, vout_expect) in [(0.0, 2.5), (2.5, 0.0)] {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.add(VoltageSource::new(
                "Vdd",
                vdd,
                Circuit::GROUND,
                Waveform::dc(2.5),
            ));
            c.add(VoltageSource::new(
                "Vin",
                inp,
                Circuit::GROUND,
                Waveform::dc(vin),
            ));
            c.add(Mosfet::new(
                "MN",
                out,
                inp,
                Circuit::GROUND,
                tech_n,
                1e-6,
                0.25e-6,
            ));
            c.add(Mosfet::new("MP", out, inp, vdd, tech_p, 2e-6, 0.25e-6));
            let sol = solve_dc(&c, &Params::default(), &DcOptions::default()).unwrap();
            let vout = sol.x[c.unknown_of(out).unwrap()];
            assert!(
                (vout - vout_expect).abs() < 0.1,
                "vin={vin}: vout={vout}, expected ~{vout_expect}"
            );
        }
    }

    #[test]
    fn cross_coupled_inverters_find_stable_state() {
        // A bistable pair — the classic hard DC case that needs homotopy or
        // luck; whatever strategy wins, the result must be a valid solution.
        let tech_n = MosParams::nmos_250nm();
        let tech_p = MosParams::pmos_250nm();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let q = c.node("q");
        let qb = c.node("qb");
        c.add(VoltageSource::new(
            "Vdd",
            vdd,
            Circuit::GROUND,
            Waveform::dc(2.5),
        ));
        c.add(Mosfet::new(
            "MN1",
            q,
            qb,
            Circuit::GROUND,
            tech_n,
            1e-6,
            0.25e-6,
        ));
        c.add(Mosfet::new("MP1", q, qb, vdd, tech_p, 2e-6, 0.25e-6));
        c.add(Mosfet::new(
            "MN2",
            qb,
            q,
            Circuit::GROUND,
            tech_n,
            1e-6,
            0.25e-6,
        ));
        c.add(Mosfet::new("MP2", qb, q, vdd, tech_p, 2e-6, 0.25e-6));
        let sol = solve_dc(&c, &Params::default(), &DcOptions::default()).unwrap();
        // Verify it is a genuine root: residual small at the solution.
        let stamps = c.assemble(&sol.x, 0.0, &Params::default(), 1.0);
        assert!(
            stamps.f.norm_inf() < 1e-6,
            "residual {}",
            stamps.f.norm_inf()
        );
    }

    #[test]
    fn sparse_dc_matches_dense_on_large_ladder() {
        // A ladder big enough that `Sparse` is the honest production
        // config; compare its operating point against the dense solve.
        let mut c = Circuit::new();
        let mut prev = c.node("in");
        c.add(VoltageSource::new(
            "V1",
            prev,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        for s in 0..80 {
            let node = c.node(&format!("n{s}"));
            c.add(Resistor::new(&format!("R{s}"), prev, node, 1e3));
            c.add(Resistor::new(&format!("Rg{s}"), node, Circuit::GROUND, 1e5));
            prev = node;
        }
        let params = Params::default();
        let dense = solve_dc(
            &c,
            &params,
            &DcOptions {
                solver: SolverChoice::Dense,
                ..DcOptions::default()
            },
        )
        .unwrap();
        let sparse = solve_dc(
            &c,
            &params,
            &DcOptions {
                solver: SolverChoice::Sparse,
                ..DcOptions::default()
            },
        )
        .unwrap();
        assert_eq!(dense.strategy, sparse.strategy);
        let diff = dense.x.sub(&sparse.x).norm_inf();
        assert!(diff < 1e-10, "sparse vs dense dc diverged: {diff:e}");
    }

    /// A 40 mA source into 1 kΩ puts its node at 40 V, which the 0.5 V
    /// step cap cannot reach from zero within the default 60 iterations.
    /// The 10 mS starting shunt holds the node near 3.6 V, and each
    /// decade of gmin moves it at most ~16 V, so every shunted solve fits
    /// its budget: gmin stepping, not source stepping, finds the point.
    #[test]
    fn gmin_stepping_reaches_a_node_plain_newton_cannot() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(CurrentSource::new(
            "I1",
            Circuit::GROUND,
            a,
            Waveform::dc(40e-3),
        ));
        c.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        let opts = DcOptions::default();
        let sol = solve_dc(&c, &Params::default(), &opts).unwrap();
        // Strategies run in order, so plain Newton failed first.
        assert_eq!(sol.strategy, DcStrategy::GminStepping);
        assert!(sol.total_iterations > opts.newton.max_iters, "{sol:?}");
        // The residual shunt moves the node by 40 V · 1e-9 = 40 nV.
        assert!((sol.x[0] - 40.0).abs() < 1e-6, "{sol:?}");
    }

    #[test]
    fn source_stepping_recovers_when_asked_directly() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(VoltageSource::new(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        let params = Params::default();
        let opts = DcOptions::default();
        let layout = Layout::Dense(c.unknown_count());
        let mut ws = newton::NewtonWorkspace::for_layout(&layout).unwrap();
        let sol = DcSolver::new(&c, &params, &opts, &layout, &mut ws)
            .source_stepping(&Vector::zeros(c.unknown_count()))
            .unwrap();
        assert_eq!(sol.strategy, DcStrategy::SourceStepping);
        assert!((sol.x[0] - 1.0).abs() < 1e-6);
    }

    /// Every inner solve of every strategy runs in the one workspace and
    /// stamps a `solve_dc` call builds: on the default dense path, a
    /// solve that fails two strategies and source-steps through dozens of
    /// Newton iterations allocates exactly the matrices a one-iteration
    /// direct solve does.
    #[test]
    fn homotopy_steps_allocate_no_matrix_on_the_dense_path() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(VoltageSource::new(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::dc(2.5),
        ));
        c.add(Resistor::new("R1", a, b, 1e3));
        c.add(Resistor::new("R2", b, Circuit::GROUND, 1e3));
        let params = Params::default();
        let allocations = |opts: &DcOptions| {
            let before = shc_linalg::matrix_allocations();
            let sol = solve_dc(&c, &params, opts).unwrap();
            (sol, shc_linalg::matrix_allocations() - before)
        };

        let (direct, one_strategy) = allocations(&DcOptions::default());
        assert_eq!(direct.strategy, DcStrategy::Direct);
        // The 0.5 V step cap needs five damped iterations to reach 2.5 V,
        // so four fail the direct solve and the first gmin step; a 1/20
        // source step converges in two.
        let (stepped, homotopy) = allocations(&DcOptions {
            newton: NewtonOptions {
                max_iters: 4,
                ..NewtonOptions::default()
            },
            ..DcOptions::default()
        });
        assert_eq!(stepped.strategy, DcStrategy::SourceStepping);
        assert!(stepped.total_iterations >= 40, "{stepped:?}");
        assert_eq!(homotopy, one_strategy);
        assert!(stepped.x.sub(&direct.x).norm_inf() < 1e-9);
    }
}
