//! Sparse-direct vs dense cross-validation on real cell matrices: the
//! step Jacobian of every register in the cell zoo, factored by both
//! backends, must agree to near machine precision — and the two solver
//! paths must trace the same characterization contour.

use shc::cells::{
    d_latch, pulsed_latch_with, register_bank_with, saff_register_with, tg_register, tspc_register,
    ClockSpec, Register, Technology,
};
use shc::core::CharacterizationProblem;
use shc::linalg::{CsrMatrix, LinalgError, SparseLu, Vector};
use shc::obs::{Collector, Metric};
use shc::spice::waveform::Params;
use shc::spice::{Circuit, SolverChoice};

fn zoo(tech: &Technology) -> Vec<Register> {
    let clock = ClockSpec::fast();
    vec![
        tspc_register(tech).with_clock(clock),
        shc::cells::c2mos_register(tech).with_clock(clock),
        tg_register(tech).with_clock(clock),
        d_latch(tech).with_clock(clock),
        saff_register_with(tech, clock),
        pulsed_latch_with(tech, clock),
        register_bank_with(tech, clock, 16),
    ]
}

/// Deterministic non-trivial bias point: mid-rail-ish voltages that keep
/// every MOSFET partially conducting so C and G carry real values.
fn bias(n: usize, vdd: f64) -> Vector {
    (0..n)
        .map(|i| vdd * (0.35 + 0.3 * ((i % 5) as f64) / 4.0))
        .collect()
}

#[test]
fn sparse_lu_matches_dense_lu_on_every_cell_jacobian() {
    let tech = Technology::default_250nm();
    for register in zoo(&tech) {
        let name = register.name().to_string();
        let circuit = register.circuit();
        let n = circuit.unknown_count();
        let params = Params::new(0.2e-9, 0.2e-9);
        let x = bias(n, tech.vdd);
        let stamps = circuit.assemble(&x, 1e-9, &params, 1.0);
        let dt = 4e-12;
        let jac = Circuit::combine_jacobian(&stamps.c, &stamps.g, 1.0 / dt)
            .expect("C and G share the MNA shape");

        let rhs: Vector = (0..n).map(|i| 1e-3 * ((i % 11) as f64 - 5.0)).collect();
        let dense = jac
            .lu()
            .unwrap_or_else(|e| panic!("{name}: dense factor: {e}"))
            .solve(&rhs)
            .unwrap_or_else(|e| panic!("{name}: dense solve: {e}"));

        let csr = CsrMatrix::from_dense(&jac, 0.0).expect("csr conversion");
        let mut lu = SparseLu::new(&csr).unwrap_or_else(|e| panic!("{name}: sparse factor: {e}"));
        let mut sparse = Vector::zeros(n);
        lu.solve_into(&rhs, &mut sparse)
            .unwrap_or_else(|e| panic!("{name}: sparse solve: {e}"));
        let dev = sparse.sub(&dense).norm_inf() / dense.norm_inf().max(1e-300);
        assert!(dev < 1e-12, "{name}: sparse vs dense deviation {dev:.2e}");

        // Value-only refactor at a different step size must track too.
        let jac2 = Circuit::combine_jacobian(&stamps.c, &stamps.g, 1.0 / (4.0 * dt))
            .expect("C and G share the MNA shape");
        let csr2 = CsrMatrix::from_dense(&jac2, 0.0).expect("csr conversion");
        lu.refactor(&csr2)
            .unwrap_or_else(|e| panic!("{name}: refactor: {e}"));
        lu.solve_into(&rhs, &mut sparse)
            .unwrap_or_else(|e| panic!("{name}: sparse solve: {e}"));
        let dense2 = jac2.lu().unwrap().solve(&rhs).unwrap();
        let dev2 = sparse.sub(&dense2).norm_inf() / dense2.norm_inf().max(1e-300);
        assert!(dev2 < 1e-12, "{name}: refactor deviation {dev2:.2e}");
    }
}

/// The sparse path's slot assembly, scattered back to dense, is bitwise
/// the dense assembly: every `C`/`G` write lands in the slot of its own
/// position and sums in device order. Checked on the 32-bit register bank
/// and on TSPC, at random states, times and skews.
#[test]
fn slot_assembly_scatters_back_to_the_dense_assembly_bitwise() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let tech = Technology::default_250nm();
    let clock = ClockSpec::fast();
    let mut rng = StdRng::seed_from_u64(29);
    for register in [
        register_bank_with(&tech, clock, 32),
        tspc_register(&tech).with_clock(clock),
    ] {
        let name = register.name();
        let circuit = register.circuit();
        let n = circuit.unknown_count();
        let bits = |m: &shc::linalg::Matrix| -> Vec<u64> {
            (0..n)
                .flat_map(|i| m.row(i).iter().map(|v| v.to_bits()))
                .collect()
        };
        let scatter = |csr: &CsrMatrix| {
            let mut dense = shc::linalg::Matrix::zeros(n, n);
            for i in 0..n {
                for k in csr.row_ptr()[i]..csr.row_ptr()[i + 1] {
                    dense[(i, csr.col_indices()[k])] = csr.values()[k];
                }
            }
            dense
        };
        for _ in 0..4 {
            let x: Vector = (0..n).map(|_| rng.gen_range(-0.5..3.0)).collect();
            let t = rng.gen_range(0.0..8e-9);
            let params = Params::new(rng.gen_range(-2e-10..6e-10), rng.gen_range(-2e-10..6e-10));
            let dense = circuit.assemble(&x, t, &params, 1.0);
            let (c, g) = circuit
                .assemble_csr(&x, t, &params)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(c.nnz(), circuit.jacobian_pattern(&params).len(), "{name}");
            assert_eq!(bits(&scatter(&c)), bits(&dense.c), "{name}: C at t={t:e}");
            assert_eq!(bits(&scatter(&g)), bits(&dense.g), "{name}: G at t={t:e}");
        }
    }
}

#[test]
fn sparse_lu_rejects_singular_and_near_singular_matrices() {
    // Numerically singular: rank-1 2x2.
    let singular =
        CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)])
            .unwrap();
    assert!(matches!(
        SparseLu::new(&singular),
        Err(LinalgError::Singular { .. })
    ));

    // Structurally singular: an empty column.
    let structural = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]).unwrap();
    assert!(matches!(
        SparseLu::new(&structural),
        Err(LinalgError::Singular { .. })
    ));

    // Near-singular within the pivot threshold: second pivot underflows.
    let near = CsrMatrix::from_triplets(
        2,
        2,
        &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0 + 1e-300)],
    )
    .unwrap();
    assert!(matches!(
        SparseLu::new(&near),
        Err(LinalgError::Singular { .. })
    ));
}

#[test]
fn forced_sparse_contour_matches_dense_contour() {
    // The D-latch sits well below the auto-dispatch threshold, so forcing
    // the sparse backend here pins the two paths against each other on a
    // full end-to-end characterization (reference sim, calibration,
    // Euler-Newton tracing), not just on one linear solve.
    let tech = Technology::default_250nm();
    let points = 6;
    let trace = |solver: SolverChoice| {
        let problem =
            CharacterizationProblem::builder(d_latch(&tech).with_clock(ClockSpec::fast()))
                .degradation(0.10)
                .solver(solver)
                .build()
                .expect("problem builds");
        problem.trace_contour(points).expect("contour traces")
    };
    let dense = trace(SolverChoice::Dense);
    let sparse = trace(SolverChoice::Sparse);
    assert_eq!(dense.points().len(), sparse.points().len());
    for (d, s) in dense.points().iter().zip(sparse.points()) {
        let scale = d.tau_s.abs().max(d.tau_h.abs()).max(1e-12);
        assert!(
            (d.tau_s - s.tau_s).abs() < 1e-6 * scale + 1e-18,
            "tau_s drifted: dense {:e} vs sparse {:e}",
            d.tau_s,
            s.tau_s
        );
        assert!(
            (d.tau_h - s.tau_h).abs() < 1e-6 * scale + 1e-18,
            "tau_h drifted: dense {:e} vs sparse {:e}",
            d.tau_h,
            s.tau_h
        );
    }
}

/// Sparse-LU work (symbolic analyses, factors, refactors, solves) one
/// `evaluate_with_jacobian` of `register` records on a fresh collector.
fn sparse_work(register: Register, solver: SolverChoice) -> [u64; 4] {
    let problem = CharacterizationProblem::builder(register)
        .degradation(0.10)
        .solver(solver)
        .build()
        .expect("problem builds");
    let collector = Collector::new();
    {
        let _telemetry = shc::obs::install_scoped(&collector);
        problem
            .evaluate_with_jacobian(&problem.reference_params())
            .expect("evaluation succeeds");
    }
    assert!(
        collector.counter(Metric::TransientRuns) > 0,
        "collector saw the run"
    );
    [
        Metric::SparseAnalyses,
        Metric::SparseFactors,
        Metric::SparseRefactors,
        Metric::SparseSolves,
    ]
    .map(|m| collector.counter(m))
}

#[test]
fn auto_dispatch_keeps_seed_cells_off_the_sparse_path() {
    let tech = Technology::default_250nm();
    let clock = ClockSpec::fast();
    let seed_cells = [
        tspc_register(&tech).with_clock(clock),
        shc::cells::c2mos_register(&tech).with_clock(clock),
        tg_register(&tech).with_clock(clock),
        d_latch(&tech).with_clock(clock),
    ];
    for register in seed_cells {
        let name = register.name().to_string();
        assert_eq!(
            sparse_work(register, SolverChoice::Auto),
            [0; 4],
            "{name}: auto dispatch did sparse work (analyses, factors, refactors, solves)"
        );
    }
    // The same counters do move when the sparse path runs, so the zeros
    // above are not vacuous.
    let forced = sparse_work(d_latch(&tech).with_clock(clock), SolverChoice::Sparse);
    assert!(
        forced[3] > 0,
        "forced sparse path recorded no solves: {forced:?}"
    );
}
