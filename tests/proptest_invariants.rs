//! Property-based tests on the core numerical substrates.

use proptest::prelude::*;

use shc::core::HEvaluation;
use shc::linalg::{CsrMatrix, Matrix, Vector};
use shc::spice::waveform::{DataPulse, Param, Params, Pulse, RampShape};
use shc::spice::{MosParams, Mosfet};

fn finite_f64(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    range.prop_filter("finite", |x| x.is_finite())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LU: for random diagonally dominant matrices, the solve residual is
    /// at machine-precision scale.
    #[test]
    fn lu_solves_diagonally_dominant_systems(
        entries in prop::collection::vec(finite_f64(-1.0..1.0), 16),
        rhs in prop::collection::vec(finite_f64(-10.0..10.0), 4),
    ) {
        let n = 4;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = entries[i * n + j];
            }
            // Diagonal dominance guarantees nonsingularity.
            a[(i, i)] += 5.0;
        }
        let b = Vector::from_slice(&rhs);
        let x = a.lu().unwrap().solve(&b).unwrap();
        let r = a.mul_vec(&x).sub(&b);
        prop_assert!(r.norm_inf() < 1e-10, "residual {}", r.norm_inf());
    }

    /// The MPNR corrector step (paper eq. (15), Fig. 4) for a random
    /// non-vanishing 1×2 Jacobian `(a, b)`: it lands on the level set of
    /// the affine model, `h + a·Δs + b·Δh = 0`, and it is the minimum-norm
    /// such step, i.e. parallel to `(a, b)`. Magnitudes span the real
    /// problem's scales (`h` in volts, `a`, `b` up to ~1e10 V/s).
    #[test]
    fn mpnr_step_lands_on_the_affine_level_set_with_minimum_norm(
        h in finite_f64(-2.5..2.5),
        a in finite_f64(-3.0..3.0),
        b in finite_f64(-3.0..3.0),
        exp in -3i32..11,
    ) {
        let scale = 10f64.powi(exp);
        let (a, b) = (a * scale, b * scale);
        let norm = (a * a + b * b).sqrt();
        prop_assume!(norm > 1e-3 * scale);
        let ev = HEvaluation {
            h,
            dh_dtau_s: a,
            dh_dtau_h: b,
            stats: Default::default(),
        };
        let (ds, dh) = ev.mpnr_step().expect("non-vanishing Jacobian");
        let model = h + a * ds + b * dh;
        prop_assert!(model.abs() <= 1e-12 * h.abs().max(1e-300), "h + H·Δ = {model:e}");
        let step = (ds * ds + dh * dh).sqrt();
        let cross = ds * b - dh * a;
        prop_assert!(cross.abs() <= 1e-12 * step * norm, "Δ × (a, b) = {cross:e}");
    }

    /// The data waveform never leaves the band spanned by its rest and
    /// active levels, for any skews and sampling time.
    #[test]
    fn data_pulse_stays_in_band(
        t in finite_f64(0.0..20e-9),
        tau_s in finite_f64(-1e-9..1e-9),
        tau_h in finite_f64(-1e-9..1e-9),
        rising in any::<bool>(),
    ) {
        let (rest, active) = if rising { (0.0, 2.5) } else { (2.5, 0.0) };
        let d = DataPulse {
            v_rest: rest,
            v_active: active,
            t_edge: 11e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            shape: RampShape::Smoothstep,
        };
        let v = d.value(t, &Params::new(tau_s, tau_h));
        let (lo, hi) = (rest.min(active), rest.max(active));
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "v = {v}");
    }

    /// The analytic skew derivatives of the data waveform match central
    /// finite differences everywhere.
    #[test]
    fn data_pulse_derivatives_match_fd(
        t in finite_f64(9e-9..13e-9),
        tau_s in finite_f64(50e-12..500e-12),
        tau_h in finite_f64(50e-12..500e-12),
    ) {
        let d = DataPulse {
            v_rest: 0.0,
            v_active: 2.5,
            t_edge: 11e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            shape: RampShape::Smoothstep,
        };
        let p = Params::new(tau_s, tau_h);
        let eps = 1e-15;
        for param in Param::ALL {
            let analytic = d.derivative(t, &p, param);
            let plus = d.value(t, &p.with(param, p.get(param) + eps));
            let minus = d.value(t, &p.with(param, p.get(param) - eps));
            let fd = (plus - minus) / (2.0 * eps);
            prop_assert!(
                (analytic - fd).abs() <= 1e-3 * fd.abs().max(1e7),
                "{param:?} at t={t:.3e}: analytic {analytic:.4e} vs fd {fd:.4e}"
            );
        }
    }

    /// Sparse SpMV agrees with the dense product for random sparse patterns.
    #[test]
    fn csr_spmv_matches_dense(
        entries in prop::collection::vec(finite_f64(-2.0..2.0), 25),
        mask in prop::collection::vec(any::<bool>(), 25),
        v in prop::collection::vec(finite_f64(-2.0..2.0), 5),
    ) {
        let n = 5;
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if mask[i * n + j] {
                    dense[(i, j)] = entries[i * n + j];
                }
            }
        }
        let sparse = CsrMatrix::from_dense(&dense, 0.0).unwrap();
        let vv = Vector::from_slice(&v);
        let d = dense.mul_vec(&vv);
        let s = sparse.mul_vec(&vv);
        prop_assert!(d.sub(&s).norm_inf() < 1e-12);
    }

    /// The clock pulse is periodic and bounded by its two levels.
    #[test]
    fn pulse_is_periodic_and_bounded(
        t in finite_f64(0.0..100e-9),
        v0 in finite_f64(-1.0..1.0),
        swing in finite_f64(0.1..3.0),
    ) {
        let p = Pulse {
            v0,
            v1: v0 + swing,
            delay: 1e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: 4.9e-9,
            period: 10e-9,
            shape: RampShape::Smoothstep,
        };
        let v = p.value(t);
        prop_assert!(v >= v0 - 1e-12 && v <= v0 + swing + 1e-12);
        // Periodicity past the initial delay.
        if t > p.delay {
            let v2 = p.value(t + 10e-9);
            prop_assert!((v - v2).abs() < 1e-9, "not periodic: {v} vs {v2}");
        }
    }

    /// MOSFET invariants for random terminal voltages: drain/source
    /// antisymmetry and exact KCL between drain and source currents.
    #[test]
    fn mosfet_symmetry_and_derivatives(
        vd in finite_f64(0.0..2.5),
        vg in finite_f64(0.0..2.5),
        vs in finite_f64(0.0..2.5),
    ) {
        let mut c = shc::spice::Circuit::new();
        let (d, g, s) = (c.node("d"), c.node("g"), c.node("s"));
        let m = Mosfet::new("M", d, g, s, MosParams::nmos_250nm(), 1e-6, 0.25e-6);
        let (i1, ..) = m.drain_current(vd, vg, vs);
        let (i2, ..) = m.drain_current(vs, vg, vd);
        prop_assert!(
            (i1 + i2).abs() < 1e-9 * i1.abs().max(1e-9),
            "antisymmetry violated: {i1} vs {i2}"
        );
        // Derivative consistency at this random operating point.
        let h = 1e-7;
        let (_, dg, dd, ds) = m.drain_current(vd, vg, vs);
        let fd_g = (m.drain_current(vd, vg + h, vs).0 - m.drain_current(vd, vg - h, vs).0) / (2.0 * h);
        let fd_d = (m.drain_current(vd + h, vg, vs).0 - m.drain_current(vd - h, vg, vs).0) / (2.0 * h);
        let fd_s = (m.drain_current(vd, vg, vs + h).0 - m.drain_current(vd, vg, vs - h).0) / (2.0 * h);
        let scale = fd_g.abs().max(fd_d.abs()).max(fd_s.abs()).max(1e-8);
        prop_assert!((dg - fd_g).abs() < 1e-3 * scale);
        prop_assert!((dd - fd_d).abs() < 1e-3 * scale);
        prop_assert!((ds - fd_s).abs() < 1e-3 * scale);
    }
}
