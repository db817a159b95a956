//! Device models.
//!
//! Every device implements [`Device`]: it stamps its constitutive relation
//! (charge, current, and their Jacobians) into the MNA system, and — for
//! sources whose waveforms depend on the skew parameters — the parameter
//! derivative of the residual needed by forward sensitivity analysis.

mod capacitor;
mod controlled;
mod diode;
mod inductor;
mod isource;
mod mosfet;
mod resistor;
mod vsource;

pub use capacitor::Capacitor;
pub use controlled::{Vccs, Vcvs};
pub use diode::{Diode, DiodeParams};
pub use inductor::Inductor;
pub use isource::CurrentSource;
pub use mosfet::{MosParams, MosPolarity, Mosfet};
pub use resistor::Resistor;
pub use vsource::VoltageSource;

use shc_linalg::Vector;

use crate::stamp::{EvalContext, Stamper};
use crate::waveform::Param;

/// A circuit element that contributes MNA stamps.
///
/// Implementors must be deterministic functions of `(x, t, params)`; the
/// simulator may evaluate them at arbitrary trial points during Newton
/// iterations.
///
/// Only `f` may depend on `t`, and `C` on nothing at all:
/// - `C` is bitwise the same at every `(x, t, params)`, so a transient
///   assembles it once per run;
/// - `q` and `G` never depend on `t`, so a Backward Euler transient
///   stamps an accepted state once, at the next step's time, and those
///   stamps serve as both the step's history and the next step's first
///   Newton iterate.
pub trait Device: std::fmt::Debug + Send + Sync {
    /// Instance name (diagnostics only).
    fn name(&self) -> &str;

    /// Number of branch-current unknowns this device needs (e.g. `1` for a
    /// voltage source).
    fn branch_count(&self) -> usize {
        0
    }

    /// Called once when the device is added to a circuit; `start` is the
    /// first branch slot allocated to this device.
    fn set_branch_start(&mut self, _start: usize) {}

    /// Stamps `q`, `f`, `C`, and `G` contributions at the evaluation point,
    /// keeping the trait's contract on what may depend on `t`.
    fn stamp(&self, stamper: &mut Stamper<'_>, ctx: &EvalContext<'_>);

    /// Adds this device's contribution to `∂f/∂param` (the paper's
    /// `b_d · z(t)`). Default: no dependence.
    fn stamp_param_derivative(&self, _dfdp: &mut Vector, _ctx: &EvalContext<'_>, _param: Param) {}

    /// Value-level descriptor for the lockstep batched engine.
    ///
    /// Devices that can be evaluated by the SoA batch stepper return a
    /// [`crate::batch::DeviceSpec`]; the default `None` opts the whole
    /// circuit out of batching, so sweeps over it fall back to the scalar
    /// path. The spec must describe *exactly* the arithmetic of
    /// [`Device::stamp`] — the batched path is required to be bitwise
    /// identical to the scalar one.
    fn batch_spec(&self) -> Option<crate::batch::DeviceSpec> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::{DataPulse, Params, RampShape, Waveform};
    use crate::Circuit;
    use shc_linalg::Matrix;

    /// A circuit of one device on four fresh nodes.
    fn alone<D: Device + 'static>(device: impl FnOnce([crate::Node; 4]) -> D) -> Circuit {
        let mut c = Circuit::new();
        let nodes = ["a", "b", "c", "d"].map(|name| c.node(name));
        c.add(device(nodes));
        c
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        (0..m.rows())
            .flat_map(|i| m.row(i).iter().map(|v| v.to_bits()))
            .collect()
    }

    /// Every device type keeps the [`Device`] contract the transient's
    /// once-per-run `C` and its reuse of accepted-state stamps rely on:
    /// `C` is bitwise the same at unrelated `(x, t, params)`, and `q` and
    /// `G` are bitwise the same at two times, while a source's `f` moves.
    #[test]
    fn only_f_depends_on_time_and_c_on_nothing() {
        let pulse = Waveform::Data(DataPulse {
            v_rest: 0.0,
            v_active: 2.5,
            t_edge: 5e-9,
            rise: 0.5e-9,
            fall: 0.5e-9,
            shape: RampShape::Smoothstep,
        });
        let circuits = [
            (
                "capacitor",
                alone(|[a, b, ..]| Capacitor::new("C1", a, b, 1e-12)),
            ),
            (
                "vcvs",
                alone(|[a, b, p, n]| Vcvs::new("E1", a, b, p, n, 2.0)),
            ),
            (
                "vccs",
                alone(|[a, b, p, n]| Vccs::new("G1", a, b, p, n, 1e-3)),
            ),
            (
                "diode",
                alone(|[a, b, ..]| Diode::new("D1", a, b, DiodeParams::default())),
            ),
            (
                "inductor",
                alone(|[a, b, ..]| Inductor::new("L1", a, b, 1e-9)),
            ),
            (
                "current source",
                alone(|[a, b, ..]| CurrentSource::new("I1", a, b, pulse.clone())),
            ),
            (
                "nmos",
                alone(|[d, g, s, _]| {
                    Mosfet::new("M1", d, g, s, MosParams::nmos_250nm(), 1e-6, 0.25e-6)
                }),
            ),
            (
                "pmos",
                alone(|[d, g, s, _]| {
                    Mosfet::new("M2", d, g, s, MosParams::pmos_250nm(), 2e-6, 0.25e-6)
                }),
            ),
            (
                "resistor",
                alone(|[a, b, ..]| Resistor::new("R1", a, b, 1e3)),
            ),
            (
                "voltage source",
                alone(|[a, b, ..]| VoltageSource::new("V1", a, b, pulse.clone())),
            ),
        ];
        for (what, c) in circuits {
            let n = c.unknown_count();
            let x1 = Vector::from_slice(&[1.7, 0.4, 2.2, -0.3, 1e-4][..n]);
            let x2 = Vector::from_slice(&[0.2, 2.4, 0.9, 1.1, -2e-4][..n]);
            let (p1, p2) = (Params::new(1e-9, 2e-9), Params::new(3e-10, -1e-10));
            // At skews `p1` 4 ns is mid leading ramp, 6 ns on the plateau.
            let at_t1 = c.assemble(&x1, 4e-9, &p1, 1.0);
            let at_t2 = c.assemble(&x1, 6e-9, &p1, 1.0);
            let elsewhere = c.assemble(&x2, 6e-9, &p2, 1.0);
            assert_eq!(bits(&at_t1.c), bits(&at_t2.c), "{what}: C over t");
            assert_eq!(
                bits(&at_t1.c),
                bits(&elsewhere.c),
                "{what}: C over x, params"
            );
            assert_eq!(bits(&at_t1.g), bits(&at_t2.g), "{what}: G over t");
            let vbits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(vbits(&at_t1.q), vbits(&at_t2.q), "{what}: q over t");
            if what.ends_with("source") {
                assert_ne!(vbits(&at_t1.f), vbits(&at_t2.f), "{what}: f is still");
            }
        }
    }
}
