use shc_linalg::Vector;

use crate::devices::Device;
use crate::stamp::{EvalContext, Stamper};
use crate::waveform::{Param, Params, Waveform};
use crate::Node;

/// An independent voltage source with an arbitrary [`Waveform`].
///
/// Uses the standard MNA formulation with one branch-current unknown:
/// KCL rows receive `±i_branch`, and the branch row enforces
/// `v_p − v_n − V(t) = 0`.
///
/// When the waveform is a [`Waveform::Data`] pulse, the source contributes
/// `−∂V/∂τ` to the sensitivity right-hand side — this is exactly the
/// `b_d · z(t)` term of the paper's eqs. (9)–(13).
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageSource {
    name: String,
    p: Node,
    n: Node,
    waveform: Waveform,
    branch: usize,
}

impl VoltageSource {
    /// Creates a voltage source from `p` (+) to `n` (−) with `waveform`.
    pub fn new(name: &str, p: Node, n: Node, waveform: Waveform) -> Self {
        VoltageSource {
            name: name.to_string(),
            p,
            n,
            waveform,
            branch: usize::MAX,
        }
    }

    /// The source waveform.
    pub fn waveform(&self) -> &Waveform {
        &self.waveform
    }
}

impl Device for VoltageSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn branch_count(&self) -> usize {
        1
    }

    fn set_branch_start(&mut self, start: usize) {
        self.branch = start;
    }

    fn stamp(&self, stamper: &mut Stamper<'_>, ctx: &EvalContext<'_>) {
        debug_assert_ne!(
            self.branch,
            usize::MAX,
            "voltage source not added to a circuit"
        );
        let (ep, en) = (self.p.unknown(), self.n.unknown());
        let br = Some(ctx.branch_index(self.branch));
        let i = ctx.branch_current(self.branch);
        let v = self.waveform.value(ctx.t, ctx.params) * ctx.source_scale;

        // KCL: branch current leaves the + terminal.
        stamper.add_f(ep, i);
        stamper.add_f(en, -i);
        stamper.add_g(ep, br, 1.0);
        stamper.add_g(en, br, -1.0);

        // Branch equation: v_p − v_n − V(t) = 0.
        stamper.add_f(br, ctx.voltage(self.p) - ctx.voltage(self.n) - v);
        stamper.add_g(br, ep, 1.0);
        stamper.add_g(br, en, -1.0);
    }

    fn stamp_param_derivative(&self, dfdp: &mut Vector, ctx: &EvalContext<'_>, param: Param) {
        let dv = self.waveform.derivative(ctx.t, ctx.params, param);
        if dv != 0.0 {
            dfdp[ctx.branch_index(self.branch)] -= dv * ctx.source_scale;
        }
    }

    fn skew_agreement(&self, pa: &Params, pb: &Params) -> Option<f64> {
        Some(self.waveform.agree_until(pa, pb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::{DataPulse, Params, RampShape};
    use crate::Circuit;

    #[test]
    fn branch_equation_enforces_voltage() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(VoltageSource::new(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::dc(3.0),
        ));
        // x = [v_a, i_branch]
        let x = Vector::from_slice(&[3.0, 0.25]);
        let s = c.assemble(&x, 0.0, &Params::default(), 1.0);
        // KCL at a: +i = 0.25; branch eq: 3 - 3 = 0.
        assert_eq!(s.f[0], 0.25);
        assert_eq!(s.f[1], 0.0);
        assert_eq!(s.g[(0, 1)], 1.0);
        assert_eq!(s.g[(1, 0)], 1.0);
    }

    #[test]
    fn source_scale_scales_value_and_derivative() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(VoltageSource::new(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::dc(4.0),
        ));
        let x = Vector::zeros(2);
        let s = c.assemble(&x, 0.0, &Params::default(), 0.5);
        assert_eq!(s.f[1], -2.0); // 0 − 0 − 4·0.5
    }

    #[test]
    fn data_source_contributes_sensitivity_rhs() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let pulse = DataPulse {
            v_rest: 0.0,
            v_active: 2.5,
            t_edge: 10e-9,
            rise: 1e-9,
            fall: 1e-9,
            shape: RampShape::Smoothstep,
        };
        c.add(VoltageSource::new(
            "Vd",
            d,
            Circuit::GROUND,
            Waveform::Data(pulse),
        ));
        let params = Params::new(2e-9, 2e-9);
        let x_zero = Vector::zeros(c.unknown_count());
        let mut dfdp = Vector::zeros(c.unknown_count());
        // Mid leading edge: t = t_edge − τs = 8 ns.
        c.assemble_dfdp_into(&mut dfdp, &x_zero, 8e-9, &params, Param::Setup);
        let expected = -pulse.derivative(8e-9, &params, Param::Setup);
        assert!(
            (dfdp[1] - expected).abs() < 1e-12,
            "dfdp = {}, expected {expected}",
            dfdp[1]
        );
        assert!(dfdp[1] != 0.0);
        // A DC source has no parameter dependence.
        c.assemble_dfdp_into(&mut dfdp, &x_zero, 0.0, &params, Param::Hold);
        assert_eq!(dfdp[1], 0.0);
    }
}
