use crate::devices::Device;
use crate::stamp::{EvalContext, Stamper};
use crate::waveform::Params;
use crate::Node;

/// A linear capacitor.
///
/// Stamps the charge `C·(v_a − v_b)` into `q` and the capacitance into the
/// `C` Jacobian; it contributes nothing to `f` (the integrator
/// differentiates `q`).
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    name: String,
    a: Node,
    b: Node,
    /// unit: F
    capacitance: f64,
}

impl Capacitor {
    /// Creates a capacitor of `capacitance` farads between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance` is not positive and finite.
    pub fn new(name: &str, a: Node, b: Node, capacitance: f64) -> Self {
        assert!(
            capacitance.is_finite() && capacitance > 0.0,
            "capacitor {name}: capacitance must be positive and finite, got {capacitance}"
        );
        Capacitor {
            name: name.to_string(),
            a,
            b,
            capacitance,
        }
    }

    /// Capacitance in farads.
    pub fn capacitance(&self) -> f64 {
        self.capacitance
    }
}

impl Device for Capacitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, stamper: &mut Stamper<'_>, ctx: &EvalContext<'_>) {
        let (ea, eb) = (self.a.unknown(), self.b.unknown());
        let v = ctx.voltage(self.a) - ctx.voltage(self.b);
        let q = self.capacitance * v;
        stamper.add_q(ea, q);
        stamper.add_q(eb, -q);
        stamper.stamp_capacitance(ea, eb, self.capacitance);
    }

    fn skew_agreement(&self, _pa: &Params, _pb: &Params) -> Option<f64> {
        Some(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Circuit;
    use shc_linalg::Vector;

    #[test]
    fn stamps_charge_and_c_matrix() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(Capacitor::new("C", a, b, 1e-12));
        let x = Vector::from_slice(&[2.0, 0.5]);
        let s = c.assemble(&x, 0.0, &Params::default(), 1.0);
        assert!((s.q[0] - 1.5e-12).abs() < 1e-24);
        assert!((s.q[1] + 1.5e-12).abs() < 1e-24);
        assert_eq!(s.c[(0, 0)], 1e-12);
        assert_eq!(s.c[(0, 1)], -1e-12);
        assert_eq!(s.f.norm_inf(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_negative_capacitance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let _ = Capacitor::new("C", a, Circuit::GROUND, -1e-12);
    }
}
