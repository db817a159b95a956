use crate::devices::Device;
use crate::stamp::{EvalContext, Stamper};
use crate::waveform::Params;
use crate::Node;

/// A linear resistor.
///
/// Stamps the conductance `1/R` between its two terminals.
///
/// # Example
///
/// ```rust
/// use shc_spice::{Circuit, Resistor};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add(Resistor::new("R1", a, Circuit::GROUND, 10e3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Resistor {
    name: String,
    a: Node,
    b: Node,
    resistance: f64,
}

impl Resistor {
    /// Creates a resistor of `resistance` ohms between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `resistance` is not positive and finite.
    pub fn new(name: &str, a: Node, b: Node, resistance: f64) -> Self {
        assert!(
            resistance.is_finite() && resistance > 0.0,
            "resistor {name}: resistance must be positive and finite, got {resistance}"
        );
        Resistor {
            name: name.to_string(),
            a,
            b,
            resistance,
        }
    }

    /// Resistance in ohms.
    pub fn resistance(&self) -> f64 {
        self.resistance
    }
}

impl Device for Resistor {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, stamper: &mut Stamper<'_>, ctx: &EvalContext<'_>) {
        let g = 1.0 / self.resistance;
        let (ea, eb) = (self.a.unknown(), self.b.unknown());
        let v = ctx.voltage(self.a) - ctx.voltage(self.b);
        let i = g * v;
        stamper.add_f(ea, i);
        stamper.add_f(eb, -i);
        stamper.stamp_conductance(ea, eb, g);
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
    fn stamps_ohms_law() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Resistor::new("R", a, Circuit::GROUND, 2.0));
        let x = Vector::from_slice(&[4.0]);
        let s = c.assemble(&x, 0.0, &Params::default(), 1.0);
        assert_eq!(s.f[0], 2.0); // 4V across 2 ohm = 2A out of node a
        assert_eq!(s.g[(0, 0)], 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_resistance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let _ = Resistor::new("R", a, Circuit::GROUND, 0.0);
    }
}
