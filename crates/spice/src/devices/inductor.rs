use crate::devices::Device;
use crate::stamp::{EvalContext, Stamper};
use crate::Node;

/// A linear inductor.
///
/// Uses one branch-current unknown `i`. The flux `L·i` lives in the charge
/// vector on the branch row, and the branch equation enforces
/// `d/dt (L·i) = v_a − v_b`:
///
/// ```text
/// KCL rows:   f[a] += i,  f[b] -= i
/// branch row: q[br] = L·i,  f[br] = -(v_a - v_b)
/// ```
///
/// # Example
///
/// ```rust
/// use shc_spice::{Circuit, Inductor};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add(Inductor::new("L1", a, Circuit::GROUND, 1e-9));
/// assert_eq!(ckt.branch_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Inductor {
    name: String,
    a: Node,
    b: Node,
    inductance: f64,
    branch: usize,
}

impl Inductor {
    /// Creates an inductor of `inductance` henries between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `inductance` is not positive and finite.
    pub fn new(name: &str, a: Node, b: Node, inductance: f64) -> Self {
        assert!(
            inductance.is_finite() && inductance > 0.0,
            "inductor {name}: inductance must be positive and finite, got {inductance}"
        );
        Inductor {
            name: name.to_string(),
            a,
            b,
            inductance,
            branch: usize::MAX,
        }
    }

    /// Inductance in henries.
    pub fn inductance(&self) -> f64 {
        self.inductance
    }
}

impl Device for Inductor {
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
        debug_assert_ne!(self.branch, usize::MAX, "inductor not added to a circuit");
        let (ea, eb) = (self.a.unknown(), self.b.unknown());
        let br = Some(ctx.branch_index(self.branch));
        let i = ctx.branch_current(self.branch);

        stamper.add_f(ea, i);
        stamper.add_f(eb, -i);
        stamper.add_g(ea, br, 1.0);
        stamper.add_g(eb, br, -1.0);

        // Branch: d/dt (L·i) − (v_a − v_b) = 0.
        stamper.add_q(br, self.inductance * i);
        stamper.add_c(br, br, self.inductance);
        stamper.add_f(br, -(ctx.voltage(self.a) - ctx.voltage(self.b)));
        stamper.add_g(br, ea, -1.0);
        stamper.add_g(br, eb, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Resistor, VoltageSource};
    use crate::transient::{InitialCondition, TransientAnalysis, TransientOptions};
    use crate::waveform::{Params, Waveform};
    use crate::Circuit;
    use shc_linalg::Vector;

    /// A parallel LC tank, started with the capacitor charged.
    fn lc_tank() -> (Circuit, usize, usize, f64, f64) {
        let mut c = Circuit::new();
        let top = c.node("top");
        let l = 1e-6;
        let cap = 1e-9;
        c.add(Inductor::new("L1", top, Circuit::GROUND, l));
        c.add(Capacitor::new("C1", top, Circuit::GROUND, cap));
        let v_idx = c.unknown_of(top).unwrap();
        let i_idx = c.branch_unknown(0);
        (c, v_idx, i_idx, l, cap)
    }

    #[test]
    fn lc_oscillates_at_the_analytic_frequency() {
        let (c, v_idx, _, l, cap) = lc_tank();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * cap).sqrt()); // ≈ 5.03 MHz
        let period = 1.0 / f0;
        let mut x0 = Vector::zeros(c.unknown_count());
        x0[v_idx] = 1.0;
        let opts = TransientOptions::builder(3.0 * period)
            .dt(period / 400.0)
            .initial(InitialCondition::Given(x0))
            .build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        // Count zero crossings of the voltage: 2 per period.
        use crate::transient::CrossingDirection;
        let mut crossings = 0;
        let mut t = 0.0;
        while let Some(tc) = res.crossing_time(v_idx, 0.0, t, CrossingDirection::Any) {
            crossings += 1;
            t = tc + period / 100.0;
        }
        assert!(
            (5..=7).contains(&crossings),
            "expected ~6 zero crossings over 3 periods, got {crossings}"
        );
    }

    #[test]
    fn backward_euler_damps_lc_energy_by_the_analytic_factor() {
        // On the linear tank, a Backward Euler step of size Δt scales the
        // energy E = C·v²/2 + L·i²/2 by exactly 1/(1 + (ωΔt)²): after N
        // steps, E_N = E_0·(1 + (ωΔt)²)^−N — numerical damping.
        let (c, v_idx, i_idx, l, cap) = lc_tank();
        let omega = 1.0 / (l * cap).sqrt();
        let period = 2.0 * std::f64::consts::PI / omega;
        let energy = |v: f64, i: f64| 0.5 * cap * v * v + 0.5 * l * i * i;
        let dt = period / 200.0;
        let mut x0 = Vector::zeros(c.unknown_count());
        x0[v_idx] = 1.0;
        let opts = TransientOptions::builder(5.0 * period)
            .dt(dt)
            .initial(InitialCondition::Given(x0))
            .build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        let steps = res.stats().steps;
        assert_eq!(steps, 1000);
        let expected = (1.0 + (omega * dt).powi(2)).powi(-(steps as i32));
        let x = res.final_state();
        let ratio = energy(x[v_idx], x[i_idx]) / energy(1.0, 0.0);
        assert!(expected < 0.6, "the tank must visibly damp: {expected}");
        assert!(
            (ratio - expected).abs() <= 1e-6 * expected,
            "energy ratio {ratio} vs analytic {expected}"
        );
    }

    #[test]
    fn dc_inductor_is_a_short() {
        // V -- R -- L to ground: at DC the inductor carries V/R with no drop.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(VoltageSource::new(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(Resistor::new("R1", a, b, 1e3));
        c.add(Inductor::new("L1", b, Circuit::GROUND, 1e-6));
        let sol = crate::dcop::solve_dc(&c, &Params::default(), &crate::dcop::DcOptions::default())
            .unwrap();
        let vb = sol.x[c.unknown_of(b).unwrap()];
        assert!(
            vb.abs() < 1e-6,
            "inductor should look like a short at DC, v = {vb}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_inductance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let _ = Inductor::new("L", a, Circuit::GROUND, 0.0);
    }
}
