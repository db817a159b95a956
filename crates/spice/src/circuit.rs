//! Netlist representation and MNA unknown bookkeeping.

use std::collections::HashMap;
use std::fmt;

use shc_linalg::{Matrix, Vector};

use crate::devices::Device;
use crate::stamp::{EvalContext, Stamper, Stamps};
use crate::waveform::{Param, Params};
use crate::{Result, SpiceError};

/// A circuit node handle.
///
/// Node `0` is ground and carries no KCL equation; all other nodes map to
/// one MNA unknown each. Obtain nodes from [`Circuit::node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub(crate) usize);

impl Node {
    /// Whether this node is the ground reference.
    pub fn is_ground(&self) -> bool {
        self.0 == 0
    }

    /// The MNA unknown (equation) index of this node, or `None` for ground.
    pub fn unknown(&self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0 - 1)
        }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A circuit netlist: named nodes plus a list of devices.
///
/// Unknown layout: node voltages first (node id − 1), then voltage-source
/// branch currents in insertion order.
///
/// # Example
///
/// ```rust
/// use shc_spice::{Circuit, Resistor};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
/// assert_eq!(ckt.unknown_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    name_to_node: HashMap<String, Node>,
    devices: Vec<Box<dyn Device>>,
    n_branches: usize,
}

impl Circuit {
    /// The ground (reference) node.
    pub const GROUND: Node = Node(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut name_to_node = HashMap::new();
        name_to_node.insert("0".to_string(), Node(0));
        Circuit {
            node_names: vec!["0".to_string()],
            name_to_node,
            devices: Vec::new(),
            n_branches: 0,
        }
    }

    /// Returns the node with the given name, creating it if necessary.
    ///
    /// The name `"0"` always refers to ground.
    pub fn node(&mut self, name: &str) -> Node {
        if let Some(&n) = self.name_to_node.get(name) {
            return n;
        }
        let n = Node(self.node_names.len());
        self.node_names.push(name.to_string());
        self.name_to_node.insert(name.to_string(), n);
        n
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<Node> {
        self.name_to_node.get(name).copied()
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this circuit.
    pub fn node_name(&self, node: Node) -> &str {
        &self.node_names[node.0]
    }

    /// Adds a device to the netlist, allocating branch unknowns if the
    /// device needs them (e.g. voltage sources).
    pub fn add<D: Device + 'static>(&mut self, mut device: D) -> &mut Self {
        let branches = device.branch_count();
        if branches > 0 {
            device.set_branch_start(self.n_branches);
            self.n_branches += branches;
        }
        self.devices.push(Box::new(device));
        self
    }

    /// Number of non-ground nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len() - 1
    }

    /// Number of branch-current unknowns.
    pub fn branch_count(&self) -> usize {
        self.n_branches
    }

    /// Total number of MNA unknowns.
    pub fn unknown_count(&self) -> usize {
        self.node_count() + self.n_branches
    }

    /// The MNA unknown index of a node voltage, or `None` for ground.
    pub fn unknown_of(&self, node: Node) -> Option<usize> {
        node.unknown()
    }

    /// The MNA unknown index of branch `b` (0-based, in insertion order).
    pub fn branch_unknown(&self, b: usize) -> usize {
        self.node_count() + b
    }

    /// Iterates over the devices in insertion order.
    pub fn devices(&self) -> impl Iterator<Item = &dyn Device> {
        self.devices.iter().map(|d| d.as_ref())
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// A time `t*` such that every device stamps bitwise-identical values
    /// and skew derivatives under skews `pa` and `pb` for all `t < t*`,
    /// built on [`crate::Waveform::agree_until`]. Only voltage-source
    /// waveforms read the skews; a device that states no bound
    /// ([`Device::skew_agreement`] is `None`) claims nothing (`0.0`).
    pub fn agreement_horizon(&self, pa: &Params, pb: &Params) -> f64 {
        let mut horizon = f64::INFINITY;
        for device in &self.devices {
            match device.skew_agreement(pa, pb) {
                Some(bound) => horizon = horizon.min(bound),
                None => return 0.0,
            }
        }
        horizon
    }

    /// Validates the netlist: non-empty, and every unknown has at least one
    /// stamp touching it (rough floating-node detection via the G/C pattern
    /// at a nominal bias).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadCircuit`] if the netlist is empty or a node
    /// is completely disconnected.
    pub fn validate(&self) -> Result<()> {
        if self.devices.is_empty() {
            return Err(SpiceError::BadCircuit {
                reason: "empty netlist".to_string(),
            });
        }
        let n = self.unknown_count();
        let x = Vector::zeros(n);
        let stamps = self.assemble(&x, 0.0, &Params::default(), 1.0);
        for i in 0..n {
            let touched = (0..n).any(|j| stamps.g[(i, j)] != 0.0 || stamps.c[(i, j)] != 0.0);
            if !touched {
                return Err(SpiceError::BadCircuit {
                    reason: format!("unknown {i} has no device connection"),
                });
            }
        }
        Ok(())
    }

    /// Assembles the MNA quantities at state `x`, time `t`:
    /// charge vector `q(x)`, current residual `f(x, t)` (devices plus
    /// sources), and their Jacobians `C = ∂q/∂x`, `G = ∂f/∂x`.
    ///
    /// `source_scale` multiplies all independent sources (used by DC
    /// source-stepping homotopy); pass `1.0` for normal analyses.
    ///
    /// effects: alloc, assert
    pub fn assemble(&self, x: &Vector, t: f64, params: &Params, source_scale: f64) -> Stamps {
        let n = self.unknown_count();
        let mut stamps = Stamps::new(n);
        self.assemble_into(&mut stamps, x, t, params, source_scale);
        stamps
    }

    /// Like [`Circuit::assemble`] but reuses an existing [`Stamps`]
    /// workspace (zeroed first) to avoid allocation in inner loops.
    ///
    /// # Panics
    ///
    /// Panics if the workspace dimension does not match the circuit.
    ///
    /// effects: assert
    // lint: hot-fn
    pub fn assemble_into(
        &self,
        stamps: &mut Stamps,
        x: &Vector,
        t: f64,
        params: &Params,
        source_scale: f64,
    ) {
        assert_eq!(
            stamps.dim(),
            self.unknown_count(),
            "stamps workspace has wrong dimension"
        );
        stamps.clear();
        let ctx = EvalContext {
            x,
            t,
            params,
            source_scale,
            node_offset: self.node_count(),
        };
        let mut stamper = Stamper::new(stamps);
        for device in &self.devices {
            device.stamp(&mut stamper, &ctx);
        }
    }

    /// Like [`Circuit::assemble_into`] but clears the Jacobian workspaces
    /// via [`Stamps::clear_pattern`] — `O(nnz)` instead of `O(n²)` — so the
    /// sparse-direct Newton path pays no dense bookkeeping per iteration.
    ///
    /// `pattern` must cover this circuit's [`Circuit::jacobian_pattern`],
    /// and `stamps` must not hold nonzeros outside that pattern (give it a
    /// full [`Stamps::clear`] first when its history is unknown).
    ///
    /// # Panics
    ///
    /// Panics if the workspace dimension does not match the circuit.
    ///
    /// effects: assert
    // lint: hot-fn
    pub fn assemble_sparse_into(
        &self,
        stamps: &mut Stamps,
        x: &Vector,
        t: f64,
        params: &Params,
        source_scale: f64,
        pattern: &[(usize, usize)],
    ) {
        assert_eq!(
            stamps.dim(),
            self.unknown_count(),
            "stamps workspace has wrong dimension"
        );
        stamps.clear_pattern(pattern);
        let ctx = EvalContext {
            x,
            t,
            params,
            source_scale,
            node_offset: self.node_count(),
        };
        let mut stamper = Stamper::new(stamps);
        for device in &self.devices {
            device.stamp(&mut stamper, &ctx);
        }
    }

    /// Records the sparsity pattern of the step Jacobian `C·a + G`.
    ///
    /// Device stamping is pattern-preserving — the set of `(eq, var)`
    /// positions touched depends only on the topology — so a single probe
    /// assembly at `x = 0`, `t = 0` captures the structure for every
    /// evaluation point. Every diagonal position is included as well
    /// (integrators and the DC `gmin` shunt stamp the diagonal, and sparse
    /// LU pivoting prefers a structurally present diagonal). The result is
    /// sorted by `(row, col)` and duplicate-free, which matches the storage
    /// order of [`shc_linalg::CsrMatrix::from_triplets`].
    pub fn jacobian_pattern(&self, params: &Params) -> Vec<(usize, usize)> {
        let n = self.unknown_count();
        let mut stamps = Stamps::new(n);
        let x = Vector::zeros(n);
        let mut entries = Vec::new();
        self.assemble_pattern_into(&mut stamps, &x, params, &mut entries);
        entries
    }

    /// Like [`Circuit::jacobian_pattern`] but writes into caller-provided
    /// buffers so per-run pattern re-probes stay allocation-free (beyond
    /// `entries` growth). `x_zero` must be an all-zero vector of the
    /// unknown count; `stamps` is clobbered as scratch.
    ///
    /// # Panics
    ///
    /// Panics if a buffer dimension does not match the circuit.
    pub fn assemble_pattern_into(
        &self,
        stamps: &mut Stamps,
        x_zero: &Vector,
        params: &Params,
        entries: &mut Vec<(usize, usize)>,
    ) {
        assert_eq!(
            stamps.dim(),
            self.unknown_count(),
            "stamps workspace has wrong dimension"
        );
        assert_eq!(
            x_zero.len(),
            self.unknown_count(),
            "x workspace has wrong dimension"
        );
        stamps.clear();
        entries.clear();
        let ctx = EvalContext {
            x: x_zero,
            t: 0.0,
            params,
            source_scale: 1.0,
            node_offset: self.node_count(),
        };
        let mut stamper = Stamper::with_pattern(stamps, entries);
        for device in &self.devices {
            device.stamp(&mut stamper, &ctx);
        }
        for i in 0..self.unknown_count() {
            entries.push((i, i));
        }
        entries.sort_unstable();
        entries.dedup();
    }

    /// Assembles the parameter derivative of the residual,
    /// `∂f/∂param = b_d · z(t)` in the paper's notation (eqs. (9), (12)),
    /// into caller-provided buffers (zeroing `dfdp` first) to avoid
    /// allocation in inner loops. `x_zero` must be an all-zero vector of
    /// the unknown count; it only feeds the evaluation context, whose
    /// state is unused by source derivatives.
    ///
    /// # Panics
    ///
    /// Panics if a buffer dimension does not match the circuit.
    pub fn assemble_dfdp_into(
        &self,
        dfdp: &mut Vector,
        x_zero: &Vector,
        t: f64,
        params: &Params,
        param: Param,
    ) {
        assert_eq!(
            dfdp.len(),
            self.unknown_count(),
            "dfdp workspace has wrong dimension"
        );
        assert_eq!(
            x_zero.len(),
            self.unknown_count(),
            "x workspace has wrong dimension"
        );
        dfdp.fill_zero();
        let ctx = EvalContext {
            x: x_zero,
            t,
            params,
            source_scale: 1.0,
            node_offset: self.node_count(),
        };
        for device in &self.devices {
            device.stamp_param_derivative(dfdp, &ctx, param);
        }
    }

    /// Builds the combined Jacobian `C·a + G` used by implicit integrators
    /// (`a = 1/Δt` for BE after scaling, etc.).
    ///
    /// # Errors
    ///
    /// [`crate::SpiceError::Linalg`] when `c` and `g` differ in shape —
    /// i.e. the stamps come from two different circuits.
    pub fn combine_jacobian(c: &Matrix, g: &Matrix, a: f64) -> crate::Result<Matrix> {
        let mut j = c.scale(a);
        j.axpy(1.0, g)?;
        Ok(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Resistor, VoltageSource};
    use crate::waveform::Waveform;

    #[test]
    fn ground_has_no_unknown() {
        assert!(Circuit::GROUND.is_ground());
        assert_eq!(Circuit::GROUND.unknown(), None);
    }

    #[test]
    fn node_creation_is_idempotent() {
        let mut c = Circuit::new();
        let a1 = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a1, a2);
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.find_node("a"), Some(a1));
        assert_eq!(c.find_node("zz"), None);
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node_name(a1), "a");
    }

    #[test]
    fn unknown_layout_nodes_then_branches() {
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
        c.add(Resistor::new("R2", b, Circuit::GROUND, 1e3));
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.branch_count(), 1);
        assert_eq!(c.unknown_count(), 3);
        assert_eq!(c.unknown_of(a), Some(0));
        assert_eq!(c.unknown_of(b), Some(1));
        assert_eq!(c.branch_unknown(0), 2);
        assert_eq!(c.device_count(), 3);
    }

    #[test]
    fn validate_rejects_empty_and_floating() {
        let c = Circuit::new();
        assert!(matches!(c.validate(), Err(SpiceError::BadCircuit { .. })));

        let mut c = Circuit::new();
        let a = c.node("a");
        let _floating = c.node("float");
        c.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        assert!(matches!(c.validate(), Err(SpiceError::BadCircuit { .. })));
    }

    #[test]
    fn assemble_voltage_divider_residual() {
        // V1 = 2V into R1=R2=1k divider; at the exact solution the residual
        // must vanish.
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
        c.add(Resistor::new("R2", b, Circuit::GROUND, 1e3));
        // Solution: v_a = 2, v_b = 1, i_v = -(current out of + terminal) = -1mA.
        let x = Vector::from_slice(&[2.0, 1.0, -1e-3]);
        let stamps = c.assemble(&x, 0.0, &Params::default(), 1.0);
        assert!(stamps.f.norm_inf() < 1e-12, "residual {}", stamps.f);
    }

    #[test]
    fn assemble_into_reuses_workspace() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        c.add(Capacitor::new("C1", a, Circuit::GROUND, 1e-12));
        let mut ws = Stamps::new(c.unknown_count());
        let x = Vector::from_slice(&[1.0]);
        c.assemble_into(&mut ws, &x, 0.0, &Params::default(), 1.0);
        assert!((ws.f[0] - 1e-3).abs() < 1e-15);
        assert!((ws.q[0] - 1e-12).abs() < 1e-24);
        // Second assembly must not accumulate.
        c.assemble_into(&mut ws, &x, 0.0, &Params::default(), 1.0);
        assert!((ws.f[0] - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn combine_jacobian_scales_c() {
        let c = Matrix::identity(2);
        let g = Matrix::identity(2).scale(3.0);
        let j = Circuit::combine_jacobian(&c, &g, 10.0).unwrap();
        assert_eq!(j[(0, 0)], 13.0);
    }

    #[test]
    fn agreement_horizon_follows_the_data_pulse_bound() {
        use crate::devices::{Diode, DiodeParams};
        use crate::waveform::{DataPulse, RampShape};
        let d = DataPulse {
            v_rest: 0.0,
            v_active: 2.5,
            t_edge: 5e-9,
            rise: 0.5e-9,
            fall: 0.5e-9,
            shape: RampShape::Smoothstep,
        };
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let din = c.node("d");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "Vdd",
            vdd,
            Circuit::GROUND,
            Waveform::dc(2.5),
        ));
        c.add(VoltageSource::new(
            "Vd",
            din,
            Circuit::GROUND,
            Waveform::Data(d),
        ));
        c.add(Resistor::new("R1", din, out, 1e3));
        c.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));

        // Identical skews: the same simulation forever.
        let p0 = Params::new(1e-10, 2e-10);
        assert_eq!(c.agreement_horizon(&p0, &p0), f64::INFINITY);

        // Skews differing only in τh: the data pulse's trailing-edge bound
        // (t_edge + min τh − fall/2), which covers most of the pulse.
        let p1 = Params::new(1e-10, 2.5e-10);
        let horizon = c.agreement_horizon(&p0, &p1);
        assert_eq!(horizon, d.agree_until(&p0, &p1));
        assert!(horizon > 4e-9, "{horizon:e}");

        // A device that states no bound claims nothing.
        c.add(Diode::new(
            "D1",
            out,
            Circuit::GROUND,
            DiodeParams::default(),
        ));
        assert_eq!(c.agreement_horizon(&p0, &p0), 0.0);
    }
}
