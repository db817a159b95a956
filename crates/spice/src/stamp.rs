//! MNA stamp assembly workspace.
//!
//! Devices contribute ("stamp") their constitutive relations into four
//! containers that together define the circuit DAE
//! `d/dt q(x) + f(x, t) = 0`:
//!
//! - `q`: charge/flux vector `q(x)`;
//! - `f`: resistive/source residual `f(x, t)` (includes `b(t)`);
//! - `c`: charge Jacobian `C = ∂q/∂x`;
//! - `g`: conductance Jacobian `G = ∂f/∂x`.

use shc_linalg::{Matrix, Vector};

use crate::waveform::Params;

/// Assembled MNA quantities at one `(x, t)` evaluation point.
#[derive(Debug, Clone)]
pub struct Stamps {
    /// Charge vector `q(x)`.
    pub q: Vector,
    /// Residual `f(x, t)` including independent sources.
    pub f: Vector,
    /// Charge Jacobian `C = ∂q/∂x`.
    pub c: Matrix,
    /// Conductance Jacobian `G = ∂f/∂x`.
    pub g: Matrix,
}

impl Stamps {
    /// Creates a zeroed workspace for `n` unknowns.
    pub fn new(n: usize) -> Self {
        Stamps {
            q: Vector::zeros(n),
            f: Vector::zeros(n),
            c: Matrix::zeros(n, n),
            g: Matrix::zeros(n, n),
        }
    }

    /// Dimension of the workspace.
    pub fn dim(&self) -> usize {
        self.q.len()
    }

    /// Zeroes all containers, keeping allocations.
    pub fn clear(&mut self) {
        self.q.fill_zero();
        self.f.fill_zero();
        self.c.fill_zero();
        self.g.fill_zero();
    }

    /// Zeroes the vectors fully but the Jacobians only at the given
    /// positions — `O(nnz)` instead of `O(n²)`, the sparse hot path's
    /// per-iteration clear.
    ///
    /// Sound only under the pattern-preserving stamping invariant: every
    /// `C`/`G` write since the last full [`Stamps::clear`] must have hit a
    /// position inside `pattern`, so everything outside it is still zero.
    pub fn clear_pattern(&mut self, pattern: &[(usize, usize)]) {
        self.q.fill_zero();
        self.f.fill_zero();
        for &(i, j) in pattern {
            self.c[(i, j)] = 0.0;
            self.g[(i, j)] = 0.0;
        }
    }

    /// Zeroes everything but `C`: the vectors, and `G` fully or — with
    /// `pattern`, under the same invariant as [`Stamps::clear_pattern`] —
    /// only at the given positions. The clear of an assembly that leaves
    /// `C` out (a transient's per-step assembly).
    pub(crate) fn clear_state(&mut self, pattern: Option<&[(usize, usize)]>) {
        self.q.fill_zero();
        self.f.fill_zero();
        match pattern {
            Some(entries) => {
                for &(i, j) in entries {
                    self.g[(i, j)] = 0.0;
                }
            }
            None => self.g.fill_zero(),
        }
    }
}

/// Evaluation context handed to devices while stamping.
#[derive(Debug, Clone, Copy)]
pub struct EvalContext<'a> {
    /// Current state vector (node voltages then branch currents).
    pub x: &'a Vector,
    /// Simulation time in seconds.
    pub t: f64,
    /// Skew parameter values.
    pub params: &'a Params,
    /// Multiplier applied to independent sources (DC source stepping).
    pub source_scale: f64,
    /// Number of node-voltage unknowns; branch unknown `b` lives at
    /// `node_offset + b`.
    pub node_offset: usize,
}

impl<'a> EvalContext<'a> {
    /// Voltage of a node under the current state (`0.0` for ground).
    pub fn voltage(&self, node: crate::Node) -> f64 {
        match node.unknown() {
            Some(i) => self.x[i],
            None => 0.0,
        }
    }

    /// State value of branch unknown `b`.
    pub fn branch_current(&self, b: usize) -> f64 {
        self.x[self.node_offset + b]
    }

    /// Global unknown index of branch `b`.
    pub fn branch_index(&self, b: usize) -> usize {
        self.node_offset + b
    }
}

/// Mutable stamping interface handed to devices.
///
/// All methods accept `Option<usize>` equation/variable indices so that
/// ground connections (`None`) are silently dropped, exactly as in
/// textbook MNA stamping.
///
/// Device stamping is *pattern-preserving*: the set of `(eq, var)`
/// positions a device touches depends only on the topology, never on the
/// evaluation point. [`Stamper::with_pattern`] exploits that to record the
/// step-Jacobian sparsity structure from a single probe assembly.
#[derive(Debug)]
pub struct Stamper<'a> {
    stamps: &'a mut Stamps,
    /// When present, every `C`/`G` position stamped is appended here
    /// (duplicates included; callers sort + dedup afterwards).
    pattern: Option<&'a mut Vec<(usize, usize)>>,
    /// Whether `C` writes land; [`Stamper::without_c`] drops them.
    with_c: bool,
}

impl<'a> Stamper<'a> {
    /// Wraps a workspace for stamping.
    pub fn new(stamps: &'a mut Stamps) -> Self {
        Stamper {
            stamps,
            pattern: None,
            with_c: true,
        }
    }

    /// Wraps a workspace for stamping everything but `C`, which every
    /// device stamps as a constant ([`crate::devices::Device`]): the
    /// assembly of a run that holds its `C` elsewhere.
    pub(crate) fn without_c(stamps: &'a mut Stamps) -> Self {
        Stamper {
            stamps,
            pattern: None,
            with_c: false,
        }
    }

    /// Wraps a workspace and records every Jacobian position stamped via
    /// [`Stamper::add_c`]/[`Stamper::add_g`] into `pattern`.
    pub fn with_pattern(stamps: &'a mut Stamps, pattern: &'a mut Vec<(usize, usize)>) -> Self {
        Stamper {
            stamps,
            pattern: Some(pattern),
            with_c: true,
        }
    }

    // The adders below are `#[inline]`: every device's `stamp` calls them
    // once per matrix entry on every Newton iteration, and without the
    // hint whether they inline depends on which codegen unit rustc puts
    // the devices in.

    /// Adds `value` to the charge vector at equation `eq`.
    #[inline]
    pub fn add_q(&mut self, eq: Option<usize>, value: f64) {
        if let Some(i) = eq {
            self.stamps.q[i] += value;
        }
    }

    /// Adds `value` to the residual at equation `eq`.
    #[inline]
    pub fn add_f(&mut self, eq: Option<usize>, value: f64) {
        if let Some(i) = eq {
            self.stamps.f[i] += value;
        }
    }

    /// Adds `value` to `C[eq, var]`.
    #[inline]
    pub fn add_c(&mut self, eq: Option<usize>, var: Option<usize>, value: f64) {
        if let (true, Some(i), Some(j)) = (self.with_c, eq, var) {
            self.stamps.c.add_at(i, j, value);
            if let Some(pattern) = self.pattern.as_deref_mut() {
                // lint: allow(hot-path-certify, reason = "probe mode only: `pattern` is `Some` during the one-time sparsity probe and `None` in every per-iteration assembly")
                pattern.push((i, j));
            }
        }
    }

    /// Adds `value` to `G[eq, var]`.
    #[inline]
    pub fn add_g(&mut self, eq: Option<usize>, var: Option<usize>, value: f64) {
        if let (Some(i), Some(j)) = (eq, var) {
            self.stamps.g.add_at(i, j, value);
            if let Some(pattern) = self.pattern.as_deref_mut() {
                // lint: allow(hot-path-certify, reason = "probe mode only: `pattern` is `Some` during the one-time sparsity probe and `None` in every per-iteration assembly")
                pattern.push((i, j));
            }
        }
    }

    /// Stamps a two-terminal conductance `g` between equations/variables
    /// `a` and `b` (the classic 4-entry pattern).
    #[inline]
    pub fn stamp_conductance(&mut self, a: Option<usize>, b: Option<usize>, g: f64) {
        self.add_g(a, a, g);
        self.add_g(b, b, g);
        self.add_g(a, b, -g);
        self.add_g(b, a, -g);
    }

    /// Stamps a two-terminal linear capacitance `c` between `a` and `b`
    /// into the `C` matrix.
    #[inline]
    pub fn stamp_capacitance(&mut self, a: Option<usize>, b: Option<usize>, c: f64) {
        self.add_c(a, a, c);
        self.add_c(b, b, c);
        self.add_c(a, b, -c);
        self.add_c(b, a, -c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_stamps_are_dropped() {
        let mut s = Stamps::new(2);
        let mut st = Stamper::new(&mut s);
        st.add_f(None, 5.0);
        st.add_q(None, 5.0);
        st.add_g(None, Some(0), 1.0);
        st.add_g(Some(0), None, 1.0);
        st.add_c(None, None, 1.0);
        assert_eq!(s.f.norm_inf(), 0.0);
        assert_eq!(s.q.norm_inf(), 0.0);
        assert_eq!(s.g.norm_frobenius(), 0.0);
        assert_eq!(s.c.norm_frobenius(), 0.0);
    }

    #[test]
    fn conductance_pattern() {
        let mut s = Stamps::new(2);
        let mut st = Stamper::new(&mut s);
        st.stamp_conductance(Some(0), Some(1), 2.0);
        assert_eq!(s.g[(0, 0)], 2.0);
        assert_eq!(s.g[(1, 1)], 2.0);
        assert_eq!(s.g[(0, 1)], -2.0);
        assert_eq!(s.g[(1, 0)], -2.0);
    }

    #[test]
    fn capacitance_pattern_to_ground() {
        let mut s = Stamps::new(1);
        let mut st = Stamper::new(&mut s);
        st.stamp_capacitance(Some(0), None, 1e-12);
        assert_eq!(s.c[(0, 0)], 1e-12);
    }

    #[test]
    fn pattern_recording_captures_jacobian_positions_only() {
        let mut s = Stamps::new(3);
        let mut pattern = Vec::new();
        let mut st = Stamper::with_pattern(&mut s, &mut pattern);
        st.stamp_conductance(Some(0), Some(1), 2.0);
        st.add_c(Some(2), Some(2), 1e-15);
        st.add_g(None, Some(1), 1.0); // ground: dropped from values AND pattern
        st.add_f(Some(2), 1.0); // residual writes are not Jacobian structure
        pattern.sort_unstable();
        pattern.dedup();
        assert_eq!(pattern, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn clear_resets_but_keeps_dim() {
        let mut s = Stamps::new(3);
        s.f[1] = 4.0;
        s.g[(2, 2)] = 1.0;
        s.clear();
        assert_eq!(s.dim(), 3);
        assert_eq!(s.f.norm_inf(), 0.0);
        assert_eq!(s.g.norm_frobenius(), 0.0);
    }
}
