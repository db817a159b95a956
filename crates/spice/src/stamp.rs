//! MNA stamp assembly into slot-indexed value arrays.
//!
//! Devices contribute ("stamp") their constitutive relations into four
//! containers that together define the circuit DAE
//! `d/dt q(x) + f(x, t) = 0`:
//!
//! - `q`: charge/flux vector `q(x)`;
//! - `f`: resistive/source residual `f(x, t)` (includes `b(t)`);
//! - `c`: charge Jacobian `C = ∂q/∂x`;
//! - `g`: conductance Jacobian `G = ∂f/∂x`.
//!
//! `C` and `G` are flat value arrays, and a `Layout` names each entry's
//! *slot*: `i·n + j` in dense row-major storage, computed inline; or its
//! index in the CSR values of the sparse step-Jacobian pattern, resolved
//! once per solver setup as SPICE3 resolves element pointers (`TSTALLOC`).
//! A recording assembly (`Trace`) lists every `C`/`G` write position in
//! stamping order, and `SlotMap` maps the k-th write to its index; the
//! pattern is those positions plus the diagonal. Devices stamp the same
//! positions in the same order at every evaluation point, so an assembly
//! walks that list with a cursor. Both layouts share one adder code path
//! and sum each entry's contributions in device order, so they hold
//! bitwise the same values.

use shc_linalg::{CsrMatrix, Matrix, Vector};

use crate::waveform::Params;

/// Assembled MNA quantities at one `(x, t)` evaluation point, in the
/// dense layout.
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
}

/// Where the `C`/`G` entries of a circuit's assemblies live: row-major
/// `n×n` for `n` unknowns, or a resolved sparse pattern's CSR values.
#[derive(Debug)]
pub(crate) enum Layout {
    Dense(usize),
    Sparse(SlotMap),
}

impl Layout {
    /// Slots per value array.
    pub(crate) fn len(&self) -> usize {
        match self {
            Layout::Dense(n) => n * n,
            Layout::Sparse(map) => map.entries.len(),
        }
    }

    /// The slot of diagonal entry `(i, i)`.
    pub(crate) fn diagonal(&self, i: usize) -> usize {
        match self {
            Layout::Dense(n) => i * n + i,
            Layout::Sparse(map) => map.diagonal[i],
        }
    }

    /// Rows (and columns) of the matrices in this layout.
    fn dim(&self) -> usize {
        match self {
            Layout::Dense(n) => *n,
            Layout::Sparse(map) => map.dim(),
        }
    }

    /// The `(row, column)` of slot `k`. Both layouts number their slots
    /// row by row, in ascending columns.
    fn position(&self, k: usize) -> (usize, usize) {
        match self {
            Layout::Dense(n) => (k / n, k % n),
            Layout::Sparse(map) => map.entries[k],
        }
    }
}

/// The nonzero slots of one value array in a [`Layout`], row by row in
/// ascending columns, each with its column: the transient lists its
/// constant `C` once per run and forms every `C·m` over the list.
#[derive(Debug, Default)]
pub(crate) struct NonzeroSlots {
    /// Row `i`'s entries end at `row_end[i]`, and start where row `i − 1`'s
    /// end.
    row_end: Vec<usize>,
    /// `(slot, column)` of each nonzero value.
    entries: Vec<(usize, usize)>,
}

impl NonzeroSlots {
    /// Lists the nonzero values of `a`, one value per slot of `layout`,
    /// replacing the last list; allocates only when the list outgrows
    /// the last one's.
    pub(crate) fn list(&mut self, layout: &Layout, a: &[f64]) {
        let nonzero = |v: &&f64| {
            // lint: allow(float-eq, reason = "exact-zero filter: a zero value adds only ±0 to a product's sum")
            **v != 0.0
        };
        self.row_end.clear();
        self.entries.clear();
        self.entries.reserve_exact(a.iter().filter(nonzero).count());
        self.row_end.reserve_exact(layout.dim());
        for (k, _) in a.iter().enumerate().filter(|(_, v)| nonzero(v)) {
            let (i, j) = layout.position(k);
            while self.row_end.len() < i {
                self.row_end.push(self.entries.len());
            }
            self.entries.push((k, j));
        }
        self.row_end.resize(layout.dim(), self.entries.len());
    }

    /// `out = A·v` for `A` given by its slot values `a`, the array this
    /// list was made from: per row, ascending columns accumulated from
    /// `+0.0` over the nonzero values. For finite `v` that is bitwise the
    /// dense product: a zero value would add only `±0` to a sum that
    /// starts at `+0.0` and so is never `-0.0`.
    // lint: hot-fn
    pub(crate) fn mul_into(&self, a: &[f64], v: &Vector, out: &mut Vector) {
        let mut start = 0;
        for (o, &end) in out.iter_mut().zip(&self.row_end) {
            let row = &self.entries[start..end];
            *o = row.iter().fold(0.0, |acc, &(k, j)| acc + a[k] * v[j]);
            start = end;
        }
    }
}

/// Index of the `C` and of the `G` writes in the per-kind arrays below.
const C: usize = 0;
const G: usize = 1;

/// The `C` and `G` write positions of one recording assembly, in stamping
/// order, with the `q`/`f` buffers it writes and ignores.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    writes: [Vec<(usize, usize)>; 2],
    q: Vector,
    f: Vector,
}

impl Trace {
    /// A stamper that records the positions of a circuit of `n` unknowns
    /// into this trace, replacing the last recording.
    pub(crate) fn recorder(&mut self, n: usize) -> Stamper<'_> {
        self.writes.iter_mut().for_each(Vec::clear);
        if self.q.len() != n {
            (self.q, self.f) = (Vector::zeros(n), Vector::zeros(n));
        }
        Stamper {
            q: self.q.as_mut_slice(),
            f: self.f.as_mut_slice(),
            c: Some(&mut []),
            g: Some(&mut []),
            slots: Slots::Record(&mut self.writes),
        }
    }
}

/// The sparse layout's slots: the pattern, sorted by `(row, col)` and
/// duplicate-free (CSR storage order, so entry `k` is slot `k`), and the
/// slot of each `C` and each `G` write and of each diagonal entry.
#[derive(Debug)]
pub(crate) struct SlotMap {
    pub(crate) entries: Vec<(usize, usize)>,
    slots: [Vec<usize>; 2],
    diagonal: Vec<usize>,
}

impl SlotMap {
    /// Resolves the writes of `trace`, recorded on `n` unknowns, to the
    /// pattern they span plus the diagonal (the DC `gmin` shunt stamps it,
    /// and sparse pivoting prefers it present).
    pub(crate) fn resolve(n: usize, trace: &Trace) -> SlotMap {
        let diagonal: Vec<_> = (0..n).map(|i| (i, i)).collect();
        let mut entries = [&trace.writes[C][..], &trace.writes[G], &diagonal].concat();
        entries.sort_unstable();
        entries.dedup();
        // Every position looked up is in `entries`: the search finds it.
        let slots = |ps: &[(usize, usize)]| -> Vec<usize> {
            ps.iter()
                .map(|p| entries.binary_search(p).unwrap_or_else(|k| k))
                .collect()
        };
        SlotMap {
            slots: [slots(&trace.writes[C]), slots(&trace.writes[G])],
            diagonal: slots(&diagonal),
            entries,
        }
    }

    /// Unknown count of the traced circuit.
    pub(crate) fn dim(&self) -> usize {
        self.diagonal.len()
    }

    /// A zero CSR matrix on the pattern, explicit zeros kept.
    pub(crate) fn csr(&self) -> crate::Result<CsrMatrix> {
        let (n, ones) = (self.dim(), self.entries.iter().map(|&(i, j)| (i, j, 1.0)));
        let mut csr = CsrMatrix::from_triplets(n, n, &ones.collect::<Vec<_>>())?;
        csr.values_mut().fill(0.0);
        Ok(csr)
    }

    /// True when `trace` writes exactly the positions these slots were
    /// resolved from, in order, on as many unknowns: the slots, and any
    /// factor analyzed on their pattern, serve its circuit as they are.
    pub(crate) fn matches(&self, trace: &Trace) -> bool {
        let same = |slots: &[usize], writes: &[(usize, usize)]| {
            slots.len() == writes.len()
                && (slots.iter().zip(writes)).all(|(&k, p)| self.entries.get(k) == Some(p))
        };
        trace.q.len() == self.dim() && (0..2).all(|k| same(&self.slots[k], &trace.writes[k]))
    }
}

/// `q`, `f` and `G` of one state in a [`Layout`]; a transient holds its
/// constant `C` apart, once per run.
#[derive(Debug)]
pub(crate) struct StateStamps {
    pub(crate) q: Vector,
    pub(crate) f: Vector,
    pub(crate) g: Vec<f64>,
}

impl StateStamps {
    pub(crate) fn new(n: usize, layout: &Layout) -> Self {
        let (q, f, g) = (Vector::zeros(n), Vector::zeros(n), vec![0.0; layout.len()]);
        StateStamps { q, f, g }
    }

    /// Zeroes these stamps and returns a stamper over them, adding `C`
    /// into `c` when given. Without `with_g` the stamper drops the `G`
    /// writes, and `G` keeps its old values: an assembly whose Jacobian
    /// nothing factors (a chord iteration's) stamps only `q` and `f`.
    // lint: hot-fn
    pub(crate) fn stamper<'a>(
        &'a mut self,
        layout: &'a Layout,
        c: Option<&'a mut [f64]>,
        with_g: bool,
    ) -> Stamper<'a> {
        self.q.fill_zero();
        self.f.fill_zero();
        let g = with_g.then(|| {
            self.g.fill(0.0);
            &mut self.g[..]
        });
        Stamper::with_slots(layout, &mut self.q, &mut self.f, c, g)
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

/// Where a stamper's writes land: row-major `n×n`; the sparse slots, with
/// the count of writes of each kind so far; or nowhere, recording them.
#[derive(Debug)]
enum Slots<'a> {
    Dense(usize),
    Sparse(&'a SlotMap, [usize; 2]),
    Record(&'a mut [Vec<(usize, usize)>; 2]),
}

impl Slots<'_> {
    /// The slot of the next write of `kind` ([`C`] or [`G`]) at `(i, j)`;
    /// `None` while recording.
    #[inline]
    fn next(&mut self, kind: usize, i: usize, j: usize) -> Option<usize> {
        match self {
            Slots::Dense(n) => {
                debug_assert!(i < *n && j < *n, "stamp ({i}, {j}) outside {n}×{n}");
                Some(i * *n + j)
            }
            Slots::Sparse(map, counts) => {
                let k = map.slots[kind][counts[kind]];
                counts[kind] += 1;
                debug_assert_eq!(map.entries[k], (i, j), "a stamp missed its slot");
                Some(k)
            }
            Slots::Record(writes) => {
                // lint: allow(hot-path-certify, reason = "record mode only: a recording runs once per solver setup or per-run slot check, never in a Newton assembly")
                writes[kind].push((i, j));
                None
            }
        }
    }
}

/// Mutable stamping interface handed to devices.
///
/// All methods accept `Option<usize>` equation/variable indices so that
/// ground connections (`None`) are silently dropped, exactly as in
/// textbook MNA stamping.
///
/// Device stamping is *order-preserving*: which `(eq, var)` positions a
/// device writes, and in what order, depends only on the topology, never
/// on the evaluation point. The sparse layout's slots rely on it.
///
/// `C` and `G` are each optional: a stamper without one drops its writes,
/// on either layout, so devices stamp the same code path whatever the
/// caller needs.
#[derive(Debug)]
pub struct Stamper<'a> {
    q: &'a mut [f64],
    f: &'a mut [f64],
    /// `None` drops `C` writes: a transient holds its constant `C` apart.
    c: Option<&'a mut [f64]>,
    /// `None` drops `G` writes: a chord iteration factors no Jacobian.
    g: Option<&'a mut [f64]>,
    slots: Slots<'a>,
}

impl<'a> Stamper<'a> {
    /// Wraps a dense workspace for stamping.
    pub fn new(stamps: &'a mut Stamps) -> Self {
        Stamper {
            slots: Slots::Dense(stamps.dim()),
            q: stamps.q.as_mut_slice(),
            f: stamps.f.as_mut_slice(),
            c: Some(stamps.c.as_mut_slice()),
            g: Some(stamps.g.as_mut_slice()),
        }
    }

    /// Adds into value arrays in `layout`, `C` only when given.
    // lint: hot-fn
    pub(crate) fn in_layout(
        layout: &'a Layout,
        q: &'a mut Vector,
        f: &'a mut Vector,
        c: Option<&'a mut [f64]>,
        g: &'a mut [f64],
    ) -> Self {
        Stamper::with_slots(layout, q, f, c, Some(g))
    }

    /// Adds into value arrays in `layout`, `C` and `G` only when given.
    // lint: hot-fn
    fn with_slots(
        layout: &'a Layout,
        q: &'a mut Vector,
        f: &'a mut Vector,
        c: Option<&'a mut [f64]>,
        g: Option<&'a mut [f64]>,
    ) -> Self {
        let slots = match layout {
            Layout::Dense(n) => Slots::Dense(*n),
            Layout::Sparse(map) => Slots::Sparse(map, [0, 0]),
        };
        let (q, f) = (q.as_mut_slice(), f.as_mut_slice());
        Stamper { q, f, c, g, slots }
    }

    /// Whether this stamper keeps `G` writes. A device may skip the
    /// derivatives it would stamp there when it does not (a chord
    /// iteration's assembly); a recording stamper keeps them.
    #[inline]
    pub fn keeps_g(&self) -> bool {
        self.g.is_some()
    }

    // The adders below are `#[inline]`: every device's `stamp` calls them
    // once per matrix entry on every Newton iteration, and without the
    // hint whether they inline depends on which codegen unit rustc puts
    // the devices in.

    /// Adds `value` to the charge vector at equation `eq`.
    #[inline]
    pub fn add_q(&mut self, eq: Option<usize>, value: f64) {
        if let Some(i) = eq {
            self.q[i] += value;
        }
    }

    /// Adds `value` to the residual at equation `eq`.
    #[inline]
    pub fn add_f(&mut self, eq: Option<usize>, value: f64) {
        if let Some(i) = eq {
            self.f[i] += value;
        }
    }

    /// Adds `value` to `C[eq, var]`.
    #[inline]
    pub fn add_c(&mut self, eq: Option<usize>, var: Option<usize>, value: f64) {
        if let (Some(c), Some(i), Some(j)) = (self.c.as_deref_mut(), eq, var) {
            if let Some(k) = self.slots.next(C, i, j) {
                c[k] += value;
            }
        }
    }

    /// Adds `value` to `G[eq, var]`.
    #[inline]
    pub fn add_g(&mut self, eq: Option<usize>, var: Option<usize>, value: f64) {
        if let (Some(g), Some(i), Some(j)) = (self.g.as_deref_mut(), eq, var) {
            if let Some(k) = self.slots.next(G, i, j) {
                g[k] += value;
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

    /// The stamps every test below replays: a conductance, a capacitor to
    /// ground, a grounded `G` write (dropped) and a residual write (not
    /// Jacobian structure).
    fn stamp_three(st: &mut Stamper<'_>, scale: f64) {
        st.stamp_conductance(Some(0), Some(1), 2.0 * scale);
        st.add_c(Some(2), Some(2), 1e-15 * scale);
        st.add_g(None, Some(1), 1.0);
        st.add_f(Some(2), scale);
        st.add_g(Some(1), Some(0), 0.5 * scale);
    }

    #[test]
    fn recording_yields_the_pattern_and_one_slot_per_write() {
        let mut trace = Trace::default();
        stamp_three(&mut trace.recorder(3), 1.0);
        assert_eq!(
            trace.writes[G],
            vec![(0, 0), (1, 1), (0, 1), (1, 0), (1, 0)]
        );
        assert_eq!(trace.writes[C], vec![(2, 2)]);
        let map = SlotMap::resolve(3, &trace);
        assert_eq!(map.entries, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]);
        // Two writes to (1, 0) share one slot; the diagonals are present.
        assert_eq!(map.slots, [vec![4], vec![0, 3, 1, 2, 2]]);
        assert_eq!(map.diagonal, vec![0, 3, 4]);
        assert!(map.matches(&trace));

        let mut other = Trace::default();
        let mut st = other.recorder(3);
        st.stamp_conductance(Some(0), Some(1), 2.0);
        st.add_c(Some(2), Some(2), 1e-15);
        assert!(!map.matches(&other), "a missing write");
        stamp_three(&mut other.recorder(4), 1.0);
        assert!(!map.matches(&other), "another unknown count");
    }

    #[test]
    fn sparse_slots_hold_the_dense_sums() {
        let mut trace = Trace::default();
        stamp_three(&mut trace.recorder(3), 1.0);
        let map = SlotMap::resolve(3, &trace);
        let entries = map.entries.to_vec();
        let layout = Layout::Sparse(map);
        let (mut q, mut f) = (Vector::zeros(3), Vector::zeros(3));
        let (mut c, mut g) = (vec![0.0; layout.len()], vec![0.0; layout.len()]);
        let mut dense = Stamps::new(3);
        for scale in [1.0, 0.3] {
            stamp_three(
                &mut Stamper::in_layout(&layout, &mut q, &mut f, Some(&mut c), &mut g),
                scale,
            );
            stamp_three(&mut Stamper::new(&mut dense), scale);
        }
        for (k, &(i, j)) in entries.iter().enumerate() {
            assert_eq!(c[k].to_bits(), dense.c[(i, j)].to_bits(), "C{i}{j}");
            assert_eq!(g[k].to_bits(), dense.g[(i, j)].to_bits(), "G{i}{j}");
        }
        assert_eq!(f.as_slice(), dense.f.as_slice());
    }

    #[test]
    fn slot_recheck_accepts_same_topology_and_rejects_other() {
        use crate::devices::{Capacitor, Resistor};
        use crate::Circuit;
        // A chain of `stages` RC sections; the last capacitor hangs on
        // node `cap_at` instead of the chain's end when given.
        let chain = |stages: usize, cap_at: Option<usize>| {
            let mut c = Circuit::new();
            let mut prev = c.node("in");
            c.add(Resistor::new("Rin", prev, Circuit::GROUND, 1e3));
            for s in 0..stages {
                let node = c.node(&format!("n{s}"));
                c.add(Resistor::new(&format!("R{s}"), prev, node, 1e3));
                let at = match cap_at {
                    Some(k) if s + 1 == stages => c.node(&format!("n{k}")),
                    _ => node,
                };
                c.add(Capacitor::new(&format!("C{s}"), at, Circuit::GROUND, 1e-12));
                prev = node;
            }
            c
        };
        let params = Params::default();
        let circuit = chain(6, None);
        let map = circuit.slot_map(&params);
        let mut trace = Trace::default();
        let retrace = |c: &Circuit, trace: &mut Trace| {
            let n = c.unknown_count();
            c.stamp(&mut trace.recorder(n), &Vector::zeros(n), 0.0, &params, 1.0);
        };
        retrace(&circuit, &mut trace);
        assert!(map.matches(&trace));
        retrace(&chain(7, None), &mut trace);
        assert!(!map.matches(&trace), "another unknown count");
        retrace(&chain(6, Some(2)), &mut trace);
        assert!(!map.matches(&trace), "one capacitor moved");
    }

    /// `C·v` over the nonzero-slot list is bitwise the dense product on
    /// both layouts, with `-0.0` entries in `v` and rows of `C` that hold
    /// no nonzero (the source's branch row).
    #[test]
    fn nonzero_slot_products_are_bitwise_the_dense_product() {
        use crate::devices::{Capacitor, Resistor, VoltageSource};
        use crate::waveform::Waveform;
        use crate::Circuit;
        let mut c = Circuit::new();
        let mut prev = c.node("in");
        c.add(VoltageSource::new(
            "V1",
            prev,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        for s in 0..9 {
            let node = c.node(&format!("n{s}"));
            c.add(Resistor::new(&format!("R{s}"), prev, node, 1e3));
            let (to, cap) = match s % 3 {
                0 => (Circuit::GROUND, 1e-12),
                _ => (prev, 3e-13 * s as f64),
            };
            c.add(Capacitor::new(&format!("C{s}"), node, to, cap));
            prev = node;
        }
        let params = Params::default();
        let n = c.unknown_count();
        let x = Vector::from_slice(&(0..n).map(|i| 0.1 * i as f64).collect::<Vec<_>>());
        let dense = c.assemble(&x, 1e-9, &params, 1.0);
        let (c_csr, _) = c.assemble_csr(&x, 1e-9, &params).unwrap();
        let mut list = NonzeroSlots::default();
        let mut out = Vector::zeros(n);
        for v in [
            (0..n).map(|i| (i as f64).sin()).collect::<Vec<_>>(),
            (0..n).map(|i| [-0.0, 0.0, 1.5, -2.0][i % 4]).collect(),
        ] {
            let v = Vector::from_slice(&v);
            let want: Vec<u64> = dense.c.mul_vec(&v).iter().map(|x| x.to_bits()).collect();
            let sparse = Layout::Sparse(c.slot_map(&params));
            for (layout, a) in [
                (&Layout::Dense(n), dense.c.as_slice()),
                (&sparse, c_csr.values()),
            ] {
                list.list(layout, a);
                list.mul_into(a, &v, &mut out);
                let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{layout:?}");
            }
        }
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
