//! Circuit lowering for the batched engine.
//!
//! [`CompiledCircuit::compile`] lowers a [`Circuit`]'s `dyn Device` list
//! into a flat `Vec<CompiledDevice>` with every unknown index resolved up
//! front. The per-iteration assembly then runs over plain value data on
//! flat `&[f64]` slices — no virtual dispatch, no `Stamper` indirection —
//! while replicating the scalar stamp sequences *operation for
//! operation*, so batched lanes stay bitwise identical to
//! [`crate::transient::TransientAnalysis`].
//!
//! Devices opt in by returning a [`DeviceSpec`] from
//! [`crate::devices::Device::batch_spec`]; any device returning `None`
//! makes the whole circuit uncompilable and the caller falls back to the
//! scalar path.

// lint: soa-module
use shc_linalg::{lane_dispatch, multiversioned};

use crate::circuit::Circuit;
use crate::devices::Mosfet;
use crate::waveform::{Param, Params, Waveform};
use crate::Node;

/// Value-level description of one device, as handed over by
/// [`crate::devices::Device::batch_spec`].
///
/// Node handles are resolved to unknown indices at compile time; the
/// variants here carry the raw [`Node`]s exactly as the device stores
/// them.
#[derive(Debug, Clone)]
pub enum DeviceSpec {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Resistance in ohms.
        resistance: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Capacitance in farads.
        capacitance: f64,
    },
    /// Independent voltage source with one branch-current unknown.
    VoltageSource {
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// Branch slot assigned by [`Circuit::add`].
        branch: usize,
        /// Source waveform.
        waveform: Waveform,
    },
    /// MOS transistor; the full device is carried so the batched kernel
    /// evaluates [`Mosfet::drain_current`] itself — identical arithmetic
    /// by construction.
    Mosfet(Mosfet),
}

/// One lowered device with pre-resolved unknown indices.
#[derive(Debug, Clone)]
enum CompiledDevice {
    Resistor {
        a: Option<usize>,
        b: Option<usize>,
        resistance: f64,
    },
    Capacitor {
        a: Option<usize>,
        b: Option<usize>,
        capacitance: f64,
    },
    VoltageSource {
        p: Option<usize>,
        n: Option<usize>,
        /// Global unknown index of the branch equation (always a real
        /// unknown: `node_offset + branch`).
        br: usize,
        waveform: Waveform,
    },
    Mosfet {
        d: Option<usize>,
        g: Option<usize>,
        s: Option<usize>,
        device: Mosfet,
        cgs: f64,
        cgd: f64,
        cdb: f64,
        csb: f64,
    },
}

/// A [`Circuit`] lowered for batched evaluation.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    devices: Vec<CompiledDevice>,
    n: usize,
}

#[inline]
fn volt(x: &[f64], node: Option<usize>) -> f64 {
    match node {
        Some(i) => x[i],
        None => 0.0,
    }
}

#[inline]
fn stamp_into(v: &mut [f64], eq: Option<usize>, value: f64) {
    if let Some(i) = eq {
        v[i] += value;
    }
}

#[inline]
fn add_mat(mat: &mut [f64], n: usize, eq: Option<usize>, var: Option<usize>, value: f64) {
    if let (Some(i), Some(j)) = (eq, var) {
        mat[i * n + j] += value;
    }
}

/// The classic 4-entry two-terminal pattern, in [`crate::stamp::Stamper`]
/// order: `(a,a) (b,b) (a,b) (b,a)`.
#[inline]
fn add_pair(mat: &mut [f64], n: usize, a: Option<usize>, b: Option<usize>, value: f64) {
    add_mat(mat, n, a, a, value);
    add_mat(mat, n, b, b, value);
    add_mat(mat, n, a, b, -value);
    add_mat(mat, n, b, a, -value);
}

impl CompiledCircuit {
    /// Lowers `circuit`, or returns `None` if any device lacks a
    /// [`DeviceSpec`] (the caller falls back to the scalar path).
    pub fn compile(circuit: &Circuit) -> Option<CompiledCircuit> {
        let node_offset = circuit.node_count();
        let mut devices = Vec::with_capacity(circuit.unknown_count());
        for device in circuit.devices() {
            let spec = device.batch_spec()?;
            devices.push(match spec {
                DeviceSpec::Resistor { a, b, resistance } => CompiledDevice::Resistor {
                    a: a.unknown(),
                    b: b.unknown(),
                    resistance,
                },
                DeviceSpec::Capacitor { a, b, capacitance } => CompiledDevice::Capacitor {
                    a: a.unknown(),
                    b: b.unknown(),
                    capacitance,
                },
                DeviceSpec::VoltageSource {
                    p,
                    n,
                    branch,
                    waveform,
                } => {
                    debug_assert_ne!(branch, usize::MAX, "voltage source outside a circuit");
                    CompiledDevice::VoltageSource {
                        p: p.unknown(),
                        n: n.unknown(),
                        br: node_offset + branch,
                        waveform,
                    }
                }
                DeviceSpec::Mosfet(device) => {
                    let (d, g, s) = device.terminals();
                    let (cgs, cgd, cdb, csb) = device.caps();
                    CompiledDevice::Mosfet {
                        d: d.unknown(),
                        g: g.unknown(),
                        s: s.unknown(),
                        device,
                        cgs,
                        cgd,
                        cdb,
                        csb,
                    }
                }
            });
        }
        Some(CompiledCircuit {
            devices,
            n: circuit.unknown_count(),
        })
    }

    /// System dimension (number of unknowns).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of lowered devices (work metric for profiling).
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Assembles `q`, `f`, `C`, `G` at `(x, t)`, replicating
    /// [`Circuit::assemble_into`] with `source_scale = 1.0`: containers
    /// are zeroed, then devices stamp in insertion order with the exact
    /// scalar operation sequences.
    ///
    /// All slices are length `n` (vectors) / `n²` (row-major matrices).
    // lint: hot-fn
    // effects: pure
    // The four containers are deliberately separate flat slices (the
    // engine's SoA layout), not a struct: collapsing them would force a
    // borrow-splitting wrapper at every call site.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        &self,
        x: &[f64],
        t: f64,
        params: &Params,
        q: &mut [f64],
        f: &mut [f64],
        c: &mut [f64],
        g: &mut [f64],
    ) {
        let n = self.n;
        q.fill(0.0);
        f.fill(0.0);
        c.fill(0.0);
        g.fill(0.0);
        for device in &self.devices {
            match device {
                CompiledDevice::Resistor { a, b, resistance } => {
                    let cond = 1.0 / resistance;
                    let v = volt(x, *a) - volt(x, *b);
                    let i = cond * v;
                    stamp_into(f, *a, i);
                    stamp_into(f, *b, -i);
                    add_pair(g, n, *a, *b, cond);
                }
                CompiledDevice::Capacitor { a, b, capacitance } => {
                    let v = volt(x, *a) - volt(x, *b);
                    let charge = capacitance * v;
                    stamp_into(q, *a, charge);
                    stamp_into(q, *b, -charge);
                    add_pair(c, n, *a, *b, *capacitance);
                }
                CompiledDevice::VoltageSource {
                    p,
                    n: neg,
                    br,
                    waveform,
                } => {
                    let br_eq = Some(*br);
                    let i = x[*br];
                    let v = waveform.value(t, params);
                    stamp_into(f, *p, i);
                    stamp_into(f, *neg, -i);
                    add_mat(g, n, *p, br_eq, 1.0);
                    add_mat(g, n, *neg, br_eq, -1.0);
                    stamp_into(f, br_eq, volt(x, *p) - volt(x, *neg) - v);
                    add_mat(g, n, br_eq, *p, 1.0);
                    add_mat(g, n, br_eq, *neg, -1.0);
                }
                CompiledDevice::Mosfet {
                    d,
                    g: gate,
                    s,
                    device,
                    cgs,
                    cgd,
                    cdb,
                    csb,
                } => {
                    let vd = volt(x, *d);
                    let vg = volt(x, *gate);
                    let vs = volt(x, *s);
                    let (id, gm, gds, gs_) = device.drain_current(vd, vg, vs);
                    stamp_into(f, *d, id);
                    stamp_into(f, *s, -id);
                    add_mat(g, n, *d, *gate, gm);
                    add_mat(g, n, *d, *d, gds);
                    add_mat(g, n, *d, *s, gs_);
                    add_mat(g, n, *s, *gate, -gm);
                    add_mat(g, n, *s, *d, -gds);
                    add_mat(g, n, *s, *s, -gs_);
                    let qgs = cgs * (vg - vs);
                    stamp_into(q, *gate, qgs);
                    stamp_into(q, *s, -qgs);
                    add_pair(c, n, *gate, *s, *cgs);
                    let qgd = cgd * (vg - vd);
                    stamp_into(q, *gate, qgd);
                    stamp_into(q, *d, -qgd);
                    add_pair(c, n, *gate, *d, *cgd);
                    stamp_into(q, *d, cdb * vd);
                    add_pair(c, n, *d, None, *cdb);
                    stamp_into(q, *s, csb * vs);
                    add_pair(c, n, *s, None, *csb);
                }
            }
        }
    }

    /// Assembles `∂f/∂p` at `t` into `dfdp` (length `n`), replicating
    /// [`Circuit::assemble_dfdp_into`] with `source_scale = 1.0`: only
    /// voltage-source branch equations depend on the skew parameters.
    // lint: hot-fn
    // effects: pure
    pub fn assemble_dfdp(&self, t: f64, params: &Params, param: Param, dfdp: &mut [f64]) {
        dfdp.fill(0.0);
        for device in &self.devices {
            if let CompiledDevice::VoltageSource { br, waveform, .. } = device {
                let dv = waveform.derivative(t, params, param);
                if dv != 0.0 {
                    dfdp[*br] -= dv;
                }
            }
        }
    }
}

/// Per-lane MOSFET constants plus resolved buffer offsets for one
/// transistor slot of a [`SoaCircuit`], in stamp order.
///
/// The scalar arithmetic ([`Mosfet::drain_current`] and its stamp
/// sequence) is replicated in the assembly kernel from these exact
/// values; the `v_ds < 0` drain/source exchange is spelled as selects so
/// every lane runs the same instruction stream.
#[derive(Debug, Clone)]
struct SoaMosfet {
    /// Vector-row offsets (pre-multiplied by the lane count) of the
    /// drain/gate/source rows; ground resolves to the spill row.
    rd: usize,
    rg: usize,
    rs: usize,
    /// `G` cell offsets for the six channel-conductance entries, in the
    /// scalar stamp order `(d,g) (d,d) (d,s) (s,g) (s,d) (s,s)`.
    gdg: usize,
    gdd: usize,
    gds: usize,
    gsg: usize,
    gsd: usize,
    gss: usize,
    /// `C` cell offsets of the four capacitance pairs (gate-source,
    /// gate-drain, drain-body, source-body), each in `add_pair` order.
    pgs: [usize; 4],
    pgd: [usize; 4],
    pdb: [usize; 4],
    psb: [usize; 4],
    /// Polarity reflection sign, shared by every lane (a structural merge
    /// requirement).
    sign: f64,
    // Per-lane model constants, one slot per lane.
    /// soa: per-lane, descriptor
    vt0: Vec<f64>,
    /// soa: per-lane, descriptor
    eps_c: Vec<f64>,
    /// soa: per-lane, descriptor
    eps_s: Vec<f64>,
    /// soa: per-lane, descriptor
    lambda: Vec<f64>,
    /// soa: per-lane, descriptor
    beta: Vec<f64>,
    /// soa: per-lane, descriptor
    cgs: Vec<f64>,
    /// soa: per-lane, descriptor
    cgd: Vec<f64>,
    /// soa: per-lane, descriptor
    cdb: Vec<f64>,
    /// soa: per-lane, descriptor
    csb: Vec<f64>,
}

/// One device slot of a [`SoaCircuit`]: resolved buffer offsets shared by
/// every lane (pre-multiplied by the lane count) plus per-lane values.
///
/// Ground terminals resolve to the *spill* row/cell (see
/// [`SoaCircuit::assemble_all`]), so every stamp in the assembly kernel
/// is an unconditional read-modify-write — no per-lane branching, which
/// is what lets the lane loops vectorize.
///
/// The MOSFET variant dwarfs the others (nine per-lane value vectors);
/// boxing it would put a pointer chase in the hottest assembly loop for
/// a `Vec` that holds tens of devices, not thousands.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum SoaDevice {
    Resistor {
        ra: usize,
        rb: usize,
        /// `G` pair cells in `add_pair` order `(a,a) (b,b) (a,b) (b,a)`.
        gp: [usize; 4],
        /// Per-lane conductance `1/R`, precomputed exactly as the scalar
        /// assembly computes it.
        /// soa: per-lane, descriptor
        cond: Vec<f64>,
    },
    Capacitor {
        ra: usize,
        rb: usize,
        /// `C` pair cells in `add_pair` order.
        cp: [usize; 4],
        /// soa: per-lane, descriptor
        cap: Vec<f64>,
    },
    VoltageSource {
        rp: usize,
        rn: usize,
        /// Branch-equation row offset (always a real unknown).
        rbr: usize,
        gpb: usize,
        gnb: usize,
        gbp: usize,
        gbn: usize,
        /// Per-lane waveforms, evaluated lane-scalar at each lane's time.
        /// soa: per-lane, descriptor
        waveforms: Vec<Waveform>,
    },
    Mosfet(SoaMosfet),
}

/// `B` structurally identical [`CompiledCircuit`]s merged into one
/// structure-of-arrays evaluator.
///
/// Where [`CompiledCircuit::assemble`] fills one lane's `n`-vectors and
/// `n×n` matrices, [`SoaCircuit::assemble_all`] fills *element-major*
/// blocks (`buf[element·lanes + lane]`) for every lane in one pass,
/// device-major with the lane loop innermost — so the per-device
/// arithmetic vectorizes across lanes while each lane still sees the
/// exact scalar operation sequence on its own values. Lane results are
/// bitwise identical to per-lane scalar assembly by construction.
///
/// Structural identity means: equal dimension, equal device-variant
/// sequence, equal resolved node indices per slot, and equal MOSFET
/// polarity per slot. Parameter *values* (resistances, capacitances,
/// geometries, waveforms) are free to differ per lane — they become the
/// per-lane SoA arrays.
#[derive(Debug, Clone)]
pub struct SoaCircuit {
    devices: Vec<SoaDevice>,
    n: usize,
    lanes: usize,
}

// SAFETY: expands to `#[target_feature]` clones; each wide clone is
// called only after its `is_x86_feature_detected!` check passes.
multiversioned! {
    /// The SoA assembly kernel: zero all four blocks, then stamp every
    /// device slot across all lanes. Free function so [`multiversioned!`]
    /// can clone it under wider target features.
    fn assemble_kernel(
        devices: &[SoaDevice],
        x: &[f64],
        t: &[f64],
        params: &[Params],
        q: &mut [f64],
        f: &mut [f64],
        c: &mut [f64],
        g: &mut [f64],
        b: usize,
    ) {
        lane_dispatch!(b, assemble_impl(devices, x, t, params, q, f, c, g));
    }
}

// lint: soa-kernel
/// [`assemble_kernel`]'s body, called with a literal lane count for the
/// common widths (see [`lane_dispatch!`]) under each feature level.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn assemble_impl(
    devices: &[SoaDevice],
    x: &[f64],
    t: &[f64],
    params: &[Params],
    q: &mut [f64],
    f: &mut [f64],
    c: &mut [f64],
    g: &mut [f64],
    b: usize,
) {
    {
        q.fill(0.0);
        f.fill(0.0);
        c.fill(0.0);
        g.fill(0.0);
        for device in devices {
            match device {
                SoaDevice::Resistor { ra, rb, gp, cond } => {
                    let (ra, rb) = (*ra, *rb);
                    for l in 0..b {
                        let cd = cond[l];
                        let v = x[ra + l] - x[rb + l];
                        let i = cd * v;
                        f[ra + l] += i;
                        f[rb + l] += -i;
                        g[gp[0] + l] += cd;
                        g[gp[1] + l] += cd;
                        g[gp[2] + l] += -cd;
                        g[gp[3] + l] += -cd;
                    }
                }
                SoaDevice::Capacitor { ra, rb, cp, cap } => {
                    let (ra, rb) = (*ra, *rb);
                    for l in 0..b {
                        let cv = cap[l];
                        let v = x[ra + l] - x[rb + l];
                        let charge = cv * v;
                        q[ra + l] += charge;
                        q[rb + l] += -charge;
                        c[cp[0] + l] += cv;
                        c[cp[1] + l] += cv;
                        c[cp[2] + l] += -cv;
                        c[cp[3] + l] += -cv;
                    }
                }
                SoaDevice::VoltageSource {
                    rp,
                    rn,
                    rbr,
                    gpb,
                    gnb,
                    gbp,
                    gbn,
                    waveforms,
                } => {
                    let (rp, rn, rbr) = (*rp, *rn, *rbr);
                    // Lane-scalar: waveform evaluation branches per shape,
                    // and sources are a handful of devices per circuit.
                    for l in 0..b {
                        let i = x[rbr + l];
                        let v = waveforms[l].value(t[l], &params[l]);
                        f[rp + l] += i;
                        f[rn + l] += -i;
                        g[*gpb + l] += 1.0;
                        g[*gnb + l] += -1.0;
                        f[rbr + l] += x[rp + l] - x[rn + l] - v;
                        g[*gbp + l] += 1.0;
                        g[*gbn + l] += -1.0;
                    }
                }
                SoaDevice::Mosfet(mos) => {
                    let (rd, rg, rs) = (mos.rd, mos.rg, mos.rs);
                    let s = mos.sign;
                    for l in 0..b {
                        let vd = x[rd + l];
                        let vg = x[rg + l];
                        let vs = x[rs + l];
                        // `Mosfet::drain_current`: reflect to NMOS voltages.
                        let vgs = s * (vg - vs);
                        let vds = s * (vd - vs);
                        // `ids_symmetric` with the drain/source exchange
                        // spelled as selects: one forward evaluation on the
                        // selected voltages, outputs mapped back by the
                        // exchange rules — the chosen lane values round
                        // exactly as the scalar branch would.
                        let fwd = vds >= 0.0;
                        let vgs_e = if fwd { vgs } else { vgs - vds };
                        let vds_e = if fwd { vds } else { -vds };
                        // `ids_forward_raw(vgs_e, vds_e)`.
                        let xc = vgs_e - mos.vt0[l];
                        let ec = mos.eps_c[l];
                        let rc = (xc * xc + ec * ec).sqrt();
                        let vov = 0.5 * (xc + rc);
                        let dvov = 0.5 * (1.0 + xc / rc);
                        let es = mos.eps_s[l];
                        let x1 = vds_e - vov;
                        let r1 = (x1 * x1 + es * es).sqrt();
                        let clip = 0.5 * (x1 + r1);
                        let dclip = 0.5 * (1.0 + x1 / r1);
                        let vdse = vds_e - clip;
                        let lam = mos.lambda[l];
                        let bet = mos.beta[l];
                        let klm = 1.0 + lam * vds_e;
                        let fcur = (vov - 0.5 * vdse) * vdse;
                        let df_dvov = vdse + (vov - vdse) * dclip;
                        let df_dvds = (vov - vdse) * (1.0 - dclip);
                        let id1 = bet * klm * fcur;
                        let gm1 = bet * klm * df_dvov * dvov;
                        let gds1 = bet * (lam * fcur + klm * df_dvds);
                        // `ids_forward_raw(vgs_e, 0.0)` — the offset
                        // correction. Its cutoff softplus re-evaluates to
                        // the same `vov`/`dvov` bits, so those are reused.
                        let x0 = 0.0 - vov;
                        let r0 = (x0 * x0 + es * es).sqrt();
                        let clip0 = 0.5 * (x0 + r0);
                        let dclip0 = 0.5 * (1.0 + x0 / r0);
                        let vdse0 = 0.0 - clip0;
                        let klm0 = 1.0 + lam * 0.0;
                        let fcur0 = (vov - 0.5 * vdse0) * vdse0;
                        let df_dvov0 = vdse0 + (vov - vdse0) * dclip0;
                        let id0 = bet * klm0 * fcur0;
                        let gm0 = bet * klm0 * df_dvov0 * dvov;
                        let i_f = id1 - id0;
                        let gm_f = gm1 - gm0;
                        let gds_f = gds1;
                        // Exchange mapping: `(−i, −gm, gm+gds)` when v_ds
                        // was negative.
                        let i_sym = if fwd { i_f } else { -i_f };
                        let gm = if fwd { gm_f } else { -gm_f };
                        let gds = if fwd { gds_f } else { gm_f + gds_f };
                        // Reflect back to device polarity.
                        let id = s * i_sym;
                        let gs_ = -(gm + gds);
                        f[rd + l] += id;
                        f[rs + l] += -id;
                        g[mos.gdg + l] += gm;
                        g[mos.gdd + l] += gds;
                        g[mos.gds + l] += gs_;
                        g[mos.gsg + l] += -gm;
                        g[mos.gsd + l] += -gds;
                        g[mos.gss + l] += -gs_;
                        let cgs = mos.cgs[l];
                        let qgs = cgs * (vg - vs);
                        q[rg + l] += qgs;
                        q[rs + l] += -qgs;
                        c[mos.pgs[0] + l] += cgs;
                        c[mos.pgs[1] + l] += cgs;
                        c[mos.pgs[2] + l] += -cgs;
                        c[mos.pgs[3] + l] += -cgs;
                        let cgd = mos.cgd[l];
                        let qgd = cgd * (vg - vd);
                        q[rg + l] += qgd;
                        q[rd + l] += -qgd;
                        c[mos.pgd[0] + l] += cgd;
                        c[mos.pgd[1] + l] += cgd;
                        c[mos.pgd[2] + l] += -cgd;
                        c[mos.pgd[3] + l] += -cgd;
                        let cdb = mos.cdb[l];
                        q[rd + l] += cdb * vd;
                        c[mos.pdb[0] + l] += cdb;
                        c[mos.pdb[1] + l] += cdb;
                        c[mos.pdb[2] + l] += -cdb;
                        c[mos.pdb[3] + l] += -cdb;
                        let csb = mos.csb[l];
                        q[rs + l] += csb * vs;
                        c[mos.psb[0] + l] += csb;
                        c[mos.psb[1] + l] += csb;
                        c[mos.psb[2] + l] += -csb;
                        c[mos.psb[3] + l] += -csb;
                    }
                }
            }
        }
    }
}

impl SoaCircuit {
    /// Merges structurally identical compiled lanes, or returns `None` on
    /// any structural mismatch (dimension, device sequence, node indices,
    /// or MOSFET polarity) — the caller then splits the batch.
    pub fn merge(compiled: &[CompiledCircuit]) -> Option<SoaCircuit> {
        let first = compiled.first()?;
        let (n, b) = (first.n, compiled.len());
        if compiled
            .iter()
            .any(|c| c.n != n || c.devices.len() != first.devices.len())
        {
            return None;
        }
        // Ground rows/cells resolve to the spill slots at the end of each
        // buffer (see `assemble_all`); offsets are pre-multiplied by the
        // lane count so the kernel indexes `offset + lane` directly.
        let vrow = |node: Option<usize>| node.unwrap_or(n) * b;
        let cell = |eq: Option<usize>, var: Option<usize>| match (eq, var) {
            (Some(i), Some(j)) => (i * n + j) * b,
            _ => n * n * b,
        };
        let pair =
            |a: Option<usize>, p: Option<usize>| [cell(a, a), cell(p, p), cell(a, p), cell(p, a)];
        let mut devices = Vec::with_capacity(first.devices.len());
        for slot in 0..first.devices.len() {
            devices.push(match &first.devices[slot] {
                CompiledDevice::Resistor { a, b: bn, .. } => {
                    let mut cond = Vec::with_capacity(b);
                    for lane in compiled {
                        let CompiledDevice::Resistor {
                            a: la,
                            b: lb,
                            resistance,
                        } = &lane.devices[slot]
                        else {
                            return None;
                        };
                        if (la, lb) != (a, bn) {
                            return None;
                        }
                        cond.push(1.0 / resistance);
                    }
                    SoaDevice::Resistor {
                        ra: vrow(*a),
                        rb: vrow(*bn),
                        gp: pair(*a, *bn),
                        cond,
                    }
                }
                CompiledDevice::Capacitor { a, b: bn, .. } => {
                    let mut cap = Vec::with_capacity(b);
                    for lane in compiled {
                        let CompiledDevice::Capacitor {
                            a: la,
                            b: lb,
                            capacitance,
                        } = &lane.devices[slot]
                        else {
                            return None;
                        };
                        if (la, lb) != (a, bn) {
                            return None;
                        }
                        cap.push(*capacitance);
                    }
                    SoaDevice::Capacitor {
                        ra: vrow(*a),
                        rb: vrow(*bn),
                        cp: pair(*a, *bn),
                        cap,
                    }
                }
                CompiledDevice::VoltageSource { p, n: neg, br, .. } => {
                    let mut waveforms = Vec::with_capacity(b);
                    for lane in compiled {
                        let CompiledDevice::VoltageSource {
                            p: lp,
                            n: ln,
                            br: lbr,
                            waveform,
                        } = &lane.devices[slot]
                        else {
                            return None;
                        };
                        if (lp, ln, lbr) != (p, neg, br) {
                            return None;
                        }
                        waveforms.push(waveform.clone());
                    }
                    let br_eq = Some(*br);
                    SoaDevice::VoltageSource {
                        rp: vrow(*p),
                        rn: vrow(*neg),
                        rbr: *br * b,
                        gpb: cell(*p, br_eq),
                        gnb: cell(*neg, br_eq),
                        gbp: cell(br_eq, *p),
                        gbn: cell(br_eq, *neg),
                        waveforms,
                    }
                }
                CompiledDevice::Mosfet {
                    d,
                    g,
                    s,
                    device: proto,
                    ..
                } => {
                    let polarity = proto.polarity();
                    let mut mos = SoaMosfet {
                        rd: vrow(*d),
                        rg: vrow(*g),
                        rs: vrow(*s),
                        gdg: cell(*d, *g),
                        gdd: cell(*d, *d),
                        gds: cell(*d, *s),
                        gsg: cell(*s, *g),
                        gsd: cell(*s, *d),
                        gss: cell(*s, *s),
                        pgs: pair(*g, *s),
                        pgd: pair(*g, *d),
                        pdb: pair(*d, None),
                        psb: pair(*s, None),
                        sign: polarity.sign(),
                        vt0: Vec::with_capacity(b),
                        eps_c: Vec::with_capacity(b),
                        eps_s: Vec::with_capacity(b),
                        lambda: Vec::with_capacity(b),
                        beta: Vec::with_capacity(b),
                        cgs: Vec::with_capacity(b),
                        cgd: Vec::with_capacity(b),
                        cdb: Vec::with_capacity(b),
                        csb: Vec::with_capacity(b),
                    };
                    for lane in compiled {
                        let CompiledDevice::Mosfet {
                            d: ld,
                            g: lg,
                            s: ls,
                            device,
                            cgs,
                            cgd,
                            cdb,
                            csb,
                        } = &lane.devices[slot]
                        else {
                            return None;
                        };
                        if (ld, lg, ls) != (d, g, s) || device.polarity() != polarity {
                            return None;
                        }
                        let (_, vt0, eps_c, eps_s, lambda, beta) = device.kernel_constants();
                        mos.vt0.push(vt0);
                        mos.eps_c.push(eps_c);
                        mos.eps_s.push(eps_s);
                        mos.lambda.push(lambda);
                        mos.beta.push(beta);
                        mos.cgs.push(*cgs);
                        mos.cgd.push(*cgd);
                        mos.cdb.push(*cdb);
                        mos.csb.push(*csb);
                    }
                    SoaDevice::Mosfet(mos)
                }
            });
        }
        Some(SoaCircuit {
            devices,
            n,
            lanes: b,
        })
    }

    /// System dimension (number of unknowns per lane).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of merged lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of device slots (work metric for profiling).
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Assembles `q`, `f`, `C`, `G` for every lane at its `(x, t, params)`
    /// in one element-major pass.
    ///
    /// Buffer layout contract (with `n = dim()`, `b = lanes()`):
    ///
    /// - `x`, `q`, `f` are `(n+1)·b`: `n` real rows followed by one
    ///   *spill* row. Ground terminals read voltage from / stamp current
    ///   into the spill row, making every stamp unconditional. The caller
    ///   must keep `x`'s spill row all `+0.0` (the ground potential); the
    ///   `q`/`f` spill rows come back as meaningless accumulation.
    /// - `c`, `g` are `(n²+1)·b`: `n²` row-major cells followed by one
    ///   spill cell absorbing all ground-involved matrix stamps.
    /// - `t` and `params` are per-lane, length `b`.
    ///
    /// Per lane the arithmetic replicates [`CompiledCircuit::assemble`]
    /// (itself a bitwise replica of the scalar `Circuit::assemble_into`)
    /// operation for operation.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if slice lengths disagree with the layout
    /// contract (engine-internal buffers, not user input).
    // lint: hot-fn
    // effects: pure
    // Separate flat slices are the SoA layout contract, as in
    // [`CompiledCircuit::assemble`].
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_all(
        &self,
        x: &[f64],
        t: &[f64],
        params: &[Params],
        q: &mut [f64],
        f: &mut [f64],
        c: &mut [f64],
        g: &mut [f64],
    ) {
        let (n, b) = (self.n, self.lanes);
        debug_assert_eq!(x.len(), (n + 1) * b);
        debug_assert_eq!(t.len(), b);
        debug_assert_eq!(params.len(), b);
        debug_assert_eq!(q.len(), (n + 1) * b);
        debug_assert_eq!(f.len(), (n + 1) * b);
        debug_assert_eq!(c.len(), (n * n + 1) * b);
        debug_assert_eq!(g.len(), (n * n + 1) * b);
        assemble_kernel(&self.devices, x, t, params, q, f, c, g, b);
    }

    /// Assembles `∂f/∂p` for every lane into the element-major `dfdp`
    /// (`n·b`) at the per-lane times `t` and skews `params`, replicating
    /// [`CompiledCircuit::assemble_dfdp`] lane by lane: only
    /// voltage-source branch equations depend on the skew parameters.
    // lint: hot-fn
    // effects: pure
    pub fn assemble_dfdp(&self, t: &[f64], params: &[Params], param: Param, dfdp: &mut [f64]) {
        dfdp.fill(0.0);
        for device in &self.devices {
            if let SoaDevice::VoltageSource { rbr, waveforms, .. } = device {
                for (l, waveform) in waveforms.iter().enumerate() {
                    let dv = waveform.derivative(t[l], &params[l], param);
                    if dv != 0.0 {
                        dfdp[rbr + l] -= dv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Inductor, MosParams, Resistor, VoltageSource};
    use crate::waveform::{DataPulse, RampShape};
    use shc_linalg::Vector;

    /// An inverter-flavored mixed circuit exercising every spec variant,
    /// including ground terminals and a branch unknown.
    fn mixed_circuit() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let data = c.node("data");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "Vdd",
            vdd,
            Circuit::GROUND,
            Waveform::dc(2.5),
        ));
        c.add(VoltageSource::new(
            "Vdata",
            data,
            Circuit::GROUND,
            Waveform::Data(DataPulse {
                v_rest: 0.0,
                v_active: 2.5,
                t_edge: 5e-9,
                rise: 0.5e-9,
                fall: 0.5e-9,
                shape: RampShape::Smoothstep,
            }),
        ));
        c.add(crate::devices::Mosfet::new(
            "Mp",
            out,
            data,
            vdd,
            MosParams::pmos_250nm(),
            2e-6,
            0.25e-6,
        ));
        c.add(crate::devices::Mosfet::new(
            "Mn",
            out,
            data,
            Circuit::GROUND,
            MosParams::nmos_250nm(),
            1e-6,
            0.25e-6,
        ));
        c.add(Resistor::new("Rl", out, Circuit::GROUND, 50e3));
        c.add(Capacitor::new("Cl", out, Circuit::GROUND, 5e-15));
        c
    }

    #[test]
    fn assemble_is_bitwise_identical_to_scalar() {
        let circuit = mixed_circuit();
        let compiled = CompiledCircuit::compile(&circuit).expect("compilable");
        let n = circuit.unknown_count();
        assert_eq!(compiled.dim(), n);
        let params = Params::new(1e-10, 2e-10);
        // A deliberately non-trivial state vector.
        let x: Vec<f64> = (0..n).map(|i| 0.3 + 0.17 * i as f64).collect();
        let xv = Vector::from_slice(&x);
        for &t in &[0.0, 4.9e-9, 5.1e-9, 8e-9] {
            let scalar = circuit.assemble(&xv, t, &params, 1.0);
            let (mut q, mut f) = (vec![0.0; n], vec![0.0; n]);
            let (mut c, mut g) = (vec![0.0; n * n], vec![0.0; n * n]);
            compiled.assemble(&x, t, &params, &mut q, &mut f, &mut c, &mut g);
            for i in 0..n {
                assert_eq!(q[i].to_bits(), scalar.q[i].to_bits(), "q[{i}] at t={t}");
                assert_eq!(f[i].to_bits(), scalar.f[i].to_bits(), "f[{i}] at t={t}");
                for j in 0..n {
                    assert_eq!(
                        c[i * n + j].to_bits(),
                        scalar.c[(i, j)].to_bits(),
                        "C[{i},{j}] at t={t}"
                    );
                    assert_eq!(
                        g[i * n + j].to_bits(),
                        scalar.g[(i, j)].to_bits(),
                        "G[{i},{j}] at t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn dfdp_is_bitwise_identical_to_scalar() {
        let circuit = mixed_circuit();
        let compiled = CompiledCircuit::compile(&circuit).expect("compilable");
        let n = circuit.unknown_count();
        let params = Params::new(1e-10, 2e-10);
        let mut dfdp = vec![0.0; n];
        // Mid data edge so the derivative is nonzero.
        for param in Param::ALL {
            for &t in &[0.0, 4.7e-9, 5.2e-9] {
                let scalar = circuit.assemble_dfdp(t, &params, param);
                compiled.assemble_dfdp(t, &params, param, &mut dfdp);
                for i in 0..n {
                    assert_eq!(
                        dfdp[i].to_bits(),
                        scalar[i].to_bits(),
                        "dfdp[{i}] at t={t} for {param:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn inductor_makes_circuit_uncompilable() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Resistor::new("R", a, Circuit::GROUND, 1e3));
        c.add(Inductor::new("L", a, Circuit::GROUND, 1e-9));
        assert!(CompiledCircuit::compile(&c).is_none());
    }

    /// The mixed circuit with every parameter value scaled by `k` —
    /// structurally identical to `mixed_circuit()`, numerically distinct,
    /// the shape of a Monte-Carlo/corner lane.
    fn mixed_circuit_scaled(k: f64) -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let data = c.node("data");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "Vdd",
            vdd,
            Circuit::GROUND,
            Waveform::dc(2.5 * k),
        ));
        c.add(VoltageSource::new(
            "Vdata",
            data,
            Circuit::GROUND,
            Waveform::Data(DataPulse {
                v_rest: 0.0,
                v_active: 2.5,
                t_edge: 5e-9 * k,
                rise: 0.5e-9,
                fall: 0.5e-9 * k,
                shape: RampShape::Smoothstep,
            }),
        ));
        c.add(crate::devices::Mosfet::new(
            "Mp",
            out,
            data,
            vdd,
            MosParams::pmos_250nm(),
            2e-6 * k,
            0.25e-6,
        ));
        c.add(crate::devices::Mosfet::new(
            "Mn",
            out,
            data,
            Circuit::GROUND,
            MosParams::nmos_250nm(),
            1e-6 * k,
            0.25e-6,
        ));
        c.add(Resistor::new("Rl", out, Circuit::GROUND, 50e3 * k));
        c.add(Capacitor::new("Cl", out, Circuit::GROUND, 5e-15 * k));
        c
    }

    #[test]
    fn soa_lanes_are_bitwise_identical_to_scalar_assembly() {
        let circuits: Vec<Circuit> = [1.0, 0.85, 1.3]
            .iter()
            .map(|&k| mixed_circuit_scaled(k))
            .collect();
        let compiled: Vec<CompiledCircuit> = circuits
            .iter()
            .map(|c| CompiledCircuit::compile(c).expect("compilable"))
            .collect();
        let soa = SoaCircuit::merge(&compiled).expect("structurally identical lanes");
        let b = circuits.len();
        let n = soa.dim();
        assert_eq!(n, compiled[0].dim());
        assert_eq!(soa.lanes(), b);
        let params = [
            Params::new(1e-10, 2e-10),
            Params::new(-0.5e-10, 0.0),
            Params::new(2e-10, -1e-10),
        ];
        // Per-lane times straddle the data edge so waveforms differ.
        let t = [4.9e-9, 5.1e-9, 0.0];
        let (mut q, mut f) = (vec![0.0; (n + 1) * b], vec![0.0; (n + 1) * b]);
        let (mut c, mut g) = (vec![0.0; (n * n + 1) * b], vec![0.0; (n * n + 1) * b]);
        // Two state patterns: ascending and descending node voltages, so
        // both MOSFET v_ds signs (the exchanged drain/source path) are
        // exercised across lanes.
        for (pat, slope) in [(0, 0.17), (1, -0.23)] {
            let mut x = vec![0.0; (n + 1) * b];
            for l in 0..b {
                for i in 0..n {
                    x[i * b + l] = 0.3 + slope * i as f64 - 0.05 * l as f64;
                }
            }
            soa.assemble_all(&x, &t, &params, &mut q, &mut f, &mut c, &mut g);
            for l in 0..b {
                let lane_x: Vec<f64> = (0..n).map(|i| x[i * b + l]).collect();
                let scalar =
                    circuits[l].assemble(&Vector::from_slice(&lane_x), t[l], &params[l], 1.0);
                for i in 0..n {
                    assert_eq!(
                        q[i * b + l].to_bits(),
                        scalar.q[i].to_bits(),
                        "pattern {pat} lane {l} q[{i}]"
                    );
                    assert_eq!(
                        f[i * b + l].to_bits(),
                        scalar.f[i].to_bits(),
                        "pattern {pat} lane {l} f[{i}]"
                    );
                    for j in 0..n {
                        assert_eq!(
                            c[(i * n + j) * b + l].to_bits(),
                            scalar.c[(i, j)].to_bits(),
                            "pattern {pat} lane {l} C[{i},{j}]"
                        );
                        assert_eq!(
                            g[(i * n + j) * b + l].to_bits(),
                            scalar.g[(i, j)].to_bits(),
                            "pattern {pat} lane {l} G[{i},{j}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn soa_dfdp_is_bitwise_identical_per_lane() {
        let circuits: Vec<Circuit> = [1.0, 1.2]
            .iter()
            .map(|&k| mixed_circuit_scaled(k))
            .collect();
        let compiled: Vec<CompiledCircuit> = circuits
            .iter()
            .map(|c| CompiledCircuit::compile(c).expect("compilable"))
            .collect();
        let soa = SoaCircuit::merge(&compiled).expect("mergeable");
        let (n, b) = (soa.dim(), circuits.len());
        // Per-lane times and skews, so a lane mix-up cannot cancel out.
        let params = [Params::new(1e-10, -2e-10), Params::new(-3e-10, 1e-10)];
        let mut dfdp = vec![0.0; n * b];
        for param in Param::ALL {
            for &t0 in &[0.0, 4.7e-9, 5.6e-9] {
                let t = [t0, t0 + 0.1e-9];
                soa.assemble_dfdp(&t, &params, param, &mut dfdp);
                for (l, circuit) in circuits.iter().enumerate() {
                    let scalar = circuit.assemble_dfdp(t[l], &params[l], param);
                    for i in 0..n {
                        assert_eq!(
                            dfdp[i * b + l].to_bits(),
                            scalar[i].to_bits(),
                            "lane {l} dfdp[{i}] at t={} for {param:?}",
                            t[l]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn merge_rejects_structural_mismatches() {
        let base = mixed_circuit();
        // Same device sequence and dimension, different resistor wiring.
        let rewired = {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let data = c.node("data");
            let out = c.node("out");
            c.add(VoltageSource::new(
                "Vdd",
                vdd,
                Circuit::GROUND,
                Waveform::dc(2.5),
            ));
            c.add(VoltageSource::new(
                "Vdata",
                data,
                Circuit::GROUND,
                Waveform::dc(0.0),
            ));
            c.add(crate::devices::Mosfet::new(
                "Mp",
                out,
                data,
                vdd,
                MosParams::pmos_250nm(),
                2e-6,
                0.25e-6,
            ));
            c.add(crate::devices::Mosfet::new(
                "Mn",
                out,
                data,
                Circuit::GROUND,
                MosParams::nmos_250nm(),
                1e-6,
                0.25e-6,
            ));
            c.add(Resistor::new("Rl", out, vdd, 50e3)); // ≠ out-ground
            c.add(Capacitor::new("Cl", out, Circuit::GROUND, 5e-15));
            c
        };
        // Same wiring, opposite polarity in the Mn slot.
        let flipped = {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let data = c.node("data");
            let out = c.node("out");
            c.add(VoltageSource::new(
                "Vdd",
                vdd,
                Circuit::GROUND,
                Waveform::dc(2.5),
            ));
            c.add(VoltageSource::new(
                "Vdata",
                data,
                Circuit::GROUND,
                Waveform::dc(0.0),
            ));
            c.add(crate::devices::Mosfet::new(
                "Mp",
                out,
                data,
                vdd,
                MosParams::pmos_250nm(),
                2e-6,
                0.25e-6,
            ));
            c.add(crate::devices::Mosfet::new(
                "Mn",
                out,
                data,
                Circuit::GROUND,
                MosParams::pmos_250nm(), // wrong polarity
                1e-6,
                0.25e-6,
            ));
            c.add(Resistor::new("Rl", out, Circuit::GROUND, 50e3));
            c.add(Capacitor::new("Cl", out, Circuit::GROUND, 5e-15));
            c
        };
        let cb = CompiledCircuit::compile(&base).unwrap();
        let cr = CompiledCircuit::compile(&rewired).unwrap();
        let cf = CompiledCircuit::compile(&flipped).unwrap();
        assert!(
            SoaCircuit::merge(&[cb.clone(), cr]).is_none(),
            "node mismatch"
        );
        assert!(
            SoaCircuit::merge(&[cb.clone(), cf]).is_none(),
            "polarity mismatch"
        );
        assert!(SoaCircuit::merge(&[cb.clone(), cb]).is_some(), "self-merge");
        assert!(SoaCircuit::merge(&[]).is_none(), "empty batch");
    }
}
