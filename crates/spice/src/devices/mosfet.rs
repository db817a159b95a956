//! Smoothed Shichman-Hodges (SPICE level-1) MOSFET.
//!
//! The characterization algorithm differentiates the circuit equations, so
//! the device model must be at least C¹. The classic level-1 equations have
//! derivative kinks at cutoff (`v_gs = V_T`) and at the triode/saturation
//! boundary (`v_ds = v_gs − V_T`); we replace both `max(·, 0)` selections
//! with a softplus-style smoothing
//! `sp(x) = (x + √(x² + ε²)) / 2`, which is C∞ and ε-close to `max(x, 0)`.
//!
//! The model covers both polarities via voltage reflection, is symmetric in
//! drain/source (handles `v_ds < 0` by swapping), includes channel-length
//! modulation, and stamps constant Meyer-style gate-overlap and junction
//! capacitances derived from the geometry.

use serde::{Deserialize, Serialize};

use crate::devices::Device;
use crate::stamp::{EvalContext, Stamper};
use crate::waveform::Params;
use crate::Node;

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MosPolarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

impl MosPolarity {
    /// Voltage-reflection sign: `+1` for NMOS, `−1` for PMOS.
    pub fn sign(self) -> f64 {
        match self {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        }
    }
}

/// Level-1 model card.
///
/// Threshold voltage is given as a positive magnitude for both polarities;
/// the polarity's voltage reflection handles the sign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosParams {
    /// Polarity.
    pub polarity: MosPolarity,
    /// Threshold voltage magnitude `|V_T0|` in volts.
    pub vt0: f64,
    /// Process transconductance `k' = µ·C_ox` in A/V².
    pub kp: f64,
    /// Channel-length modulation `λ` in 1/V.
    pub lambda: f64,
    /// Gate-oxide capacitance per area in F/m² (channel charge).
    pub cox: f64,
    /// Gate-drain/source overlap capacitance per width in F/m.
    pub cov: f64,
    /// Junction (drain/source to body) capacitance per width in F/m.
    pub cj: f64,
    /// Smoothing half-width for the cutoff transition, in volts.
    pub eps_cutoff: f64,
    /// Smoothing half-width for the triode/saturation transition, in volts.
    pub eps_sat: f64,
}

impl MosParams {
    /// A generic 0.25 µm-class NMOS card (2.5 V supply).
    pub fn nmos_250nm() -> Self {
        MosParams {
            polarity: MosPolarity::Nmos,
            vt0: 0.43,
            kp: 120e-6,
            lambda: 0.06,
            cox: 6e-3,
            cov: 3e-10,
            cj: 1e-9,
            eps_cutoff: 0.04,
            eps_sat: 0.04,
        }
    }

    /// A generic 0.25 µm-class PMOS card (2.5 V supply).
    pub fn pmos_250nm() -> Self {
        MosParams {
            polarity: MosPolarity::Pmos,
            vt0: 0.40,
            kp: 40e-6,
            lambda: 0.08,
            cox: 6e-3,
            cov: 3e-10,
            cj: 1e-9,
            eps_cutoff: 0.04,
            eps_sat: 0.04,
        }
    }
}

/// Smoothed `max(x, 0)`: returns `(value, derivative)`.
fn softplus(x: f64, eps: f64) -> (f64, f64) {
    let r = (x * x + eps * eps).sqrt();
    (0.5 * (x + r), 0.5 * (1.0 + x / r))
}

/// Forward-region drain current for an NMOS-reflected device with
/// `v_ds ≥ 0`: returns `(i_d, ∂i_d/∂v_gs, ∂i_d/∂v_ds)`.
///
/// The softplus smoothing leaves a tiny spurious current at `v_ds = 0`;
/// the raw expression is therefore offset-corrected by its own value at
/// `v_ds = 0` so that `i_d(v_gs, 0) ≡ 0` exactly, preserving drain/source
/// symmetry and C¹ continuity across `v_ds = 0`.
fn ids_forward(vgs: f64, vds: f64, p: &MosParams, beta: f64) -> (f64, f64, f64) {
    let (id, gm, gds) = ids_forward_raw(vgs, vds, p, beta);
    let (id0, gm0, _) = ids_forward_raw(vgs, 0.0, p, beta);
    (id - id0, gm - gm0, gds)
}

fn ids_forward_raw(vgs: f64, vds: f64, p: &MosParams, beta: f64) -> (f64, f64, f64) {
    let (vov, dvov) = softplus(vgs - p.vt0, p.eps_cutoff);
    // Effective v_ds clamps smoothly at the saturation voltage v_ov.
    let (clip, dclip) = softplus(vds - vov, p.eps_sat);
    let vdse = vds - clip;
    let dvdse_dvds = 1.0 - dclip;
    let dvdse_dvov = dclip;

    let klm = 1.0 + p.lambda * vds;
    let fcur = (vov - 0.5 * vdse) * vdse;
    let df_dvov = vdse + (vov - vdse) * dvdse_dvov;
    let df_dvds = (vov - vdse) * dvdse_dvds;

    let id = beta * klm * fcur;
    let gm = beta * klm * df_dvov * dvov;
    let gds = beta * (p.lambda * fcur + klm * df_dvds);
    (id, gm, gds)
}

/// Drain current of the reflected (NMOS-like) device for any `v_ds` sign:
/// returns `(i_d, ∂i_d/∂v_gs, ∂i_d/∂v_ds)`.
fn ids_symmetric(vgs: f64, vds: f64, p: &MosParams, beta: f64) -> (f64, f64, f64) {
    if vds >= 0.0 {
        ids_forward(vgs, vds, p, beta)
    } else {
        // Exchange source and drain: i_d(v_gs, v_ds) = −i_fwd(v_gd, −v_ds).
        let (i, gm_f, gds_f) = ids_forward(vgs - vds, -vds, p, beta);
        // ∂/∂v_gs = −gm_f·∂(v_gs−v_ds)/∂v_gs = −gm_f
        // ∂/∂v_ds = −[gm_f·(−1) + gds_f·(−1)] = gm_f + gds_f
        (-i, -gm_f, gm_f + gds_f)
    }
}

/// A four-terminal-reduced (bulk tied to rail) level-1 MOSFET.
///
/// # Example
///
/// ```rust
/// use shc_spice::{Circuit, Mosfet, MosParams};
///
/// let mut ckt = Circuit::new();
/// let (d, g, s) = (ckt.node("d"), ckt.node("g"), ckt.node("s"));
/// ckt.add(Mosfet::new("M1", d, g, s, MosParams::nmos_250nm(), 1e-6, 0.25e-6));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mosfet {
    name: String,
    drain: Node,
    gate: Node,
    source: Node,
    params: MosParams,
    width: f64,
    length: f64,
    beta: f64,
    cgs: f64,
    cgd: f64,
    cdb: f64,
    csb: f64,
}

impl Mosfet {
    /// Creates a MOSFET with the given geometry (meters).
    ///
    /// # Panics
    ///
    /// Panics if `width` or `length` is not positive and finite.
    pub fn new(
        name: &str,
        drain: Node,
        gate: Node,
        source: Node,
        params: MosParams,
        width: f64,
        length: f64,
    ) -> Self {
        assert!(
            width.is_finite() && width > 0.0 && length.is_finite() && length > 0.0,
            "mosfet {name}: width/length must be positive and finite"
        );
        let beta = params.kp * width / length;
        // Half the channel charge to each of gate-source / gate-drain, plus
        // overlap; junction caps scale with width.
        let cg_half = 0.5 * params.cox * width * length + params.cov * width;
        Mosfet {
            name: name.to_string(),
            drain,
            gate,
            source,
            params,
            width,
            length,
            beta,
            cgs: cg_half,
            cgd: cg_half,
            cdb: params.cj * width,
            csb: params.cj * width,
        }
    }

    /// Channel width in meters.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Channel length in meters.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Model card.
    pub fn params(&self) -> &MosParams {
        &self.params
    }

    /// Drain current and its derivatives at the given terminal voltages:
    /// `(i_d, ∂i_d/∂v_g, ∂i_d/∂v_d, ∂i_d/∂v_s)`, with `i_d` flowing into
    /// the drain terminal.
    pub fn drain_current(&self, vd: f64, vg: f64, vs: f64) -> (f64, f64, f64, f64) {
        let s = self.params.polarity.sign();
        // Reflect to NMOS voltages.
        let vgs = s * (vg - vs);
        let vds = s * (vd - vs);
        let (i, gm, gds) = ids_symmetric(vgs, vds, &self.params, self.beta);
        // Reflect back: i_drain = s·i; ∂(s·i)/∂v_g = s·gm·s = gm, etc.
        let id = s * i;
        let did_dvg = gm;
        let did_dvd = gds;
        let did_dvs = -(gm + gds);
        (id, did_dvg, did_dvd, did_dvs)
    }
}

impl Device for Mosfet {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, stamper: &mut Stamper<'_>, ctx: &EvalContext<'_>) {
        let vd = ctx.voltage(self.drain);
        let vg = ctx.voltage(self.gate);
        let vs = ctx.voltage(self.source);
        let (id, gm, gds, gs_) = self.drain_current(vd, vg, vs);

        let (ed, eg, es) = (
            self.drain.unknown(),
            self.gate.unknown(),
            self.source.unknown(),
        );

        // Channel current: into drain, out of source.
        stamper.add_f(ed, id);
        stamper.add_f(es, -id);
        stamper.add_g(ed, eg, gm);
        stamper.add_g(ed, ed, gds);
        stamper.add_g(ed, es, gs_);
        stamper.add_g(es, eg, -gm);
        stamper.add_g(es, ed, -gds);
        stamper.add_g(es, es, -gs_);

        // Constant capacitances: gate-source, gate-drain, junctions to
        // ground (body tied to a DC rail; any rail is equivalent for
        // small-signal dynamics of linear caps).
        let qgs = self.cgs * (vg - vs);
        stamper.add_q(eg, qgs);
        stamper.add_q(es, -qgs);
        stamper.stamp_capacitance(eg, es, self.cgs);

        let qgd = self.cgd * (vg - vd);
        stamper.add_q(eg, qgd);
        stamper.add_q(ed, -qgd);
        stamper.stamp_capacitance(eg, ed, self.cgd);

        stamper.add_q(ed, self.cdb * vd);
        stamper.stamp_capacitance(ed, None, self.cdb);
        stamper.add_q(es, self.csb * vs);
        stamper.stamp_capacitance(es, None, self.csb);
    }

    fn skew_agreement(&self, _pa: &Params, _pb: &Params) -> Option<f64> {
        Some(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> Mosfet {
        let mut c = crate::Circuit::new();
        let (d, g, s) = (c.node("d"), c.node("g"), c.node("s"));
        Mosfet::new("M", d, g, s, MosParams::nmos_250nm(), 1e-6, 0.25e-6)
    }

    fn pmos() -> Mosfet {
        let mut c = crate::Circuit::new();
        let (d, g, s) = (c.node("d"), c.node("g"), c.node("s"));
        Mosfet::new("M", d, g, s, MosParams::pmos_250nm(), 2e-6, 0.25e-6)
    }

    #[test]
    fn softplus_limits_and_derivative() {
        let (v, d) = softplus(1.0, 0.01);
        assert!((v - 1.0).abs() < 1e-4);
        assert!((d - 1.0).abs() < 1e-3);
        let (v, d) = softplus(-1.0, 0.01);
        assert!(v.abs() < 1e-4);
        assert!(d.abs() < 1e-3);
        let (v, d) = softplus(0.0, 0.01);
        assert!((v - 0.005).abs() < 1e-12);
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nmos_regions() {
        let m = nmos();
        // Cutoff: vgs = 0 → essentially no current.
        let (id, ..) = m.drain_current(2.5, 0.0, 0.0);
        assert!(id.abs() < 1e-6, "cutoff leakage {id}");
        // Saturation: vgs = 2.5, vds = 2.5 > vov.
        let (id_sat, ..) = m.drain_current(2.5, 2.5, 0.0);
        let beta = 120e-6 * 4.0;
        let expect = 0.5 * beta * (2.5f64 - 0.43).powi(2) * (1.0 + 0.06 * 2.5);
        assert!(
            (id_sat - expect).abs() < 0.05 * expect,
            "sat current {id_sat} vs {expect}"
        );
        // Triode: small vds → roughly linear.
        let (id_tri, ..) = m.drain_current(0.05, 2.5, 0.0);
        let g_on = beta * (2.5 - 0.43);
        assert!((id_tri - g_on * 0.05).abs() < 0.1 * id_tri.abs() + 1e-6);
        assert!(id_tri < id_sat);
    }

    #[test]
    fn pmos_mirrors_nmos_behaviour() {
        let m = pmos();
        // PMOS with source at 2.5, gate at 0 (on), drain at 0: current flows
        // source→drain, i.e. *into* the drain terminal is negative? The
        // drain current convention is current into the drain node; for PMOS
        // pulling the drain up, conventional current flows from source (2.5V)
        // to drain, so i_d (into drain) is negative.
        let (id, ..) = m.drain_current(0.0, 0.0, 2.5);
        assert!(id < -1e-5, "pmos on-current {id}");
        // Off when gate at 2.5.
        let (id_off, ..) = m.drain_current(0.0, 2.5, 2.5);
        assert!(id_off.abs() < 1e-6);
    }

    #[test]
    fn drain_source_symmetry() {
        let m = nmos();
        // Swapping drain and source voltages negates the current.
        let (i1, ..) = m.drain_current(1.0, 2.0, 0.3);
        let (i2, ..) = m.drain_current(0.3, 2.0, 1.0);
        assert!(
            (i1 + i2).abs() < 1e-6 * i1.abs().max(1e-12),
            "i1 = {i1}, i2 = {i2}"
        );
        // Zero vds → zero current.
        let (i0, ..) = m.drain_current(0.7, 2.0, 0.7);
        assert!(i0.abs() < 1e-12);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        for m in [nmos(), pmos()] {
            let cases = [
                (2.5, 2.5, 0.0),
                (0.05, 2.5, 0.0),
                (1.0, 1.0, 0.2),
                (0.3, 2.0, 1.0),  // reverse region for nmos after reflection
                (2.5, 0.0, 0.0),  // cutoff
                (1.2, 0.45, 0.0), // near threshold
                (2.07, 2.5, 0.0), // near saturation corner (vov ≈ 2.07)
                (0.0, 0.0, 2.5),
                (2.5, 0.0, 2.5),
            ];
            let h = 1e-7;
            for &(vd, vg, vs) in &cases {
                let (_, dg, dd, ds) = m.drain_current(vd, vg, vs);
                let fd_g = (m.drain_current(vd, vg + h, vs).0 - m.drain_current(vd, vg - h, vs).0)
                    / (2.0 * h);
                let fd_d = (m.drain_current(vd + h, vg, vs).0 - m.drain_current(vd - h, vg, vs).0)
                    / (2.0 * h);
                let fd_s = (m.drain_current(vd, vg, vs + h).0 - m.drain_current(vd, vg, vs - h).0)
                    / (2.0 * h);
                let scale = fd_g.abs().max(fd_d.abs()).max(fd_s.abs()).max(1e-9);
                assert!(
                    (dg - fd_g).abs() < 1e-4 * scale,
                    "{:?} at ({vd},{vg},{vs}): gm {dg} vs fd {fd_g}",
                    m.params.polarity
                );
                assert!(
                    (dd - fd_d).abs() < 1e-4 * scale,
                    "{:?} at ({vd},{vg},{vs}): gds {dd} vs fd {fd_d}",
                    m.params.polarity
                );
                assert!(
                    (ds - fd_s).abs() < 1e-4 * scale,
                    "{:?} at ({vd},{vg},{vs}): gs {ds} vs fd {fd_s}",
                    m.params.polarity
                );
            }
        }
    }

    #[test]
    fn current_is_continuous_across_vds_zero() {
        let m = nmos();
        let (im, ..) = m.drain_current(-1e-9, 2.0, 0.0);
        let (ip, ..) = m.drain_current(1e-9, 2.0, 0.0);
        assert!((ip - im).abs() < 1e-9);
    }

    #[test]
    fn kcl_stamp_balances() {
        // Sum of current stamps across all terminals must vanish (KCL):
        // whatever enters the drain leaves the source.
        let mut c = crate::Circuit::new();
        let (d, g, s) = (c.node("d"), c.node("g"), c.node("s"));
        c.add(Mosfet::new(
            "M",
            d,
            g,
            s,
            MosParams::nmos_250nm(),
            1e-6,
            0.25e-6,
        ));
        let x = shc_linalg::Vector::from_slice(&[1.7, 2.2, 0.1]);
        let st = c.assemble(&x, 0.0, &crate::waveform::Params::default(), 1.0);
        let total: f64 = st.f.iter().sum();
        assert!(total.abs() < 1e-12, "KCL violated: {total}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_geometry() {
        let mut c = crate::Circuit::new();
        let (d, g, s) = (c.node("d"), c.node("g"), c.node("s"));
        let _ = Mosfet::new("M", d, g, s, MosParams::nmos_250nm(), -1e-6, 0.25e-6);
    }
}
