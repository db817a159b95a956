//! Lockstep batched transient simulation.
//!
//! Characterization sweeps (surface grids, Monte-Carlo samples, PVT
//! corners, `trace_batch` levels) run thousands of transients over the
//! *same topology* with different parameters. On a one-core host the
//! thread pool cannot help, so this module attacks per-simulation cost
//! instead:
//!
//! - **Compilation** ([`compile::CompiledCircuit`]): the `dyn Device` list
//!   is lowered once per sweep into a flat array of value-level device
//!   descriptors with pre-resolved unknown indices, so the per-iteration
//!   assembly is a monomorphic match over plain data — no virtual
//!   dispatch, no `Option` re-resolution, no bounds re-derivation.
//! - **SoA lanes** ([`engine::run_lockstep`]): `B` simulations advance in
//!   lockstep through shared structure-of-arrays state blocks
//!   (`lanes·n` vectors, `lanes·n²` Jacobians, one [`shc_linalg::SoaLu`]
//!   for the Newton and sensitivity solves), allocated once per batch
//!   instead of once per run.
//! - **Per-lane masks**: Newton convergence, step rejection, retries, and
//!   failures are tracked per lane; a diverging lane retires (with the
//!   same typed error the scalar path would produce) without stalling the
//!   remaining lanes.
//! - **Prefix reuse** ([`engine::run_lockstep_with_ladder`]): each lane
//!   may resume from its own checkpoint of a
//!   [`crate::transient::PrefixLadder`], chosen by the rule scalar runs
//!   use, and steps on from its own time; [`run_lockstep`] runs every
//!   lane from its DC operating point.
//!
//! The batched path is **bitwise identical** to the scalar
//! [`crate::transient::TransientAnalysis`] on its supported envelope
//! (Backward Euler, final-only recording, dense solves, DC initial
//! condition): every floating-point operation per lane replicates
//! the scalar sequence exactly. Anything outside the envelope reports
//! unsupported via [`supported`] and the caller falls back to the scalar
//! path.
//!
//! The invariants that make this soundness argument work are
//! machine-checked by `shc-lint` v4 (DESIGN.md §9.10–§9.13): the
//! modules opt in with `// lint: soa-module`, SoA buffers declare
//! their layout with `/// soa:` annotations so every element-major
//! index is forced through the canonical `i * B + l` stride or a
//! checked accessor, masked kernels (`// lint: soa-kernel`) may only
//! write shared state rows under a lane-mask guard or select, the
//! `multiversioned!`/`lane_dispatch!` SIMD clones are proven
//! token-identical to the portable baseline, and the ladder checkpoint
//! adoption lanes resume through (`// lint: trunk-fence`) is certified
//! unreachable from any skew read. Each certificate has a
//! rehearsed-to-fail CI canary.

pub mod compile;
pub mod engine;

pub use compile::{CompiledCircuit, DeviceSpec, SoaCircuit};
pub use engine::{run_lockstep, run_lockstep_with_ladder, BatchLane};

use serde::{Deserialize, Serialize};

use crate::circuit::Circuit;
use crate::transient::{InitialCondition, Integrator, RecordMode, TransientOptions};

/// Default lane-group width for sweep drivers that chunk a large
/// simulation set into batches: wide enough to amortize compilation and
/// buffer setup, narrow enough that the SoA blocks of a seed-cell-sized
/// circuit stay cache-resident.
pub const DEFAULT_LANES: usize = 16;

/// How a sweep driver chooses between the scalar and the batched engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BatchPolicy {
    /// Batch when the configuration is inside the supported envelope, at
    /// least two lanes are available, and no fault injector is installed
    /// (per-site fault draws interleave across lanes, so injection
    /// campaigns keep the scalar path's documented draw order).
    #[default]
    Auto,
    /// Always take the scalar path.
    Scalar,
    /// Batch whenever the envelope allows it, fault injector or not
    /// (per-lane retirement still applies); falls back to scalar outside
    /// the envelope.
    Batched,
}

impl BatchPolicy {
    /// Stable lowercase name (CLI value / JSON output).
    pub fn name(self) -> &'static str {
        match self {
            BatchPolicy::Auto => "auto",
            BatchPolicy::Scalar => "scalar",
            BatchPolicy::Batched => "batched",
        }
    }

    /// Whether a sweep of `lanes` same-topology simulations over
    /// `circuit` under `opts` should take the batched engine.
    pub fn use_batched(self, circuit: &Circuit, opts: &TransientOptions, lanes: usize) -> bool {
        match self {
            BatchPolicy::Scalar => false,
            BatchPolicy::Auto => lanes >= 2 && !shc_fault::enabled() && supported(circuit, opts),
            BatchPolicy::Batched => lanes >= 1 && supported(circuit, opts),
        }
    }
}

impl std::str::FromStr for BatchPolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "auto" => Ok(BatchPolicy::Auto),
            "scalar" => Ok(BatchPolicy::Scalar),
            "batched" => Ok(BatchPolicy::Batched),
            other => Err(format!(
                "unknown batch policy '{other}' (expected auto, scalar, or batched)"
            )),
        }
    }
}

impl std::fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether `(circuit, opts)` falls inside the batched engine's envelope:
/// Backward Euler, final-only recording, DC initial condition, dense
/// solves, and a circuit made entirely of devices with a [`DeviceSpec`]
/// lowering.
pub fn supported(circuit: &Circuit, opts: &TransientOptions) -> bool {
    options_supported(circuit, opts) && CompiledCircuit::compile(circuit).is_some()
}

/// [`supported`] without the device-lowering check, for callers that
/// compile the circuit themselves.
pub(crate) fn options_supported(circuit: &Circuit, opts: &TransientOptions) -> bool {
    matches!(opts.integrator, Integrator::BackwardEuler)
        && matches!(opts.record, RecordMode::FinalOnly)
        && matches!(opts.initial, InitialCondition::DcOperatingPoint)
        && !opts.solver.wants_sparse(circuit.unknown_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Diode, DiodeParams, Resistor, VoltageSource};
    use crate::waveform::Waveform;

    fn rc_circuit() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.add(VoltageSource::new(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(Resistor::new("R1", vin, vout, 1e3));
        c.add(Capacitor::new("C1", vout, Circuit::GROUND, 1e-9));
        c
    }

    fn fixed_be_opts(tstop: f64) -> TransientOptions {
        TransientOptions::builder(tstop)
            .dt(tstop / 100.0)
            .record(RecordMode::FinalOnly)
            .build()
    }

    #[test]
    fn policy_parses_and_prints_round_trip() {
        for p in [BatchPolicy::Auto, BatchPolicy::Scalar, BatchPolicy::Batched] {
            assert_eq!(p.name().parse::<BatchPolicy>().unwrap(), p);
            assert_eq!(format!("{p}"), p.name());
        }
        assert!("turbo".parse::<BatchPolicy>().is_err());
    }

    #[test]
    fn envelope_gates_integrator_and_record() {
        let c = rc_circuit();
        assert!(supported(&c, &fixed_be_opts(1e-6)));

        let trap = TransientOptions::builder(1e-6)
            .dt(1e-8)
            .integrator(Integrator::Trapezoidal)
            .record(RecordMode::FinalOnly)
            .build();
        assert!(!supported(&c, &trap));

        let full = TransientOptions::builder(1e-6).dt(1e-8).build();
        assert!(!supported(&c, &full), "Full recording is out of envelope");
    }

    #[test]
    fn unsupported_device_opts_the_circuit_out() {
        let mut c = rc_circuit();
        let vout = c.find_node("out").unwrap();
        c.add(Diode::new(
            "D1",
            vout,
            Circuit::GROUND,
            DiodeParams::default(),
        ));
        assert!(!supported(&c, &fixed_be_opts(1e-6)));
    }

    #[test]
    fn policy_resolution_respects_scalar_and_lane_floor() {
        let c = rc_circuit();
        let opts = fixed_be_opts(1e-6);
        assert!(!BatchPolicy::Scalar.use_batched(&c, &opts, 400));
        assert!(!BatchPolicy::Auto.use_batched(&c, &opts, 1));
        assert!(BatchPolicy::Auto.use_batched(&c, &opts, 2));
        assert!(BatchPolicy::Batched.use_batched(&c, &opts, 1));
    }

    #[test]
    fn auto_defers_to_scalar_under_fault_injection() {
        let c = rc_circuit();
        let opts = fixed_be_opts(1e-6);
        let injector = shc_fault::Injector::new(shc_fault::FaultPlan {
            probability: 0.5,
            site: Some(shc_fault::Site::Newton),
            kind: shc_fault::FaultKind::NonConvergence,
            seed: 1,
        });
        let _g = shc_fault::install_scoped(&injector);
        assert!(!BatchPolicy::Auto.use_batched(&c, &opts, 8));
        assert!(BatchPolicy::Batched.use_batched(&c, &opts, 8));
    }
}
