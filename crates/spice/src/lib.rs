//! # shc-spice
//!
//! A from-scratch SPICE-class analog circuit simulator, built as the
//! substrate for interdependent setup/hold characterization (DAC 2007,
//! Srivastava & Roychowdhury).
//!
//! The simulator solves circuits formulated as the vector
//! differential-algebraic equation of the paper's eq. (1):
//!
//! ```text
//! d/dt q(x) + f(x) + b(t) = 0
//! ```
//!
//! where `x` stacks node voltages and voltage-source branch currents
//! (modified nodal analysis). It provides:
//!
//! - a netlist builder ([`Circuit`]) with resistors, capacitors, voltage and
//!   current sources, and a C¹-smoothed Shichman-Hodges (level-1) MOSFET;
//! - MNA assembly into slot-indexed value arrays ([`stamp`]): row-major
//!   dense, or the CSR values of the sparse Jacobian pattern;
//! - one damped Newton-Raphson loop ([`newton::solve_in_place`]) behind
//!   both analyses, iterating in a [`newton::NewtonWorkspace`] that owns
//!   the one Jacobian factor, dense LU or sparse-direct ([`solver`]);
//! - DC operating-point analysis with gmin and source stepping
//!   ([`dcop`]), every inner solve in one workspace;
//! - fixed-step Backward-Euler transient analysis, with Newton step cuts
//!   ([`transient`]);
//! - **forward sensitivity propagation** `∂x/∂τs`, `∂x/∂τh` for parameters
//!   entering through source waveforms — the paper's eqs. (9)–(13) — with
//!   the step Jacobian factored once, in the Newton workspace, and reused
//!   for the sensitivity solves;
//! - the parameterized data waveform `u_d(t, τs, τh)` of the paper's Fig. 2,
//!   with analytic `∂u_d/∂τs` and `∂u_d/∂τh` ([`waveform::DataPulse`]).
//!
//! # Example: RC step response
//!
//! ```rust
//! use shc_spice::{Circuit, Resistor, Capacitor, VoltageSource, Waveform};
//! use shc_spice::transient::{TransientAnalysis, TransientOptions};
//! use shc_spice::waveform::Params;
//!
//! # fn main() -> Result<(), shc_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.add(VoltageSource::new("V1", vin, Circuit::GROUND, Waveform::dc(1.0)));
//! ckt.add(Resistor::new("R1", vin, vout, 1e3));
//! ckt.add(Capacitor::new("C1", vout, Circuit::GROUND, 1e-9));
//!
//! let opts = TransientOptions::builder(5e-6).dt(1e-8).build();
//! let result = TransientAnalysis::new(&ckt, opts).run(&Params::default())?;
//! let v_end = result.final_state()[ckt.unknown_of(vout).expect("not ground")];
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 5 time constants
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod circuit;
pub mod dcop;
pub mod devices;
mod error;
pub mod netlist;
pub mod newton;
pub mod solver;
pub mod stamp;
pub mod transient;
pub mod waveform;

pub use circuit::{Circuit, Node};
pub use devices::{
    Capacitor, CurrentSource, Diode, Inductor, MosParams, MosPolarity, Mosfet, Resistor, Vccs,
    Vcvs, VoltageSource,
};
pub use error::SpiceError;
pub use solver::SolverChoice;
pub use waveform::{Param, Params, RampShape, Waveform};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, SpiceError>;
