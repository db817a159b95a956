//! # shc-core
//!
//! Interdependent latch setup/hold time characterization via Euler-Newton
//! curve tracing on state-transition equations — a full implementation of
//! Srivastava & Roychowdhury, DAC 2007.
//!
//! ## The algorithm
//!
//! 1. **Formulation** ([`CharacterizationProblem`]): the interdependent
//!    setup/hold problem is the underdetermined scalar equation
//!    `h(τs, τh) = cᵀ φ(t_f; x₀, 0, τs, τh) − r = 0`, where `φ` is the
//!    state-transition function of the register DAE, `t_f` the time at
//!    which the clock-to-Q delay is degraded by (e.g.) 10%, and `r` the
//!    output level marking arrival. `h` is evaluated by one transient
//!    simulation; its 1×2 Jacobian comes from forward sensitivities
//!    propagated alongside the transient (paper eqs. (7)–(14)).
//! 2. **MPNR** ([`mpnr`]): one contour point is found with a Moore-Penrose
//!    pseudo-inverse Newton-Raphson iteration
//!    `τ ← τ − h(τ)·H(τ)⁺` (paper eqs. (15), (23)–(24)), which converges to
//!    the solution-curve point nearest the initial guess.
//! 3. **Euler-Newton tracing** ([`tracer`]): from a converged point, the
//!    unit tangent `T = (−∂h/∂τh, ∂h/∂τs)/‖·‖` (paper eq. (16)) gives an
//!    Euler predictor step of length α; MPNR corrects back onto the curve
//!    (2–3 iterations typical). Repeating yields the whole constant
//!    clock-to-Q contour in O(n) simulations, versus O(n²) for brute-force
//!    surface generation.
//!
//! Baselines from the paper are implemented too: brute-force output-surface
//! generation with contour extraction ([`surface`]), and independent
//! setup/hold characterization by binary search and by scalar Newton
//! ([`independent`], the paper's ref \[6\]).
//!
//! # Example
//!
//! ```rust,no_run
//! use shc_cells::{tspc_register, Technology};
//! use shc_core::CharacterizationProblem;
//!
//! # fn main() -> Result<(), shc_core::CharError> {
//! let tech = Technology::default_250nm();
//! let problem = CharacterizationProblem::builder(tspc_register(&tech))
//!     .degradation(0.10)
//!     .build()?;
//! let contour = problem.trace_contour(40)?;
//! for p in contour.points() {
//!     println!("setup {:.1} ps  hold {:.1} ps", p.tau_s * 1e12, p.tau_h * 1e12);
//! }
//! # Ok(())
//! # }
//! ```

pub mod corners;
mod error;
pub mod independent;
pub mod montecarlo;
pub mod mpnr;
pub mod parallel;
mod problem;
pub mod report;
pub mod seed;
pub mod shia;
pub mod stack;
pub mod surface;
pub mod table;
pub mod tracer;

pub use error::CharError;
pub use mpnr::{MpnrOptions, MpnrResult};
pub use parallel::Parallelism;
pub use problem::{BatchPolicy, CharacterizationProblem, HEvaluation, ProblemBuilder};
pub use seed::SeedOptions;
pub use surface::{OutputSurface, SurfaceContour, SurfaceOptions};
pub use tracer::{
    trace_session, CheckpointConfig, Contour, ContourPoint, TraceDirection, TraceOutcome,
    TraceStart, TracerOptions,
};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, CharError>;
