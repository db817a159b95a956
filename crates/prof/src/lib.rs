//! `shc-prof`: a zero-dependency hierarchical phase profiler.
//!
//! `shc-obs` answers *how much work* a run did (counters, spans at the
//! per-run level); this crate answers *where the time went inside a
//! simulation*: an exact self/total-time tree over a closed taxonomy of
//! [`Phase`]s (device evaluation, stamping, LU factor/refactor/solve,
//! LTE control, corrector and tracer bookkeeping, …), with per-phase
//! invocation counts and work units.
//!
//! Like the telemetry collector, instrumentation is always compiled in
//! and inert until a [`Profiler`] is installed on the thread with
//! [`install_scoped`]; the off-path cost is one thread-local boolean
//! read per frame, and profile-on runs are bitwise identical to
//! profile-off runs (the profiler only reads clocks, never perturbs
//! numerics).
//!
//! ```
//! use shc_prof::{Phase, Profiler};
//!
//! let profiler = Profiler::new();
//! {
//!     let _guard = shc_prof::install_scoped(&profiler);
//!     let _frame = shc_prof::enter(Phase::Transient);
//!     {
//!         let _inner = shc_prof::enter(Phase::DeviceEval);
//!         shc_prof::add_work(12); // devices stamped
//!     }
//! }
//! let report = profiler.report("example");
//! assert_eq!(report.phase("device_eval").unwrap().work, 12);
//! println!("{}", report.table());
//! ```
//!
//! Reports serialize to hand-rolled JSON ([`ProfileReport::to_json`]),
//! collapsed-stack flamegraph input ([`ProfileReport::to_folded`]), and
//! text tables; [`diff`] compares two profiles phase-by-phase.

#![warn(missing_docs)]

mod clock;
mod phase;
mod profiler;
mod report;

pub use clock::{ticks, ticks_per_ns, ticks_to_ns};
pub use phase::Phase;
pub use profiler::{
    add_work, current, enabled, enter, install_scoped, iter_detail, open_frames, phase_totals,
    record, Detail, FrameGuard, InstallGuard, Laps, Profiler, Sample, MAX_LAP_SLOTS,
};
pub use report::{diff, render_diff, PhaseAgg, PhaseDelta, ProfileReport, ReportNode, SCHEMA};
