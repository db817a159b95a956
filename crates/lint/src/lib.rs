//! `shc-lint`: workspace static analysis for the characterization stack.
//!
//! Enforces project-specific invariants that clippy cannot express:
//! panic-freedom in the solver crates (ratcheted, with reachability
//! chains to the public API), no float `==`, physical-unit consistency
//! (`/// unit:` annotations propagated through arithmetic), scoped-guard
//! discipline for thread-local installs, named-constant convergence
//! tolerances, and telemetry hygiene (metric-name declarations, journal
//! schema vs DESIGN.md, `enabled()` gating). `unsafe` is left to the
//! workspace lints (`unsafe_code`, clippy's `undocumented_unsafe_blocks`).
//!
//! On top of the syntax layer sits one interprocedural [`effects`]
//! engine: per-function effect inference (allocates, locks, does I/O,
//! float-nondeterministic, panics, …) propagated over the call graph it
//! builds. Every flow-aware rule reads it: panic reachability,
//! `/// effects:` declarations checked against drift, hot-path
//! certification of the solver's inner loops (`// lint: hot-loop`
//! regions and `// lint: hot-fn` functions, which must not allocate,
//! panic, lock, read a clock or do I/O, transitively), determinism
//! auditing of the result-producing APIs, and
//! `trunk-divergence-fence`, which certifies that `// lint: trunk-fence`
//! roots — where a run adopts a checkpoint computed at other skews — can
//! never transitively read `lane-divergent` (skew) state. See DESIGN.md
//! §9.10.
//!
//! The crate uses no third-party dependencies by design: it must build
//! and run before anything else in the workspace does. Its only
//! dependency is `shc-core`, for the `parallel::run_indexed` fan-out
//! the driver uses to lint files concurrently. Everything is built on a
//! hand-rolled Rust lexer ([`lexer`]) and a tolerant recursive-descent
//! parser ([`parser`]) producing a per-file AST ([`ast`]), so rules see
//! real syntax — call expressions, field accesses, loops — in which
//! comments and string contents can never produce false matches. One
//! workspace [`symbols`] table, built once per run, names every
//! function the effect graph connects.
//!
//! Run it with `cargo run -p shc-lint -- check [--json]
//! [--update-baseline] [--threads N]`, `graph [--dot] [--effects]` for
//! the call graph, or `--explain <rule>` for any rule's rationale and
//! escape hatch. Findings JSON is schema v4, effects JSON schema v2;
//! serial and parallel runs are byte-identical.

pub mod ast;
pub mod baseline;
pub mod driver;
pub mod effects;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod symbols;
pub mod units;
