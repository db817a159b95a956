//! # shc-bench
//!
//! The paper-experiment driver and the correctness gates that run the
//! cells end to end, over shared cell fixtures ([`Cell`], [`Timing`]):
//!
//! - `experiments` regenerates every table and figure of the paper's
//!   evaluation section (the exact 10 ns clock, or `--fast` for the
//!   compressed one) and prints the paper-vs-measured rows that
//!   EXPERIMENTS.md records;
//! - `verify_golden` compares the TSPC and C²MOS contours with
//!   `goldens/`;
//! - `fault_matrix` runs every fault site × kind plan;
//! - `profile_smoke` holds `Detail::Step` profiling to its overhead
//!   budget.
//!
//! Performance is measured by the benchmark of record in `benchmark/`
//! (`cargo run --release --manifest-path benchmark/Cargo.toml -- run`),
//! not here.

use shc_cells::{
    c2mos_register_with, tg_register_with, tspc_register_with, ClockSpec, Register, Technology,
    C2MOS_CLKB_SKEW,
};
use shc_core::{CharError, CharacterizationProblem};
use shc_spice::SolverChoice;

/// Which clock timing a fixture uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// The paper's exact clock: 10 ns period, active edge at 11.05 ns.
    Paper,
    /// Compressed clock for quick runs: 3 ns period, edge at 3.25 ns.
    Fast,
}

impl Timing {
    /// The corresponding clock specification.
    pub fn clock(self) -> ClockSpec {
        match self {
            Timing::Paper => ClockSpec::paper(),
            Timing::Fast => ClockSpec::fast(),
        }
    }
}

/// The cells the paper evaluates (plus one extra validation cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// True single-phase clocked register (paper Sec. IV-A).
    Tspc,
    /// C²MOS master-slave register with 0.3 ns clk̄ delay (Sec. IV-B).
    C2mos,
    /// Static transmission-gate flip-flop (extra validation cell).
    Tg,
}

impl Cell {
    /// All benchmarked cells.
    pub const ALL: [Cell; 3] = [Cell::Tspc, Cell::C2mos, Cell::Tg];

    /// The paper's two cells.
    pub const PAPER: [Cell; 2] = [Cell::Tspc, Cell::C2mos];

    /// Cell name.
    pub fn name(self) -> &'static str {
        match self {
            Cell::Tspc => "tspc",
            Cell::C2mos => "c2mos",
            Cell::Tg => "tg",
        }
    }

    /// Builds the register fixture.
    pub fn register(self, timing: Timing) -> Register {
        let tech = Technology::default_250nm();
        match self {
            Cell::Tspc => tspc_register_with(&tech, timing.clock()),
            Cell::C2mos => c2mos_register_with(&tech, timing.clock(), C2MOS_CLKB_SKEW),
            Cell::Tg => tg_register_with(&tech, timing.clock()),
        }
    }

    /// Builds the characterization problem (runs the reference simulation).
    ///
    /// # Errors
    ///
    /// Propagates problem-construction failures.
    pub fn problem(self, timing: Timing) -> Result<CharacterizationProblem, CharError> {
        self.problem_with_solver(timing, SolverChoice::Auto)
    }

    /// [`Cell::problem`] with an explicit linear-solver backend — used by
    /// `verify_golden`, which traces TSPC on the sparse path too.
    ///
    /// # Errors
    ///
    /// Propagates problem-construction failures.
    pub fn problem_with_solver(
        self,
        timing: Timing,
        solver: SolverChoice,
    ) -> Result<CharacterizationProblem, CharError> {
        CharacterizationProblem::builder(self.register(timing))
            .degradation(0.10)
            .solver(solver)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_for_all_cells() {
        for cell in Cell::ALL {
            let problem = cell.problem(Timing::Fast).expect("fixture builds");
            assert!(problem.characteristic_delay() > 0.0, "{}", cell.name());
        }
    }

    #[test]
    fn paper_cells_are_subset_of_all() {
        for c in Cell::PAPER {
            assert!(Cell::ALL.contains(&c));
        }
    }
}
