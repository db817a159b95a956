//! `shc-char`: characterize interdependent setup/hold times of a cell
//! described by a SPICE-subset deck.
//!
//! See `shc::cli::USAGE` (printed on error) for the flag reference, and
//! `examples/netlists/` for sample decks.

use std::io::Write;
use std::process::ExitCode;

use shc::cli;

// Write errors are ignored throughout: a closed stdout or stderr (a reader
// such as `head` that exits early) must not turn the exit code into a panic.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match cli::parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "error: {e}\n\n{}", cli::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let deck = match std::fs::read_to_string(&cfg.netlist_path) {
        Ok(deck) => deck,
        Err(e) => {
            let _ = writeln!(
                std::io::stderr(),
                "error: cannot read '{}': {e}",
                cfg.netlist_path
            );
            return ExitCode::FAILURE;
        }
    };
    match cli::run(&deck, &cfg) {
        Ok(report) => {
            let _ = write!(std::io::stdout(), "{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "error: {e}");
            ExitCode::FAILURE
        }
    }
}
