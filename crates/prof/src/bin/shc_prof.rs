//! Profile report tool: differential comparison.
//!
//! ```text
//! shc-prof diff a.json b.json
//! ```
//!
//! `diff` prints a phase-by-phase table of self-time-share and work-unit
//! movement between two profiles.

use std::process::ExitCode;

use shc_prof::{render_diff, ProfileReport};

const USAGE: &str = "usage:\n  shc-prof diff <a.json> <b.json>";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("shc-prof: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("diff") => {
            let [a_path, b_path] = &args[1..] else {
                return Err(USAGE.into());
            };
            let a = load_report(a_path)?;
            let b = load_report(b_path)?;
            print!("{}", render_diff(&a, &b));
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    }
}

fn load_report(path: &str) -> Result<ProfileReport, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ProfileReport::from_json(&text).map_err(|e| format!("{path}: {e}").into())
}
