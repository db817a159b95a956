//! Workspace walker and the `check` entry point used by both the
//! `shc-lint` binary and the self-check integration test.

use std::fs;
use std::path::{Path, PathBuf};

use crate::baseline::{Baseline, RatchetResult};
use crate::report::{render_effects_json, render_json, EffectRow, Finding, PanicApi};
use crate::rules::{self, SourceFile, Workspace};
use shc_core::parallel::Parallelism;

/// Name of the committed ratchet file at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// Options for one `check` run.
#[derive(Debug, Default, Clone)]
pub struct CheckOptions {
    /// Emit the machine-readable JSON report instead of human lines.
    pub json: bool,
    /// Rewrite `lint-baseline.json` from the current findings.
    pub update_baseline: bool,
    /// Workspace root; discovered from the current directory when unset.
    pub root: Option<PathBuf>,
    /// Phase-A fan-out (`--threads N`); the report is byte-identical
    /// for every setting.
    pub parallelism: Parallelism,
    /// When set, write the full effect-summary table (JSON) here.
    pub effects_out: Option<PathBuf>,
}

/// Outcome of a `check` run, for callers that want the data rather than
/// the printed report (the self-check test).
#[derive(Debug)]
pub struct CheckOutcome {
    pub new_findings: Vec<Finding>,
    pub baselined: usize,
    pub improved: usize,
    pub files_checked: usize,
    /// Full panic-reachability report (baselined APIs included).
    pub panic_apis: Vec<PanicApi>,
    /// Full effect-summary table, sorted by (file, line, api).
    pub effect_rows: Vec<EffectRow>,
}

/// Ascends from `start` to the first directory that looks like the
/// workspace root (has both `Cargo.toml` and a `crates/` directory).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects every `.rs` file under the workspace `src/` trees: the root
/// package plus each `crates/*` member. Paths come back repo-relative
/// with forward slashes, sorted for deterministic reports.
pub fn collect_workspace(root: &Path) -> Result<Workspace, String> {
    let mut files = Vec::new();
    let mut src_dirs = vec![root.join("src")];
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut members: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    for member in members {
        src_dirs.push(member.join("src"));
    }
    for dir in src_dirs {
        if dir.is_dir() {
            walk_rs(&dir, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    let design_md = fs::read_to_string(root.join("DESIGN.md")).ok();
    Ok(Workspace { files, design_md })
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile { path: rel, text });
        }
    }
    Ok(())
}

/// Runs the full lint over the workspace rooted at `root` and filters
/// through the committed baseline. Does not print.
pub fn check_workspace(root: &Path) -> Result<CheckOutcome, String> {
    check_workspace_with(root, Parallelism::Serial)
}

/// [`check_workspace`] with explicit phase-A parallelism.
pub fn check_workspace_with(root: &Path, parallelism: Parallelism) -> Result<CheckOutcome, String> {
    let ws = collect_workspace(root)?;
    let files_checked = ws.files.len();
    let output = rules::run(&ws, parallelism);
    let baseline_path = root.join(BASELINE_FILE);
    let baseline = match fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text)?,
        Err(_) => Baseline::default(),
    };
    let RatchetResult {
        new_findings,
        baselined,
        improved,
    } = baseline.apply(output.findings);
    Ok(CheckOutcome {
        new_findings,
        baselined,
        improved: improved.len(),
        files_checked,
        panic_apis: output.panic_apis,
        effect_rows: output.effect_rows,
    })
}

/// Resolves the workspace root from an explicit `--root` or by ascending
/// from the current directory. Prints and returns `None` on failure.
fn resolve_root(explicit: Option<&PathBuf>) -> Option<PathBuf> {
    match explicit {
        Some(r) => Some(r.clone()),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("shc-lint: cannot determine current directory: {e}");
                    return None;
                }
            };
            match find_root(&cwd) {
                Some(r) => Some(r),
                None => {
                    eprintln!(
                        "shc-lint: no workspace root (Cargo.toml + crates/) above {}",
                        cwd.display()
                    );
                    None
                }
            }
        }
    }
}

/// The CLI `check` subcommand. Prints the report and returns the process
/// exit code: 0 when clean (or after a baseline update), 1 on findings,
/// 2 on usage/IO errors.
pub fn run_check(opts: &CheckOptions) -> u8 {
    let Some(root) = resolve_root(opts.root.as_ref()) else {
        return 2;
    };

    let ws = match collect_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("shc-lint: {e}");
            return 2;
        }
    };
    let files_checked = ws.files.len();
    let output = rules::run(&ws, opts.parallelism);

    if let Some(path) = &opts.effects_out {
        if let Err(e) = fs::write(path, render_effects_json(&output.effect_rows)) {
            eprintln!("shc-lint: cannot write {}: {e}", path.display());
            return 2;
        }
    }

    let baseline_path = root.join(BASELINE_FILE);
    if opts.update_baseline {
        // Diff against what is on disk so the rewrite is reviewable,
        // not silent.
        let old = match fs::read_to_string(&baseline_path) {
            Ok(text) => Baseline::parse(&text).unwrap_or_default(),
            Err(_) => Baseline::default(),
        };
        let baseline = Baseline::from_findings(&output.findings);
        if let Err(e) = fs::write(&baseline_path, baseline.render()) {
            eprintln!("shc-lint: cannot write {}: {e}", baseline_path.display());
            return 2;
        }
        let diff = baseline.diff_against(&old);
        println!(
            "shc-lint: wrote {} ({} ratcheted entr{}, {} group{} changed)",
            baseline_path.display(),
            baseline.entries.len(),
            if baseline.entries.len() == 1 {
                "y"
            } else {
                "ies"
            },
            diff.len(),
            if diff.len() == 1 { "" } else { "s" },
        );
        for line in &diff {
            println!("{line}");
        }
        // Fall through and report against the fresh baseline: hard-rule
        // findings still fail even right after an update.
    }

    let baseline = match fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("shc-lint: {e}");
                return 2;
            }
        },
        Err(_) => Baseline::default(),
    };
    let RatchetResult {
        new_findings,
        baselined,
        improved,
    } = baseline.apply(output.findings);

    if opts.json {
        print!(
            "{}",
            render_json(&new_findings, baselined, files_checked, &output.panic_apis)
        );
    } else {
        for f in &new_findings {
            println!("{}", f.render());
        }
        for ((rule, file, api, effect), count, allowed) in &improved {
            let mut what = if api.is_empty() {
                file.clone()
            } else {
                format!("{file} `{api}`")
            };
            if !effect.is_empty() {
                what.push_str(&format!(" ({effect})"));
            }
            println!(
                "shc-lint: note: {what} is below its `{rule}` baseline ({count} < {allowed}); run `cargo run -p shc-lint -- check --update-baseline` to ratchet down"
            );
        }
        println!(
            "shc-lint: {} files checked, {} finding{} baselined, {} new, {} panic-reachable API{}",
            files_checked,
            baselined,
            if baselined == 1 { "" } else { "s" },
            new_findings.len(),
            output.panic_apis.len(),
            if output.panic_apis.len() == 1 {
                ""
            } else {
                "s"
            },
        );
    }
    if new_findings.is_empty() {
        0
    } else {
        1
    }
}

/// The CLI `graph` subcommand: emit the name-resolved call graph as
/// Graphviz DOT on stdout, optionally colored by effective effect
/// summary, for debugging analyzer over-approximation.
pub fn run_graph(root: Option<PathBuf>, effects: bool) -> u8 {
    let Some(root) = resolve_root(root.as_ref()) else {
        return 2;
    };
    let ws = match collect_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("shc-lint: {e}");
            return 2;
        }
    };
    print!("{}", rules::render_graph_dot(&ws, effects));
    0
}

/// Per-rule rationale and escape hatch for `--explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "no-panic" => {
            "no-panic (ratcheted)\n\
             Why: `panic!`-family macros and `.unwrap()`/`.expect()` abort an entire\n\
             batch characterization run from one bad operating point. Solver crates\n\
             must propagate errors instead.\n\
             Escape hatch: `// lint: allow(no-panic, reason = \"…\")` on the line\n\
             above, or accept the current count in lint-baseline.json and ratchet\n\
             it down over time."
        }
        "panic-reachability" => {
            "panic-reachability (ratcheted per API)\n\
             Why: a panic buried three calls deep still takes down every public\n\
             entry point above it. The effect graph's call edges (name-resolved,\n\
             conservative) show which public solver APIs can transitively reach\n\
             a site that aborts a release build — `unwrap`/`expect`, `panic!`-\n\
             family macros, `assert!`-family macros (not the `debug_` ones), and\n\
             indexing inside `// lint: hot-loop` regions — and the shortest\n\
             chain is reported as clickable file:line frames.\n\
             Escape hatch: the reachable-API set is ratcheted in lint-baseline.json\n\
             (per-API `api` key); it may only shrink. A single API can be\n\
             excused with `// lint: allow(panic-reachability, reason = \"…\")` on\n\
             its `fn` line."
        }
        "float-eq" => {
            "float-eq (ratcheted)\n\
             Why: `==`/`!=` against a float literal is an exact bitwise comparison\n\
             that breaks under rounding; convergence logic needs tolerances.\n\
             Escape hatch: `// lint: allow(float-eq, reason = \"…\")` or the\n\
             baseline ratchet."
        }
        "units" => {
            "units (hard error)\n\
             Why: every quantity fed into h(tau_s, tau_h) is a physical unit —\n\
             seconds, volts, farads. Adding a time to a voltage corrupts the\n\
             characterization silently; no test catches it. Fields and fn params\n\
             annotated `/// unit: s` (or `unit(dt): s`, `unit(return): V/s`) are\n\
             propagated through arithmetic: `+`/`-`/comparisons require equal\n\
             units, `*`//` compose exponents.\n\
             Escape hatch: `// lint: allow(units, reason = \"…\")`, or drop the\n\
             annotation from the quantity (unannotated values are never flagged)."
        }
        "thread-local-discipline" => {
            "thread-local-discipline (hard error)\n\
             Why: telemetry Collectors and fault Injectors install into\n\
             thread-local state. parallel::run_indexed re-installs per worker; a\n\
             raw set/replace or an immediately-dropped guard leaks state across\n\
             workers and corrupts cross-thread aggregation.\n\
             Escape hatch: bind guards to a named local (`let _guard = …`); for\n\
             deliberate raw access, `// lint: allow(thread-local-discipline,\n\
             reason = \"…\")`."
        }
        "tolerance-hygiene" => {
            "tolerance-hygiene (hard error)\n\
             Why: a float literal inside a convergence predicate (comparisons in\n\
             the loops of mpnr.rs, tracer.rs, transient.rs) silently defines what\n\
             \"converged\" means. Such thresholds must be named, documented\n\
             constants so they are visible, greppable, and reviewed.\n\
             Escape hatch: hoist the literal into a `const`; else\n\
             `// lint: allow(tolerance-hygiene, reason = \"…\")`."
        }
        "telemetry-hygiene" => {
            "telemetry-hygiene (hard error)\n\
             Why: metric names, journal keys, and the DESIGN.md schema table must\n\
             agree, and JournalEvent construction must be gated on\n\
             shc_obs::enabled() so telemetry-off runs pay nothing.\n\
             Escape hatch: declare the variant/key, or\n\
             `// lint: allow(telemetry-hygiene, reason = \"…\")`."
        }
        "hot-path-certify" => {
            "hot-path-certify (hard error)\n\
             Why: a `// lint: hot-loop` region or `// lint: hot-fn` function runs\n\
             once per Newton iteration, so anything it calls runs there too. This\n\
             rule computes a per-function effect summary (allocates / panics /\n\
             locks / reads clock / does I/O) as a bottom-up fixed point over the\n\
             call graph and requires the *transitive closure* of every\n\
             `// lint: hot-loop` region and `// lint: hot-fn` function to be\n\
             free of all five.\n\
             Violations render the shortest call chain to the offending site.\n\
             Escape hatch: `// lint: allow(hot-path-certify, reason = \"…\")` at\n\
             the effect site (excuses it everywhere) or at a call site (excuses\n\
             the callee's effects through that one edge — for documented\n\
             cold/fallback paths). There is no baseline: a hot allocation\n\
             cannot be ratcheted in."
        }
        "determinism" => {
            "determinism (ratcheted per API and effect)\n\
             Why: serial==parallel bitwise identity is what makes golden-contour\n\
             gating trustworthy, and HashMap/HashSet iteration order (or float\n\
             accumulation in such an order) silently varies per run/seed. Any\n\
             result-producing public API of shc-core/shc-spice/shc-linalg that\n\
             can transitively reach unordered iteration is flagged with the call\n\
             chain.\n\
             Escape hatch: iterate a sorted view (BTreeMap, or collect+sort),\n\
             or `// lint: allow(determinism, reason = \"…\")` at the iteration\n\
             site when order provably cannot reach the result."
        }
        "effect-annotation-drift" => {
            "effect-annotation-drift (hard error)\n\
             Why: `/// effects: alloc, clock` (or `/// effects: none`) on a\n\
             public API makes the inferred contract visible at the signature —\n\
             but only if it stays true. The annotation is checked against the\n\
             inferred effective summary (the eight declarable effect kinds;\n\
             unknown-callee and lane-divergent are analysis-internal and\n\
             exempt) in both directions.\n\
             Escape hatch: none — update the annotation (or drop it; the\n\
             annotation is optional)."
        }
        "trunk-divergence-fence" => {
            "trunk-divergence-fence (ratcheted per root and effect)\n\
             Why: a run may adopt a prefix-ladder checkpoint (DESIGN.md S6.1)\n\
             computed at other skews only because every computation below the\n\
             agreement horizon is skew-invariant. A `lane-divergent` effect kind\n\
             seeds at readers of skew state (Waveform data-pulse params\n\
             tau_s/tau_h) and propagates over the SCC-condensed call graph;\n\
             every `// lint: trunk-fence` root (Rungs::adopt, which ladder\n\
             and sibling rungs both resume through, and the seed hand-over\n\
             Rungs::extend_into) must be unreachable from any seed. This\n\
             turns the ladder's soundness\n\
             argument into a ratcheted CI certificate: findings render the\n\
             shortest call chain from the fence root to the divergent read.\n\
             Escape hatch: keep skew reads out of the adopted checkpoint, or\n\
             `// lint: allow(trunk-divergence-fence, reason = \"…\")` on the\n\
             fence root for a read proven skew-invariant by construction."
        }
        "lint-annotation" => {
            "lint-annotation (hard error)\n\
             Why: the lint's own escape hatches are load-bearing; a malformed\n\
             directive or a reason-less allow silently changes what is checked.\n\
             Escape hatch: none — fix the annotation."
        }
        _ => return None,
    })
}
