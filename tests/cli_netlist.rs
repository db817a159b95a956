//! End-to-end test of the netlist-driven CLI pipeline: SPICE deck text →
//! parser → custom register fixture → characterization → report.

use shc::cells::OutputTransition;
use shc::cli::{self, CliConfig};

const DLATCH_DECK: &str = "\
* dynamic D latch, closes at the falling clock edge (4.75 ns)
.model n1 NMOS
.model p1 PMOS
Vdd  vdd  0 DC 2.5
Vclk clk  0 PULSE(0 2.5 0.2n 0.1n 0.1n 1.4n 3n)
Vckb clkb 0 PULSE(2.5 0 0.2n 0.1n 0.1n 1.4n 3n)
Vd   d    0 DATA(0 2.5 4.75n 0.1n 0.1n)
Mtgn x clk  d n1 W=1u   L=0.25u
Mtgp x clkb d p1 W=2.5u L=0.25u
Cx   x  0 3f
Mi1p qb x vdd p1 W=2.5u L=0.25u
Mi1n qb x 0   n1 W=1u   L=0.25u
Cqb  qb 0 3f
Mi2p q qb vdd p1 W=2.5u L=0.25u
Mi2n q qb 0   n1 W=1u   L=0.25u
Cq   q  0 20f
.end";

fn latch_config() -> CliConfig {
    CliConfig {
        netlist_path: "inline".to_string(),
        output: "q".to_string(),
        vdd: 2.5,
        edge: 4.75e-9,
        period: 3e-9,
        transition: OutputTransition::Rising,
        fraction: 0.5,
        degradation: 0.1,
        points: 8,
        reference_setup: Some(0.12e-9),
        journal: None,
        metrics: None,
        fault_plan: None,
        checkpoint: None,
        checkpoint_every: 5,
        resume: None,
        solver: shc::spice::SolverChoice::Auto,
        profile: None,
        profile_detail: shc::prof::Detail::Step,
    }
}

#[test]
fn netlist_deck_characterizes_through_cli_pipeline() {
    let report = cli::run(DLATCH_DECK, &latch_config()).expect("pipeline runs");
    assert!(report.contains("characteristic clock-to-Q"));
    assert!(report.contains("setup(ps)"));
    assert!(report.contains("MPNR iterations/point"), "report: {report}");
    // At least a handful of contour rows.
    let rows = report
        .lines()
        .filter(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            fields.len() == 2 && fields.iter().all(|f| f.parse::<f64>().is_ok())
        })
        .count();
    assert!(rows >= 4, "only {rows} contour rows in report: {report}");
}

#[test]
fn fault_and_checkpoint_flags_thread_through_the_pipeline() {
    use shc::fault::{FaultKind, FaultPlan};

    let dir = std::env::temp_dir().join(format!(
        "shc-cli-ckpt-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("cli.ckpt.jsonl");
    let _ = std::fs::remove_file(&ckpt);

    // A zero-probability plan exercises the full injector plumbing (install,
    // cursor bookkeeping, report line) without perturbing the trace.
    let cfg = CliConfig {
        fault_plan: Some(FaultPlan {
            probability: 0.0,
            site: None,
            kind: FaultKind::NonConvergence,
            seed: 1,
        }),
        checkpoint: Some(ckpt.to_string_lossy().into_owned()),
        checkpoint_every: 2,
        ..latch_config()
    };
    let report = cli::run(DLATCH_DECK, &cfg).expect("pipeline runs");
    assert!(
        report.contains("fault injection: 0 injected"),
        "report: {report}"
    );
    let ckpt_text = std::fs::read_to_string(&ckpt).expect("checkpoint written");
    assert!(ckpt_text.lines().count() >= 1, "no checkpoint rows");

    // --resume picks the trace back up from the last checkpoint and renders
    // the same kind of report (the contour is already complete here, so the
    // resumed session just re-emits it).
    let cfg2 = CliConfig {
        resume: Some(ckpt.to_string_lossy().into_owned()),
        ..latch_config()
    };
    let report2 = cli::run(DLATCH_DECK, &cfg2).expect("resume runs");
    assert!(report2.contains(" points,"), "report: {report2}");

    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn cli_matches_builtin_dlatch_fixture() {
    // The same topology built via shc-cells must give a setup time within
    // a few ps of the netlist-driven custom fixture.
    use shc::cells::{d_latch, ClockSpec, Technology};
    use shc::core::independent::{binary_search, IndependentOptions, SkewAxis};
    use shc::core::CharacterizationProblem;

    let custom_register = cli::build_register(DLATCH_DECK, &latch_config()).expect("builds");
    let custom_problem = CharacterizationProblem::builder(custom_register)
        .reference_setup(0.12e-9)
        .build()
        .expect("custom problem");
    let builtin_problem = CharacterizationProblem::builder(
        d_latch(&Technology::default_250nm()).with_clock(ClockSpec::fast()),
    )
    .build()
    .expect("builtin problem");

    let opts = IndependentOptions {
        tol: 0.5e-12,
        ..IndependentOptions::default()
    };
    let custom_setup = binary_search(&custom_problem, SkewAxis::Setup, &opts)
        .expect("custom setup")
        .skew;
    let builtin_setup = binary_search(&builtin_problem, SkewAxis::Setup, &opts)
        .expect("builtin setup")
        .skew;
    assert!(
        (custom_setup - builtin_setup).abs() < 10e-12,
        "netlist latch setup {:.1} ps vs builtin {:.1} ps",
        custom_setup * 1e12,
        builtin_setup * 1e12
    );
}

#[test]
fn journal_and_metrics_files_capture_the_run() {
    let dir = std::env::temp_dir();
    let journal = dir.join(format!("shc_cli_journal_{}.jsonl", std::process::id()));
    let metrics = dir.join(format!("shc_cli_metrics_{}.json", std::process::id()));
    let cfg = CliConfig {
        journal: Some(journal.to_string_lossy().into_owned()),
        metrics: Some(metrics.to_string_lossy().into_owned()),
        ..latch_config()
    };
    let report = cli::run(DLATCH_DECK, &cfg).expect("pipeline runs");
    assert!(report.contains("telemetry summary"), "report: {report}");

    // One valid JSONL event per traced contour point, in walk order.
    let rows = report
        .lines()
        .filter(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            fields.len() == 2 && fields.iter().all(|f| f.parse::<f64>().is_ok())
        })
        .count();
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let events: Vec<shc_obs::JournalEvent> = text
        .lines()
        .map(|l| shc_obs::JournalEvent::from_json(l).expect("valid JSONL event"))
        .collect();
    assert_eq!(events.len(), rows, "one journal event per contour row");
    assert!(events.len() <= cfg.points, "--points bounds the journal");
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.point, i as u64);
        assert_eq!(e.level, None, "single trace has no batch level");
        assert!(
            e.residual < 5e-3,
            "point {i}: loose residual {}",
            e.residual
        );
        assert!(e.transient_steps > 0, "point {i}: no transient work?");
    }

    // Metrics must reconcile with the report's own simulation accounting:
    // "<n> points, <sims> transient simulations (+<cal> calibration), ...".
    let line = report
        .lines()
        .find(|l| l.contains("transient simulations"))
        .expect("summary line");
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    let (points, sims, calibration) = (nums[0], nums[1], nums[2]);
    assert_eq!(points as usize, rows);
    let mtext = std::fs::read_to_string(&metrics).expect("metrics written");
    let counter = |key: &str| shc_obs::json::scan_u64(&mtext, key).unwrap_or(0);
    assert_eq!(counter("transient_runs"), sims + calibration);
    assert_eq!(counter("journal_events"), events.len() as u64);
    assert_eq!(counter("contour_points"), events.len() as u64);
    assert!(counter("mpnr_solves") > 0);

    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn bad_deck_is_reported_with_line() {
    let err = cli::run("R1 a 0 garbage\n.end", &latch_config()).unwrap_err();
    assert!(err.to_string().contains("line 1"), "got: {err}");
}

/// The 9T TSPC written as a hierarchical SPICE deck (fast clock) must
/// characterize like the built-in `tspc_register` fixture — this
/// cross-validates the netlist parser, .SUBCKT flattening, custom
/// fixtures, and the characterization core in one shot.
const TSPC_DECK_FAST: &str = "\
.model n1 NMOS
.model p1 PMOS
.subckt platch in out clk vdd
Mpa mid clk vdd p1 W=2.5u L=0.25u
Mpb out in  mid p1 W=2.5u L=0.25u
Mn  out in  0   n1 W=1u   L=0.25u
.ends
.subckt nlatch in out clk vdd
Mp  out in vdd p1 W=2.5u L=0.25u
Mna out in s   n1 W=2u   L=0.25u
Mnb s  clk 0   n1 W=2u   L=0.25u
.ends
Vdd  vdd 0 DC 2.5
Vclk clk 0 PULSE(0 2.5 0.2n 0.1n 0.1n 1.4n 3n)
Vd   d   0 DATA(2.5 0 3.25n 0.1n 0.1n)
X1 d x clk vdd platch
X2 x y clk vdd nlatch
X3 y q clk vdd nlatch
Cx x 0 6f
Cy y 0 3f
Cq q 0 20f
.end";

#[test]
fn hierarchical_tspc_deck_matches_builtin_fixture() {
    use shc::cells::{tspc_register, ClockSpec, Technology};
    use shc::core::independent::{binary_search, IndependentOptions, SkewAxis};
    use shc::core::CharacterizationProblem;

    let cfg = CliConfig {
        netlist_path: "inline".to_string(),
        output: "q".to_string(),
        vdd: 2.5,
        edge: 3.25e-9,
        period: 3e-9,
        transition: OutputTransition::Rising,
        fraction: 0.5,
        degradation: 0.1,
        points: 4,
        reference_setup: None,
        journal: None,
        metrics: None,
        fault_plan: None,
        checkpoint: None,
        checkpoint_every: 5,
        resume: None,
        solver: shc::spice::SolverChoice::Auto,
        profile: None,
        profile_detail: shc::prof::Detail::Step,
    };
    let deck_problem =
        CharacterizationProblem::builder(cli::build_register(TSPC_DECK_FAST, &cfg).unwrap())
            .build()
            .unwrap();
    let builtin_problem = CharacterizationProblem::builder(
        tspc_register(&Technology::default_250nm()).with_clock(ClockSpec::fast()),
    )
    .build()
    .unwrap();

    // Characteristic delays within a few ps (the deck omits the tiny
    // internal-stack parasitics the builder adds).
    let d_cq = (deck_problem.characteristic_delay() - builtin_problem.characteristic_delay()).abs();
    assert!(d_cq < 10e-12, "t_CQ differs by {:.1} ps", d_cq * 1e12);

    let opts = IndependentOptions {
        tol: 0.5e-12,
        ..IndependentOptions::default()
    };
    for axis in [SkewAxis::Setup, SkewAxis::Hold] {
        let a = binary_search(&deck_problem, axis, &opts).unwrap().skew;
        let b = binary_search(&builtin_problem, axis, &opts).unwrap().skew;
        assert!(
            (a - b).abs() < 15e-12,
            "{axis:?} differs: deck {:.1} ps vs builtin {:.1} ps",
            a * 1e12,
            b * 1e12
        );
    }
}

/// A non-positive supply or clock period is a usage error (exit code 1),
/// reported before the deck is characterized.
#[test]
fn non_positive_vdd_or_period_exits_with_a_usage_error() {
    let deck = std::env::temp_dir().join(format!("shc-cli-usage-{}.sp", std::process::id()));
    std::fs::write(&deck, DLATCH_DECK).unwrap();
    for (flag, value) in [("--vdd", "0"), ("--period", "-1n")] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_shc-char"))
            .arg(&deck)
            .args(["--output", "q", "--edge", "4.75n", flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {flag} must be positive and finite")),
            "{stderr}"
        );
    }
    std::fs::remove_file(&deck).unwrap();
}
