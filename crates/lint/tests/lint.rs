//! Fixture-based rule tests plus the workspace self-checks.
//!
//! Each fixture under `tests/fixtures/` is a known-bad (or known-clean)
//! snippet; it must trigger exactly its intended rule and nothing else,
//! with correct `file:line` anchors. The self-checks run the full lint
//! over the real workspace: every src/ file must parse with zero
//! diagnostics and byte-tight spans, serial and parallel runs must be
//! byte-identical, and there must be no non-baselined findings — so
//! `cargo test` alone catches lint regressions locally.

use std::collections::BTreeSet;
use std::path::Path;

use shc_core::parallel::Parallelism;
use shc_lint::driver;
use shc_lint::rules::{self, SourceFile, Workspace};
use shc_lint::{ast, lexer, parser};

/// Lints one fixture as if it lived at `path` inside the workspace.
fn lint_fixture(path: &str, text: &str) -> Vec<shc_lint::report::Finding> {
    rules::run(
        &Workspace {
            files: vec![SourceFile {
                path: path.to_string(),
                text: text.to_string(),
            }],
            design_md: None,
        },
        Parallelism::Serial,
    )
    .findings
}

/// Asserts every finding is `rule`, anchored in `path`, at exactly `lines`.
fn assert_only(findings: &[shc_lint::report::Finding], rule: &str, path: &str, lines: &[u32]) {
    let rules_seen: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules_seen,
        BTreeSet::from([rule]),
        "expected only `{rule}`, got {findings:#?}"
    );
    assert!(findings.iter().all(|f| f.file == path), "{findings:#?}");
    let mut seen: Vec<u32> = findings.iter().map(|f| f.line).collect();
    seen.sort_unstable();
    assert_eq!(seen, lines, "wrong line anchors: {findings:#?}");
}

#[test]
fn panic_fixture_triggers_only_no_panic() {
    let findings = lint_fixture(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/panic_in_solver.rs"),
    );
    assert_only(
        &findings,
        "no-panic",
        "crates/core/src/fixture.rs",
        &[5, 9, 13],
    );
}

#[test]
fn panic_fixture_is_clean_outside_solver_crates() {
    let findings = lint_fixture(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/panic_in_solver.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn hot_loop_fixture_triggers_alloc_sites_and_certification() {
    let findings = lint_fixture(
        "crates/spice/src/fixture.rs",
        include_str!("fixtures/hot_loop_alloc.rs"),
    );
    // The region flags each allocation site, and it also makes `step` a
    // hot-path-certify root, which fails once for the alloc effect.
    let mut sites: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == "hot-loop-alloc")
        .map(|f| f.line)
        .collect();
    sites.sort_unstable();
    assert_eq!(sites, vec![7, 8, 9, 10], "{findings:#?}");
    let certs: Vec<&shc_lint::report::Finding> = findings
        .iter()
        .filter(|f| f.rule == "hot-path-certify")
        .collect();
    assert_eq!(certs.len(), 1, "{findings:#?}");
    assert_eq!((certs[0].line, certs[0].effect), (3, Some("alloc")));
    assert_eq!(findings.len(), 5, "no other rules may fire: {findings:#?}");
}

#[test]
fn float_eq_fixture_triggers_only_float_eq() {
    let findings = lint_fixture(
        "crates/linalg/src/fixture.rs",
        include_str!("fixtures/float_eq.rs"),
    );
    assert_only(
        &findings,
        "float-eq",
        "crates/linalg/src/fixture.rs",
        &[5, 9],
    );
}

#[test]
fn unsafe_fixture_triggers_only_unsafe_audit() {
    let findings = lint_fixture(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/unsafe_no_safety.rs"),
    );
    assert_only(
        &findings,
        "unsafe-audit",
        "crates/bench/src/fixture.rs",
        &[4],
    );
}

#[test]
fn reasonless_allow_triggers_only_lint_annotation() {
    let findings = lint_fixture(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/allow_no_reason.rs"),
    );
    // The unwrap itself is suppressed by the allow; the reason-less allow
    // is the one error, anchored at the annotation line.
    assert_only(
        &findings,
        "lint-annotation",
        "crates/core/src/fixture.rs",
        &[7],
    );
}

#[test]
fn ungated_journal_triggers_only_telemetry_hygiene() {
    let findings = lint_fixture(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/journal_gate.rs"),
    );
    assert_only(
        &findings,
        "telemetry-hygiene",
        "crates/bench/src/fixture.rs",
        &[6],
    );
}

#[test]
fn clean_fixture_produces_zero_findings() {
    let findings = lint_fixture(
        "crates/linalg/src/fixture.rs",
        include_str!("fixtures/clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn transitive_panic_chain_triggers_panic_reachability() {
    let findings = lint_fixture(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/panic_chain.rs"),
    );
    assert_only(
        &findings,
        "panic-reachability",
        "crates/core/src/fixture.rs",
        &[6],
    );
    assert_eq!(findings[0].api.as_deref(), Some("api"));
    assert!(
        findings[0].message.contains("helper") && findings[0].message.contains("unwrap()"),
        "chain must walk through the helper to the site: {}",
        findings[0].message
    );
}

#[test]
fn direct_panic_site_triggers_panic_reachability_in_solver_crates_only() {
    let findings = lint_fixture(
        "crates/linalg/src/fixture.rs",
        include_str!("fixtures/panic_direct.rs"),
    );
    assert_only(
        &findings,
        "panic-reachability",
        "crates/linalg/src/fixture.rs",
        &[6],
    );
    let outside = lint_fixture(
        "crates/cells/src/fixture.rs",
        include_str!("fixtures/panic_direct.rs"),
    );
    assert!(outside.is_empty(), "{outside:#?}");
}

#[test]
fn unit_mismatch_and_magic_literal_trigger_units() {
    let findings = lint_fixture(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/units_mismatch.rs"),
    );
    assert_only(&findings, "units", "crates/core/src/fixture.rs", &[13, 17]);
}

#[test]
fn unparseable_annotation_triggers_units() {
    let findings = lint_fixture(
        "crates/spice/src/fixture.rs",
        include_str!("fixtures/units_bad_annotation.rs"),
    );
    assert_only(&findings, "units", "crates/spice/src/fixture.rs", &[7]);
}

#[test]
fn raw_thread_local_set_triggers_discipline() {
    let findings = lint_fixture(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/thread_local_raw_set.rs"),
    );
    assert_only(
        &findings,
        "thread-local-discipline",
        "crates/core/src/fixture.rs",
        &[12],
    );
}

#[test]
fn discarded_guards_trigger_discipline() {
    let findings = lint_fixture(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/thread_local_guard_drop.rs"),
    );
    assert_only(
        &findings,
        "thread-local-discipline",
        "crates/core/src/fixture.rs",
        &[6, 7],
    );
}

#[test]
fn inline_tolerances_trigger_hygiene_in_designated_files_only() {
    let findings = lint_fixture(
        "crates/core/src/mpnr.rs",
        include_str!("fixtures/tolerance_magic.rs"),
    );
    assert_only(
        &findings,
        "tolerance-hygiene",
        "crates/core/src/mpnr.rs",
        &[7, 16],
    );
    let outside = lint_fixture(
        "crates/core/src/other.rs",
        include_str!("fixtures/tolerance_magic.rs"),
    );
    assert!(outside.is_empty(), "{outside:#?}");
}

#[test]
fn hot_fn_with_transitive_alloc_fails_certification() {
    let findings = lint_fixture(
        "crates/spice/src/fixture.rs",
        include_str!("fixtures/hot_fn_transitive_alloc.rs"),
    );
    // The root body is clean; the finding comes from the summary of the
    // helper it calls, anchored at the certified root's definition.
    assert_only(
        &findings,
        "hot-path-certify",
        "crates/spice/src/fixture.rs",
        &[5],
    );
    assert_eq!(findings[0].api.as_deref(), Some("certified"));
    assert_eq!(findings[0].effect, Some("alloc"));
    assert!(
        findings[0].message.contains("helper") && findings[0].message.contains("vec!"),
        "chain must walk through the helper to the allocation: {}",
        findings[0].message
    );
}

#[test]
fn hashmap_fold_in_public_api_triggers_determinism() {
    let findings = lint_fixture(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/determinism_hashmap.rs"),
    );
    // Both determinism effects fire on the same API: the unordered
    // iteration and the float accumulation folded over it.
    assert_only(
        &findings,
        "determinism",
        "crates/core/src/fixture.rs",
        &[6, 6],
    );
    let effects: BTreeSet<Option<&str>> = findings.iter().map(|f| f.effect).collect();
    assert_eq!(
        effects,
        BTreeSet::from([Some("unordered-iter"), Some("float-order")])
    );
    // Outside the solver crates the same code is not audited.
    let outside = lint_fixture(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/determinism_hashmap.rs"),
    );
    assert!(outside.is_empty(), "{outside:#?}");
}

#[test]
fn stale_effect_annotation_triggers_drift() {
    let findings = lint_fixture(
        "crates/linalg/src/fixture.rs",
        include_str!("fixtures/effects_drift.rs"),
    );
    assert_only(
        &findings,
        "effect-annotation-drift",
        "crates/linalg/src/fixture.rs",
        &[7],
    );
    assert!(
        findings[0].message.contains("none") && findings[0].message.contains("alloc"),
        "message must show declared vs inferred: {}",
        findings[0].message
    );
}

#[test]
fn dangling_hot_fn_marker_triggers_lint_annotation() {
    let findings = lint_fixture(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/hot_fn_dangling.rs"),
    );
    assert_only(
        &findings,
        "lint-annotation",
        "crates/core/src/fixture.rs",
        &[7],
    );
}

#[test]
fn undocumented_unsafe_macro_invocation_triggers_unsafe_audit() {
    let findings = lint_fixture(
        "crates/spice/src/fixture.rs",
        include_str!("fixtures/macro_unsafe_invocation.rs"),
    );
    // Only the undocumented call site fires: the definition-side token
    // has its SAFETY comment inside the macro body, and the first
    // invocation documents its own expansion.
    assert_only(
        &findings,
        "unsafe-audit",
        "crates/spice/src/fixture.rs",
        &[21],
    );
}

#[test]
fn skew_reader_reachable_from_trunk_fence_triggers_divergence_fence() {
    let findings = lint_fixture(
        "crates/spice/src/batch/fixture.rs",
        include_str!("fixtures/trunk_fence_divergent.rs"),
    );
    assert_only(
        &findings,
        "trunk-divergence-fence",
        "crates/spice/src/batch/fixture.rs",
        &[13],
    );
    // The finding must carry the full call chain down to the seed.
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("skew_offset") && f.message.contains("`.tau_s`")),
        "{findings:#?}"
    );
}

/// Every real src/ file must parse with zero diagnostics, and every
/// recorded span must be a byte-tight slice of its source (in bounds,
/// no leading/trailing whitespace).
#[test]
fn whole_workspace_parses_clean_with_tight_spans() {
    let root = driver::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let ws = driver::collect_workspace(&root).expect("workspace loads");
    assert!(ws.files.len() > 50, "only {} files found", ws.files.len());
    for file in &ws.files {
        let toks = lexer::lex(&file.text);
        let parsed = parser::parse_file(&file.text, &toks);
        assert!(
            parsed.diagnostics.is_empty(),
            "{} has parse diagnostics: {:?}",
            file.path,
            parsed.diagnostics
        );
        for span in ast::collect_spans(&parsed) {
            assert!(
                span.start <= span.end && span.end <= file.text.len(),
                "{}: span {span:?} out of bounds",
                file.path
            );
            let slice = &file.text[span.start..span.end];
            assert_eq!(
                slice,
                slice.trim(),
                "{}: span {span:?} is not token-tight",
                file.path
            );
        }
    }
}

/// Serial and parallel runs over the real workspace must agree on the
/// ordered findings and on the exact JSON report bytes.
#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    let root = driver::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let ws = driver::collect_workspace(&root).expect("workspace loads");
    let serial = rules::run(&ws, Parallelism::Serial);
    let parallel = rules::run(&ws, Parallelism::Auto);
    assert_eq!(serial.findings, parallel.findings);
    assert_eq!(serial.panic_apis, parallel.panic_apis);
    assert_eq!(serial.effect_rows, parallel.effect_rows);
    let json = |out: &rules::RunOutput| {
        shc_lint::report::render_json(&out.findings, 0, ws.files.len(), &out.panic_apis)
    };
    assert_eq!(json(&serial).into_bytes(), json(&parallel).into_bytes());
    let effects_json = |out: &rules::RunOutput| {
        shc_lint::report::render_effects_json(&out.effect_rows).into_bytes()
    };
    assert_eq!(effects_json(&serial), effects_json(&parallel));
}

/// The committed tree must lint clean: all hard rules pass and the
/// ratcheted rules sit at or below `lint-baseline.json`.
#[test]
fn self_check_real_workspace_has_no_new_findings() {
    let root = driver::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let outcome = driver::check_workspace(&root).expect("lint runs");
    assert!(
        outcome.files_checked > 50,
        "walker found only {} files — src/ discovery is broken",
        outcome.files_checked
    );
    assert!(
        outcome.new_findings.is_empty(),
        "workspace has non-baselined lint findings:\n{}",
        outcome
            .new_findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// End-to-end ratchet check against a synthetic workspace on disk: a
/// fresh violation fails `run_check` (exit 1), `--update-baseline`
/// absorbs it (exit 0), and a second violation fails again.
#[test]
fn ratchet_lifecycle_on_synthetic_workspace() {
    let dir = std::env::temp_dir().join(format!("shc-lint-test-{}", std::process::id()));
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write");
    let one = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let two =
        "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g(x: Option<u8>) -> u8 { x.unwrap() }\n";
    std::fs::write(src.join("lib.rs"), one).expect("write");

    let opts = driver::CheckOptions {
        root: Some(dir.clone()),
        ..Default::default()
    };
    assert_eq!(driver::run_check(&opts), 1, "fresh violation must fail");

    let update = driver::CheckOptions {
        update_baseline: true,
        ..opts.clone()
    };
    assert_eq!(driver::run_check(&update), 0, "baselined violation passes");
    assert_eq!(driver::run_check(&opts), 0, "and stays passing");

    std::fs::write(src.join("lib.rs"), two).expect("write");
    assert_eq!(
        driver::run_check(&opts),
        1,
        "count above baseline must fail"
    );

    std::fs::remove_dir_all(&dir).ok();
}
