//! The rule catalog: project-specific invariants clippy cannot express.
//!
//! | rule | scope | enforcement |
//! |------|-------|-------------|
//! | `no-panic` | non-test lib code of `shc-linalg`/`shc-spice`/`shc-core` | ratchet |
//! | `panic-reachability` | public APIs of the same crates, via the call graph | ratchet (per API) |
//! | `float-eq` | non-test lib code of the same numeric crates | ratchet |
//! | `units` | `/// unit:`-annotated quantities in the numeric crates | error |
//! | `thread-local-discipline` | Collector/Injector installs, workspace-wide | error |
//! | `tolerance-hygiene` | convergence loops of `mpnr.rs`/`tracer.rs`/`transient.rs` | error |
//! | `hot-loop-alloc` | `// lint: hot-loop` … `// lint: end-hot-loop` regions | error |
//! | `hot-path-certify` | transitive closure of hot-loop/`hot-fn` roots, via effect summaries | ratchet (per root+effect) |
//! | `determinism` | result-producing public APIs of the solver crates | ratchet (per API+effect) |
//! | `effect-annotation-drift` | `/// effects:`-annotated fns vs inferred summaries | error |
//! | `telemetry-hygiene` | whole workspace + DESIGN.md schema table | error |
//! | `unsafe-audit` | whole workspace, incl. macro-expansion call sites | error |
//! | `trunk-divergence-fence` | `// lint: trunk-fence` roots, via effect summaries | ratchet (per root+effect) |
//! | `lint-annotation` | the lint annotations themselves | error |
//!
//! Ratcheted rules are compared against `lint-baseline.json` (counts may
//! only go down); the rest are hard errors. Any rule can be silenced at a
//! single site with `// lint: allow(<rule>, reason = "…")` — the reason is
//! mandatory, an allow without one is itself a `lint-annotation` error.
//!
//! Execution is two-phase. Phase A lexes and parses each file exactly
//! once and runs every per-file rule on the shared AST; it fans out
//! over files with `shc_core::parallel::run_indexed`. Phase B runs the
//! workspace-global rules (symbol table, call graph, unit maps,
//! telemetry cross-checks) serially over the phase-A products. Findings
//! are fully sorted at the end, so parallel output is byte-identical to
//! serial output.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;

use crate::ast::{self, Expr, ExprKind, ItemKind, Stmt};
use crate::callgraph::{CallGraph, PANIC_MACROS, PANIC_METHODS};
use crate::effects::{EffectGraph, EffectKind, EffectSet, CERT_KINDS, DET_KINDS, UNORDERED_TYPES};
use crate::lexer::{self, is_float_literal, Token, TokenKind};
use crate::parser;
use crate::report::{EffectRow, Finding, PanicApi};
use crate::symbols::SymbolTable;
use crate::units::{self, Unit};
use shc_core::parallel::{run_indexed, Parallelism};

/// Rules whose counts are ratcheted against the committed baseline
/// instead of failing outright.
pub const RATCHETED_RULES: &[&str] = &[
    "no-panic",
    "float-eq",
    "panic-reachability",
    "hot-path-certify",
    "determinism",
    "trunk-divergence-fence",
];

/// All rule identifiers accepted by `// lint: allow(<rule>, …)`.
pub const ALL_RULES: &[&str] = &[
    "no-panic",
    "panic-reachability",
    "float-eq",
    "units",
    "thread-local-discipline",
    "tolerance-hygiene",
    "hot-loop-alloc",
    "hot-path-certify",
    "determinism",
    "effect-annotation-drift",
    "telemetry-hygiene",
    "unsafe-audit",
    "trunk-divergence-fence",
    "lint-annotation",
];

/// Crates whose library code must not panic and must not compare floats
/// with `==`/`!=`: the solver stack that batch runs depend on.
const SOLVER_CRATE_PREFIXES: &[&str] = &[
    "crates/linalg/src/",
    "crates/spice/src/",
    "crates/core/src/",
];

/// Files whose convergence loops are subject to `tolerance-hygiene`:
/// the MPNR corrector, the Euler-Newton tracer, and the transient
/// integrator — the three places where a magic tolerance silently
/// changes what "converged" means.
const TOLERANCE_FILES: &[&str] = &[
    "crates/core/src/mpnr.rs",
    "crates/core/src/tracer.rs",
    "crates/spice/src/transient.rs",
];

/// Files allowed to mutate thread-local observability state directly:
/// the collector/injector implementations themselves, whose guards are
/// the blessed pattern everyone else must go through.
const THREAD_LOCAL_OWNERS: &[&str] = &[
    "crates/obs/src/collector.rs",
    "crates/fault/src/lib.rs",
    "crates/prof/src/profiler.rs",
];

/// Functions that return a scope guard which must be bound to a named
/// local (dropping it immediately uninstalls / restores the state).
const GUARD_FNS: &[&str] = &["install_scoped", "with_journal_level", "install"];

/// Allocating method calls forbidden inside hot-loop regions.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_string", "to_owned", "collect"];

/// Allocating macros forbidden inside hot-loop regions.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Allocating `Type::constructor` pairs forbidden inside hot-loop regions.
pub(crate) const ALLOC_CTORS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Matrix", "zeros"),
    ("Matrix", "identity"),
    ("Matrix", "from_rows"),
    ("Vector", "zeros"),
    ("Vector", "from_slice"),
    ("Vector", "unit"),
    ("LuFactor", "new"),
    ("Stamps", "new"),
    ("NewtonWorkspace", "new"),
    ("TransientScratch", "new"),
    ("HashMap", "new"),
    ("BTreeMap", "new"),
    ("VecDeque", "new"),
    ("CsrMatrix", "from_triplets"),
    ("CsrMatrix", "from_dense"),
    ("SparseLu", "new"),
    ("SparseJacSolver", "new"),
];

/// One source file handed to the linter, with a repo-relative path.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes, e.g. `crates/spice/src/transient.rs`.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

/// Everything the rules need to see at once.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All `.rs` files under the workspace `src/` trees.
    pub files: Vec<SourceFile>,
    /// Contents of `DESIGN.md`, when present (enables the journal-schema
    /// cross-check).
    pub design_md: Option<String>,
}

/// A site-level `// lint: allow(rule, reason = "…")` escape hatch.
#[derive(Debug)]
struct Allow {
    line: u32,
    rule: String,
    has_reason: bool,
    /// Set when a finding was suppressed by this allow.
    used: std::cell::Cell<bool>,
}

/// Per-file lexed view plus the lint annotations found in its comments.
struct FileCtx<'a> {
    path: &'a str,
    /// Code tokens only (comments stripped).
    code: Vec<Token<'a>>,
    allows: Vec<Allow>,
    /// Inclusive line ranges bounded by hot-loop markers.
    hot: Vec<(u32, u32)>,
    /// Lines of `// lint: hot-fn` markers; each certifies the next fn
    /// definition below it as a hot-path root.
    hot_fns: Vec<u32>,
    /// Lines of `// lint: trunk-fence` markers; each declares the next fn
    /// below a prefix-adoption root that `trunk-divergence-fence` must
    /// prove unreachable-from-divergent.
    trunk_fences: Vec<u32>,
    /// Inclusive line ranges of `#[cfg(test)] mod … { … }` bodies.
    tests: Vec<(u32, u32)>,
    /// Annotation problems found while building the context.
    annotation_findings: Vec<Finding>,
    /// All comment tokens, for the SAFETY-comment lookup.
    comments: Vec<(u32, &'a str)>,
}

impl<'a> FileCtx<'a> {
    fn build(file: &'a SourceFile, all: &[Token<'a>]) -> FileCtx<'a> {
        let mut code = Vec::with_capacity(all.len());
        let mut comments = Vec::new();
        let mut allows = Vec::new();
        let mut annotation_findings = Vec::new();
        let mut hot = Vec::new();
        let mut hot_fns = Vec::new();
        let mut trunk_fences = Vec::new();
        let mut hot_open: Option<u32> = None;

        for t in all {
            if !t.is_comment() {
                code.push(*t);
                continue;
            }
            comments.push((t.line, t.text));
            let Some(directive) = lint_directive(t.text) else {
                continue;
            };
            match parse_directive(directive) {
                Directive::HotLoop => {
                    if let Some(open) = hot_open {
                        annotation_findings.push(Finding::new(
                            "lint-annotation",
                            file.path.clone(),
                            t.line,
                            format!("nested `lint: hot-loop` (previous region opened on line {open} is still open)"),
                        ));
                    }
                    hot_open = Some(t.line);
                }
                Directive::HotFn => hot_fns.push(t.line),
                Directive::TrunkFence => trunk_fences.push(t.line),
                Directive::EndHotLoop => match hot_open.take() {
                    Some(start) => hot.push((start, t.line)),
                    None => annotation_findings.push(Finding::new(
                        "lint-annotation",
                        file.path.clone(),
                        t.line,
                        "`lint: end-hot-loop` without a matching `lint: hot-loop`".to_string(),
                    )),
                },
                Directive::Allow { rule, has_reason } => {
                    if !ALL_RULES.contains(&rule.as_str()) {
                        annotation_findings.push(Finding::new(
                            "lint-annotation",
                            file.path.clone(),
                            t.line,
                            format!("`lint: allow({rule})` names an unknown rule"),
                        ));
                    }
                    allows.push(Allow {
                        line: t.line,
                        rule,
                        has_reason,
                        used: std::cell::Cell::new(false),
                    });
                }
                Directive::Malformed(msg) => annotation_findings.push(Finding::new(
                    "lint-annotation",
                    file.path.clone(),
                    t.line,
                    msg,
                )),
            }
        }
        if let Some(open) = hot_open {
            annotation_findings.push(Finding::new(
                "lint-annotation",
                file.path.clone(),
                open,
                "`lint: hot-loop` region is never closed with `lint: end-hot-loop`".to_string(),
            ));
        }

        let tests = cfg_test_ranges(&code);
        FileCtx {
            path: &file.path,
            code,
            allows,
            hot,
            hot_fns,
            trunk_fences,
            tests,
            annotation_findings,
            comments,
        }
    }

    fn in_tests(&self, line: u32) -> bool {
        self.tests.iter().any(|&(a, b)| line >= a && line <= b)
    }

    fn in_hot(&self, line: u32) -> bool {
        self.hot.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// Emits `finding` unless a matching allow (same rule, on the same
    /// line or the line directly above) suppresses it.
    fn push(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
        for allow in &self.allows {
            if allow.rule == rule && (allow.line == line || allow.line + 1 == line) {
                allow.used.set(true);
                return; // suppressed; reason-less allows error separately
            }
        }
        out.push(Finding::new(rule, self.path.to_string(), line, message));
    }

    /// [`FileCtx::push`] for findings that carry a qualified API name
    /// (panic-reachability): same allow handling, api attached.
    fn push_with_api(
        &self,
        out: &mut Vec<Finding>,
        rule: &'static str,
        line: u32,
        message: String,
        api: String,
    ) {
        for allow in &self.allows {
            if allow.rule == rule && (allow.line == line || allow.line + 1 == line) {
                allow.used.set(true);
                return;
            }
        }
        out.push(Finding::new(rule, self.path.to_string(), line, message).with_api(api));
    }

    /// [`FileCtx::push`] for effect-rule findings, which carry both the
    /// qualified API and the effect name (the v3 ratchet key).
    #[allow(clippy::too_many_arguments)]
    fn push_with_effect(
        &self,
        out: &mut Vec<Finding>,
        rule: &'static str,
        line: u32,
        message: String,
        api: String,
        effect: &'static str,
    ) {
        for allow in &self.allows {
            if allow.rule == rule && (allow.line == line || allow.line + 1 == line) {
                allow.used.set(true);
                return;
            }
        }
        out.push(
            Finding::new(rule, self.path.to_string(), line, message)
                .with_api(api)
                .with_effect(effect),
        );
    }

    /// True when a comment containing `SAFETY:` sits within `window` lines
    /// above (or on) `line`.
    fn has_safety_comment(&self, line: u32, window: u32) -> bool {
        self.comments
            .iter()
            .any(|&(l, text)| l <= line && l + window >= line && text.contains("SAFETY:"))
    }
}

/// Extracts the text after `lint:` in a lint-directive comment.
fn lint_directive(comment: &str) -> Option<&str> {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim();
    let rest = body.strip_prefix("lint:")?;
    Some(rest.trim())
}

enum Directive {
    HotLoop,
    EndHotLoop,
    HotFn,
    TrunkFence,
    Allow { rule: String, has_reason: bool },
    Malformed(String),
}

fn parse_directive(text: &str) -> Directive {
    if text == "hot-loop" {
        return Directive::HotLoop;
    }
    if text == "end-hot-loop" {
        return Directive::EndHotLoop;
    }
    if text == "hot-fn" {
        return Directive::HotFn;
    }
    if text == "trunk-fence" {
        return Directive::TrunkFence;
    }
    if let Some(args) = text
        .strip_prefix("allow(")
        .and_then(|s| s.strip_suffix(')'))
    {
        let (rule, tail) = match args.split_once(',') {
            Some((r, tail)) => (r.trim(), tail.trim()),
            None => (args.trim(), ""),
        };
        let has_reason = tail
            .strip_prefix("reason")
            .map(|t| {
                t.trim_start().strip_prefix('=').is_some_and(|v| {
                    let v = v.trim();
                    v.len() > 2 && v.starts_with('"') && v.ends_with('"')
                })
            })
            .unwrap_or(false);
        return Directive::Allow {
            rule: rule.to_string(),
            has_reason,
        };
    }
    Directive::Malformed(format!(
        "unrecognized lint directive `{text}` (expected `hot-loop`, `end-hot-loop`, `hot-fn`, `trunk-fence`, or `allow(<rule>, reason = \"…\")`)"
    ))
}

/// Inclusive line ranges of `#[cfg(test)] mod … { … }` bodies, located by
/// token matching and brace counting.
fn cfg_test_ranges(code: &[Token<'_>]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < code.len() {
        let is_cfg_test = code[i].text == "#"
            && code[i + 1].text == "["
            && code[i + 2].text == "cfg"
            && code[i + 3].text == "("
            && code[i + 4].text == "test"
            && code[i + 5].text == ")"
            && code[i + 6].text == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find `mod` within the next few tokens (other attributes may sit
        // between); bail out if the cfg gates something else (fn, use, …).
        let mut j = i + 7;
        while j < code.len() && code[j].text == "#" {
            // Skip a following attribute group `#[…]`.
            j += 1;
            if j < code.len() && code[j].text == "[" {
                let mut depth = 0usize;
                while j < code.len() {
                    match code[j].text {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
            }
        }
        if code.get(j).map(|t| t.text) != Some("mod") {
            i += 1;
            continue;
        }
        // Find the opening brace, then its match.
        while j < code.len() && code[j].text != "{" {
            j += 1;
        }
        let start_line = code[i].line;
        let mut depth = 0usize;
        while j < code.len() {
            match code[j].text {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let end_line = code.get(j).map_or(u32::MAX, |t| t.line);
        ranges.push((start_line, end_line));
        i = j + 1;
    }
    ranges
}

fn in_solver_crate(path: &str) -> bool {
    SOLVER_CRATE_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// Phase-A product for one file: the lexed/parsed views plus every
/// finding the per-file rules produced. Built in parallel, consumed by
/// the serial phase-B rules.
pub struct FileAnalysis<'a> {
    ctx: FileCtx<'a>,
    /// The parsed AST. Parse diagnostics are tolerated here (rules see
    /// whatever parsed); the whole-workspace parse test pins them to
    /// zero on the real tree.
    pub ast: ast::File,
    findings: Vec<Finding>,
}

/// Everything `run` produces: the sorted findings plus the full
/// panic-reachability report (every reachable API with its shortest
/// chain, including baselined ones — CI uploads this as an artifact).
pub struct RunOutput {
    pub findings: Vec<Finding>,
    pub panic_apis: Vec<PanicApi>,
    /// Per-function effect summaries, sorted by `(file, line, api)` —
    /// the `effect-summaries.json` artifact.
    pub effect_rows: Vec<EffectRow>,
}

/// Phase A: lex + parse once, then run every per-file rule.
fn analyze_file(file: &SourceFile) -> FileAnalysis<'_> {
    let all = lexer::lex(&file.text);
    let parsed = parser::parse_file(&file.text, &all);
    let ctx = FileCtx::build(file, &all);
    let mut findings = ctx.annotation_findings.clone();
    no_panic(&ctx, &mut findings);
    float_eq(&ctx, &mut findings);
    hot_loop_alloc(&ctx, &mut findings);
    unsafe_audit(&ctx, &mut findings);
    tolerance_hygiene(&ctx, &parsed, &mut findings);
    thread_local_discipline(&ctx, &parsed, &mut findings);
    FileAnalysis {
        ctx,
        ast: parsed,
        findings,
    }
}

/// Runs every rule over the workspace and returns all findings
/// (baseline filtering happens later, in the driver).
///
/// `parallelism` only affects phase-A scheduling; the output is sorted
/// and phase B is serial, so results are identical for every setting.
pub fn run(ws: &Workspace, parallelism: Parallelism) -> RunOutput {
    // Phase A: per-file, fanned out. The job is infallible; the merge
    // preserves file order regardless of completion order.
    let analyses: Vec<FileAnalysis<'_>> = match run_indexed(parallelism, ws.files.len(), |i| {
        Ok::<_, std::convert::Infallible>(analyze_file(&ws.files[i]))
    }) {
        Ok(a) => a,
        Err(e) => match e {},
    };

    // Phase B: workspace-global rules over the shared ASTs, serial.
    let mut findings: Vec<Finding> = Vec::new();
    for a in &analyses {
        findings.extend(a.findings.iter().cloned());
    }
    telemetry_hygiene(ws, &analyses, &mut findings);
    units_rule(&analyses, &mut findings);
    unsafe_macro_audit(&analyses, &mut findings);
    let panic_apis = panic_reachability(&analyses, &mut findings);
    let effect_rows = effect_rules(&analyses, &mut findings);

    // Escape hatches require a reason regardless of whether they fired.
    for a in &analyses {
        for allow in &a.ctx.allows {
            if !allow.has_reason {
                findings.push(Finding::new(
                    "lint-annotation",
                    a.ctx.path.to_string(),
                    allow.line,
                    format!(
                        "`lint: allow({})` requires a reason: `// lint: allow({}, reason = \"…\")`",
                        allow.rule, allow.rule
                    ),
                ));
            }
        }
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.api, a.effect)
            .cmp(&(&b.file, b.line, b.rule, &b.api, b.effect))
    });
    RunOutput {
        findings,
        panic_apis,
        effect_rows,
    }
}

/// `no-panic`: `panic!`-family macros and `.unwrap()`/`.expect()` in
/// non-test library code of the solver crates.
fn no_panic(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !in_solver_crate(ctx.path) {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident || ctx.in_tests(t.line) {
            continue;
        }
        if PANIC_MACROS.contains(&t.text) && code.get(i + 1).map(|n| n.text) == Some("!") {
            ctx.push(
                out,
                "no-panic",
                t.line,
                format!(
                    "`{}!` aborts the batch run; return an error instead",
                    t.text
                ),
            );
        }
        if PANIC_METHODS.contains(&t.text)
            && i > 0
            && code[i - 1].text == "."
            && code.get(i + 1).map(|n| n.text) == Some("(")
        {
            ctx.push(
                out,
                "no-panic",
                t.line,
                format!(
                    "`.{}()` panics on the failure path; propagate with `?`",
                    t.text
                ),
            );
        }
    }
}

/// `float-eq`: `==`/`!=` against a float literal (or `f64::NAN`-style
/// constant) in non-test library code of the solver crates.
fn float_eq(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !in_solver_crate(ctx.path) {
        return;
    }
    let code = &ctx.code;
    let float_const = |i: usize| -> bool {
        // `f64 :: NAN | INFINITY | NEG_INFINITY | EPSILON`
        matches!(code.get(i).map(|t| t.text), Some("f64") | Some("f32"))
            && code.get(i + 1).map(|t| t.text) == Some("::")
            && matches!(
                code.get(i + 2).map(|t| t.text),
                Some("NAN") | Some("INFINITY") | Some("NEG_INFINITY") | Some("EPSILON")
            )
    };
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") || ctx.in_tests(t.line)
        {
            continue;
        }
        let prev_float = i > 0
            && ((code[i - 1].kind == TokenKind::Number && is_float_literal(code[i - 1].text))
                || (i >= 3 && float_const(i - 3)));
        let next_float = code
            .get(i + 1)
            .is_some_and(|n| n.kind == TokenKind::Number && is_float_literal(n.text))
            || float_const(i + 1);
        if prev_float || next_float {
            ctx.push(
                out,
                "float-eq",
                t.line,
                format!(
                    "`{}` against a float literal is exact bitwise comparison; use a tolerance or an ordered comparison",
                    t.text
                ),
            );
        }
    }
}

/// `hot-loop-alloc`: allocating token patterns inside annotated regions.
fn hot_loop_alloc(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.hot.is_empty() {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident || !ctx.in_hot(t.line) {
            continue;
        }
        if ALLOC_MACROS.contains(&t.text) && code.get(i + 1).map(|n| n.text) == Some("!") {
            ctx.push(
                out,
                "hot-loop-alloc",
                t.line,
                format!("`{}!` allocates inside a hot-loop region", t.text),
            );
            continue;
        }
        if ALLOC_METHODS.contains(&t.text)
            && i > 0
            && code[i - 1].text == "."
            && code.get(i + 1).map(|n| n.text) == Some("(")
        {
            ctx.push(
                out,
                "hot-loop-alloc",
                t.line,
                format!("`.{}()` allocates inside a hot-loop region", t.text),
            );
            continue;
        }
        // `Type::ctor(` with an optional turbofish: `Vec::<f64>::new(`.
        if ALLOC_CTORS.iter().any(|&(ty, _)| ty == t.text)
            && code.get(i + 1).map(|n| n.text) == Some("::")
        {
            let mut j = i + 2;
            if code.get(j).map(|n| n.text) == Some("<") {
                let mut depth = 0usize;
                while j < code.len() {
                    match code[j].text {
                        "<" => depth += 1,
                        ">" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
                if code.get(j).map(|n| n.text) != Some("::") {
                    continue;
                }
                j += 1;
            }
            let Some(ctor) = code.get(j) else { continue };
            if ALLOC_CTORS.contains(&(t.text, ctor.text))
                && code.get(j + 1).map(|n| n.text) == Some("(")
            {
                ctx.push(
                    out,
                    "hot-loop-alloc",
                    t.line,
                    format!(
                        "`{}::{}` allocates inside a hot-loop region",
                        t.text, ctor.text
                    ),
                );
            }
        }
    }
}

/// `unsafe-audit`: every `unsafe` keyword needs a `// SAFETY:` comment
/// within the three preceding lines.
fn unsafe_audit(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.code.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        // `unsafe` inside an attribute (`#[unsafe(no_mangle)]`) still
        // deserves the comment; no exclusions.
        let _ = i;
        if !ctx.has_safety_comment(t.line, 3) {
            ctx.push(
                out,
                "unsafe-audit",
                t.line,
                "`unsafe` without a `// SAFETY:` comment in the 3 lines above".to_string(),
            );
        }
    }
}

/// A `macro_rules!` definition located by token matching: the macro
/// name and the token index range of its balanced `{ … }` body
/// (exclusive of the outer braces).
struct MacroDef<'a> {
    name: &'a str,
    /// Token indices of the body, outer braces excluded.
    body: std::ops::Range<usize>,
}

/// All `macro_rules! name { … }` definitions in a token stream. The
/// parser stores macro items as opaque placeholders, so the macro-body
/// rule works on the raw (comment-stripped) token stream instead.
fn macro_defs<'a>(code: &[Token<'a>]) -> Vec<MacroDef<'a>> {
    let mut defs = Vec::new();
    let mut i = 0;
    while i + 3 < code.len() {
        if code[i].text != "macro_rules" || code[i + 1].text != "!" {
            i += 1;
            continue;
        }
        let name = code[i + 2];
        let mut j = i + 3;
        if code.get(j).map(|t| t.text) != Some("{") {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        while j < code.len() {
            match code[j].text {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        defs.push(MacroDef {
            name: name.text,
            body: (i + 4)..j,
        });
        i = j + 1;
    }
    defs
}

/// `tolerance-hygiene`: float literals inside comparison operands of
/// convergence loops must be named constants. Only the three
/// convergence-critical files are scanned; the descent into comparison
/// operands crosses arithmetic (`2.0 * tol`) but not call boundaries
/// (`.max(1.0)` is a clamp, not a tolerance).
fn tolerance_hygiene(ctx: &FileCtx<'_>, file: &ast::File, out: &mut Vec<Finding>) {
    if !TOLERANCE_FILES
        .iter()
        .any(|f| ctx.path == *f || ctx.path.ends_with(f))
    {
        return;
    }
    // (line, literal) pairs; BTreeSet both dedups literals shared by
    // nested loops and fixes the emission order.
    let mut hits: BTreeSet<(u32, String)> = BTreeSet::new();
    for item in &file.items {
        ast::walk_item_exprs(item, &mut |e: &Expr| {
            let (cond, body) = match &e.kind {
                ExprKind::While { cond, body } => (Some(cond.as_ref()), body),
                ExprKind::Loop { body } => (None, body),
                ExprKind::For { body, .. } => (None, body),
                _ => return,
            };
            let mut scan = |root: &Expr| {
                ast::walk_expr(root, &mut |inner: &Expr| {
                    if let ExprKind::Binary { op, lhs, rhs } = &inner.kind {
                        if matches!(op.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">=") {
                            collect_tolerance_literals(lhs, &mut hits);
                            collect_tolerance_literals(rhs, &mut hits);
                        }
                    }
                });
            };
            if let Some(c) = cond {
                scan(c);
            }
            for stmt in &body.stmts {
                match stmt {
                    Stmt::Let { init: Some(i), .. } => scan(i),
                    Stmt::Expr { expr, .. } => scan(expr),
                    _ => {}
                }
            }
        });
    }
    for (line, lit) in hits {
        if ctx.in_tests(line) {
            continue;
        }
        ctx.push(
            out,
            "tolerance-hygiene",
            line,
            format!(
                "inline tolerance `{lit}` in a convergence predicate; hoist it into a named, documented constant"
            ),
        );
    }
}

/// Float literals that act as thresholds: descends through arithmetic,
/// negation, parens, and casts, but not into calls or indexing.
fn collect_tolerance_literals(e: &Expr, hits: &mut BTreeSet<(u32, String)>) {
    match &e.kind {
        ExprKind::Lit { text, is_float } if *is_float && !units::is_zero_literal(text) => {
            hits.insert((e.line, text.clone()));
        }
        ExprKind::Binary { op, lhs, rhs } if matches!(op.as_str(), "+" | "-" | "*" | "/" | "%") => {
            collect_tolerance_literals(lhs, hits);
            collect_tolerance_literals(rhs, hits);
        }
        ExprKind::Unary { expr, .. }
        | ExprKind::Paren { expr }
        | ExprKind::Ref { expr }
        | ExprKind::Cast { expr } => collect_tolerance_literals(expr, hits),
        _ => {}
    }
}

/// `thread-local-discipline`: Collector/Injector installs must flow
/// through the scoped-guard pattern. Two shapes are flagged: a guard
/// returned by `install_scoped`/`with_journal_level`/`install` that is
/// immediately dropped (bare expression statement or `let _ =`), and
/// raw `.set`/`.replace`/`.borrow_mut` mutation of a `thread_local!`
/// static outside the owning collector/injector modules.
fn thread_local_discipline(ctx: &FileCtx<'_>, file: &ast::File, out: &mut Vec<Finding>) {
    // Thread-local static names declared in this file.
    let mut tl_names: Vec<String> = Vec::new();
    collect_thread_local_names(&file.items, &mut tl_names);
    let is_owner = THREAD_LOCAL_OWNERS
        .iter()
        .any(|f| ctx.path == *f || ctx.path.ends_with(f));

    for item in &file.items {
        visit_blocks(item, &mut |stmts: &[Stmt]| {
            for stmt in stmts {
                let (discarded, init, via_wildcard) = match stmt {
                    Stmt::Expr { expr, semi: true } => (true, expr, false),
                    Stmt::Let {
                        wildcard: true,
                        init: Some(i),
                        ..
                    } => (true, i, true),
                    _ => continue,
                };
                if !discarded {
                    continue;
                }
                if let Some(name) = guard_call_name(init) {
                    if ctx.in_tests(init.line) {
                        continue;
                    }
                    let shape = if via_wildcard {
                        "bound to `_`"
                    } else {
                        "dropped as a statement"
                    };
                    ctx.push(
                        out,
                        "thread-local-discipline",
                        init.line,
                        format!(
                            "guard returned by `{name}` is {shape}, so it uninstalls immediately; bind it to a named local (`let _guard = …`) for the scope it must cover"
                        ),
                    );
                }
            }
        });
    }

    if tl_names.is_empty() || is_owner {
        return;
    }
    for item in &file.items {
        ast::walk_item_exprs(item, &mut |e: &Expr| {
            let ExprKind::MethodCall { recv, method, args } = &e.kind else {
                return;
            };
            let Some(root) = receiver_root(recv) else {
                return;
            };
            if !tl_names.iter().any(|n| n == root) || ctx.in_tests(e.line) {
                return;
            }
            let mutation = if matches!(method.as_str(), "set" | "replace" | "borrow_mut") {
                Some(method.clone())
            } else if method == "with" {
                let mut found = None;
                for a in args {
                    ast::walk_expr(a, &mut |inner: &Expr| {
                        if let ExprKind::MethodCall { method: m, .. } = &inner.kind {
                            if matches!(m.as_str(), "set" | "replace" | "borrow_mut")
                                && found.is_none()
                            {
                                found = Some(m.clone());
                            }
                        }
                    });
                }
                found
            } else {
                None
            };
            if let Some(m) = mutation {
                ctx.push(
                    out,
                    "thread-local-discipline",
                    e.line,
                    format!(
                        "raw `.{m}` on thread-local `{root}` can leak state across parallel workers; route the install through a scoped guard (see shc-obs `install_scoped`)"
                    ),
                );
            }
        });
    }
}

/// `static NAME` occurrences inside `thread_local! { … }` item macros,
/// recursing into modules.
fn collect_thread_local_names(items: &[ast::Item], out: &mut Vec<String>) {
    for item in items {
        match &item.kind {
            ItemKind::MacroItem { name, raw } if name == "thread_local" => {
                let words: Vec<&str> = raw.split_whitespace().collect();
                for w in words.windows(2) {
                    if w[0] == "static" {
                        out.push(w[1].to_string());
                    }
                }
            }
            ItemKind::Mod { items, .. } => collect_thread_local_names(items, out),
            _ => {}
        }
    }
}

/// The function name when `e` is a call to one of [`GUARD_FNS`]
/// (directly, through a path, or as a method).
fn guard_call_name(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Call { callee, .. } => callee.path_tail().filter(|n| GUARD_FNS.contains(n)),
        ExprKind::MethodCall { method, .. } if GUARD_FNS.contains(&method.as_str()) => {
            Some(method.as_str())
        }
        _ => None,
    }
}

/// Root identifier of a receiver chain: `FOO.with(…)` → `FOO`,
/// `self.stack.borrow_mut()` → `self`.
fn receiver_root(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Path { segments } => segments.last().map(String::as_str),
        ExprKind::MethodCall { recv, .. }
        | ExprKind::Field { base: recv, .. }
        | ExprKind::Paren { expr: recv }
        | ExprKind::Ref { expr: recv }
        | ExprKind::Try { expr: recv } => receiver_root(recv),
        _ => None,
    }
}

/// `units`: workspace annotation maps plus per-function local inference
/// (see [`crate::units`] for the algebra).
fn units_rule(analyses: &[FileAnalysis<'_>], out: &mut Vec<Finding>) {
    let by_path: HashMap<&str, &FileAnalysis<'_>> =
        analyses.iter().map(|a| (a.ctx.path, a)).collect();

    // Workspace field-name map. A name annotated with two different
    // units in different structs is ambiguous and dropped.
    let mut fields: HashMap<String, Unit> = HashMap::new();
    let mut ambiguous: BTreeSet<String> = BTreeSet::new();
    for a in analyses {
        visit_structs(&a.ast.items, &mut |s: &ast::StructItem| {
            for f in &s.fields {
                let Some(ann) = units::field_annotation(&f.doc) else {
                    continue;
                };
                match units::parse_unit(ann) {
                    Some(u) => match fields.get(&f.name) {
                        Some(prev) if *prev != u => {
                            ambiguous.insert(f.name.clone());
                        }
                        _ => {
                            fields.insert(f.name.clone(), u);
                        }
                    },
                    None => a.ctx.push(
                        out,
                        "units",
                        f.line,
                        format!("unrecognized unit annotation `{ann}` (expected s, V, A, F, Ω/Ohm, 1, or a `*`/`/`/`^` compound)"),
                    ),
                }
            }
        });
    }
    for name in &ambiguous {
        fields.remove(name);
    }

    let table = SymbolTable::build(
        analyses.iter().map(|a| (a.ctx.path, &a.ast)),
        &|path, line| by_path.get(path).is_some_and(|a| a.ctx.in_tests(line)),
    );

    // Return-unit map by fn name; conflicting annotations drop out.
    let mut returns: HashMap<String, Unit> = HashMap::new();
    let mut ret_ambiguous: BTreeSet<String> = BTreeSet::new();
    for def in &table.defs {
        for (target, ann) in units::fn_annotations(&def.item.doc) {
            if target != "return" {
                continue;
            }
            if let Some(u) = units::parse_unit(&ann) {
                match returns.get(def.name()) {
                    Some(prev) if *prev != u => {
                        ret_ambiguous.insert(def.name().to_string());
                    }
                    _ => {
                        returns.insert(def.name().to_string(), u);
                    }
                }
            }
        }
    }
    for name in &ret_ambiguous {
        returns.remove(name);
    }

    // Per-function local inference, numeric crates only.
    for def in &table.defs {
        if def.in_tests || !in_solver_crate(def.file) {
            continue;
        }
        let Some(body) = &def.item.body else { continue };
        let ctx = &by_path[def.file].ctx;
        let mut params: HashMap<String, Unit> = HashMap::new();
        for (target, ann) in units::fn_annotations(&def.item.doc) {
            if target == "return" {
                continue;
            }
            match units::parse_unit(&ann) {
                Some(u) => {
                    if def.item.params.iter().any(|p| p.name == target) {
                        params.insert(target, u);
                    } else {
                        ctx.push(
                            out,
                            "units",
                            def.line,
                            format!("`unit({target})` names no parameter of `{}`", def.name()),
                        );
                    }
                }
                None => ctx.push(
                    out,
                    "units",
                    def.line,
                    format!("unrecognized unit annotation `{ann}` on `{}`", def.name()),
                ),
            }
        }
        let mut env = units::UnitEnv::new(params, &fields, &returns);
        env.check_stmts(&body.stmts);
        for (line, message) in env.findings {
            ctx.push(out, "units", line, message);
        }
    }
}

/// The macro-expansion half of `unsafe-audit`: a call to a macro whose
/// `macro_rules!` body contains `unsafe` expands to unsafe code at the
/// invocation site, which the token-level scan (definition-side only)
/// cannot see. Every such invocation needs its own `// SAFETY:` comment.
fn unsafe_macro_audit(analyses: &[FileAnalysis<'_>], out: &mut Vec<Finding>) {
    // Workspace set of macros that expand to unsafe code.
    let mut unsafe_macros: BTreeSet<&str> = BTreeSet::new();
    for a in analyses {
        for def in macro_defs(&a.ctx.code) {
            if a.ctx.code[def.body.clone()]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text == "unsafe")
            {
                unsafe_macros.insert(def.name);
            }
        }
    }
    if unsafe_macros.is_empty() {
        return;
    }
    for a in analyses {
        let ctx = &a.ctx;
        let code = &ctx.code;
        for i in 0..code.len() {
            let t = code[i];
            // Invocation shape `name ! {` / `name ! (` / `name ! [`;
            // at the definition the name is followed by `{`, not `!`,
            // so definitions never match.
            if t.kind != TokenKind::Ident
                || !unsafe_macros.contains(t.text)
                || code.get(i + 1).map(|n| n.text) != Some("!")
                || !matches!(
                    code.get(i + 2).map(|n| n.text),
                    Some("{") | Some("(") | Some("[")
                )
            {
                continue;
            }
            if !ctx.has_safety_comment(t.line, 3) {
                ctx.push(
                    out,
                    "unsafe-audit",
                    t.line,
                    format!(
                        "`{}!` expands to `unsafe` code at this call site; document the safety argument with a `// SAFETY:` comment in the 3 lines above",
                        t.text
                    ),
                );
            }
        }
    }
}

/// Structs at any module depth.
fn visit_structs(items: &[ast::Item], f: &mut impl FnMut(&ast::StructItem)) {
    for item in items {
        match &item.kind {
            ItemKind::Struct(s) => f(s),
            ItemKind::Mod { items, .. } => visit_structs(items, f),
            _ => {}
        }
    }
}

/// Every statement list in an item, recursing through nested blocks,
/// closures, and control flow.
fn visit_blocks(item: &ast::Item, f: &mut impl FnMut(&[Stmt])) {
    fn expr_blocks(e: &Expr, f: &mut impl FnMut(&[Stmt])) {
        ast::walk_expr(e, &mut |inner: &Expr| {
            match &inner.kind {
                ExprKind::Block(b)
                | ExprKind::Loop { body: b }
                | ExprKind::While { body: b, .. }
                | ExprKind::For { body: b, .. } => f(&b.stmts),
                ExprKind::If { then, .. } => f(&then.stmts),
                _ => {}
            };
        });
    }
    match &item.kind {
        ItemKind::Fn(fi) => {
            if let Some(b) = &fi.body {
                f(&b.stmts);
                for stmt in &b.stmts {
                    match stmt {
                        Stmt::Let {
                            init, else_block, ..
                        } => {
                            if let Some(i) = init {
                                expr_blocks(i, f);
                            }
                            if let Some(eb) = else_block {
                                f(&eb.stmts);
                            }
                        }
                        Stmt::Expr { expr, .. } => expr_blocks(expr, f),
                        Stmt::Item(sub) => visit_blocks(sub, f),
                    }
                }
            }
        }
        ItemKind::Impl(ib) => {
            for sub in &ib.items {
                visit_blocks(sub, f);
            }
        }
        ItemKind::Trait { items, .. } | ItemKind::Mod { items, .. } => {
            for sub in items {
                visit_blocks(sub, f);
            }
        }
        ItemKind::Const { init: Some(e), .. } => expr_blocks(e, f),
        _ => {}
    }
}

/// Direct `shc-*` dependencies of each workspace crate, mirrored from
/// the crates' `Cargo.toml` files. Name-based call resolution is
/// pruned with this DAG: an edge from crate A into crate B is only
/// kept when B is in A's transitive dependency closure, so a name
/// collision cannot route a chain backwards through the workspace
/// (e.g. `shc-core` "calling" a same-named fn in `shc-lint`). A crate
/// missing from this table resolves permissively.
const CRATE_DEPS: &[(&str, &[&str])] = &[
    (
        "bench",
        &["cells", "core", "fault", "linalg", "obs", "prof", "spice"],
    ),
    ("cells", &["spice"]),
    (
        "core",
        &["cells", "fault", "linalg", "obs", "prof", "spice"],
    ),
    ("fault", &[]),
    ("linalg", &["fault", "obs", "prof"]),
    ("lint", &["core"]),
    ("obs", &[]),
    ("prof", &["obs"]),
    ("spice", &["fault", "linalg", "obs", "prof"]),
];

fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// Whether a fn in `caller_file` can structurally call one in
/// `callee_file`: binaries and examples are link roots (never
/// callees), and cross-crate edges must follow the dependency DAG.
fn may_call(caller_file: &str, callee_file: &str) -> bool {
    if callee_file.contains("/src/bin/") || callee_file.contains("/examples/") {
        return false;
    }
    // The top-level `src/` tree is the CLI binary: a link root like
    // `src/bin/`, never a callee. Library code "calling" a same-named
    // fn there would route chains backwards through the workspace.
    if crate_of(callee_file).is_none() {
        return false;
    }
    let (Some(a), Some(b)) = (crate_of(caller_file), crate_of(callee_file)) else {
        return true;
    };
    if a == b {
        return true;
    }
    let Some((_, direct)) = CRATE_DEPS.iter().find(|(c, _)| *c == a) else {
        return true;
    };
    // The table lists direct deps; walk the closure (the DAG is tiny).
    let mut stack: Vec<&str> = direct.to_vec();
    let mut seen: Vec<&str> = Vec::new();
    while let Some(c) = stack.pop() {
        if c == b {
            return true;
        }
        if seen.contains(&c) {
            continue;
        }
        seen.push(c);
        if let Some((_, more)) = CRATE_DEPS.iter().find(|(d, _)| *d == c) {
            stack.extend(more.iter().copied());
        }
    }
    false
}

/// `panic-reachability`: reverse reachability from every direct panic
/// site over the conservative call graph; one finding per reachable
/// public API of the solver crates, carrying the shortest chain.
/// Returns the full report (including baselined APIs) for the CI
/// artifact.
fn panic_reachability(analyses: &[FileAnalysis<'_>], out: &mut Vec<Finding>) -> Vec<PanicApi> {
    let by_path: HashMap<&str, &FileAnalysis<'_>> =
        analyses.iter().map(|a| (a.ctx.path, a)).collect();
    let table = SymbolTable::build(
        analyses.iter().map(|a| (a.ctx.path, &a.ast)),
        &|path, line| by_path.get(path).is_some_and(|a| a.ctx.in_tests(line)),
    );
    let cg = CallGraph::build(
        &table,
        &|path, line| by_path.get(path).is_some_and(|a| a.ctx.in_hot(line)),
        &may_call,
    );
    let reachable = cg.panic_reachable();

    let mut apis = Vec::new();
    for def in &table.defs {
        if !def.is_pub || def.in_tests || !in_solver_crate(def.file) {
            continue;
        }
        if !reachable.contains(&def.id) {
            continue;
        }
        let Some((path, site)) = cg.shortest_panic_chain(def.id) else {
            continue;
        };
        let mut frames: Vec<String> = path
            .iter()
            .map(|&id| {
                let d = &table.defs[id];
                format!("{} ({}:{})", d.qualified_name(), d.file, d.line)
            })
            .collect();
        let last = &table.defs[*path.last().unwrap_or(&def.id)];
        frames.push(format!("{} ({}:{})", site.what, last.file, site.line));
        let chain = frames.join(" -> ");
        let api = def.qualified_name();
        apis.push(PanicApi {
            api: api.clone(),
            file: def.file.to_string(),
            line: def.line,
            chain: chain.clone(),
        });
        let ctx = &by_path[def.file].ctx;
        ctx.push_with_api(
            out,
            "panic-reachability",
            def.line,
            format!("public API `{api}` can reach a panic: {chain}"),
            api,
        );
    }
    apis
}

/// Builds the symbol table plus the interprocedural effect graph over
/// the phase-A products: workspace unordered-field map, then the two
/// fixed-point passes (raw and allow-pruned). Shared by the effect
/// rules and the `graph --dot --effects` export.
fn build_effect_graph<'a>(analyses: &'a [FileAnalysis<'a>]) -> (SymbolTable<'a>, EffectGraph) {
    let by_path: HashMap<&str, &FileAnalysis<'_>> =
        analyses.iter().map(|a| (a.ctx.path, a)).collect();
    let table = SymbolTable::build(
        analyses.iter().map(|a| (a.ctx.path, &a.ast)),
        &|path, line| by_path.get(path).is_some_and(|a| a.ctx.in_tests(line)),
    );

    // Struct fields whose declared type is an unordered collection:
    // iterating `self.cache` is as order-dependent as iterating a local.
    let mut unordered_fields: HashSet<String> = HashSet::new();
    for a in analyses {
        visit_structs(&a.ast.items, &mut |s: &ast::StructItem| {
            for f in &s.fields {
                if UNORDERED_TYPES.iter().any(|t| f.ty.contains(t)) {
                    unordered_fields.insert(f.name.clone());
                }
            }
        });
    }

    // Same-line-or-line-above allow lookup, shared with every other
    // rule; marking the allow used keeps the unused-allow check honest.
    let allowed = |file: &str, line: u32, rule: &str| -> bool {
        let Some(a) = by_path.get(file) else {
            return false;
        };
        for allow in &a.ctx.allows {
            if allow.rule == rule && (allow.line == line || allow.line + 1 == line) {
                allow.used.set(true);
                return true;
            }
        }
        false
    };

    let graph = EffectGraph::build(&table, &unordered_fields, &may_call, &allowed);
    (table, graph)
}

/// Renders the shortest call chain from `root` to a direct site of
/// `kind`, in the panic-reachability frame format:
/// `qualified (file:line) -> … -> what (file:line)`.
fn render_effect_chain(
    graph: &EffectGraph,
    table: &SymbolTable<'_>,
    root: usize,
    kind: EffectKind,
) -> String {
    let Some((path, site)) = graph.shortest_chain(root, kind) else {
        // Effect arrived only via unknown-callee widening; no concrete
        // site exists to point at.
        return "(no concrete site: effect inferred conservatively)".to_string();
    };
    let mut frames: Vec<String> = path
        .iter()
        .map(|&id| {
            let d = &table.defs[id];
            format!("{} ({}:{})", d.qualified_name(), d.file, d.line)
        })
        .collect();
    let last = &table.defs[*path.last().unwrap_or(&root)];
    frames.push(format!("{} ({}:{})", site.what, last.file, site.line));
    frames.join(" -> ")
}

/// The `/// effects: …` doc annotation on a fn, when present.
fn effect_annotation(doc: &[String]) -> Option<&str> {
    doc.iter()
        .find_map(|l| l.trim().strip_prefix("effects:"))
        .map(str::trim)
}

/// The three effect rules (`hot-path-certify`, `determinism`,
/// `effect-annotation-drift`) plus the per-function summary table for
/// `effect-summaries.json`.
///
/// Hot roots are the functions enclosing each `// lint: hot-loop`
/// region plus every fn directly below a `// lint: hot-fn` marker; a
/// root plus everything it can reach must be free of the five
/// certification effects (alloc/panic/lock/clock/io). Determinism
/// audits every public API of the solver crates for unordered-iteration
/// and float-accumulation-order effects. Drift compares declared
/// `/// effects:` annotations against the inferred (allow-pruned)
/// summaries.
fn effect_rules(analyses: &[FileAnalysis<'_>], out: &mut Vec<Finding>) -> Vec<EffectRow> {
    let by_path: HashMap<&str, &FileAnalysis<'_>> =
        analyses.iter().map(|a| (a.ctx.path, a)).collect();
    let (table, graph) = build_effect_graph(analyses);

    // --- Hot-root collection ------------------------------------------
    let mut roots: BTreeSet<usize> = BTreeSet::new();
    for a in analyses {
        // A hot-loop region certifies its enclosing function: the last
        // def that starts at or before the region opens.
        for &(start, _) in &a.ctx.hot {
            if let Some(d) = table
                .defs
                .iter()
                .filter(|d| d.file == a.ctx.path && !d.in_tests && d.line <= start)
                .max_by_key(|d| d.line)
            {
                roots.insert(d.id);
            }
        }
        // A hot-fn marker certifies the next function below it.
        for &line in &a.ctx.hot_fns {
            match table
                .defs
                .iter()
                .filter(|d| d.file == a.ctx.path && d.line > line)
                .min_by_key(|d| d.line)
            {
                Some(d) if !d.in_tests => {
                    roots.insert(d.id);
                }
                Some(_) => a.ctx.push(
                    out,
                    "lint-annotation",
                    line,
                    "`lint: hot-fn` marks a #[cfg(test)] function; hot-path certification only covers production code".to_string(),
                ),
                None => a.ctx.push(
                    out,
                    "lint-annotation",
                    line,
                    "`lint: hot-fn` is not followed by a function definition in this file"
                        .to_string(),
                ),
            }
        }
    }

    // --- Trunk-fence root collection ----------------------------------
    let mut fence_roots: BTreeSet<usize> = BTreeSet::new();
    for a in analyses {
        for &line in &a.ctx.trunk_fences {
            match table
                .defs
                .iter()
                .filter(|d| d.file == a.ctx.path && d.line > line)
                .min_by_key(|d| d.line)
            {
                Some(d) if !d.in_tests => {
                    fence_roots.insert(d.id);
                }
                Some(_) => a.ctx.push(
                    out,
                    "lint-annotation",
                    line,
                    "`lint: trunk-fence` marks a #[cfg(test)] function; the divergence fence only covers production code".to_string(),
                ),
                None => a.ctx.push(
                    out,
                    "lint-annotation",
                    line,
                    "`lint: trunk-fence` is not followed by a function definition in this file"
                        .to_string(),
                ),
            }
        }
    }

    // --- trunk-divergence-fence ---------------------------------------
    // DESIGN.md §6.1's soundness argument, as a machine-checked
    // certificate: a prefix-ladder or sibling checkpoint may only be
    // adopted because a run at other skews computed identical values
    // below its agreement horizon, so a fence root must be unreachable
    // from any reader of skew state (`lane-divergent` seeds, propagated
    // over the call graph).
    for &root in &fence_roots {
        let d = &table.defs[root];
        let ctx = &by_path[d.file].ctx;
        if graph.effective[root].contains(EffectKind::LaneDivergent) {
            let chain = render_effect_chain(&graph, &table, root, EffectKind::LaneDivergent);
            ctx.push_with_effect(
                out,
                "trunk-divergence-fence",
                d.line,
                format!(
                    "prefix root `{}` can transitively {} — the adopted prefix would no longer be skew-invariant (DESIGN.md §6.1): {chain}",
                    d.qualified_name(),
                    EffectKind::LaneDivergent.verb()
                ),
                d.qualified_name(),
                EffectKind::LaneDivergent.name(),
            );
        }
    }

    // --- hot-path-certify ---------------------------------------------
    for &root in &roots {
        let d = &table.defs[root];
        let ctx = &by_path[d.file].ctx;
        for kind in CERT_KINDS {
            if !graph.effective[root].contains(kind) {
                continue;
            }
            let chain = render_effect_chain(&graph, &table, root, kind);
            ctx.push_with_effect(
                out,
                "hot-path-certify",
                d.line,
                format!(
                    "hot root `{}` can transitively {}: {chain}",
                    d.qualified_name(),
                    kind.verb()
                ),
                d.qualified_name(),
                kind.name(),
            );
        }
    }

    // --- determinism --------------------------------------------------
    for def in &table.defs {
        if !def.is_pub || def.in_tests || !in_solver_crate(def.file) {
            continue;
        }
        let ctx = &by_path[def.file].ctx;
        for kind in DET_KINDS {
            if !graph.effective[def.id].contains(kind) {
                continue;
            }
            let chain = render_effect_chain(&graph, &table, def.id, kind);
            ctx.push_with_effect(
                out,
                "determinism",
                def.line,
                format!(
                    "public API `{}` can {}, so repeated runs may differ: {chain}",
                    def.qualified_name(),
                    kind.verb()
                ),
                def.qualified_name(),
                kind.name(),
            );
        }
    }

    // --- effect-annotation-drift --------------------------------------
    for def in &table.defs {
        if def.in_tests {
            continue;
        }
        let Some(ann) = effect_annotation(&def.item.doc) else {
            continue;
        };
        let ctx = &by_path[def.file].ctx;
        let mut declared = EffectSet::EMPTY;
        let mut malformed = false;
        if ann != "none" {
            for name in ann.split(',') {
                let name = name.trim();
                match EffectKind::from_name(name) {
                    Some(EffectKind::UnknownCallee | EffectKind::LaneDivergent) | None => {
                        ctx.push(
                            out,
                            "lint-annotation",
                            def.line,
                            format!(
                                "`/// effects:` on `{}` names undeclarable effect `{name}` (declarable: alloc, panic, assert, lock, clock, io, unordered-iter, float-order, or `none`; `lane-divergent` and `unknown-callee` are analysis-internal)",
                                def.name()
                            ),
                        );
                        malformed = true;
                    }
                    Some(k) => declared.add(k),
                }
            }
        }
        if malformed {
            continue;
        }
        // Unknown-callee is analysis bookkeeping and lane-divergent is
        // the fence rule's gating kind, not a declarable effect; compare
        // over the eight declarable kinds.
        let inferred = graph.effective[def.id].without(EffectSet::of(&[
            EffectKind::UnknownCallee,
            EffectKind::LaneDivergent,
        ]));
        if inferred != declared {
            let show = |s: EffectSet| -> String {
                if s.is_empty() {
                    "none".to_string()
                } else {
                    s.names().join(", ")
                }
            };
            ctx.push_with_api(
                out,
                "effect-annotation-drift",
                def.line,
                format!(
                    "`/// effects:` on `{}` is stale: declares [{}] but the analysis infers [{}]",
                    def.qualified_name(),
                    show(declared),
                    show(inferred)
                ),
                def.qualified_name(),
            );
        }
    }

    // --- Summary table ------------------------------------------------
    let mut rows: Vec<EffectRow> = table
        .defs
        .iter()
        .filter(|d| !d.in_tests)
        .map(|d| EffectRow {
            api: d.qualified_name(),
            file: d.file.to_string(),
            line: d.line,
            effects: graph.effective[d.id].names(),
            raw: graph.raw[d.id].names(),
            unknown: graph.unknown[d.id].clone(),
        })
        .collect();
    rows.sort_by(|a, b| (&a.file, a.line, &a.api).cmp(&(&b.file, b.line, &b.api)));
    rows
}

/// Renders the workspace call graph as Graphviz DOT
/// (`shc-lint graph --dot`). With `effects`, nodes are colored by their
/// effective effect class — red: blocks hot-path certification; amber:
/// nondeterminism; purple: lane-divergent (reads skew state);
/// grey: unknown callees only; green: clean — and labeled with their
/// effect names. `// lint: trunk-fence` roots get a heavy blue border:
/// the boundary `trunk-divergence-fence` certifies.
pub fn render_graph_dot(ws: &Workspace, effects: bool) -> String {
    let analyses: Vec<FileAnalysis<'_>> = ws.files.iter().map(analyze_file).collect();
    let (table, graph) = build_effect_graph(&analyses);
    let cert = EffectSet::of(&CERT_KINDS);
    let det = EffectSet::of(&DET_KINDS);

    // Trunk-fence roots, by the marker association effect_rules uses.
    let mut fence_roots: BTreeSet<usize> = BTreeSet::new();
    for a in &analyses {
        for &line in &a.ctx.trunk_fences {
            if let Some(d) = table
                .defs
                .iter()
                .filter(|d| d.file == a.ctx.path && d.line > line && !d.in_tests)
                .min_by_key(|d| d.line)
            {
                fence_roots.insert(d.id);
            }
        }
    }

    let mut s = String::new();
    s.push_str("digraph shc {\n");
    s.push_str("  rankdir=LR;\n");
    s.push_str("  node [shape=box, style=filled, fillcolor=white, fontname=\"monospace\"];\n");
    for def in table.defs.iter().filter(|d| !d.in_tests) {
        let mut label = format!("{}\\n{}:{}", def.qualified_name(), def.file, def.line);
        let mut color = "white";
        if effects {
            let e = graph.effective[def.id];
            color = if !e.intersect(cert).is_empty() {
                "\"#f4cccc\""
            } else if !e.intersect(det).is_empty() {
                "\"#fce5cd\""
            } else if e.contains(EffectKind::LaneDivergent) {
                "\"#d9d2e9\""
            } else if e.contains(EffectKind::UnknownCallee) {
                "\"#eeeeee\""
            } else {
                "\"#d9ead3\""
            };
            if !e.is_empty() {
                let _ = write!(label, "\\n[{}]", e.names().join(", "));
            }
        }
        let fence = if fence_roots.contains(&def.id) {
            ", color=\"#1155cc\", penwidth=2"
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "  n{} [label=\"{label}\", fillcolor={color}{fence}];",
            def.id
        );
    }
    for def in table.defs.iter().filter(|d| !d.in_tests) {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for e in &graph.edges[def.id] {
            if seen.insert(e.callee) {
                let _ = writeln!(s, "  n{} -> n{};", def.id, e.callee);
            }
        }
    }
    s.push_str("}\n");
    s
}

/// `telemetry-hygiene`: metric declarations, journal schema cross-checks,
/// and the enabled()-gate requirement for journal-event construction.
fn telemetry_hygiene(ws: &Workspace, analyses: &[FileAnalysis<'_>], out: &mut Vec<Finding>) {
    let metric_file = analyses.iter().map(|a| &a.ctx).find(|c| {
        c.path.ends_with("crates/obs/src/metric.rs") || c.path == "crates/obs/src/metric.rs"
    });
    let journal_file = analyses.iter().map(|a| &a.ctx).find(|c| {
        c.path.ends_with("crates/obs/src/journal.rs") || c.path == "crates/obs/src/journal.rs"
    });
    let phase_file = analyses.iter().map(|a| &a.ctx).find(|c| {
        c.path.ends_with("crates/prof/src/phase.rs") || c.path == "crates/prof/src/phase.rs"
    });

    // --- Metric/SpanKind declarations ---------------------------------
    let mut declared: BTreeSet<&str> = BTreeSet::new();
    if let Some(ctx) = metric_file {
        let mut names: Vec<(&str, u32)> = Vec::new();
        let mut variants = 0usize;
        for enum_name in ["Metric", "SpanKind"] {
            let vs = enum_variants(&ctx.code, enum_name);
            variants += vs.len();
            declared.extend(vs);
        }
        // Every `name()` arm string, across both impls.
        names.extend(name_fn_strings(&ctx.code));
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for &(n, line) in &names {
            if !seen.insert(n) {
                ctx.push(
                    out,
                    "telemetry-hygiene",
                    line,
                    format!("metric name \"{n}\" is declared more than once"),
                );
            }
        }
        if names.len() != variants {
            ctx.push(
                out,
                "telemetry-hygiene",
                1,
                format!(
                    "metric.rs declares {variants} Metric/SpanKind variants but {} name() strings; every variant needs exactly one stable name",
                    names.len()
                ),
            );
        }
    }

    // --- Profiler Phase declarations ----------------------------------
    // Mirrors the Metric/SpanKind discipline: every `Phase::X` the
    // workspace instruments with must name a variant declared in
    // crates/prof/src/phase.rs, so the phase taxonomy stays centralized.
    let mut phase_declared: BTreeSet<&str> = BTreeSet::new();
    if let Some(ctx) = phase_file {
        phase_declared.extend(enum_variants(&ctx.code, "Phase"));
    }

    // --- Journal schema: DESIGN.md table vs journal.rs vs construction ---
    let schema: Option<Vec<String>> = ws.design_md.as_deref().map(design_schema_keys);
    if let (Some(schema), Some(jctx)) = (schema.as_ref(), journal_file) {
        if schema.is_empty() {
            jctx.push(
                out,
                "telemetry-hygiene",
                1,
                "DESIGN.md has no journal-schema table (expected between `<!-- journal-schema:begin -->` and `<!-- journal-schema:end -->` markers)"
                    .to_string(),
            );
        } else {
            let schema_set: BTreeSet<&str> = schema.iter().map(String::as_str).collect();
            let emitted = journal_keys(
                &jctx.code,
                &["push_u64_field", "push_f64_field", "push_raw_field"],
            );
            let parsed = journal_keys(
                &jctx.code,
                &["scan_u64", "scan_f64", "scan_f64_array", "scan_raw_object"],
            );
            for (key, line) in &emitted {
                if !schema_set.contains(key.as_str()) {
                    jctx.push(
                        out,
                        "telemetry-hygiene",
                        *line,
                        format!("journal key \"{key}\" is emitted but missing from the DESIGN.md schema table"),
                    );
                }
            }
            let emitted_set: BTreeSet<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
            let parsed_set: BTreeSet<&str> = parsed.iter().map(|(k, _)| k.as_str()).collect();
            for key in &schema_set {
                if !emitted_set.contains(key) {
                    jctx.push(
                        out,
                        "telemetry-hygiene",
                        1,
                        format!("journal key \"{key}\" is in the DESIGN.md schema table but never emitted by to_json_line"),
                    );
                }
                if !parsed_set.is_empty() && !parsed_set.contains(key) {
                    jctx.push(
                        out,
                        "telemetry-hygiene",
                        1,
                        format!("journal key \"{key}\" is in the schema but not parsed back by from_json"),
                    );
                }
            }
        }
    }

    // --- Per-file uses: undeclared variants + ungated construction ------
    let schema_set: Option<BTreeSet<&str>> = schema
        .as_ref()
        .map(|s| s.iter().map(String::as_str).collect());
    for a in analyses {
        let ctx = &a.ctx;
        let in_obs = ctx.path.starts_with("crates/obs/");
        let code = &ctx.code;
        for i in 0..code.len() {
            let t = code[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            // Undeclared Metric::X / SpanKind::X uses.
            if !declared.is_empty()
                && !ctx.path.ends_with("metric.rs")
                && (t.text == "Metric" || t.text == "SpanKind")
                && code.get(i + 1).map(|n| n.text) == Some("::")
            {
                if let Some(variant) = code.get(i + 2) {
                    // Variants are UpperCamelCase; a lowercase ident is an
                    // associated function (`SpanKind::name`), not a variant.
                    if variant.kind == TokenKind::Ident
                        && variant.text.starts_with(|c: char| c.is_ascii_uppercase())
                        && !matches!(variant.text, "COUNT" | "ALL")
                        && !declared.contains(variant.text)
                    {
                        ctx.push(
                            out,
                            "telemetry-hygiene",
                            t.line,
                            format!(
                                "{}::{} is not declared in crates/obs/src/metric.rs",
                                t.text, variant.text
                            ),
                        );
                    }
                }
            }
            // Undeclared Phase::X uses outside the owning crate.
            if !phase_declared.is_empty()
                && !ctx.path.starts_with("crates/prof/")
                && t.text == "Phase"
                && code.get(i + 1).map(|n| n.text) == Some("::")
            {
                if let Some(variant) = code.get(i + 2) {
                    if variant.kind == TokenKind::Ident
                        && variant.text.starts_with(|c: char| c.is_ascii_uppercase())
                        && !matches!(variant.text, "COUNT" | "ALL")
                        && !phase_declared.contains(variant.text)
                    {
                        ctx.push(
                            out,
                            "telemetry-hygiene",
                            t.line,
                            format!(
                                "Phase::{} is not declared in crates/prof/src/phase.rs",
                                variant.text
                            ),
                        );
                    }
                }
            }
            // JournalEvent construction outside shc-obs must be gated.
            if t.text == "JournalEvent"
                && !in_obs
                && !ctx.in_tests(t.line)
                && code.get(i + 1).map(|n| n.text) == Some("{")
                && (i == 0
                    || !matches!(
                        code[i - 1].text,
                        "struct" | "impl" | "enum" | "trait" | "union" | "mod" | "for"
                    ))
            {
                check_journal_literal(ctx, code, i, schema_set.as_ref(), out);
            }
        }
    }
}

/// Validates one `JournalEvent { … }` literal: enabled() gate in the
/// enclosing function, and field names against the schema.
fn check_journal_literal(
    ctx: &FileCtx<'_>,
    code: &[Token<'_>],
    idx: usize,
    schema: Option<&BTreeSet<&str>>,
    out: &mut Vec<Finding>,
) {
    let line = code[idx].line;
    // Gate: an `enabled` identifier must appear between the enclosing
    // `fn` and the literal — constructing the event costs real work, so
    // it must be skipped when telemetry is off.
    let fn_idx = code[..idx].iter().rposition(|t| t.text == "fn");
    let gated = fn_idx.is_some_and(|f| code[f..idx].iter().any(|t| t.text == "enabled"));
    if !gated {
        ctx.push(
            out,
            "telemetry-hygiene",
            line,
            "JournalEvent constructed without a preceding shc_obs::enabled() gate in the same function".to_string(),
        );
    }

    let Some(schema) = schema else { return };
    if schema.is_empty() {
        return;
    }
    // Collect depth-1 field names of the literal.
    let mut fields: Vec<(&str, u32)> = Vec::new();
    let mut depth = 0usize;
    let mut j = idx + 1;
    let mut spread = false;
    while j < code.len() {
        match code[j].text {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            ".." if depth == 1 => spread = true,
            _ => {}
        }
        if depth == 1
            && code[j].kind == TokenKind::Ident
            && code.get(j + 1).map(|n| n.text) == Some(":")
            && code.get(j - 1).map(|p| p.text) != Some(":")
        {
            fields.push((code[j].text, code[j].line));
        } else if depth == 1
            && code[j].kind == TokenKind::Ident
            && matches!(code.get(j + 1).map(|n| n.text), Some(",") | Some("}"))
            && matches!(code.get(j - 1).map(|p| p.text), Some("{") | Some(","))
        {
            // Field-init shorthand.
            fields.push((code[j].text, code[j].line));
        }
        j += 1;
    }
    for &(f, fline) in &fields {
        if !schema.contains(f) {
            ctx.push(
                out,
                "telemetry-hygiene",
                fline,
                format!("JournalEvent field `{f}` is not in the DESIGN.md journal schema"),
            );
        }
    }
    if !spread {
        for key in schema {
            if !fields.iter().any(|&(f, _)| f == *key) {
                ctx.push(
                    out,
                    "telemetry-hygiene",
                    line,
                    format!("JournalEvent literal is missing schema field `{key}`"),
                );
            }
        }
    }
}

/// Variant identifiers of `enum <name> { … }` (fieldless enums only).
fn enum_variants<'a>(code: &[Token<'a>], name: &str) -> Vec<&'a str> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i + 2 < code.len() {
        if code[i].text == "enum" && code[i + 1].text == name && code[i + 2].text == "{" {
            let mut depth = 0usize;
            let mut j = i + 2;
            while j < code.len() {
                match code[j].text {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => {
                        depth -= 1;
                        if depth == 0 {
                            return variants;
                        }
                    }
                    _ => {}
                }
                if depth == 1
                    && code[j].kind == TokenKind::Ident
                    && matches!(code.get(j + 1).map(|n| n.text), Some(",") | Some("}"))
                {
                    variants.push(code[j].text);
                }
                j += 1;
            }
        }
        i += 1;
    }
    variants
}

/// String literals returned by `fn name` bodies (the stable metric names),
/// with their lines.
fn name_fn_strings<'a>(code: &[Token<'a>]) -> Vec<(&'a str, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if code[i].text == "fn" && code[i + 1].text == "name" {
            // Skip to the body and collect strings until the brace closes.
            let mut j = i + 2;
            while j < code.len() && code[j].text != "{" {
                j += 1;
            }
            let mut depth = 0usize;
            while j < code.len() {
                match code[j].text {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if code[j].kind == TokenKind::Str {
                    out.push((code[j].text.trim_matches('"'), code[j].line));
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// First string argument of each call to one of `fns` — the journal keys
/// passed to the JSON field helpers / scanners.
fn journal_keys(code: &[Token<'_>], fns: &[&str]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident
            || !fns.contains(&code[i].text)
            || code.get(i + 1).map(|n| n.text) != Some("(")
        {
            continue;
        }
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < code.len() {
            match code[j].text {
                "(" | "{" | "[" => depth += 1,
                ")" | "}" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if code[j].kind == TokenKind::Str {
                out.push((code[j].text.trim_matches('"').to_string(), code[j].line));
                break;
            }
            j += 1;
        }
    }
    out
}

/// Keys of the journal-schema table in DESIGN.md, taken from the first
/// backticked cell of each table row between the schema markers.
pub fn design_schema_keys(design: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut inside = false;
    for line in design.lines() {
        if line.contains("<!-- journal-schema:begin -->") {
            inside = true;
            continue;
        }
        if line.contains("<!-- journal-schema:end -->") {
            break;
        }
        if !inside {
            continue;
        }
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let Some(cell) = trimmed.trim_start_matches('|').split('|').next() else {
            continue;
        };
        let cell = cell.trim();
        if let Some(key) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
            keys.push(key.to_string());
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(path: &str, text: &str) -> Vec<Finding> {
        run(
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

    #[test]
    fn unwrap_flagged_only_in_solver_crates() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        // In a solver crate the unwrap fires twice: the token-level
        // `no-panic` site and the call-graph `panic-reachability` on
        // the public API.
        let f = run_one("crates/linalg/src/a.rs", src);
        let mut rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        rules.sort_unstable();
        assert_eq!(rules, vec!["no-panic", "panic-reachability"], "{f:?}");
        assert_eq!(run_one("crates/cells/src/a.rs", src).len(), 0);
    }

    #[test]
    fn unwrap_in_cfg_test_module_is_ignored() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); assert!(true); }\n}\n";
        assert!(run_one("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn unwrap_like_identifiers_do_not_match() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(3) }\nfn expectation() {}\n";
        assert!(run_one("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_without_reason_errors() {
        // Non-pub so the call-graph panic-reachability rule (which only
        // reports public APIs) stays out of this allow-semantics test.
        let with = "fn f(x: Option<u8>) -> u8 {\n    // lint: allow(no-panic, reason = \"checked above\")\n    x.unwrap()\n}\n";
        assert!(run_one("crates/core/src/a.rs", with).is_empty());
        let without =
            "fn f(x: Option<u8>) -> u8 {\n    // lint: allow(no-panic)\n    x.unwrap()\n}\n";
        let f = run_one("crates/core/src/a.rs", without);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lint-annotation");
    }

    #[test]
    fn float_eq_needs_a_literal_operand() {
        let bad = "fn f(x: f64) -> bool { x == 0.0 }";
        let f = run_one("crates/linalg/src/a.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "float-eq");
        // Comparisons without a float literal are invisible to the lexer.
        assert!(run_one(
            "crates/linalg/src/a.rs",
            "fn f(a: f64, b: f64) -> bool { a == b }"
        )
        .is_empty());
        // Integer comparisons are fine.
        assert!(run_one(
            "crates/linalg/src/a.rs",
            "fn f(n: usize) -> bool { n == 0 }"
        )
        .is_empty());
        // NAN comparisons are flagged.
        let nan = run_one(
            "crates/linalg/src/a.rs",
            "fn f(x: f64) -> bool { x == f64::NAN }",
        );
        assert_eq!(nan.len(), 1);
    }

    #[test]
    fn hot_loop_alloc_catches_ctor_macro_and_method() {
        let src = "fn step() {\n    // lint: hot-loop\n    let v: Vec<f64> = Vec::new();\n    let w = vec![0.0];\n    let c = w.clone();\n    let t = Vec::<f64>::with_capacity(4);\n    // lint: end-hot-loop\n    let outside = Vec::new();\n}\n";
        let f = run_one("crates/spice/src/a.rs", src);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        // The hot-loop region also makes `step` a hot-path-certify root,
        // and its allocations fail the transitive certification.
        let mut expected = vec!["hot-path-certify"];
        expected.extend(vec!["hot-loop-alloc"; 4]);
        assert_eq!(rules, expected, "{f:?}");
    }

    #[test]
    fn unmatched_hot_loop_markers_error() {
        let f = run_one("crates/spice/src/a.rs", "// lint: hot-loop\nfn f() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lint-annotation");
        let f = run_one(
            "crates/spice/src/a.rs",
            "fn f() {}\n// lint: end-hot-loop\n",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        let f = run_one("src/a.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unsafe-audit");
        let good = "fn f() {\n    // SAFETY: provably unreachable, guarded above.\n    unsafe { std::hint::unreachable_unchecked() }\n}";
        assert!(run_one("src/a.rs", good).is_empty());
    }

    #[test]
    fn journal_event_needs_enabled_gate() {
        let bad = "fn emit() {\n    shc_obs::journal(&shc_obs::JournalEvent { point: 0 });\n}\n";
        let f = run_one("crates/core/src/a.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "telemetry-hygiene");
        let good = "fn emit() {\n    if !shc_obs::enabled() { return; }\n    shc_obs::journal(&shc_obs::JournalEvent { point: 0 });\n}\n";
        assert!(run_one("crates/core/src/a.rs", good).is_empty());
    }

    #[test]
    fn undeclared_phase_variant_is_flagged() {
        let phase_rs = "pub enum Phase {\n    Sweep,\n    Transient,\n}\n";
        let user = "fn f() {\n    let _a = shc_prof::enter(shc_prof::Phase::Transient);\n    let _b = shc_prof::enter(shc_prof::Phase::Bogus);\n    let _n = shc_prof::Phase::COUNT;\n}\n";
        let f = run(
            &Workspace {
                files: vec![
                    SourceFile {
                        path: "crates/prof/src/phase.rs".to_string(),
                        text: phase_rs.to_string(),
                    },
                    SourceFile {
                        path: "crates/core/src/a.rs".to_string(),
                        text: user.to_string(),
                    },
                ],
                design_md: None,
            },
            Parallelism::Serial,
        )
        .findings;
        let hygiene: Vec<&Finding> = f.iter().filter(|x| x.rule == "telemetry-hygiene").collect();
        assert_eq!(hygiene.len(), 1, "{f:?}");
        assert!(hygiene[0].message.contains("Phase::Bogus"));
        assert_eq!(hygiene[0].line, 3);
    }

    #[test]
    fn schema_keys_parse_from_markdown() {
        let md = "# x\n<!-- journal-schema:begin -->\n| key | type |\n|---|---|\n| `point` | u64 |\n| `tau_s` | f64 |\n<!-- journal-schema:end -->\n";
        assert_eq!(design_schema_keys(md), vec!["point", "tau_s"]);
    }

    #[test]
    fn comments_and_strings_never_fire_rules() {
        let src = "// x.unwrap() and panic! in a comment\nfn f() { let s = \"y.unwrap() == 0.0\"; let _ = s; }\n/* vec![0.0] Vec::new() */\n";
        assert!(run_one("crates/linalg/src/a.rs", src).is_empty());
    }

    #[test]
    fn trunk_fence_without_skew_reads_is_silent() {
        let src = "struct Dev { bias: f64 }\n// lint: trunk-fence\nfn adopt(d: &Dev, out: &mut [f64]) {\n    for o in out.iter_mut() {\n        *o = d.bias;\n    }\n}\n";
        assert!(run_one("crates/spice/src/batch/a.rs", src).is_empty());
    }

    #[test]
    fn tau_h_read_seeds_lane_divergence_like_tau_s() {
        let src = "struct P { tau_h: f64 }\nfn hold(p: &P) -> f64 { p.tau_h }\n// lint: trunk-fence\nfn adopt(p: &P) -> f64 {\n    hold(p)\n}\n";
        let f = run_one("crates/spice/src/batch/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "trunk-divergence-fence");
        assert!(f[0].message.contains("`.tau_h`"), "{f:?}");
        assert_eq!(f[0].line, 4);
    }
}
