//! Finding type and the human/JSON renderers.
//!
//! JSON is emitted by hand: the lint crate deliberately uses no
//! third-party dependencies so it builds and runs before anything
//! external is trusted (the vendored `serde` is a no-op stub anyway).

use std::fmt::Write as _;

/// One lint violation, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `no-panic`.
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// For `panic-reachability`: the qualified public API this finding
    /// is about. Ratcheting keys on it so each API is tracked
    /// individually rather than as a per-file count.
    pub api: Option<String>,
    /// For the effect rules (`hot-path-certify`, `determinism`,
    /// `trunk-divergence-fence`): the effect name (`alloc`, `clock`, …)
    /// this finding is about, so the baseline can ratchet per-(API,
    /// effect).
    pub effect: Option<&'static str>,
}

impl Finding {
    pub fn new(rule: &'static str, file: String, line: u32, message: String) -> Self {
        Finding {
            rule,
            file,
            line,
            message,
            api: None,
            effect: None,
        }
    }

    /// Attaches the qualified API name (panic-reachability findings).
    pub fn with_api(mut self, api: String) -> Self {
        self.api = Some(api);
        self
    }

    /// Attaches the effect name (effect-rule findings).
    pub fn with_effect(mut self, effect: &'static str) -> Self {
        self.effect = Some(effect);
        self
    }

    /// `file:line: [rule] message` — the grep/editor-friendly form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One public API from which a panic site is reachable, with its
/// shortest call chain. Reported as a JSON section (and uploaded as a
/// CI artifact) independently of whether the finding is baselined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicApi {
    /// Qualified name, e.g. `Matrix::solve` or `trace_contour`.
    pub api: String,
    /// File and line of the API definition.
    pub file: String,
    pub line: u32,
    /// Rendered shortest chain: `api (file:line) -> … -> unwrap() (file:line)`.
    pub chain: String,
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report consumed by CI.
pub fn render_json(
    new: &[Finding],
    baselined: usize,
    files_checked: usize,
    panic_apis: &[PanicApi],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"version\": 4,");
    let _ = writeln!(s, "  \"files_checked\": {files_checked},");
    let _ = writeln!(s, "  \"baselined\": {baselined},");
    let _ = writeln!(s, "  \"new_findings\": {},", new.len());
    s.push_str("  \"findings\": [\n");
    for (i, f) in new.iter().enumerate() {
        let comma = if i + 1 == new.len() { "" } else { "," };
        let api = match &f.api {
            Some(a) => format!(", \"api\": \"{}\"", json_escape(a)),
            None => String::new(),
        };
        let effect = match f.effect {
            Some(e) => format!(", \"effect\": \"{}\"", json_escape(e)),
            None => String::new(),
        };
        let _ = writeln!(
            s,
            "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"{api}{effect} }}{comma}",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"panic_apis\": [\n");
    for (i, p) in panic_apis.iter().enumerate() {
        let comma = if i + 1 == panic_apis.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{ \"api\": \"{}\", \"file\": \"{}\", \"line\": {}, \"chain\": \"{}\" }}{comma}",
            json_escape(&p.api),
            json_escape(&p.file),
            p.line,
            json_escape(&p.chain),
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// One function's effect summary, ready for `effect-summaries.json`.
/// Rows are produced sorted by `(file, line, api)` so serial and
/// parallel runs render byte-identical artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectRow {
    /// Qualified name (`SparseLu::refactor`).
    pub api: String,
    pub file: String,
    pub line: u32,
    /// Effective (allow-pruned) effect names, canonical order.
    pub effects: Vec<&'static str>,
    /// Raw effect names; equals `effects` when no allow pruned anything.
    pub raw: Vec<&'static str>,
    /// Unresolved, non-allowlisted callee names behind `unknown-callee`.
    pub unknown: Vec<String>,
}

/// Renders the full effect-summary table (the `effect-summaries.json`
/// artifact).
pub fn render_effects_json(rows: &[EffectRow]) -> String {
    fn str_list<S: AsRef<str>>(items: &[S]) -> String {
        let quoted: Vec<String> = items
            .iter()
            .map(|i| format!("\"{}\"", json_escape(i.as_ref())))
            .collect();
        format!("[{}]", quoted.join(", "))
    }
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"version\": 2,");
    let _ = writeln!(s, "  \"functions\": {},", rows.len());
    s.push_str("  \"summaries\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        // Keep rows compact: omit "raw" when identical to "effects" and
        // "unknown" when empty.
        let raw = if r.raw == r.effects {
            String::new()
        } else {
            format!(", \"raw\": {}", str_list(&r.raw))
        };
        let unknown = if r.unknown.is_empty() {
            String::new()
        } else {
            format!(", \"unknown\": {}", str_list(&r.unknown))
        };
        let _ = writeln!(
            s,
            "    {{ \"api\": \"{}\", \"file\": \"{}\", \"line\": {}, \"effects\": {}{raw}{unknown} }}{comma}",
            json_escape(&r.api),
            json_escape(&r.file),
            r.line,
            str_list(&r.effects),
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_editor_clickable() {
        let f = Finding::new("no-panic", "crates/core/src/a.rs".into(), 7, "msg".into());
        assert_eq!(f.render(), "crates/core/src/a.rs:7: [no-panic] msg");
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_report_shape() {
        let f = vec![Finding::new("float-eq", "x.rs".into(), 1, "m \"q\"".into())];
        let j = render_json(&f, 3, 10, &[]);
        assert!(j.contains("\"version\": 4"));
        assert!(j.contains("\"new_findings\": 1"));
        assert!(j.contains("\"baselined\": 3"));
        assert!(j.contains("\\\"q\\\""));
        // Empty findings list still renders valid JSON.
        let j = render_json(&[], 0, 0, &[]);
        assert!(j.contains("\"findings\": [\n  ]"));
    }

    #[test]
    fn json_report_includes_api_and_panic_chains() {
        let f = vec![
            Finding::new("panic-reachability", "a.rs".into(), 3, "m".into())
                .with_api("Matrix::solve".into()),
        ];
        let apis = vec![PanicApi {
            api: "Matrix::solve".into(),
            file: "a.rs".into(),
            line: 3,
            chain: "Matrix::solve (a.rs:3) -> unwrap() (a.rs:9)".into(),
        }];
        let j = render_json(&f, 0, 1, &apis);
        assert!(j.contains("\"api\": \"Matrix::solve\""));
        assert!(j.contains("\"panic_apis\": ["));
        assert!(j.contains("unwrap() (a.rs:9)"));
    }

    #[test]
    fn json_report_includes_effect_when_present() {
        let f = vec![
            Finding::new("hot-path-certify", "a.rs".into(), 3, "m".into())
                .with_api("SparseLu::solve_into".into())
                .with_effect("alloc"),
        ];
        let j = render_json(&f, 0, 1, &[]);
        assert!(j.contains("\"effect\": \"alloc\""));
    }

    #[test]
    fn effect_summaries_artifact_shape() {
        let rows = vec![
            EffectRow {
                api: "SparseLu::solve_into".into(),
                file: "crates/linalg/src/sparse_lu.rs".into(),
                line: 10,
                effects: vec![],
                raw: vec!["clock"],
                unknown: vec![],
            },
            EffectRow {
                api: "run".into(),
                file: "crates/spice/src/transient.rs".into(),
                line: 20,
                effects: vec!["alloc", "panic"],
                raw: vec!["alloc", "panic"],
                unknown: vec!["mystery".into()],
            },
        ];
        let j = render_effects_json(&rows);
        // v2: the schema carries the effect lattice incl. lane-divergent.
        assert!(j.contains("\"version\": 2"));
        assert!(j.contains("\"functions\": 2"));
        // raw shown only when it differs from effects.
        assert!(j.contains("\"effects\": [], \"raw\": [\"clock\"] }"));
        assert!(j.contains("\"effects\": [\"alloc\", \"panic\"], \"unknown\": [\"mystery\"] }"));
        // Two renders are byte-identical.
        assert_eq!(j, render_effects_json(&rows));
    }
}
