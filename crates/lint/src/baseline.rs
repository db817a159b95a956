//! The ratchet baseline: committed per-(rule, file[, api][, effect])
//! counts for the ratcheted rules (`no-panic`, `float-eq`,
//! `panic-reachability`, `determinism`, `trunk-divergence-fence`).
//! Findings at or below the baseline count pass; the count may only go
//! down over time.
//!
//! Schema `version: 4` keys each entry by rule and file, plus an
//! `"api"` key for the per-API rules and an `"effect"` key for the
//! per-(API, effect) rules; an empty key is omitted. The loader accepts
//! only version 4: any other version is an error that names it.
//!
//! The file format is a small fixed-shape JSON document that this module
//! both writes and reads (one entry object per line), so the reader is a
//! simple line scanner rather than a general JSON parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::report::{json_escape, Finding};
use crate::rules::RATCHETED_RULES;

/// One ratchet group: rule + file + optional qualified API name (empty
/// for the per-file rules) + optional effect name (empty for everything
/// but the effect rules).
pub type GroupKey = (String, String, String, String);

/// The schema version this linter writes.
pub const BASELINE_VERSION: u32 = 4;

/// Allowed finding counts keyed by (rule, file, api, effect).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub entries: BTreeMap<GroupKey, usize>,
}

/// Outcome of filtering findings through the baseline.
#[derive(Debug, Default)]
pub struct RatchetResult {
    /// Findings that must fail the run (non-ratcheted rules, plus
    /// ratcheted groups that exceeded their allowance).
    pub new_findings: Vec<Finding>,
    /// Count of findings absorbed by the baseline.
    pub baselined: usize,
    /// Groups now strictly below their allowance: (key, count, allowed).
    /// The baseline should be re-tightened with `--update-baseline`.
    pub improved: Vec<(GroupKey, usize, usize)>,
}

fn key_of(f: &Finding) -> GroupKey {
    (
        f.rule.to_string(),
        f.file.clone(),
        f.api.clone().unwrap_or_default(),
        f.effect.unwrap_or_default().to_string(),
    )
}

impl Baseline {
    /// Parses the committed `lint-baseline.json`. Returns `Err` on a
    /// missing or other-than-[`BASELINE_VERSION`] version, and on any
    /// line that looks like an entry but does not parse — a corrupt
    /// baseline must not silently allow findings.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = BTreeMap::new();
        let mut version = None;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if !line.contains("\"rule\"") {
                if let Some(v) = extract_usize(line, "version") {
                    version = Some(v);
                }
                continue;
            }
            let rule = extract_str(line, "rule")
                .ok_or_else(|| format!("baseline line {}: missing \"rule\"", lineno + 1))?;
            let file = extract_str(line, "file")
                .ok_or_else(|| format!("baseline line {}: missing \"file\"", lineno + 1))?;
            let count = extract_usize(line, "count")
                .ok_or_else(|| format!("baseline line {}: missing \"count\"", lineno + 1))?;
            // `render` omits empty keys.
            let api = extract_str(line, "api").unwrap_or_default();
            let effect = extract_str(line, "effect").unwrap_or_default();
            entries.insert((rule, file, api, effect), count);
        }
        match version {
            Some(v) if v == BASELINE_VERSION as usize => Ok(Baseline { entries }),
            Some(v) => Err(format!(
                "baseline schema version {v} is not supported (expected {BASELINE_VERSION}); regenerate it with `check --update-baseline`"
            )),
            None => Err(format!(
                "baseline has no \"version\" (expected {BASELINE_VERSION})"
            )),
        }
    }

    /// Serializes in the fixed one-entry-per-line shape `parse` expects.
    /// Always writes [`BASELINE_VERSION`].
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{{\n  \"version\": {BASELINE_VERSION},\n  \"entries\": ["
        );
        let n = self.entries.len();
        for (i, ((rule, file, api, effect), count)) in self.entries.iter().enumerate() {
            let comma = if i + 1 == n { "" } else { "," };
            let api_field = if api.is_empty() {
                String::new()
            } else {
                format!(", \"api\": \"{}\"", json_escape(api))
            };
            let effect_field = if effect.is_empty() {
                String::new()
            } else {
                format!(", \"effect\": \"{}\"", json_escape(effect))
            };
            let _ = writeln!(
                s,
                "    {{ \"rule\": \"{}\", \"file\": \"{}\"{api_field}{effect_field}, \"count\": {} }}{comma}",
                json_escape(rule),
                json_escape(file),
                count
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Builds a fresh baseline from the current findings (the
    /// `--update-baseline` path). Only ratcheted rules are recorded.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut entries: BTreeMap<GroupKey, usize> = BTreeMap::new();
        for f in findings {
            if RATCHETED_RULES.contains(&f.rule) {
                *entries.entry(key_of(f)).or_insert(0) += 1;
            }
        }
        Baseline { entries }
    }

    /// Splits findings into baselined and new. Ratcheted groups are
    /// all-or-nothing: if a (rule, file, api) exceeds its allowance,
    /// every finding in the group is reported so the offending sites
    /// are visible (the allowance is a count, not a set of lines).
    pub fn apply(&self, findings: Vec<Finding>) -> RatchetResult {
        let mut res = RatchetResult::default();
        let mut groups: BTreeMap<GroupKey, Vec<Finding>> = BTreeMap::new();
        for f in findings {
            if RATCHETED_RULES.contains(&f.rule) {
                groups.entry(key_of(&f)).or_default().push(f);
            } else {
                res.new_findings.push(f);
            }
        }
        // Baseline entries for groups that now have zero findings are the
        // best kind of improvement; report them so the baseline gets
        // re-tightened.
        for (key, &allowed) in &self.entries {
            if allowed > 0 && !groups.contains_key(key) {
                res.improved.push((key.clone(), 0, allowed));
            }
        }
        for (key, group) in groups {
            let allowed = self.entries.get(&key).copied().unwrap_or(0);
            let count = group.len();
            if count > allowed {
                for mut f in group {
                    f.message = format!(
                        "{} ({} findings in this group vs {} baselined)",
                        f.message, count, allowed
                    );
                    res.new_findings.push(f);
                }
            } else {
                res.baselined += count;
                if count < allowed {
                    res.improved.push((key, count, allowed));
                }
            }
        }
        res.new_findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.api, a.effect)
                .cmp(&(&b.file, b.line, b.rule, &b.api, b.effect))
        });
        res
    }

    /// Human-readable diff against `other` (the on-disk baseline), one
    /// line per changed (rule, file, api, effect) group — what
    /// `--update-baseline` prints instead of rewriting silently.
    pub fn diff_against(&self, other: &Baseline) -> Vec<String> {
        fn label(key: &GroupKey) -> String {
            let (rule, file, api, effect) = key;
            let mut s = format!("[{rule}] {file}");
            if !api.is_empty() {
                let _ = write!(s, " {api}");
            }
            if !effect.is_empty() {
                let _ = write!(s, " ({effect})");
            }
            s
        }
        let mut lines = Vec::new();
        for (key, &new_count) in &self.entries {
            match other.entries.get(key) {
                None => lines.push(format!("  + {} = {}", label(key), new_count)),
                Some(&old) if old != new_count => {
                    lines.push(format!("  ~ {} = {} (was {})", label(key), new_count, old));
                }
                Some(_) => {}
            }
        }
        for (key, &old) in &other.entries {
            if !self.entries.contains_key(key) {
                lines.push(format!("  - {} (was {})", label(key), old));
            }
        }
        lines
    }
}

/// Extracts `"key": "value"` from a single line.
fn extract_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let after = &line[line.find(&pat)? + pat.len()..];
    let after = after.trim_start().strip_prefix(':')?.trim_start();
    let after = after.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = after.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extracts `"key": 123` from a single line.
fn extract_usize(line: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\"");
    let after = &line[line.find(&pat)? + pat.len()..];
    let after = after.trim_start().strip_prefix(':')?.trim_start();
    let digits: String = after.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding::new(rule, file.to_string(), line, "m".to_string())
    }

    #[test]
    fn round_trip() {
        let findings = vec![
            finding("no-panic", "crates/core/src/a.rs", 1),
            finding("no-panic", "crates/core/src/a.rs", 2),
            finding("float-eq", "crates/linalg/src/lu.rs", 9),
            finding("units", "src/x.rs", 3), // not ratcheted: excluded
            finding("panic-reachability", "crates/linalg/src/lu.rs", 14)
                .with_api("LuFactor::solve".into()),
        ];
        let b = Baseline::from_findings(&findings);
        assert_eq!(b.entries.len(), 3);
        let rendered = b.render();
        assert!(rendered.contains("\"version\": 4"));
        assert!(rendered.contains("\"api\": \"LuFactor::solve\""));
        let parsed = Baseline::parse(&rendered).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn ratchet_allows_at_or_below_count_and_fails_above() {
        let mut b = Baseline::default();
        b.entries.insert(
            (
                "no-panic".into(),
                "crates/core/src/a.rs".into(),
                String::new(),
                String::new(),
            ),
            2,
        );

        let at = b.apply(vec![
            finding("no-panic", "crates/core/src/a.rs", 1),
            finding("no-panic", "crates/core/src/a.rs", 2),
        ]);
        assert!(at.new_findings.is_empty());
        assert_eq!(at.baselined, 2);

        let above = b.apply(vec![
            finding("no-panic", "crates/core/src/a.rs", 1),
            finding("no-panic", "crates/core/src/a.rs", 2),
            finding("no-panic", "crates/core/src/a.rs", 3),
        ]);
        assert_eq!(above.new_findings.len(), 3);
        assert!(above.new_findings[0].message.contains("3 findings"));

        let below = b.apply(vec![finding("no-panic", "crates/core/src/a.rs", 1)]);
        assert!(below.new_findings.is_empty());
        assert_eq!(below.improved.len(), 1);
    }

    #[test]
    fn apis_ratchet_independently_within_one_file() {
        let mut b = Baseline::default();
        b.entries.insert(
            (
                "panic-reachability".into(),
                "a.rs".into(),
                "Matrix::solve".into(),
                String::new(),
            ),
            1,
        );
        // The baselined API passes; a new API in the same file fails.
        let res = b.apply(vec![
            finding("panic-reachability", "a.rs", 3).with_api("Matrix::solve".into()),
            finding("panic-reachability", "a.rs", 9).with_api("Matrix::invert".into()),
        ]);
        assert_eq!(res.baselined, 1);
        assert_eq!(res.new_findings.len(), 1);
        assert_eq!(res.new_findings[0].api.as_deref(), Some("Matrix::invert"));
    }

    #[test]
    fn non_ratcheted_rules_always_fail() {
        let mut b = Baseline::default();
        b.entries.insert(
            (
                "hot-path-certify".into(),
                "x.rs".into(),
                String::new(),
                String::new(),
            ),
            5,
        );
        let res = b.apply(vec![finding("hot-path-certify", "x.rs", 1)]);
        assert_eq!(res.new_findings.len(), 1, "hard rules cannot be baselined");
    }

    #[test]
    fn effects_ratchet_independently_per_root() {
        let mut b = Baseline::default();
        b.entries.insert(
            (
                "determinism".into(),
                "a.rs".into(),
                "trace_contour".into(),
                "unordered-iter".into(),
            ),
            1,
        );
        // The baselined (API, effect) passes; a different effect on the
        // same API fails.
        let res = b.apply(vec![
            finding("determinism", "a.rs", 3)
                .with_api("trace_contour".into())
                .with_effect("unordered-iter"),
            finding("determinism", "a.rs", 3)
                .with_api("trace_contour".into())
                .with_effect("float-order"),
        ]);
        assert_eq!(res.baselined, 1);
        assert_eq!(res.new_findings.len(), 1);
        assert_eq!(res.new_findings[0].effect, Some("float-order"));
        // Rendered entries carry the effect key.
        let rendered = Baseline::from_findings(&[finding("determinism", "b.rs", 1)
            .with_api("trace_contour".into())
            .with_effect("unordered-iter")])
        .render();
        assert!(rendered.contains("\"effect\": \"unordered-iter\""));
    }

    #[test]
    fn diff_reports_added_removed_and_changed_groups() {
        let mut old = Baseline::default();
        old.entries.insert(
            (
                "no-panic".into(),
                "a.rs".into(),
                String::new(),
                String::new(),
            ),
            2,
        );
        old.entries.insert(
            (
                "float-eq".into(),
                "b.rs".into(),
                String::new(),
                String::new(),
            ),
            1,
        );
        let mut new = Baseline::default();
        new.entries.insert(
            (
                "no-panic".into(),
                "a.rs".into(),
                String::new(),
                String::new(),
            ),
            1,
        );
        new.entries.insert(
            (
                "determinism".into(),
                "c.rs".into(),
                "root".into(),
                "unordered-iter".into(),
            ),
            1,
        );
        let diff = new.diff_against(&old);
        assert_eq!(diff.len(), 3);
        assert!(diff
            .iter()
            .any(|l| l.contains("+ [determinism] c.rs root (unordered-iter) = 1")));
        assert!(diff
            .iter()
            .any(|l| l.contains("~ [no-panic] a.rs = 1 (was 2)")));
        assert!(diff.iter().any(|l| l.contains("- [float-eq] b.rs (was 1)")));
        assert!(new.diff_against(&new).is_empty());
    }

    #[test]
    fn corrupt_baseline_is_an_error() {
        assert!(Baseline::parse("{ \"entries\": [ { \"rule\": \"x\" } ] }").is_err());
        let v3 = "{\n  \"version\": 3,\n  \"entries\": [\n  ]\n}\n";
        let err = Baseline::parse(v3).unwrap_err();
        assert!(err.contains("version 3"), "{err}");
        let unversioned = "{\n  \"entries\": [\n  ]\n}\n";
        assert!(Baseline::parse(unversioned).is_err());
    }
}
