//! Profile reports: JSON serialization, collapsed-stack flamegraph
//! export, text tables, and differential comparison.
//!
//! All JSON is hand-rolled through `shc_obs::json` (the vendored serde is
//! a stub); parsing targets exactly the shapes this module emits.

use std::fmt::Write as _;

use shc_obs::json;

use crate::phase::Phase;

/// Schema tag stamped into every report this crate writes.
pub const SCHEMA: &str = "shc-prof-v1";

/// Aggregated totals for one phase across the whole tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Phase name (see [`Phase::name`]).
    pub phase: String,
    /// Time spent in this phase itself, excluding child frames.
    pub self_ns: u64,
    /// Time spent in this phase including child frames.
    pub total_ns: u64,
    /// Frame invocations.
    pub count: u64,
    /// Work units (phase-specific, see [`Phase::work_unit`]).
    pub work: u64,
}

impl PhaseAgg {
    /// This phase's share of the report's covered wall-clock, in [0, 1].
    #[must_use]
    pub fn self_share(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            0.0
        } else {
            self.self_ns as f64 / wall_ns as f64
        }
    }
}

/// One path-keyed node of the frame tree, flattened for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportNode {
    /// Semicolon-joined phase path, e.g. `transient;newton_overhead`.
    pub stack: String,
    /// Self time of this node.
    pub self_ns: u64,
    /// Inclusive time of this node.
    pub total_ns: u64,
    /// Frame invocations at this path.
    pub count: u64,
    /// Work units at this path.
    pub work: u64,
}

/// A complete profile: per-phase aggregates plus the exact tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// What was profiled (e.g. `tspc_contour`).
    pub label: String,
    /// Wall-clock covered by top-level frames. Worker-thread frames merge
    /// in too, so under parallel sweeps this exceeds elapsed wall time
    /// (it is closer to CPU time).
    pub wall_ns: u64,
    /// Per-phase aggregates, sorted by descending self time.
    pub phases: Vec<PhaseAgg>,
    /// The flattened tree, depth-first.
    pub nodes: Vec<ReportNode>,
}

impl ProfileReport {
    /// Looks up one phase's aggregate row.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseAgg> {
        self.phases.iter().find(|p| p.phase == name)
    }

    /// Renders the report as a single JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        json::push_str_field(&mut out, &mut first, "schema", SCHEMA);
        json::push_str_field(&mut out, &mut first, "label", &self.label);
        json::push_u64_field(&mut out, &mut first, "wall_ns", self.wall_ns);
        let mut phases = String::from("[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            phases.push('{');
            let mut pf = true;
            json::push_str_field(&mut phases, &mut pf, "phase", &p.phase);
            json::push_u64_field(&mut phases, &mut pf, "self_ns", p.self_ns);
            json::push_u64_field(&mut phases, &mut pf, "total_ns", p.total_ns);
            json::push_u64_field(&mut phases, &mut pf, "count", p.count);
            json::push_u64_field(&mut phases, &mut pf, "work", p.work);
            json::push_f64_field(
                &mut phases,
                &mut pf,
                "self_share",
                p.self_share(self.wall_ns),
            );
            phases.push('}');
        }
        phases.push(']');
        json::push_raw_field(&mut out, &mut first, "phases", &phases);
        let mut nodes = String::from("[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                nodes.push(',');
            }
            nodes.push('{');
            let mut nf = true;
            json::push_str_field(&mut nodes, &mut nf, "stack", &n.stack);
            json::push_u64_field(&mut nodes, &mut nf, "self_ns", n.self_ns);
            json::push_u64_field(&mut nodes, &mut nf, "total_ns", n.total_ns);
            json::push_u64_field(&mut nodes, &mut nf, "count", n.count);
            json::push_u64_field(&mut nodes, &mut nf, "work", n.work);
            nodes.push('}');
        }
        nodes.push(']');
        json::push_raw_field(&mut out, &mut first, "nodes", &nodes);
        out.push_str("}\n");
        out
    }

    /// Parses a report written by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed field.
    pub fn from_json(text: &str) -> Result<ProfileReport, String> {
        let schema = scan_string(text, "schema").ok_or("missing 'schema'")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}' (want {SCHEMA})"));
        }
        let label = scan_string(text, "label").ok_or("missing 'label'")?;
        let wall_ns = json::scan_u64(text, "wall_ns").ok_or("missing 'wall_ns'")?;
        let mut phases = Vec::new();
        for obj in array_objects(text, "phases").ok_or("missing 'phases'")? {
            phases.push(PhaseAgg {
                phase: scan_string(obj, "phase").ok_or("phase row missing 'phase'")?,
                self_ns: json::scan_u64(obj, "self_ns").ok_or("phase row missing 'self_ns'")?,
                total_ns: json::scan_u64(obj, "total_ns").ok_or("phase row missing 'total_ns'")?,
                count: json::scan_u64(obj, "count").ok_or("phase row missing 'count'")?,
                work: json::scan_u64(obj, "work").ok_or("phase row missing 'work'")?,
            });
        }
        let mut nodes = Vec::new();
        for obj in array_objects(text, "nodes").ok_or("missing 'nodes'")? {
            nodes.push(ReportNode {
                stack: scan_string(obj, "stack").ok_or("node row missing 'stack'")?,
                self_ns: json::scan_u64(obj, "self_ns").ok_or("node row missing 'self_ns'")?,
                total_ns: json::scan_u64(obj, "total_ns").ok_or("node row missing 'total_ns'")?,
                count: json::scan_u64(obj, "count").ok_or("node row missing 'count'")?,
                work: json::scan_u64(obj, "work").ok_or("node row missing 'work'")?,
            });
        }
        Ok(ProfileReport {
            label,
            wall_ns,
            phases,
            nodes,
        })
    }

    /// Collapsed-stack flamegraph export: one `path value` line per tree
    /// node, value = self time in ns. Loadable by `flamegraph.pl` /
    /// `inferno-flamegraph` as-is.
    #[must_use]
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for node in &self.nodes {
            if node.self_ns > 0 {
                let _ = writeln!(out, "{} {}", node.stack, node.self_ns);
            }
        }
        out
    }

    /// Human-readable per-phase table, widest consumers: `--profile`
    /// output and DESIGN.md's measured sections.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} ({:.1} ms covered)",
            self.label,
            self.wall_ns as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "  {:<20} {:>10} {:>7} {:>10} {:>12} {:>14} {:>9}",
            "phase", "self ms", "self %", "total ms", "calls", "work", "ns/call"
        );
        for p in &self.phases {
            let per_call = if p.count == 0 {
                0.0
            } else {
                p.self_ns as f64 / p.count as f64
            };
            let work = if p.work == 0 {
                String::new()
            } else {
                let unit = Phase::from_name(&p.phase).map_or("", Phase::work_unit);
                format!("{} {}", p.work, unit)
            };
            let _ = writeln!(
                out,
                "  {:<20} {:>10.3} {:>6.1}% {:>10.3} {:>12} {:>14} {:>9.0}",
                p.phase,
                p.self_ns as f64 / 1e6,
                100.0 * p.self_share(self.wall_ns),
                p.total_ns as f64 / 1e6,
                p.count,
                work,
                per_call,
            );
        }
        out
    }
}

/// One phase's before/after comparison from [`diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Phase name.
    pub phase: String,
    /// Self-time share in the first profile, [0, 1].
    pub share_a: f64,
    /// Self-time share in the second profile, [0, 1].
    pub share_b: f64,
    /// Work units in the first profile.
    pub work_a: u64,
    /// Work units in the second profile.
    pub work_b: u64,
    /// Calls in the first / second profile.
    pub count_a: u64,
    /// Calls in the second profile.
    pub count_b: u64,
}

impl PhaseDelta {
    /// Share change in percentage points (positive = grew in `b`).
    #[must_use]
    pub fn share_delta_pp(&self) -> f64 {
        100.0 * (self.share_b - self.share_a)
    }
}

/// Compares two profiles phase-by-phase, sorted by |Δ share| descending.
#[must_use]
pub fn diff(a: &ProfileReport, b: &ProfileReport) -> Vec<PhaseDelta> {
    let mut names: Vec<&str> = a
        .phases
        .iter()
        .chain(b.phases.iter())
        .map(|p| p.phase.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut deltas: Vec<PhaseDelta> = names
        .into_iter()
        .map(|name| {
            let pa = a.phase(name);
            let pb = b.phase(name);
            PhaseDelta {
                phase: name.to_string(),
                share_a: pa.map_or(0.0, |p| p.self_share(a.wall_ns)),
                share_b: pb.map_or(0.0, |p| p.self_share(b.wall_ns)),
                work_a: pa.map_or(0, |p| p.work),
                work_b: pb.map_or(0, |p| p.work),
                count_a: pa.map_or(0, |p| p.count),
                count_b: pb.map_or(0, |p| p.count),
            }
        })
        .collect();
    deltas.sort_by(|x, y| {
        y.share_delta_pp()
            .abs()
            .partial_cmp(&x.share_delta_pp().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    deltas
}

/// Renders a [`diff`] as a text table.
#[must_use]
pub fn render_diff(a: &ProfileReport, b: &ProfileReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile diff: {} ({:.1} ms) -> {} ({:.1} ms)",
        a.label,
        a.wall_ns as f64 / 1e6,
        b.label,
        b.wall_ns as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "  {:<20} {:>8} {:>8} {:>8}  {:>12} {:>12}  {:>10} {:>10}",
        "phase", "a %", "b %", "Δpp", "a work", "b work", "a calls", "b calls"
    );
    for d in diff(a, b) {
        let _ = writeln!(
            out,
            "  {:<20} {:>7.1}% {:>7.1}% {:>+7.1}  {:>12} {:>12}  {:>10} {:>10}",
            d.phase,
            100.0 * d.share_a,
            100.0 * d.share_b,
            d.share_delta_pp(),
            d.work_a,
            d.work_b,
            d.count_a,
            d.count_b,
        );
    }
    out
}

/// Scans a JSON string value (no escape handling beyond the writer's:
/// the strings this crate emits are labels and phase names).
fn scan_string(text: &str, key: &str) -> Option<String> {
    let raw = json::raw_value(text, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
}

/// Splits `"key":[{...},{...}]` into its top-level object slices,
/// tracking brace/bracket depth so nested arrays inside the objects
/// don't confuse the split. Only handles the JSON this crate writes (no
/// braces inside strings).
fn array_objects<'a>(text: &'a str, key: &str) -> Option<Vec<&'a str>> {
    let needle = format!("\"{key}\":[");
    let start = text.find(&needle)? + needle.len();
    let rest = &text[start..];
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut obj_start = None;
    for (i, c) in rest.char_indices() {
        match c {
            '{' | '[' => {
                if depth == 0 && c == '{' {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            '}' | ']' => {
                if depth == 0 {
                    // Closing bracket of the array itself.
                    return Some(objects);
                }
                depth -= 1;
                if depth == 0 {
                    if let Some(s) = obj_start.take() {
                        objects.push(&rest[s..=i]);
                    }
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(label: &str, eval_ns: u64, solve_ns: u64) -> ProfileReport {
        ProfileReport {
            label: label.to_string(),
            wall_ns: eval_ns + solve_ns,
            phases: vec![
                PhaseAgg {
                    phase: "device_eval".into(),
                    self_ns: eval_ns,
                    total_ns: eval_ns,
                    count: 10,
                    work: 120,
                },
                PhaseAgg {
                    phase: "lu_solve".into(),
                    self_ns: solve_ns,
                    total_ns: solve_ns,
                    count: 30,
                    work: 0,
                },
            ],
            nodes: vec![
                ReportNode {
                    stack: "transient;device_eval".into(),
                    self_ns: eval_ns,
                    total_ns: eval_ns,
                    count: 10,
                    work: 120,
                },
                ReportNode {
                    stack: "transient;lu_solve".into(),
                    self_ns: solve_ns,
                    total_ns: solve_ns,
                    count: 30,
                    work: 0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample("tspc_contour", 700, 300);
        let parsed = ProfileReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn folded_lines_carry_full_stacks() {
        let folded = sample("x", 700, 300).to_folded();
        assert!(folded.contains("transient;device_eval 700"));
        assert!(folded.contains("transient;lu_solve 300"));
    }

    #[test]
    fn diff_ranks_by_share_movement() {
        let a = sample("a", 700, 300);
        let b = sample("b", 300, 700);
        let deltas = diff(&a, &b);
        assert_eq!(deltas[0].share_delta_pp().abs(), 40.0);
        let rendered = render_diff(&a, &b);
        assert!(rendered.contains("device_eval"));
    }

    #[test]
    fn table_mentions_every_phase() {
        let table = sample("x", 700, 300).table();
        assert!(table.contains("device_eval"));
        assert!(table.contains("lu_solve"));
        assert!(table.contains("device evals"));
    }
}
