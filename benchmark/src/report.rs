//! End-to-end metric table and rendering: the human lines, the final JSON
//! line, and the results file.

use std::fmt::Write as _;

use shc_obs::json;

use crate::layers::PER_LAYER;
use crate::run::{RunReport, WorkloadRun};
use crate::stats::Summary;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// Name, as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The statistic of a run's samples that a metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The median.
    Median,
    /// The 10th percentile. Wall times use it: on a shared host,
    /// contention only ever adds time, in bursts that can cover most of a
    /// run, and the fast end of a run stays steady where its median does
    /// not.
    P10,
}

impl Stat {
    /// This statistic of `s`.
    pub fn of(self, s: &Summary) -> f64 {
        match self {
            Stat::Median => s.median,
            Stat::P10 => s.p10,
        }
    }

    /// Name, for the human lines.
    pub fn name(self) -> &'static str {
        match self {
            Stat::Median => "median",
            Stat::P10 => "p10",
        }
    }
}

/// One end-to-end metric.
pub struct EndToEnd {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the base value by which the change's value may get worse
    /// before it counts as a regression.
    pub bound: f64,
    /// The statistic of a run's samples reported as the value.
    pub stat: Stat,
}

/// Every end-to-end metric, measured with tracing off.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        stat: Stat::P10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        stat: Stat::Median,
    },
    EndToEnd {
        name: "sims",
        unit: "count",
        better: Better::Lower,
        bound: 0.10,
        stat: Stat::Median,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        stat: Stat::Median,
    },
];

/// Failed ÷ attempted operations. Reported beside the end-to-end metrics
/// and gated by `compare` at +0 absolute; it is 0 on a healthy run, so the
/// final JSON line carries it as the `attempted` and `failed` counts.
pub const FAIL_FRAC: &str = "fail_frac";

impl WorkloadRun {
    /// Samples of end-to-end metric `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        match name {
            "wall_s" => &self.wall_s,
            "setup_s" => &self.setup_s,
            "sims" => &self.sims,
            "peak_heap_mb" => &self.heap_mb,
            _ => &[],
        }
    }

    /// Failed ÷ attempted operations.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn summary_line(m: &EndToEnd, s: &Summary) -> String {
    let mut line = format!(
        "{:<14} {:>12.6} {:<5} ({}; median {:.6}, q1 {:.6}, q3 {:.6}",
        m.name,
        m.stat.of(s),
        m.unit,
        m.stat.name(),
        s.median,
        s.q1,
        s.q3
    );
    if let Some((p, v)) = s.tail {
        let _ = write!(line, ", p{p} {v:.6}");
    }
    let _ = write!(line, ", n = {})", s.samples.len());
    line
}

/// The human-readable lines: every metric by name with its unit.
pub fn human(report: &RunReport) -> String {
    let mut out = String::new();
    for run in &report.workloads {
        let _ = writeln!(out, "[{}]", run.workload.name());
        for m in &END_TO_END {
            match Summary::of(run.samples(m.name)) {
                Some(s) => {
                    let _ = writeln!(out, "  {}", summary_line(m, &s));
                }
                None => {
                    let _ = writeln!(out, "  {:<14} no samples", m.name);
                }
            }
        }
        let _ = writeln!(
            out,
            "  {FAIL_FRAC:<14} {:>12.6} ratio ({} failed of {} attempted)",
            run.fail_frac(),
            run.failed,
            run.attempted
        );
        for why in &run.failures {
            let _ = writeln!(out, "  FAILED: {why}");
        }
    }
    if let Some(values) = &report.layers {
        let _ = writeln!(out, "[per-layer, traced]");
        for (m, v) in PER_LAYER.iter().zip(values) {
            let _ = writeln!(
                out,
                "  {:<34} {v:>14.6} {:<6} ({} is better)",
                m.name,
                m.unit,
                m.better.name()
            );
        }
    }
    out
}

fn push_metric(out: &mut String, first: &mut bool, name: &str, value: f64, unit: &str) {
    let mut obj = String::from("{");
    let mut f = true;
    json::push_raw_field(&mut obj, &mut f, "value", &json::fmt_f64(value));
    json::push_str_field(&mut obj, &mut f, "unit", unit);
    obj.push('}');
    json::push_raw_field(out, first, name, &obj);
}

/// The final line: `correct`, `attempted`, `failed`, and the metrics —
/// every end-to-end metric's reported statistic (prefixed `<workload>.`
/// when the run covers several workloads), or with tracing on every
/// per-layer metric.
pub fn result_line(report: &RunReport) -> String {
    let mut metrics = String::from("{");
    let mut first = true;
    match &report.layers {
        Some(values) => {
            for (m, v) in PER_LAYER.iter().zip(values) {
                push_metric(&mut metrics, &mut first, m.name, *v, m.unit);
            }
        }
        None => {
            let prefixed = report.workloads.len() > 1;
            for run in &report.workloads {
                for m in &END_TO_END {
                    let value =
                        Summary::of(run.samples(m.name)).map_or(f64::NAN, |s| m.stat.of(&s));
                    let name = if prefixed {
                        format!("{}.{}", run.workload.name(), m.name)
                    } else {
                        m.name.to_string()
                    };
                    push_metric(&mut metrics, &mut first, &name, value, m.unit);
                }
            }
        }
    }
    metrics.push('}');
    let mut out = String::from("{");
    let mut first = true;
    json::push_raw_field(
        &mut out,
        &mut first,
        "correct",
        if report.failed() == 0 {
            "true"
        } else {
            "false"
        },
    );
    json::push_u64_field(&mut out, &mut first, "attempted", report.attempted() as u64);
    json::push_u64_field(&mut out, &mut first, "failed", report.failed() as u64);
    json::push_raw_field(&mut out, &mut first, "metrics", &metrics);
    out.push('}');
    out
}

fn summary_json(unit: &str, s: &Summary) -> String {
    let mut out = String::from("{");
    let mut first = true;
    json::push_str_field(&mut out, &mut first, "unit", unit);
    json::push_u64_field(&mut out, &mut first, "n", s.samples.len() as u64);
    json::push_f64_field(&mut out, &mut first, "median", s.median);
    json::push_f64_field(&mut out, &mut first, "q1", s.q1);
    json::push_f64_field(&mut out, &mut first, "q3", s.q3);
    json::push_f64_field(&mut out, &mut first, "p10", s.p10);
    match s.tail {
        Some((p, v)) => {
            json::push_u64_field(&mut out, &mut first, "tail_pct", u64::from(p));
            json::push_f64_field(&mut out, &mut first, "tail", v);
        }
        None => {
            json::push_raw_field(&mut out, &mut first, "tail_pct", "null");
            json::push_raw_field(&mut out, &mut first, "tail", "null");
        }
    }
    let samples: Vec<String> = s.samples.iter().map(|&v| json::fmt_f64(v)).collect();
    json::push_raw_field(
        &mut out,
        &mut first,
        "samples",
        &format!("[{}]", samples.join(",")),
    );
    out.push('}');
    out
}

/// Host facts recorded in a results file.
#[derive(Debug, Clone)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Compiler that built this binary.
    pub rustc: &'static str,
}

impl Host {
    /// Reads the host facts (only when a results file is written).
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            rustc: env!("BENCH_RUSTC_VERSION"),
        }
    }
}

/// The results file: run settings, host facts, and for every workload and
/// metric the sample count, median, quartiles, tail percentile and raw
/// samples; with tracing on, the per-layer values too.
pub fn results_json(report: &RunReport, host: &Host) -> String {
    let mut out = String::from("{");
    let mut first = true;
    json::push_str_field(&mut out, &mut first, "schema", "shc-bench-run-v1");
    json::push_u64_field(&mut out, &mut first, "seed", report.seed);
    json::push_f64_field(&mut out, &mut first, "seconds", report.seconds);
    json::push_raw_field(
        &mut out,
        &mut first,
        "trace",
        if report.layers.is_some() {
            "true"
        } else {
            "false"
        },
    );
    let mut h = String::from("{");
    let mut hf = true;
    json::push_u64_field(&mut h, &mut hf, "nproc", host.nproc as u64);
    json::push_str_field(&mut h, &mut hf, "cpu", &host.cpu);
    json::push_str_field(&mut h, &mut hf, "rustc", host.rustc);
    h.push('}');
    json::push_raw_field(&mut out, &mut first, "host", &h);

    let mut ws = String::from("{");
    let mut wf = true;
    for run in &report.workloads {
        let mut w = String::from("{");
        let mut f = true;
        json::push_u64_field(&mut w, &mut f, "attempted", run.attempted as u64);
        json::push_u64_field(&mut w, &mut f, "failed", run.failed as u64);
        json::push_f64_field(&mut w, &mut f, FAIL_FRAC, run.fail_frac());
        let mut ms = String::from("{");
        let mut mf = true;
        for m in &END_TO_END {
            if let Some(s) = Summary::of(run.samples(m.name)) {
                json::push_raw_field(&mut ms, &mut mf, m.name, &summary_json(m.unit, &s));
            }
        }
        ms.push('}');
        json::push_raw_field(&mut w, &mut f, "metrics", &ms);
        w.push('}');
        json::push_raw_field(&mut ws, &mut wf, run.workload.name(), &w);
    }
    ws.push('}');
    json::push_raw_field(&mut out, &mut first, "workloads", &ws);

    if let Some(values) = &report.layers {
        let mut ls = String::from("{");
        let mut lf = true;
        for (m, v) in PER_LAYER.iter().zip(values) {
            push_metric(&mut ls, &mut lf, m.name, *v, m.unit);
        }
        ls.push('}');
        json::push_raw_field(&mut out, &mut first, "layers", &ls);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// Whether `name` satisfies the benchmark's name rule: 1 to 64 of
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn workload_names() -> Vec<&'static str> {
        Workload::ALL.iter().map(|w| w.name()).collect()
    }

    /// The entries of one array in `BENCHMARK.json`, each as raw text,
    /// split with the `shc_obs::json` scanners (the vendored serde is a
    /// stub).
    fn entries<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let mut rest = json::raw_value(text, key).unwrap_or_else(|| panic!("no `{key}` array"));
        let mut out = Vec::new();
        while let Some(start) = rest.find('{') {
            let end = start + rest[start..].find('}').expect("flat objects");
            out.push(&rest[start..=end]);
            rest = &rest[end + 1..];
        }
        out
    }

    fn string_field<'a>(obj: &'a str, key: &str) -> &'a str {
        json::raw_value(obj, key)
            .and_then(|v| v.strip_prefix('"'))
            .and_then(|v| v.strip_suffix('"'))
            .unwrap_or_else(|| panic!("no string `{key}` in {obj}"))
    }

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn names_follow_the_rule() {
        assert!(valid_name("wall_s"));
        assert!(valid_name("prof.device_eval.self_ms"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
        let mut all: Vec<&str> = workload_names();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "names are used once");
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let text = benchmark_json();
        let workloads: Vec<&str> = entries(&text, "workloads")
            .iter()
            .map(|o| string_field(o, "name"))
            .collect();
        assert_eq!(workloads, workload_names());

        let e2e = entries(&text, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (obj, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(string_field(obj, "name"), m.name);
            assert_eq!(string_field(obj, "unit"), m.unit, "{}", m.name);
            assert_eq!(string_field(obj, "better"), m.better.name(), "{}", m.name);
            assert_eq!(json::scan_f64(obj, "bound"), Some(m.bound), "{}", m.name);
        }

        let layers = entries(&text, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (obj, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(string_field(obj, "name"), m.name);
            assert_eq!(string_field(obj, "unit"), m.unit, "{}", m.name);
            assert_eq!(string_field(obj, "better"), m.better.name(), "{}", m.name);
        }
    }
}
