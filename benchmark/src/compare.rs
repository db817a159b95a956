//! `bench compare <base.json> <change.json>`: one verdict per workload and
//! end-to-end metric.

use std::fmt::Write as _;

use shc_obs::json;

use crate::report::{Better, EndToEnd, Stat, END_TO_END, FAIL_FRAC};
use crate::stats::Summary;
use crate::workloads::Workload;

/// How a change's metric compares with the base's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound.
    Same,
    /// A side's statistic is less certain than the bound and neither
    /// side's samples all beat the other's.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change of statistic `stat`, positive when `change` is worse.
pub fn worsening(base: &Summary, change: &Summary, better: Better, stat: Stat) -> f64 {
    let (b, c) = (stat.of(base), stat.of(change));
    let rel = if b == 0.0 {
        if c == 0.0 {
            0.0
        } else {
            f64::INFINITY * c.signum()
        }
    } else {
        (c - b) / b.abs()
    };
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// The verdict for metric `m`, under its bound.
pub fn verdict(base: &Summary, change: &Summary, m: &EndToEnd) -> Verdict {
    let extent = |s: &Summary| {
        s.samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    };
    let ((b_lo, b_hi), (c_lo, c_hi)) = (extent(base), extent(change));
    let separated = c_hi < b_lo || b_hi < c_lo;
    let spread = |s: &Summary| s.stat_spread(|x| m.stat.of(x));
    if (spread(base) > m.bound || spread(change) > m.bound) && !separated {
        return Verdict::Unresolved;
    }
    let worse = worsening(base, change, m.better, m.stat);
    if worse > m.bound {
        Verdict::Worse
    } else if worse < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn workload_object(text: &str, w: Workload) -> Option<&str> {
    json::scan_raw_object(json::scan_raw_object(text, "workloads")?, w.name())
}

fn summary(workload: &str, metric: &str) -> Option<Summary> {
    let obj = json::scan_raw_object(json::scan_raw_object(workload, "metrics")?, metric)?;
    let mut s = Summary::of(&json::scan_f64_array(obj, "samples")?)?;
    // The recorded statistics are authoritative; the samples set the
    // separation test.
    s.median = json::scan_f64(obj, "median")?;
    s.q1 = json::scan_f64(obj, "q1")?;
    s.q3 = json::scan_f64(obj, "q3")?;
    s.p10 = json::scan_f64(obj, "p10")?;
    Some(s)
}

/// Compares two results files. Returns the report and whether the change
/// passes: no `worse` verdict and no rise in `fail_frac`.
///
/// # Errors
///
/// A file that is not a results file.
pub fn compare(base: &str, change: &str) -> Result<(String, bool), String> {
    for (label, text) in [("base", base), ("change", change)] {
        if json::raw_value(text, "schema") != Some("\"shc-bench-run-v1\"") {
            return Err(format!("{label} is not an shc-bench-run-v1 results file"));
        }
    }
    let mut out = String::new();
    let mut pass = true;
    let mut compared = 0;
    let _ = writeln!(
        out,
        "{:<11} {:<13} {:>13} {:>27} {:>13} {:>27} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "base q1..q3", "change", "change q1..q3", "change", "bound"
    );
    for w in Workload::ALL {
        let (Some(b), Some(c)) = (workload_object(base, w), workload_object(change, w)) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(bs), Some(cs)) = (summary(b, m.name), summary(c, m.name)) else {
                continue;
            };
            compared += 1;
            let v = verdict(&bs, &cs, m);
            pass &= v != Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<11} {:<13} {:>13.6e} {:>13.6e}..{:<13.6e} {:>13.6e} {:>13.6e}..{:<13.6e} {:>+8.2}% {:>5.0}%  {}",
                w.name(),
                m.name,
                m.stat.of(&bs),
                bs.q1,
                bs.q3,
                m.stat.of(&cs),
                cs.q1,
                cs.q3,
                100.0 * worsening(&bs, &cs, Better::Lower, m.stat),
                100.0 * m.bound,
                v.name()
            );
        }
        let (Some(bf), Some(cf)) = (json::scan_f64(b, FAIL_FRAC), json::scan_f64(c, FAIL_FRAC))
        else {
            return Err(format!("{}: no {FAIL_FRAC}", w.name()));
        };
        let v = if cf > bf {
            Verdict::Worse
        } else if cf < bf {
            Verdict::Better
        } else {
            Verdict::Same
        };
        pass &= v != Verdict::Worse;
        let _ = writeln!(
            out,
            "{:<11} {FAIL_FRAC:<13} {bf:>13.6e} {:>27} {cf:>13.6e} {:>27} {:>9} {:>6}  {}",
            w.name(),
            "",
            "",
            "",
            "+0",
            v.name()
        );
    }
    if compared == 0 {
        return Err("the two files share no workload".into());
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(samples: &[f64]) -> Summary {
        Summary::of(samples).expect("non-empty")
    }

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "t",
            unit: "s",
            better,
            bound: 0.10,
            stat: Stat::Median,
        }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let base = s(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        assert_eq!(
            verdict(
                &base,
                &s(&[1.03, 1.02, 1.04, 1.03, 1.02]),
                &metric(Better::Lower)
            ),
            Verdict::Same
        );
        assert_eq!(
            verdict(
                &base,
                &s(&[1.20, 1.21, 1.19, 1.22, 1.20]),
                &metric(Better::Lower)
            ),
            Verdict::Worse
        );
        assert_eq!(
            verdict(
                &base,
                &s(&[0.80, 0.81, 0.79, 0.82, 0.80]),
                &metric(Better::Lower)
            ),
            Verdict::Better
        );
        assert_eq!(
            verdict(
                &base,
                &s(&[0.80, 0.81, 0.79, 0.82, 0.80]),
                &metric(Better::Higher)
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_separated() {
        let base = s(&[1.0, 1.0, 1.0, 1.0, 1.0]);
        let noisy = s(&[0.7, 1.6, 1.0, 0.8, 1.5]);
        assert_eq!(
            verdict(&base, &noisy, &metric(Better::Lower)),
            Verdict::Unresolved
        );
        let noisy_but_worse = s(&[1.2, 1.9, 1.5, 1.3, 1.8]);
        assert_eq!(
            verdict(&base, &noisy_but_worse, &metric(Better::Lower)),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_reads_results_files_and_gates_fail_frac() {
        let file = |median: f64, fail_frac: f64| {
            format!(
                "{{\"schema\":\"shc-bench-run-v1\",\"seed\":1,\"workloads\":{{\"bank\":\
                 {{\"attempted\":10,\"failed\":0,\"fail_frac\":{fail_frac},\"metrics\":\
                 {{\"wall_s\":{{\"unit\":\"s\",\"n\":3,\"median\":{median},\"q1\":{median},\
                 \"q3\":{median},\"p10\":{median},\"tail_pct\":null,\"tail\":null,\"samples\":[{median},{median},{median}]}}}}}}}}}}"
            )
        };
        let (report, pass) = compare(&file(1.0, 0.0), &file(1.05, 0.0)).expect("valid");
        assert!(pass, "{report}");
        assert!(report.contains("same"));
        let (_, pass) = compare(&file(1.0, 0.0), &file(1.5, 0.0)).expect("valid");
        assert!(!pass, "worse wall time fails");
        let (_, pass) = compare(&file(1.0, 0.0), &file(1.0, 0.1)).expect("valid");
        assert!(!pass, "a rise in fail_frac fails");
        assert!(compare("{}", &file(1.0, 0.0)).is_err());
    }
}
