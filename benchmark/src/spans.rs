//! In-memory spans recorded by the harness around calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the recorder
//! was created), the index of the span that enclosed it, and the id of the
//! iteration it belongs to. Spans stay in memory and are written out once,
//! at exit. A span's self time is its duration minus the part of it that
//! its direct children cover.

use std::time::Instant;

use shc_obs::json;

/// Iteration id of spans recorded while building fixtures.
pub const SETUP_ITERATION: u32 = 0;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran, as `<layer>.<function>`.
    pub name: &'static str,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration the span belongs to.
    pub iteration: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The harness's one wall-clock source. Timing is this binary's purpose,
/// so it takes the workspace's sanctioned exception to the clock ban.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Span recorder; a disabled recorder reads no clock.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iteration: u32,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            enabled: false,
            ..Spans::on()
        }
    }

    /// A recording recorder.
    pub fn on() -> Spans {
        Spans {
            enabled: true,
            origin: now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: SETUP_ITERATION,
        }
    }

    /// Tags the spans recorded from now on with `id`.
    pub fn set_iteration(&mut self, id: u32) {
        self.iteration = id;
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the recorder so
    /// it can open child spans.
    pub fn record<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.elapsed_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.elapsed_ns();
        out
    }

    /// Durations, in seconds, of every span named `name` in iteration
    /// `iteration`.
    pub fn durations_s(&self, iteration: u32, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.iteration == iteration && s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self time of every span, in ns, indexed like [`Spans::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Renders every span with its self time, plus the iteration labels,
    /// as one JSON object.
    pub fn to_json(&self, iterations: &[(u32, &str)]) -> String {
        let self_ns = self.self_ns();
        let mut out = String::from("{\"schema\":\"shc-bench-spans-v1\",\"iterations\":[");
        for (k, (id, label)) in iterations.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push('{');
            let mut first = true;
            json::push_u64_field(&mut out, &mut first, "id", u64::from(*id));
            json::push_str_field(&mut out, &mut first, "workload", label);
            out.push('}');
        }
        out.push_str("],\"spans\":[");
        for (k, span) in self.spans.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push('{');
            let mut first = true;
            json::push_u64_field(&mut out, &mut first, "id", k as u64);
            json::push_str_field(&mut out, &mut first, "name", span.name);
            json::push_u64_field(&mut out, &mut first, "start_ns", span.start_ns);
            json::push_u64_field(&mut out, &mut first, "end_ns", span.end_ns);
            match span.parent {
                Some(p) => json::push_u64_field(&mut out, &mut first, "parent", p as u64),
                None => json::push_raw_field(&mut out, &mut first, "parent", "null"),
            }
            json::push_u64_field(&mut out, &mut first, "iteration", u64::from(span.iteration));
            json::push_u64_field(&mut out, &mut first, "self_ns", self_ns[k]);
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            iteration: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // 0: [0, 100] root
        //   1: [10, 40]        child
        //     2: [15, 35]      grandchild: counts against 1, not 0
        //   3: [30, 60]        child overlapping 1: the union counts once
        //   4: [90, 120]       child running past its parent: clipped
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 35, Some(1)),
            span(30, 60, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 20, 20, 30, 30]);
    }

    #[test]
    fn recorder_nests_and_tags_iterations() {
        let mut spans = Spans::on();
        spans.set_iteration(7);
        let v = spans.record("outer", |s| s.record("inner", |_| 3) + 1);
        assert_eq!(v, 4);
        let recorded = spans.spans();
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded[0].parent, None);
        assert_eq!(recorded[1].parent, Some(0));
        assert!(recorded.iter().all(|s| s.iteration == 7));
        assert!(recorded[0].start_ns <= recorded[1].start_ns);
        assert!(recorded[1].end_ns <= recorded[0].end_ns);
        let self_ns = spans.self_ns();
        assert_eq!(
            self_ns[0],
            recorded[0].duration_ns() - recorded[1].duration_ns()
        );
        assert!(spans
            .to_json(&[(7, "contour")])
            .contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::off();
        assert_eq!(spans.record("x", |_| 5), 5);
        assert!(spans.spans().is_empty());
    }
}
