//! The collector: shared atomic storage plus a thread-local installation.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** Every recording entry point first reads a
//!    thread-local `Cell<bool>`; with no collector installed that is the
//!    entire cost, so instrumentation can live inside the allocation-free
//!    transient hot loop.
//! 2. **Thread-aware.** Storage is `Arc`-shared atomics, so the worker
//!    threads spawned by `parallel::run_indexed` feed the same collector
//!    once it is re-installed on them (the parallel layer captures
//!    [`current`] and installs it per worker).
//! 3. **Test isolation.** Installation is thread-local and scoped, so
//!    concurrent tests in one binary never observe each other's metrics.

use std::cell::{Cell, RefCell};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::journal::{JournalEvent, Sink};
use crate::metric::{Metric, SpanKind};
use crate::snapshot::{MetricsSnapshot, SpanEdge, HIST_BUCKETS};

/// Span edge matrix rows: one per possible parent, plus one for "no
/// parent" (root spans), indexed [`ROOT_ROW`].
const EDGE_ROWS: usize = SpanKind::COUNT + 1;
const ROOT_ROW: usize = SpanKind::COUNT;

struct Inner {
    counters: [AtomicU64; Metric::COUNT],
    histograms: [[AtomicU64; HIST_BUCKETS]; Metric::COUNT],
    edge_count: [[AtomicU64; SpanKind::COUNT]; EDGE_ROWS],
    edge_ns: [[AtomicU64; SpanKind::COUNT]; EDGE_ROWS],
    sink: Option<Arc<dyn Sink>>,
}

impl Inner {
    fn new(sink: Option<Arc<dyn Sink>>) -> Inner {
        Inner {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            edge_count: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            edge_ns: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            sink,
        }
    }
}

/// Handle to a telemetry collector; cheap to clone (an `Arc`).
///
/// A collector does nothing until installed on a thread with
/// [`install_scoped`]; recording goes through the free functions
/// ([`count`], [`observe`], [`span`], [`journal`]).
#[derive(Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("has_sink", &self.inner.sink.is_some())
            .finish()
    }
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

impl Collector {
    /// Creates a collector with no journal sink (counters and spans only).
    #[must_use]
    pub fn new() -> Collector {
        Collector {
            inner: Arc::new(Inner::new(None)),
        }
    }

    /// Creates a collector that forwards journal events to `sink`.
    #[must_use]
    pub fn with_sink(sink: Arc<dyn Sink>) -> Collector {
        Collector {
            inner: Arc::new(Inner::new(Some(sink))),
        }
    }

    /// Current value of one counter.
    #[must_use]
    pub fn counter(&self, metric: Metric) -> u64 {
        self.inner.counters[metric as usize].load(Ordering::Relaxed)
    }

    /// Flushes the journal sink, if any.
    ///
    /// # Errors
    ///
    /// Returns the sink's I/O error.
    pub fn flush(&self) -> io::Result<()> {
        match &self.inner.sink {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }

    /// Takes a consistent-enough snapshot of all metrics for reporting.
    ///
    /// Individual loads are relaxed; call this after the instrumented work
    /// has joined (the sweeps all join their workers before returning).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = std::array::from_fn(|i| self.inner.counters[i].load(Ordering::Relaxed));
        let histograms = std::array::from_fn(|i| {
            std::array::from_fn(|b| self.inner.histograms[i][b].load(Ordering::Relaxed))
        });
        let mut spans = Vec::new();
        for parent_row in 0..EDGE_ROWS {
            for child in 0..SpanKind::COUNT {
                let count = self.inner.edge_count[parent_row][child].load(Ordering::Relaxed);
                if count == 0 {
                    continue;
                }
                spans.push(SpanEdge {
                    parent: (parent_row != ROOT_ROW).then(|| SpanKind::ALL[parent_row]),
                    kind: SpanKind::ALL[child],
                    count,
                    nanos: self.inner.edge_ns[parent_row][child].load(Ordering::Relaxed),
                });
            }
        }
        MetricsSnapshot {
            counters,
            histograms,
            spans,
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Collector>> = const { RefCell::new(None) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SPAN_STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// True when a collector is installed on this thread.
///
/// This is the hot-path gate: a single thread-local `Cell<bool>` read.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// The collector installed on this thread, if any.
///
/// Captured by the parallel layer before spawning workers so telemetry
/// follows the work onto its threads.
#[must_use]
pub fn current() -> Option<Collector> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Installs `collector` on the current thread until the guard drops.
///
/// Nested installs are allowed; the previous collector (and its span
/// stack) is restored on drop.
#[must_use]
pub fn install_scoped(collector: &Collector) -> InstallGuard {
    let previous = CURRENT.with(|c| c.borrow_mut().replace(collector.clone()));
    let was_enabled = ENABLED.with(|e| e.replace(true));
    let stack_depth = SPAN_STACK.with(|s| s.borrow().len());
    InstallGuard {
        previous,
        was_enabled,
        stack_depth,
    }
}

/// Restores the previous thread-local collector state on drop.
pub struct InstallGuard {
    previous: Option<Collector>,
    was_enabled: bool,
    stack_depth: usize,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| s.borrow_mut().truncate(self.stack_depth));
        ENABLED.with(|e| e.set(self.was_enabled));
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

#[inline]
fn with_current(f: impl FnOnce(&Collector)) {
    CURRENT.with(|c| {
        if let Some(collector) = c.borrow().as_ref() {
            f(collector);
        }
    });
}

/// Adds `n` to `metric`'s counter. A no-op when telemetry is off.
#[inline]
pub fn count(metric: Metric, n: u64) {
    if !enabled() {
        return;
    }
    with_current(|c| {
        c.inner.counters[metric as usize].fetch_add(n, Ordering::Relaxed);
    });
}

/// Adds `value` to `metric`'s counter and records it in the metric's
/// log2-bucket histogram. A no-op when telemetry is off.
#[inline]
pub fn observe(metric: Metric, value: u64) {
    if !enabled() {
        return;
    }
    with_current(|c| {
        let i = metric as usize;
        c.inner.counters[i].fetch_add(value, Ordering::Relaxed);
        c.inner.histograms[i][crate::snapshot::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    });
}

/// Opens a timed span; close it by dropping the guard.
///
/// Time is attributed to the `(parent, kind)` edge, where the parent is
/// the innermost span already open *on this thread* (worker threads start
/// with an empty stack, so their outermost spans report as roots).
#[inline]
pub fn span(kind: SpanKind) -> SpanGuard {
    if !enabled() {
        return SpanGuard { state: None };
    }
    let parent_row = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied().unwrap_or(ROOT_ROW);
        stack.push(kind as usize);
        parent
    });
    // This is the one sanctioned wall-clock read: spans are where all
    // timing in the workspace is supposed to come from (clippy.toml).
    #[allow(clippy::disallowed_methods)]
    SpanGuard {
        state: Some(SpanState {
            kind,
            parent_row,
            start: Instant::now(),
        }),
    }
}

struct SpanState {
    kind: SpanKind,
    parent_row: usize,
    start: Instant,
}

/// RAII guard for a span; records elapsed time when dropped.
#[must_use = "a span measures the time until this guard drops"]
pub struct SpanGuard {
    state: Option<SpanState>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let elapsed = state.start.elapsed();
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        with_current(|c| {
            let child = state.kind as usize;
            c.inner.edge_count[state.parent_row][child].fetch_add(1, Ordering::Relaxed);
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            c.inner.edge_ns[state.parent_row][child].fetch_add(ns, Ordering::Relaxed);
        });
    }
}

/// Emits a journal event to the installed collector's sink (if any) and
/// bumps [`Metric::JournalEvents`]. A no-op when telemetry is off.
pub fn journal(event: &JournalEvent) {
    if !enabled() {
        return;
    }
    with_current(|c| {
        c.inner.counters[Metric::JournalEvents as usize].fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &c.inner.sink {
            sink.record(event);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::MemorySink;

    fn event(point: u64) -> JournalEvent {
        JournalEvent {
            point,
            tau_s: 0.0,
            tau_h: 0.0,
            residual: 0.0,
            jacobian_norm: 1.0,
            tangent: [1.0, 0.0],
            corrector_iterations: 1,
            alpha: 1.0,
            transient_steps: 0,
            newton_iterations: 0,
            rejected_steps: 0,
            recovery_attempts: 0,
            phases: None,
        }
    }

    #[test]
    fn disabled_thread_records_nothing() {
        assert!(!enabled());
        count(Metric::TransientRuns, 5);
        observe(Metric::MpnrIterations, 3);
        let _span = span(SpanKind::Trace);
        journal(&event(0));
        assert!(current().is_none());
    }

    #[test]
    fn install_scoped_gates_and_restores() {
        let collector = Collector::new();
        {
            let _guard = install_scoped(&collector);
            assert!(enabled());
            count(Metric::TransientRuns, 2);
            count(Metric::TransientRuns, 1);
            observe(Metric::MpnrIterations, 4);
        }
        assert!(!enabled());
        count(Metric::TransientRuns, 100); // dropped: guard gone
        assert_eq!(collector.counter(Metric::TransientRuns), 3);
        assert_eq!(collector.counter(Metric::MpnrIterations), 4);
        let snap = collector.snapshot();
        assert_eq!(snap.counter(Metric::TransientRuns), 3);
        assert_eq!(snap.histogram(Metric::MpnrIterations)[3], 1); // 4 -> [4,8)
    }

    #[test]
    fn nested_install_restores_outer_collector() {
        let outer = Collector::new();
        let inner = Collector::new();
        let _g1 = install_scoped(&outer);
        {
            let _g2 = install_scoped(&inner);
            count(Metric::ContourPoints, 1);
        }
        count(Metric::ContourPoints, 10);
        assert_eq!(inner.counter(Metric::ContourPoints), 1);
        assert_eq!(outer.counter(Metric::ContourPoints), 10);
    }

    #[test]
    fn spans_record_parent_child_edges() {
        let collector = Collector::new();
        let _guard = install_scoped(&collector);
        {
            let _outer = span(SpanKind::Trace);
            {
                let _inner = span(SpanKind::MpnrSolve);
            }
            {
                let _inner = span(SpanKind::MpnrSolve);
            }
        }
        let snap = collector.snapshot();
        let root = snap
            .spans
            .iter()
            .find(|e| e.kind == SpanKind::Trace && e.parent.is_none())
            .expect("root trace span");
        assert_eq!(root.count, 1);
        let child = snap
            .spans
            .iter()
            .find(|e| e.kind == SpanKind::MpnrSolve && e.parent == Some(SpanKind::Trace))
            .expect("mpnr under trace");
        assert_eq!(child.count, 2);
        assert!(root.nanos >= child.nanos);
    }

    #[test]
    fn collector_follows_worker_threads_via_current() {
        let collector = Collector::new();
        let _guard = install_scoped(&collector);
        let captured = current().expect("collector installed");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let captured = &captured;
                scope.spawn(move || {
                    let _g = install_scoped(captured);
                    count(Metric::TransientRuns, 1);
                    let _s = span(SpanKind::Transient);
                });
            }
        });
        assert_eq!(collector.counter(Metric::TransientRuns), 2);
        let snap = collector.snapshot();
        let transient = snap
            .spans
            .iter()
            .find(|e| e.kind == SpanKind::Transient)
            .expect("worker spans recorded");
        assert_eq!(transient.count, 2);
        assert_eq!(transient.parent, None); // workers start a fresh stack
    }

    #[test]
    fn journal_counts_and_forwards_to_sink() {
        let sink = Arc::new(MemorySink::new());
        let collector = Collector::with_sink(sink.clone());
        let _guard = install_scoped(&collector);
        journal(&event(0));
        journal(&event(1));
        assert_eq!(collector.counter(Metric::JournalEvents), 2);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].point, 1);
        collector.flush().unwrap();
    }
}
