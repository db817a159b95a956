//! The frame stack, the per-thread tree, and the shared handle.
//!
//! Design constraints, in order (mirroring `shc_obs::collector`):
//!
//! 1. **One branch when off.** [`enter`] and [`add_work`] first read a
//!    thread-local `Cell<bool>`; with no profiler installed that is the
//!    entire cost, so frames can bracket the allocation-free transient
//!    hot loop.
//! 2. **Exact, not sampled.** Every frame is timed with two raw clock
//!    reads ([`crate::clock::ticks`]); self-time is total minus the
//!    accumulated time of child frames, so the tree adds up exactly.
//! 3. **Thread-aware.** Each thread grows a private tree (no atomics, no
//!    locks in the hot path); uninstalling merges it into the shared
//!    handle under a mutex. `parallel::run_indexed` captures [`current`]
//!    and installs it per worker, exactly like the telemetry collector.
//! 4. **Unwind-safe.** Frames are RAII guards: an early `return`, a `?`,
//!    a `continue`, or a fault-injected abort closes them in order, so
//!    the stack stays balanced without cooperation from the code under
//!    measurement.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::clock;
use crate::phase::Phase;
use crate::report::{PhaseAgg, ProfileReport, ReportNode};

/// Sentinel "no node" index.
const NONE: u32 = u32::MAX;
/// Pre-sized frame-stack depth; deeper nesting still works (the stack is
/// a `Vec`) but will allocate once.
const STACK_CAPACITY: usize = 64;
/// Pre-sized node arena; first encounters beyond this allocate once.
const ARENA_CAPACITY: usize = 4 * Phase::COUNT;

#[derive(Clone, Copy)]
struct Node {
    /// `Phase` repr index; unused for the root node.
    phase: u8,
    first_child: u32,
    next_sibling: u32,
    self_ticks: u64,
    total_ticks: u64,
    count: u64,
    work: u64,
}

impl Node {
    fn new(phase: u8) -> Node {
        Node {
            phase,
            first_child: NONE,
            next_sibling: NONE,
            self_ticks: 0,
            total_ticks: 0,
            count: 0,
            work: 0,
        }
    }
}

/// A path-keyed tree of phase frames. Node 0 is a synthetic root whose
/// children are the outermost frames seen on a thread.
#[derive(Clone)]
pub(crate) struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn new() -> Tree {
        let mut nodes = Vec::with_capacity(ARENA_CAPACITY);
        nodes.push(Node::new(u8::MAX)); // root
        Tree { nodes }
    }

    /// Index of `parent`'s child for `phase`, creating it on first use.
    fn child(&mut self, parent: u32, phase: Phase) -> u32 {
        let repr = phase as u8;
        let mut cursor = self.nodes[parent as usize].first_child;
        let mut last = NONE;
        while cursor != NONE {
            let node = &self.nodes[cursor as usize];
            if node.phase == repr {
                return cursor;
            }
            last = cursor;
            cursor = node.next_sibling;
        }
        // A profiler must never abort the run it is measuring: if the
        // arena ever saturates the u32 id space (pathological phase
        // nesting), charge the frame to its parent instead of panicking.
        let Ok(id) = u32::try_from(self.nodes.len()) else {
            return parent;
        };
        self.nodes.push(Node::new(repr));
        if last == NONE {
            self.nodes[parent as usize].first_child = id;
        } else {
            self.nodes[last as usize].next_sibling = id;
        }
        id
    }

    /// True when no frame has ever been recorded.
    fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Adds every node of `other` into `self`, matching by path.
    fn merge(&mut self, other: &Tree) {
        // (other node, my parent) work stack; paths are matched top-down.
        let mut pending: Vec<(u32, u32)> = Vec::new();
        let mut cursor = other.nodes[0].first_child;
        while cursor != NONE {
            pending.push((cursor, 0));
            cursor = other.nodes[cursor as usize].next_sibling;
        }
        while let Some((theirs, my_parent)) = pending.pop() {
            let node = other.nodes[theirs as usize];
            let phase = Phase::ALL[node.phase as usize];
            let mine = self.child(my_parent, phase);
            let m = &mut self.nodes[mine as usize];
            m.self_ticks += node.self_ticks;
            m.total_ticks += node.total_ticks;
            m.count += node.count;
            m.work += node.work;
            let mut child = node.first_child;
            while child != NONE {
                pending.push((child, mine));
                child = other.nodes[child as usize].next_sibling;
            }
        }
    }

    /// Per-phase `(self_ticks, count)` aggregated across the whole tree.
    fn phase_totals(&self) -> [(u64, u64); Phase::COUNT] {
        let mut totals = [(0u64, 0u64); Phase::COUNT];
        for node in &self.nodes[1..] {
            let slot = &mut totals[node.phase as usize];
            slot.0 += node.self_ticks;
            slot.1 += node.count;
        }
        totals
    }

    /// Flattens into report rows (depth-first, stable child order).
    fn report_nodes(&self) -> Vec<ReportNode> {
        let mut out = Vec::new();
        let mut stack_names: Vec<&'static str> = Vec::new();
        self.flatten(0, &mut stack_names, &mut out);
        out
    }

    fn flatten(&self, id: u32, names: &mut Vec<&'static str>, out: &mut Vec<ReportNode>) {
        let node = self.nodes[id as usize];
        if id != 0 {
            names.push(Phase::ALL[node.phase as usize].name());
            out.push(ReportNode {
                stack: names.join(";"),
                self_ns: clock::ticks_to_ns(node.self_ticks),
                total_ns: clock::ticks_to_ns(node.total_ticks),
                count: node.count,
                work: node.work,
            });
        }
        let mut child = node.first_child;
        while child != NONE {
            self.flatten(child, names, out);
            child = self.nodes[child as usize].next_sibling;
        }
        if id != 0 {
            names.pop();
        }
    }
}

/// Instrumentation granularity, chosen when the profiler is created.
///
/// Both levels produce bitwise-identical simulation results; they differ
/// only in how many clock reads the hot loop performs and therefore in
/// how finely the Newton solve is split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Detail {
    /// Per-step lap timing plus exact invocation counts everywhere.
    /// The default: ~4 clock reads per accepted time step, sized to
    /// keep profiling overhead within the ~2% budget on the transient
    /// hot loop. The Newton solve appears as one phase with exact
    /// device-eval/stamp/factor/solve *counts* but no time split.
    #[default]
    Step,
    /// Adds the per-Newton-iteration lap chain (device eval → stamp →
    /// factor → solve), splitting the Newton solve's time exactly.
    /// Costs ~5 extra clock reads per Newton iteration (~5% overhead on
    /// small circuits) and is opt-in for that reason.
    Iter,
}

/// Handle to a profiler; cheap to clone (an `Arc`).
///
/// Does nothing until installed on a thread with [`install_scoped`];
/// frames are opened with the free function [`enter`].
#[derive(Clone)]
pub struct Profiler {
    merged: Arc<Mutex<Tree>>,
    /// Mirrors "any thread has merged frames" so [`Profiler::is_empty`]
    /// is one atomic load — no lock acquisition, no poison handling.
    has_frames: Arc<AtomicBool>,
    detail: Detail,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler").finish()
    }
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

impl Profiler {
    /// Creates an empty profiler at the default [`Detail::Step`] level.
    #[must_use]
    pub fn new() -> Profiler {
        Profiler::with_detail(Detail::Step)
    }

    /// Creates an empty profiler at the given detail level.
    #[must_use]
    pub fn with_detail(detail: Detail) -> Profiler {
        Profiler {
            merged: Arc::new(Mutex::new(Tree::new())),
            has_frames: Arc::new(AtomicBool::new(false)),
            detail,
        }
    }

    /// The detail level threads will record at while this profiler is
    /// installed.
    #[must_use]
    pub fn detail(&self) -> Detail {
        self.detail
    }

    /// Builds the report from everything merged so far.
    ///
    /// Threads contribute when their install guard drops, so drop the
    /// guard (end the scope) before reporting; frames still open on a
    /// live thread are not included.
    #[must_use]
    pub fn report(&self, label: &str) -> ProfileReport {
        let tree = self.merged.lock().unwrap_or_else(PoisonError::into_inner);
        let nodes = tree.report_nodes();
        let mut phases: Vec<PhaseAgg> = Vec::new();
        let totals = tree.phase_totals();
        let mut work = [0u64; Phase::COUNT];
        let mut total_ns = [0u64; Phase::COUNT];
        for node in &tree.nodes[1..] {
            work[node.phase as usize] += node.work;
            total_ns[node.phase as usize] += node.total_ticks;
        }
        let mut wall_ns = 0u64;
        let mut cursor = tree.nodes[0].first_child;
        while cursor != NONE {
            wall_ns += clock::ticks_to_ns(tree.nodes[cursor as usize].total_ticks);
            cursor = tree.nodes[cursor as usize].next_sibling;
        }
        for phase in Phase::ALL {
            let (self_ticks, count) = totals[phase as usize];
            if count == 0 {
                continue;
            }
            phases.push(PhaseAgg {
                phase: phase.name().to_string(),
                self_ns: clock::ticks_to_ns(self_ticks),
                total_ns: clock::ticks_to_ns(total_ns[phase as usize]),
                count,
                work: work[phase as usize],
            });
        }
        phases.sort_by_key(|p| std::cmp::Reverse(p.self_ns));
        ProfileReport {
            label: label.to_string(),
            wall_ns,
            phases,
            nodes,
        }
    }

    /// True when no thread has merged any frames yet. One atomic load:
    /// safe to call from certified hot paths (no lock, cannot panic).
    ///
    /// effects: none
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.has_frames.load(Ordering::Acquire)
    }
}

#[derive(Clone, Copy)]
struct Frame {
    node: u32,
    start: u64,
    child_ticks: u64,
}

struct ThreadState {
    handle: Profiler,
    tree: Tree,
    stack: Vec<Frame>,
}

thread_local! {
    static STATE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
    // 0 = off, 1 = Detail::Step, 2 = Detail::Iter.
    static LEVEL: Cell<u8> = const { Cell::new(0) };
}

/// True when a profiler is installed on this thread.
///
/// This is the hot-path gate: a single thread-local `Cell` read.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    LEVEL.with(Cell::get) != 0
}

/// True when the installed profiler asks for [`Detail::Iter`]: the
/// per-Newton-iteration lap chain should read clocks.
#[inline]
#[must_use]
pub fn iter_detail() -> bool {
    LEVEL.with(Cell::get) == 2
}

/// The profiler installed on this thread, if any.
///
/// Captured by the parallel layer before spawning workers so profiles
/// follow the work onto its threads.
#[must_use]
pub fn current() -> Option<Profiler> {
    if !enabled() {
        return None;
    }
    STATE.with(|s| s.borrow().as_ref().map(|st| st.handle.clone()))
}

/// Installs `profiler` on the current thread until the guard drops.
///
/// The thread records into a private tree; dropping the guard merges it
/// into the shared handle and restores whatever was installed before.
/// Calibrates the clock eagerly so the one-time spin never lands inside
/// a measured region.
#[must_use]
pub fn install_scoped(profiler: &Profiler) -> InstallGuard {
    let _ = clock::ticks_per_ns();
    let previous = STATE.with(|s| {
        s.borrow_mut().replace(ThreadState {
            handle: profiler.clone(),
            tree: Tree::new(),
            stack: Vec::with_capacity(STACK_CAPACITY),
        })
    });
    let level = match profiler.detail {
        Detail::Step => 1,
        Detail::Iter => 2,
    };
    let was_level = LEVEL.with(|e| e.replace(level));
    InstallGuard {
        previous,
        was_level,
    }
}

/// Restores the previous thread-local profiler state on drop, merging
/// this scope's tree into its shared handle.
pub struct InstallGuard {
    previous: Option<ThreadState>,
    was_level: u8,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        LEVEL.with(|e| e.set(self.was_level));
        let finished =
            STATE.with(|s| std::mem::replace(&mut *s.borrow_mut(), self.previous.take()));
        if let Some(st) = finished {
            if !st.tree.is_empty() {
                // Best-effort telemetry: a panic on another thread must
                // not cascade through the profiler, so recover the data
                // behind a poisoned mutex instead of re-panicking.
                st.handle
                    .merged
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .merge(&st.tree);
                st.handle.has_frames.store(true, Ordering::Release);
            }
        }
    }
}

/// Opens a frame for `phase`; close it by dropping the guard.
///
/// When no profiler is installed this is one thread-local boolean read
/// and the guard is inert.
#[inline]
pub fn enter(phase: Phase) -> FrameGuard {
    if !enabled() {
        return FrameGuard { active: false };
    }
    enter_frame(phase);
    FrameGuard { active: true }
}

fn enter_frame(phase: Phase) {
    STATE.with(|s| {
        let mut borrow = s.borrow_mut();
        let Some(st) = borrow.as_mut() else { return };
        let parent = st.stack.last().map_or(0, |f| f.node);
        let node = st.tree.child(parent, phase);
        st.tree.nodes[node as usize].count += 1;
        // Clock read last: the lookup above is profiler overhead and must
        // not be attributed to the frame being opened.
        st.stack.push(Frame {
            node,
            start: clock::ticks(),
            child_ticks: 0,
        });
    });
}

fn exit_frame() {
    // Clock read first, symmetrically: bookkeeping below is not part of
    // the closing frame.
    let now = clock::ticks();
    STATE.with(|s| {
        let mut borrow = s.borrow_mut();
        let Some(st) = borrow.as_mut() else { return };
        let Some(frame) = st.stack.pop() else { return };
        let elapsed = now.wrapping_sub(frame.start);
        let node = &mut st.tree.nodes[frame.node as usize];
        node.total_ticks += elapsed;
        node.self_ticks += elapsed.saturating_sub(frame.child_ticks);
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ticks += elapsed;
        }
    });
}

/// RAII guard for a frame; records elapsed time when dropped.
#[must_use = "a frame measures the time until this guard drops"]
pub struct FrameGuard {
    active: bool,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if self.active {
            exit_frame();
        }
    }
}

/// Adds `units` of work to the innermost open frame. A no-op when the
/// profiler is off or no frame is open.
#[inline]
pub fn add_work(units: u64) {
    if !enabled() {
        return;
    }
    STATE.with(|s| {
        let mut borrow = s.borrow_mut();
        let Some(st) = borrow.as_mut() else { return };
        let Some(frame) = st.stack.last() else { return };
        st.tree.nodes[frame.node as usize].work += units;
    });
}

/// Depth of this thread's open frame stack (0 when off). Test hook for
/// asserting balanced enter/exit under fault-injected aborts.
#[must_use]
pub fn open_frames() -> usize {
    STATE.with(|s| s.borrow().as_ref().map_or(0, |st| st.stack.len()))
}

/// Number of lap slots a [`Laps`] accumulator carries.
pub const MAX_LAP_SLOTS: usize = 8;

/// An aggregated measurement destined for one tree path: lap ticks plus
/// invocation count and work units, flushed in bulk via [`record`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Raw clock ticks ([`crate::clock::ticks`]) spent in the region.
    pub ticks: u64,
    /// Invocations of the region.
    pub count: u64,
    /// Work units (see [`Phase::work_unit`]) performed in the region.
    pub work: u64,
}

impl Sample {
    /// True when there is nothing to record.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.ticks == 0 && self.count == 0 && self.work == 0
    }
}

/// Lap-cursor accumulator for regions too hot to frame individually.
///
/// A [`FrameGuard`] costs two clock reads *and* two thread-local
/// `RefCell` round-trips per invocation — fine per run, far too much per
/// Newton iteration. A `Laps` instead lives on the caller's stack,
/// shared by `&` (all state is in `Cell`s), and attributes time with a
/// *cursor*: each [`Laps::end_region`] performs one clock read and
/// charges the time since the previous boundary to the slot just ended,
/// so a chain of N boundaries costs N reads total, not 2N.
///
/// Timing and counting are decided once, at construction, from the
/// thread's installed detail level; after that every call is a branch on
/// a plain struct field — no thread-local access in the hot loop. With
/// the profiler off both flags are false and the accumulator is fully
/// inert. Slot totals are flushed in bulk (once per run) through
/// [`record`].
#[derive(Debug)]
pub struct Laps {
    timing: bool,
    counting: bool,
    cursor: Cell<u64>,
    ticks: [Cell<u64>; MAX_LAP_SLOTS],
    counts: [Cell<u64>; MAX_LAP_SLOTS],
    work: [Cell<u64>; MAX_LAP_SLOTS],
}

impl Laps {
    /// An accumulator with explicit timing/counting activation.
    #[must_use]
    pub fn new(timing: bool, counting: bool) -> Laps {
        Laps {
            timing,
            counting,
            cursor: Cell::new(if timing { clock::ticks() } else { 0 }),
            ticks: std::array::from_fn(|_| Cell::new(0)),
            counts: std::array::from_fn(|_| Cell::new(0)),
            work: std::array::from_fn(|_| Cell::new(0)),
        }
    }

    /// A per-step accumulator: timed (and counted) whenever the profiler
    /// is on — this is the [`Detail::Step`] workhorse.
    #[must_use]
    pub fn step() -> Laps {
        let on = enabled();
        Laps::new(on, on)
    }

    /// A per-iteration accumulator: counts whenever the profiler is on,
    /// but reads clocks only at [`Detail::Iter`] — at the default level
    /// the Newton split stays count-exact and time-free.
    #[must_use]
    pub fn iter() -> Laps {
        Laps::new(iter_detail(), enabled())
    }

    /// True when at least one of timing/counting is active (i.e. a
    /// flush will have something to say).
    #[inline]
    #[must_use]
    pub fn active(&self) -> bool {
        self.timing || self.counting
    }

    /// True when boundaries read clocks.
    #[inline]
    #[must_use]
    pub fn timing(&self) -> bool {
        self.timing
    }

    /// Re-arms the cursor at "now", discarding time since the last
    /// boundary. Call before entering a measured chain when the
    /// preceding gap should not be charged to the first region.
    #[inline]
    pub fn restart(&self) {
        if self.timing {
            self.cursor.set(clock::ticks());
        }
    }

    /// Closes the region `slot`: one clock read, charging the time since
    /// the previous boundary to `slot` and moving the cursor.
    #[inline]
    pub fn end_region(&self, slot: usize) {
        if self.timing {
            let now = clock::ticks();
            let cell = &self.ticks[slot];
            cell.set(cell.get().wrapping_add(now.wrapping_sub(self.cursor.get())));
            self.cursor.set(now);
        }
    }

    /// Tallies `count` invocations and `work` units into `slot` — a few
    /// `Cell` adds, no clock read. Exact counts stay cheap even where
    /// timing is off.
    #[inline]
    pub fn bump(&self, slot: usize, count: u64, work: u64) {
        if self.counting {
            let c = &self.counts[slot];
            c.set(c.get() + count);
            let w = &self.work[slot];
            w.set(w.get() + work);
        }
    }

    /// The accumulated totals of `slot`.
    #[must_use]
    pub fn sample(&self, slot: usize) -> Sample {
        Sample {
            ticks: self.ticks[slot].get(),
            count: self.counts[slot].get(),
            work: self.work[slot].get(),
        }
    }
}

/// Bulk-records `sample` at `path` beneath the innermost open frame.
///
/// Every node along the path gains `sample.ticks` of total time; the
/// last node additionally gains the self time, count, and work. The open
/// frame's child-time accumulator is advanced so its own self time still
/// excludes everything recorded beneath it. Zero samples, an empty
/// `path`, and the profiler-off state are all no-ops.
///
/// This is the flush half of the [`Laps`] protocol: the hot loop tallies
/// into lap slots, then once per run each slot is mapped to its tree
/// path here.
pub fn record(path: &[Phase], sample: Sample) {
    if path.is_empty() || sample.is_zero() || !enabled() {
        return;
    }
    STATE.with(|s| {
        let mut borrow = s.borrow_mut();
        let Some(st) = borrow.as_mut() else { return };
        let mut node = st.stack.last().map_or(0, |f| f.node);
        for (i, &phase) in path.iter().enumerate() {
            node = st.tree.child(node, phase);
            let n = &mut st.tree.nodes[node as usize];
            n.total_ticks += sample.ticks;
            if i == path.len() - 1 {
                n.self_ticks += sample.ticks;
                n.count += sample.count;
                n.work += sample.work;
            }
        }
        if let Some(top) = st.stack.last_mut() {
            top.child_ticks += sample.ticks;
        }
    });
}

/// Per-phase `(self_ns, count)` totals of this thread's live tree.
///
/// The tracer uses consecutive snapshots to journal per-point phase
/// deltas without waiting for the install guard to merge. `None` when
/// the profiler is off.
#[must_use]
pub fn phase_totals() -> Option<[(u64, u64); Phase::COUNT]> {
    if !enabled() {
        return None;
    }
    STATE.with(|s| {
        s.borrow().as_ref().map(|st| {
            let mut totals = st.tree.phase_totals();
            for slot in &mut totals {
                slot.0 = clock::ticks_to_ns(slot.0);
            }
            totals
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_thread_records_nothing() {
        assert!(!enabled());
        let _f = enter(Phase::Transient);
        add_work(5);
        assert!(current().is_none());
        assert_eq!(open_frames(), 0);
    }

    #[test]
    fn frames_nest_and_self_time_adds_up() {
        let profiler = Profiler::new();
        {
            let _guard = install_scoped(&profiler);
            let _outer = enter(Phase::Transient);
            for _ in 0..3 {
                let _inner = enter(Phase::DeviceEval);
                add_work(7);
            }
        }
        let report = profiler.report("test");
        let transient = report.phase("transient").expect("transient row");
        let eval = report.phase("device_eval").expect("device_eval row");
        assert_eq!(transient.count, 1);
        assert_eq!(eval.count, 3);
        assert_eq!(eval.work, 21);
        assert!(transient.total_ns >= eval.total_ns);
        assert!(transient.self_ns <= transient.total_ns);
        // The nodes table carries the full path.
        assert!(report
            .nodes
            .iter()
            .any(|n| n.stack == "transient;device_eval"));
    }

    #[test]
    fn sibling_scopes_share_path_nodes() {
        let profiler = Profiler::new();
        {
            let _guard = install_scoped(&profiler);
            for _ in 0..2 {
                let _t = enter(Phase::Transient);
                let _n = enter(Phase::NewtonOverhead);
            }
        }
        let report = profiler.report("test");
        let node = report
            .nodes
            .iter()
            .find(|n| n.stack == "transient;newton_overhead")
            .expect("merged path");
        assert_eq!(node.count, 2);
    }

    #[test]
    fn nested_install_isolates_and_restores() {
        let outer = Profiler::new();
        let inner = Profiler::new();
        let _g1 = install_scoped(&outer);
        {
            let _g2 = install_scoped(&inner);
            let _f = enter(Phase::DcOp);
        }
        {
            let _f = enter(Phase::Transient);
        }
        drop(_g1);
        assert_eq!(inner.report("i").phases.len(), 1);
        let outer_report = outer.report("o");
        assert!(outer_report.phase("transient").is_some());
        assert!(outer_report.phase("dc_op").is_none());
    }

    #[test]
    fn early_exit_unwinds_frames() {
        let profiler = Profiler::new();
        {
            let _guard = install_scoped(&profiler);
            fn bails_mid_frame() -> Result<(), ()> {
                let _t = enter(Phase::Transient);
                let _n = enter(Phase::NewtonOverhead);
                Err(())
            }
            let result = bails_mid_frame();
            assert!(result.is_err());
            assert_eq!(open_frames(), 0);
        }
        let report = profiler.report("test");
        assert_eq!(report.phase("transient").unwrap().count, 1);
        assert_eq!(report.phase("newton_overhead").unwrap().count, 1);
    }

    #[test]
    fn worker_threads_merge_via_current() {
        let profiler = Profiler::new();
        let _guard = install_scoped(&profiler);
        let captured = current().expect("profiler installed");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let captured = &captured;
                scope.spawn(move || {
                    let _g = install_scoped(captured);
                    let _f = enter(Phase::Transient);
                    add_work(1);
                });
            }
        });
        // Workers merged on their guard drops; this thread contributed
        // nothing yet.
        let report = profiler.report("test");
        let t = report.phase("transient").expect("worker frames merged");
        assert_eq!(t.count, 2);
        assert_eq!(t.work, 2);
    }

    #[test]
    fn detail_level_gates_iter_timing() {
        assert!(!iter_detail());
        let step = Profiler::new();
        {
            let _g = install_scoped(&step);
            assert!(enabled());
            assert!(!iter_detail());
            let laps = Laps::iter();
            assert!(!laps.timing(), "iter laps must not time at Step detail");
            assert!(laps.active(), "iter laps still count at Step detail");
        }
        let deep = Profiler::with_detail(Detail::Iter);
        {
            let _g = install_scoped(&deep);
            assert!(iter_detail());
            assert!(Laps::iter().timing());
            assert!(Laps::step().timing());
        }
        assert!(!enabled());
    }

    #[test]
    fn laps_are_inert_when_off() {
        let laps = Laps::step();
        assert!(!laps.active());
        laps.end_region(0);
        laps.bump(0, 3, 9);
        assert_eq!(laps.sample(0), Sample::default());
    }

    #[test]
    fn laps_cursor_charges_elapsed_to_ended_region() {
        let profiler = Profiler::new();
        let _g = install_scoped(&profiler);
        let laps = Laps::step();
        laps.restart();
        std::hint::black_box((0..1000).sum::<u64>());
        laps.end_region(0);
        laps.end_region(1);
        laps.bump(0, 1, 0);
        let busy = laps.sample(0);
        assert_eq!(busy.count, 1);
        assert!(busy.ticks > 0, "region with work must accumulate ticks");
    }

    #[test]
    fn record_builds_path_and_preserves_frame_self_time() {
        let profiler = Profiler::new();
        {
            let _g = install_scoped(&profiler);
            let _t = enter(Phase::Transient);
            record(
                &[Phase::NewtonOverhead, Phase::DeviceEval],
                Sample {
                    ticks: 100,
                    count: 7,
                    work: 70,
                },
            );
            record(
                &[Phase::NewtonOverhead],
                Sample {
                    ticks: 40,
                    count: 3,
                    work: 0,
                },
            );
            // Zero samples and empty paths must not create nodes.
            record(&[Phase::SensSolve], Sample::default());
            record(
                &[],
                Sample {
                    ticks: 5,
                    count: 1,
                    work: 0,
                },
            );
        }
        let report = profiler.report("test");
        let newton = report.phase("newton_overhead").expect("newton row");
        let eval = report.phase("device_eval").expect("device_eval row");
        assert_eq!(eval.count, 7);
        assert_eq!(eval.work, 70);
        assert_eq!(newton.count, 3);
        assert!(newton.total_ns >= eval.total_ns + newton.self_ns);
        assert!(report.phase("sens_solve").is_none());
        assert!(report
            .nodes
            .iter()
            .any(|n| n.stack == "transient;newton_overhead;device_eval"));
        // The transient frame's self time excludes the recorded ticks.
        let transient_node = report
            .nodes
            .iter()
            .find(|n| n.stack == "transient")
            .expect("transient node");
        assert!(transient_node.total_ns >= transient_node.self_ns);
    }

    #[test]
    fn phase_totals_snapshots_live_tree() {
        let profiler = Profiler::new();
        let _guard = install_scoped(&profiler);
        {
            let _f = enter(Phase::CorrectorOverhead);
        }
        let totals = phase_totals().expect("profiler on");
        assert_eq!(totals[Phase::CorrectorOverhead as usize].1, 1);
        assert_eq!(totals[Phase::Transient as usize].1, 0);
    }
}
