//! Interprocedural effect summaries: the dataflow layer beneath
//! `panic-reachability`, `hot-path-certify`, `determinism`,
//! `trunk-divergence-fence` and `effect-annotation-drift`.
//!
//! Every workspace function gets an [`EffectSet`] — a bitset over
//! [`EffectKind`] — computed in two steps:
//!
//! 1. **Direct sites.** A per-body AST walk records each expression
//!    that allocates, panics, asserts, locks/blocks, reads a clock,
//!    performs I/O, iterates an unordered collection, or accumulates
//!    floats in iteration order over one. Call targets that resolve to
//!    no workspace function and are not on the known-clean std
//!    allowlist contribute the conservative `unknown-callee` effect.
//! 2. **Fixed point.** Effects propagate bottom-up over the
//!    name-resolved call graph (edges pruned by `may_call`), condensed
//!    into Tarjan SCCs so recursion cycles converge with one inner
//!    worklist per component.
//!
//! Two summaries are kept per function: the **raw** set (no escape
//! hatches) and the **effective** set, where a
//! `// lint: allow(hot-path-certify, …)` / `// lint: allow(determinism,
//! …)` at a direct site removes that site, and at a *call site* prunes
//! the corresponding effect family from propagating through that edge
//! (the mechanism for "this callee allocates, but only on its
//! documented cold/fallback path"). Certification and the determinism
//! rule consume the effective sets; `effect-summaries.json` exports
//! both so excused effects stay visible.
//!
//! Panic-reachability reads the raw sites and edges directly
//! ([`EffectGraph::panic_chain`]): its evidence is every site that can
//! abort a release build ([`Site::aborts`]) — the `Panic` sites, the
//! non-`debug_` `Assert` sites, and [`EffectKind::HotIndex`].
//!
//! Deliberate conservatism gaps, so downstream readers know what a
//! clean summary does *not* prove: slice indexing counts only inside
//! `// lint: hot-loop` regions, as the non-certifying
//! [`EffectKind::HotIndex`] (every solver kernel indexes);
//! `assert!`-family macros are a separate non-certifying
//! [`EffectKind::Assert`] dimension (they are deliberate dimension
//! guards, not latent panics); `.insert()` /
//! `.entry()` are left unresolved rather than classified (map insertion
//! may allocate, `Option::insert` never does — name-only resolution
//! cannot tell them apart, so they surface as `unknown-callee`); and
//! `.join()` is not a lock effect (thread joins block, string joins do
//! not).

use crate::ast::{Block, Expr, ExprKind, Stmt};
use crate::symbols::SymbolTable;
use std::collections::{HashMap, HashSet, VecDeque};

/// One effect dimension. The discriminant order fixes the rendering
/// order of summary lists and annotation diffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EffectKind {
    /// Heap allocation (ctor, allocating method, `vec!`/`format!`).
    Alloc,
    /// Aborting panic: `panic!`-family macros, `.unwrap()`/`.expect()`.
    Panic,
    /// `assert!`/`assert_eq!`/`assert_ne!` and their `debug_` twins —
    /// deliberate contract guards, reported but never certification-failing.
    Assert,
    /// Slice indexing inside a `// lint: hot-loop` region: an
    /// out-of-bounds panic the hot path owns. Panic-reachability
    /// evidence only; never certification-failing.
    HotIndex,
    /// Blocking synchronization: `.lock()`, `.wait()`, channel `recv`.
    Lock,
    /// Reads a clock: `Instant::now`, `.elapsed()`, `_rdtsc`.
    Clock,
    /// Performs I/O: `println!`-family, `std::fs`, file/stream methods.
    Io,
    /// Iterates a `HashMap`/`HashSet`, whose order varies run to run.
    UnorderedIter,
    /// Float accumulation (`+=`, `.sum()`, `.fold(..)`) in the order of
    /// an unordered iteration — result bits depend on hash seeds.
    FloatOrder,
    /// Reads skew state: a `Waveform` data-pulse parameter
    /// (`tau_s`/`tau_h`). Functions carrying this effect compute
    /// skew-dependent values, so the checkpoint adoption a run resumes
    /// through must never reach them (`trunk-divergence-fence`).
    LaneDivergent,
    /// Calls something we can neither resolve nor vouch for.
    UnknownCallee,
}

/// All kinds, in canonical rendering order.
pub const ALL_KINDS: [EffectKind; 11] = [
    EffectKind::Alloc,
    EffectKind::Panic,
    EffectKind::Assert,
    EffectKind::HotIndex,
    EffectKind::Lock,
    EffectKind::Clock,
    EffectKind::Io,
    EffectKind::UnorderedIter,
    EffectKind::FloatOrder,
    EffectKind::LaneDivergent,
    EffectKind::UnknownCallee,
];

impl EffectKind {
    /// Stable name used in summaries and `/// effects:` annotations.
    pub fn name(self) -> &'static str {
        match self {
            EffectKind::Alloc => "alloc",
            EffectKind::Panic => "panic",
            EffectKind::Assert => "assert",
            EffectKind::HotIndex => "hot-index",
            EffectKind::Lock => "lock",
            EffectKind::Clock => "clock",
            EffectKind::Io => "io",
            EffectKind::UnorderedIter => "unordered-iter",
            EffectKind::FloatOrder => "float-order",
            EffectKind::LaneDivergent => "lane-divergent",
            EffectKind::UnknownCallee => "unknown-callee",
        }
    }

    /// Parses an annotation token back to a kind.
    pub fn from_name(name: &str) -> Option<EffectKind> {
        ALL_KINDS.iter().copied().find(|k| k.name() == name)
    }

    fn bit(self) -> u16 {
        1 << (self as u16)
    }

    /// The rule whose `// lint: allow(<rule>, …)` prunes sites/edges of
    /// this kind from the effective summary; `None` for the
    /// informational kinds no rule consumes.
    pub fn gating_rule(self) -> Option<&'static str> {
        match self {
            EffectKind::Alloc
            | EffectKind::Panic
            | EffectKind::Lock
            | EffectKind::Clock
            | EffectKind::Io => Some("hot-path-certify"),
            EffectKind::UnorderedIter | EffectKind::FloatOrder => Some("determinism"),
            EffectKind::LaneDivergent => Some("trunk-divergence-fence"),
            EffectKind::Assert | EffectKind::HotIndex | EffectKind::UnknownCallee => None,
        }
    }

    /// Short verb phrase for findings: "hot path `X` can {verb}".
    pub fn verb(self) -> &'static str {
        match self {
            EffectKind::Alloc => "allocate",
            EffectKind::Panic => "panic",
            EffectKind::Assert => "assert",
            EffectKind::HotIndex => "index out of bounds in a hot region",
            EffectKind::Lock => "block on a lock",
            EffectKind::Clock => "read the clock",
            EffectKind::Io => "perform I/O",
            EffectKind::UnorderedIter => "iterate an unordered collection",
            EffectKind::FloatOrder => "accumulate floats in unordered-iteration order",
            EffectKind::LaneDivergent => "read skew state",
            EffectKind::UnknownCallee => "call an unresolved function",
        }
    }
}

/// Effects whose presence fails `hot-path-certify` on a certified root.
pub const CERT_KINDS: [EffectKind; 5] = [
    EffectKind::Alloc,
    EffectKind::Panic,
    EffectKind::Lock,
    EffectKind::Clock,
    EffectKind::Io,
];

/// Effects whose presence fails `determinism` on a result-producing API.
pub const DET_KINDS: [EffectKind; 2] = [EffectKind::UnorderedIter, EffectKind::FloatOrder];

/// A set of effects as a bitmask over [`EffectKind`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EffectSet(u16);

impl EffectSet {
    pub const EMPTY: EffectSet = EffectSet(0);
    /// Every bit set — the identity mask for edge propagation.
    pub const ALL: EffectSet = EffectSet(u16::MAX);

    pub fn add(&mut self, kind: EffectKind) {
        self.0 |= kind.bit();
    }

    #[must_use]
    pub fn contains(self, kind: EffectKind) -> bool {
        self.0 & kind.bit() != 0
    }

    #[must_use]
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    #[must_use]
    pub fn intersect(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 & other.0)
    }

    #[must_use]
    pub fn without(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 & !other.0)
    }

    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Kinds present, in canonical order.
    pub fn kinds(self) -> Vec<EffectKind> {
        ALL_KINDS
            .iter()
            .copied()
            .filter(|k| self.contains(*k))
            .collect()
    }

    /// Names present, in canonical order.
    pub fn names(self) -> Vec<&'static str> {
        self.kinds().into_iter().map(EffectKind::name).collect()
    }

    /// Builds a set from a slice of kinds.
    pub fn of(kinds: &[EffectKind]) -> EffectSet {
        let mut s = EffectSet::EMPTY;
        for &k in kinds {
            s.add(k);
        }
        s
    }
}

/// One direct effect site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    pub kind: EffectKind,
    pub line: u32,
    /// Human-readable shape: `` `vec!` ``, `` `.unwrap()` ``.
    pub what: String,
}

impl Site {
    /// Whether the site can abort a release build: panic-reachability's
    /// evidence. `debug_assert!`-family sites are compiled out of release
    /// builds, so they stay `assert` effects without counting here.
    pub fn aborts(&self) -> bool {
        match self.kind {
            EffectKind::Panic | EffectKind::HotIndex => true,
            EffectKind::Assert => !self.what.starts_with("`debug_"),
            _ => false,
        }
    }
}

/// One name-resolved call edge, with the call-site line so edge-level
/// allows can prune effect propagation through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub callee: usize,
    pub line: u32,
}

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Allocating method names. The growth methods (`push`, `extend`, …)
/// only *may* allocate, which is exactly what a conservative summary
/// must assume.
const ALLOC_METHODS: &[&str] = &[
    "clone",
    "to_vec",
    "to_string",
    "to_owned",
    "collect",
    "push",
    "push_str",
    "extend",
    "extend_from_slice",
    "append",
    "reserve",
    "resize",
];

/// Allocating `Type::constructor` pairs.
const ALLOC_CTORS: &[(&str, &str)] = &[
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
];

/// `Type::ctor` tails that allocate regardless of the type.
const ALLOC_CTOR_TAILS: &[&str] = &["with_capacity"];

/// Macros whose expansion aborts (the `assert` family is separate).
pub(crate) const HARD_PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Assertions that stay in release builds: they abort like a panic, so
/// `no-panic` and panic-reachability count them.
pub(crate) const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// The debug-only twins: `assert` effects, but compiled out of release
/// builds.
const DEBUG_ASSERT_MACROS: &[&str] = &["debug_assert", "debug_assert_eq", "debug_assert_ne"];

pub(crate) const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Blocking method names. `.join()` is deliberately absent: on a thread
/// handle it blocks, but the same name on a slice of strings is a pure
/// concatenation, and name-only resolution cannot tell them apart.
const LOCK_METHODS: &[&str] = &["lock", "wait", "wait_timeout", "recv", "recv_timeout"];

const CLOCK_METHODS: &[&str] = &["elapsed"];

/// `Type::fn` pairs that read a clock.
const CLOCK_CTORS: &[(&str, &str)] = &[("Instant", "now"), ("SystemTime", "now")];

/// Free functions that read a clock.
const CLOCK_FNS: &[&str] = &["_rdtsc"];

const IO_MACROS: &[&str] = &[
    "println", "print", "eprintln", "eprint", "dbg", "write", "writeln",
];

const IO_METHODS: &[&str] = &[
    "write_all",
    "write_fmt",
    "flush",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "sync_all",
    "sync_data",
];

/// `Type::fn` pairs that open or touch the filesystem / standard streams.
const IO_CTORS: &[(&str, &str)] = &[("File", "open"), ("File", "create"), ("OpenOptions", "new")];

/// Path segments that mark a call as filesystem/stream I/O
/// (`std::fs::write`, `io::stdout`).
const IO_PATH_SEGMENTS: &[&str] = &["fs", "stdin", "stdout", "stderr"];

/// Iterator-producing methods whose order is the collection's order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Reduction methods that fold iteration order into a value.
const REDUCE_METHODS: &[&str] = &["sum", "product", "fold"];

/// Type-name substrings that mark a value as an unordered collection.
pub(crate) const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet"];

/// `Waveform` data-pulse skew parameters. Reading one of these fields
/// seeds [`EffectKind::LaneDivergent`]: each run carries its own
/// `(τs, τh)`, so any value computed from them differs run to run.
/// Seeds propagate over the SCC-condensed call graph like every other
/// effect.
const SKEW_PARAM_FIELDS: &[&str] = &["tau_s", "tau_h"];

/// Callee names we can vouch for: std/core functions and methods that
/// neither allocate, panic (beyond the slice-index panics tracked by
/// panic-reachability), block, read clocks, nor perform I/O. Anything
/// unresolved and not listed contributes [`EffectKind::UnknownCallee`].
const KNOWN_CLEAN_CALLEES: &[&str] = &[
    // slice / ordered-iterator plumbing
    "len",
    "is_empty",
    "enumerate",
    "zip",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "rev",
    "take",
    "skip",
    "chain",
    "step_by",
    "windows",
    "chunks",
    "chunks_exact",
    "split_at",
    "split_at_mut",
    "split_first",
    "split_last",
    "first",
    "first_mut",
    "last",
    "last_mut",
    "get",
    "get_mut",
    "position",
    "find",
    "rfind",
    "find_map",
    "any",
    "all",
    "count",
    "for_each",
    "max_by",
    "min_by",
    "max_by_key",
    "min_by_key",
    "copied",
    "cloned",
    "by_ref",
    "peekable",
    "peek",
    "next",
    "next_back",
    "nth",
    "inspect",
    "scan",
    "cycle",
    "reduce",
    "try_fold",
    "copy_from_slice",
    "clone_from_slice",
    "fill",
    "swap",
    "swap_remove",
    "rotate_left",
    "rotate_right",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "binary_search",
    "binary_search_by",
    "partition_point",
    "contains",
    "starts_with",
    "ends_with",
    "truncate",
    "clear",
    "pop",
    "dedup",
    "capacity",
    // numeric
    "abs",
    "sqrt",
    "cbrt",
    "powi",
    "powf",
    "exp",
    "exp2",
    "exp_m1",
    "ln",
    "ln_1p",
    "log2",
    "log10",
    "max",
    "min",
    "signum",
    "copysign",
    "is_finite",
    "is_infinite",
    "is_nan",
    "is_sign_negative",
    "is_sign_positive",
    "is_normal",
    "floor",
    "ceil",
    "round",
    "trunc",
    "fract",
    "hypot",
    "recip",
    "clamp",
    "to_bits",
    "from_bits",
    "mul_add",
    "rem_euclid",
    "div_euclid",
    "total_cmp",
    "to_degrees",
    "to_radians",
    "sin",
    "cos",
    "tan",
    "sinh",
    "cosh",
    "tanh",
    "asin",
    "acos",
    "atan",
    "atan2",
    "saturating_sub",
    "saturating_add",
    "saturating_mul",
    "wrapping_sub",
    "wrapping_add",
    "wrapping_mul",
    "checked_sub",
    "checked_add",
    "checked_mul",
    "checked_div",
    "checked_rem",
    "overflowing_add",
    "leading_zeros",
    "trailing_zeros",
    "count_ones",
    "pow",
    "abs_diff",
    "next_power_of_two",
    "isqrt",
    "swap_bytes",
    "to_le_bytes",
    "to_be_bytes",
    "from_le_bytes",
    "from_be_bytes",
    // Option / Result combinators
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "map_err",
    "map_or",
    "map_or_else",
    "and_then",
    "or_else",
    "and",
    "or",
    "is_some",
    "is_none",
    "is_some_and",
    "is_ok",
    "is_err",
    "is_ok_and",
    "as_ref",
    "as_mut",
    "as_deref",
    "as_deref_mut",
    "replace",
    "take",
    "transpose",
    "xor",
    "then",
    "then_some",
    "then_with",
    "get_or_insert_with",
    // conversions and borrows
    "from",
    "into",
    "try_from",
    "try_into",
    "as_slice",
    "as_mut_slice",
    "as_str",
    "as_bytes",
    "parse",
    "trim",
    "trim_start",
    "trim_end",
    "strip_prefix",
    "strip_suffix",
    "split",
    "splitn",
    "rsplit",
    "split_once",
    "rsplit_once",
    "split_whitespace",
    "split_terminator",
    "lines",
    "chars",
    "char_indices",
    "bytes",
    "eq_ignore_ascii_case",
    "is_ascii_digit",
    "is_ascii_alphanumeric",
    "is_ascii_uppercase",
    "is_ascii_lowercase",
    "is_char_boundary",
    "as_ptr",
    "as_mut_ptr",
    "cast",
    "borrow",
    "borrow_mut",
    "to_digit",
    "from_digit",
    "is_alphanumeric",
    "is_numeric",
    "is_whitespace",
    // Cell / atomics / lazy state (allocation-free by construction)
    "set",
    "update",
    "into_inner",
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "with",
    "get_or_init",
    // comparison / construction / misc
    "cmp",
    "partial_cmp",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "reverse",
    "hash",
    "default",
    "drop",
    "size_of",
    "new",
    "from_fn",
    "spin_loop",
    "black_box",
    "id",
    "rem",
    // enum-variant constructors (stack construction, allocation-free)
    // and pure std accessors
    "Ok",
    "Err",
    "Some",
    "as_nanos",
    "as_micros",
    "as_millis",
    "as_secs",
    "as_secs_f64",
];

/// Everything the effect pass computes.
pub struct EffectGraph {
    /// Direct sites per fn id, unpruned (the raw truth).
    pub sites: Vec<Vec<Site>>,
    /// Call edges per fn id, sorted by `(callee, line)`, deduped.
    pub edges: Vec<Vec<Edge>>,
    /// Unresolved, non-allowlisted callee names per fn id (sorted,
    /// deduped) — the evidence behind `unknown-callee`.
    pub unknown: Vec<Vec<String>>,
    /// Fixed-point summaries with no escape hatches applied.
    pub raw: Vec<EffectSet>,
    /// Fixed-point summaries over allow-pruned sites and edges; what
    /// `hot-path-certify` / `determinism` consume.
    pub effective: Vec<EffectSet>,
    /// Tarjan components in bottom-up (callee-first) order; exposed for
    /// the engine tests.
    pub sccs: Vec<Vec<usize>>,
    /// Per-fn allow-pruned sites, parallel to `sites`.
    pub pruned_sites: Vec<Vec<Site>>,
    /// Per-edge propagation masks, parallel to `edges`.
    edge_masks: Vec<Vec<EffectSet>>,
}

impl EffectGraph {
    /// Builds sites, edges, and both fixed-point summaries.
    ///
    /// `unordered_fields` holds struct-field names whose declared type
    /// is an unordered collection (workspace-wide, like the units field
    /// map). `in_hot` reports whether a (file, line) sits inside a
    /// `// lint: hot-loop` region, where indexing is a
    /// [`EffectKind::HotIndex`] site. `may_call` prunes name-collision
    /// edges that are structurally impossible (caller file, callee
    /// file), e.g. library code "calling" a same-named fn in a binary.
    /// `allowed` reports whether a `// lint: allow(<rule>, …)` covers a
    /// (file, line) — same-line-or-line-above, like every other rule.
    pub fn build(
        table: &SymbolTable<'_>,
        unordered_fields: &HashSet<String>,
        in_hot: &dyn Fn(&str, u32) -> bool,
        may_call: &dyn Fn(&str, &str) -> bool,
        allowed: &dyn Fn(&str, u32, &str) -> bool,
    ) -> EffectGraph {
        let n = table.defs.len();
        let mut sites: Vec<Vec<Site>> = Vec::with_capacity(n);
        let mut edges: Vec<Vec<Edge>> = Vec::with_capacity(n);
        let mut unknown: Vec<Vec<String>> = Vec::with_capacity(n);
        for def in &table.defs {
            let mut c = Collector {
                table,
                file: def.file,
                in_hot,
                may_call,
                unordered_fields,
                unordered_locals: HashSet::new(),
                sites: Vec::new(),
                edges: Vec::new(),
                unknown: Vec::new(),
            };
            // Test fns contribute nothing: a prod fn sharing a name with
            // a test helper must not inherit the helper's effects.
            if let (false, Some(body)) = (def.in_tests, &def.item.body) {
                for p in &def.item.params {
                    if UNORDERED_TYPES.iter().any(|t| p.ty.contains(t)) {
                        c.unordered_locals.insert(p.name.clone());
                    }
                }
                c.collect_locals(body);
                c.scan_body(body);
            }
            // Self-recursion adds no new effect evidence.
            c.edges.retain(|e| e.callee != def.id);
            c.edges.sort_unstable();
            c.edges.dedup();
            c.unknown.sort_unstable();
            c.unknown.dedup();
            sites.push(c.sites);
            edges.push(c.edges);
            unknown.push(c.unknown);
        }

        let sccs = tarjan_sccs(&edges);

        // Raw pass: every site, every edge, full masks.
        let full_masks: Vec<Vec<EffectSet>> = edges
            .iter()
            .map(|es| vec![EffectSet::ALL; es.len()])
            .collect();
        let raw = propagate(&sites, &edges, &full_masks, &sccs, &unknown);

        // Effective pass: allow-pruned sites, allow-masked edges.
        let pruned_sites: Vec<Vec<Site>> = table
            .defs
            .iter()
            .zip(&sites)
            .map(|(def, ss)| {
                ss.iter()
                    .filter(|s| match s.kind.gating_rule() {
                        Some(rule) => !allowed(def.file, s.line, rule),
                        None => true,
                    })
                    .cloned()
                    .collect()
            })
            .collect();
        let cert_mask = EffectSet::of(&CERT_KINDS);
        let det_mask = EffectSet::of(&DET_KINDS);
        let edge_masks: Vec<Vec<EffectSet>> = table
            .defs
            .iter()
            .zip(&edges)
            .map(|(def, es)| {
                es.iter()
                    .map(|e| {
                        let mut mask = EffectSet::ALL;
                        if allowed(def.file, e.line, "hot-path-certify") {
                            mask = mask.without(cert_mask);
                        }
                        if allowed(def.file, e.line, "determinism") {
                            mask = mask.without(det_mask);
                        }
                        mask
                    })
                    .collect()
            })
            .collect();
        let effective = propagate(&pruned_sites, &edges, &edge_masks, &sccs, &unknown);

        EffectGraph {
            sites,
            edges,
            unknown,
            raw,
            effective,
            sccs,
            pruned_sites,
            edge_masks,
        }
    }

    /// Shortest call chain (over allow-masked edges) from `start` to a
    /// surviving direct site of `kind`: `Some((fn ids, site))`. Present
    /// whenever `effective[start]` contains `kind`.
    pub fn shortest_chain(&self, start: usize, kind: EffectKind) -> Option<(Vec<usize>, &Site)> {
        self.chain(
            start,
            &self.pruned_sites,
            |s| s.kind == kind,
            |caller, i| {
                self.edge_masks[caller][i].contains(kind)
                    && self.effective[self.edges[caller][i].callee].contains(kind)
            },
        )
    }

    /// Panic-reachability: the shortest call chain from `start` to a site
    /// that can abort ([`Site::aborts`]), over the raw sites and every
    /// edge — no effect-rule allow excuses a panic. `None` when no such
    /// site is reachable.
    pub fn panic_chain(&self, start: usize) -> Option<(Vec<usize>, &Site)> {
        self.chain(start, &self.sites, Site::aborts, |_, _| true)
    }

    /// BFS from `start` to the first fn with a site matching `hit`,
    /// following edge `i` of fn `caller` only when `follow(caller, i)`.
    /// Adjacency is sorted by callee id, so chains are deterministic.
    fn chain<'s>(
        &'s self,
        start: usize,
        sites: &'s [Vec<Site>],
        hit: impl Fn(&Site) -> bool,
        follow: impl Fn(usize, usize) -> bool,
    ) -> Option<(Vec<usize>, &'s Site)> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        parent.insert(start, start);
        queue.push_back(start);
        while let Some(id) = queue.pop_front() {
            if let Some(site) = sites[id].iter().find(|s| hit(s)) {
                let mut path = vec![id];
                let mut cur = id;
                while parent[&cur] != cur {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some((path, site));
            }
            for (i, e) in self.edges[id].iter().enumerate() {
                if !follow(id, i) {
                    continue;
                }
                if let std::collections::hash_map::Entry::Vacant(v) = parent.entry(e.callee) {
                    v.insert(id);
                    queue.push_back(e.callee);
                }
            }
        }
        None
    }
}

/// Bottom-up fixed point over the SCC condensation: components come out
/// of Tarjan callee-first, so each needs only an inner loop until its
/// members stabilize (per-member sets, because edge masks can differ
/// between members of a cycle).
fn propagate(
    sites: &[Vec<Site>],
    edges: &[Vec<Edge>],
    masks: &[Vec<EffectSet>],
    sccs: &[Vec<usize>],
    unknown: &[Vec<String>],
) -> Vec<EffectSet> {
    let n = edges.len();
    let mut sets = vec![EffectSet::EMPTY; n];
    for i in 0..n {
        for s in &sites[i] {
            sets[i].add(s.kind);
        }
        if !unknown[i].is_empty() {
            sets[i].add(EffectKind::UnknownCallee);
        }
    }
    for scc in sccs {
        loop {
            let mut changed = false;
            for &v in scc {
                let mut acc = sets[v];
                for (e, mask) in edges[v].iter().zip(&masks[v]) {
                    acc = acc.union(sets[e.callee].intersect(*mask));
                }
                if acc != sets[v] {
                    sets[v] = acc;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    sets
}

/// Iterative Tarjan over the call edges (caller → callee). Components
/// are emitted callee-first — exactly the bottom-up order the fixed
/// point wants.
fn tarjan_sccs(edges: &[Vec<Edge>]) -> Vec<Vec<usize>> {
    let n = edges.len();
    // Deduped adjacency (edges repeat per call site).
    let adj: Vec<Vec<usize>> = edges
        .iter()
        .map(|es| {
            let mut a: Vec<usize> = es.iter().map(|e| e.callee).collect();
            a.sort_unstable();
            a.dedup();
            a
        })
        .collect();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // Explicit DFS frames: (node, next adjacency position).
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        index[start] = counter;
        low[start] = counter;
        counter += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut ai)) = frames.last_mut() {
            if let Some(&w) = adj[v].get(*ai) {
                *ai += 1;
                if index[w] == usize::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

/// Per-body walker that records direct sites, call edges, and unknown
/// callees.
struct Collector<'a, 'b> {
    table: &'b SymbolTable<'a>,
    file: &'a str,
    in_hot: &'b dyn Fn(&str, u32) -> bool,
    may_call: &'b dyn Fn(&str, &str) -> bool,
    unordered_fields: &'b HashSet<String>,
    unordered_locals: HashSet<String>,
    sites: Vec<Site>,
    edges: Vec<Edge>,
    unknown: Vec<String>,
}

impl Collector<'_, '_> {
    /// Pre-pass: collect `let m = HashMap::new()`-style locals from
    /// every statement list in the body, so later iteration over `m` is
    /// recognized regardless of statement order or nesting. (Let-else
    /// diverging blocks are the one stmt list not reached; a HashMap
    /// local declared inside one is vanishingly unlikely.)
    fn collect_locals(&mut self, body: &Block) {
        let mut stmt_lists: Vec<&[Stmt]> = vec![&body.stmts];
        crate::ast::walk_block(body, &mut |e: &Expr| match &e.kind {
            ExprKind::Block(b)
            | ExprKind::Loop { body: b }
            | ExprKind::While { body: b, .. }
            | ExprKind::For { body: b, .. } => stmt_lists.push(&b.stmts),
            ExprKind::If { then, .. } => stmt_lists.push(&then.stmts),
            _ => {}
        });
        for stmts in stmt_lists {
            for stmt in stmts {
                if let Stmt::Let {
                    name: Some(n),
                    init: Some(init),
                    ..
                } = stmt
                {
                    let mut unordered = false;
                    crate::ast::walk_expr(init, &mut |ie: &Expr| {
                        if let ExprKind::Path { segments }
                        | ExprKind::StructLit { path: segments, .. } = &ie.kind
                        {
                            if segments
                                .iter()
                                .any(|s| UNORDERED_TYPES.iter().any(|t| s.contains(t)))
                            {
                                unordered = true;
                            }
                        }
                    });
                    if unordered {
                        self.unordered_locals.insert(n.clone());
                    }
                }
            }
        }
    }

    /// Main pass: visit every expression in the body once, pre-order.
    fn scan_body(&mut self, body: &Block) {
        let mut exprs: Vec<&Expr> = Vec::new();
        crate::ast::walk_block(body, &mut |e: &Expr| exprs.push(e));
        for e in exprs {
            self.visit(e);
        }
    }

    fn site(&mut self, kind: EffectKind, line: u32, what: impl Into<String>) {
        self.sites.push(Site {
            kind,
            line,
            what: what.into(),
        });
    }

    /// Name-resolves a path call `qualifier::name(…)` into call edges;
    /// returns how many targets survived `may_call` pruning.
    fn resolve(&mut self, qualifier: &str, name: &str, line: u32) -> usize {
        let ids = self.table.resolve_qualified(qualifier, name, self.file);
        self.admit(&ids, line)
    }

    /// Name-resolves a method call `recv.name(…)` into call edges —
    /// method definitions only, free fns sharing the name cannot be the
    /// target; returns how many survived `may_call` pruning.
    fn resolve_method(&mut self, name: &str, line: u32) -> usize {
        let ids = self.table.resolve_method(name);
        self.admit(&ids, line)
    }

    fn admit(&mut self, ids: &[usize], line: u32) -> usize {
        let mut hits = 0;
        for &id in ids {
            let def = &self.table.defs[id];
            if def.in_tests || !(self.may_call)(self.file, def.file) {
                continue;
            }
            self.edges.push(Edge { callee: id, line });
            hits += 1;
        }
        hits
    }

    fn visit(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::MacroCall { name } => {
                let n = name.as_str();
                if HARD_PANIC_MACROS.contains(&n) {
                    self.site(EffectKind::Panic, e.line, format!("`{n}!`"));
                } else if ASSERT_MACROS.contains(&n) || DEBUG_ASSERT_MACROS.contains(&n) {
                    self.site(EffectKind::Assert, e.line, format!("`{n}!`"));
                } else if ALLOC_MACROS.contains(&n) {
                    self.site(EffectKind::Alloc, e.line, format!("`{n}!`"));
                } else if IO_MACROS.contains(&n) {
                    self.site(EffectKind::Io, e.line, format!("`{n}!`"));
                }
            }
            ExprKind::MethodCall { recv, method, .. } => {
                let m = method.as_str();
                if PANIC_METHODS.contains(&m) {
                    // A direct site, never an edge.
                    self.site(EffectKind::Panic, e.line, format!("`.{m}()`"));
                    return;
                }
                if ALLOC_METHODS.contains(&m) {
                    self.site(EffectKind::Alloc, e.line, format!("`.{m}()`"));
                }
                if LOCK_METHODS.contains(&m) {
                    self.site(EffectKind::Lock, e.line, format!("`.{m}()`"));
                }
                if CLOCK_METHODS.contains(&m) {
                    self.site(EffectKind::Clock, e.line, format!("`.{m}()`"));
                }
                if IO_METHODS.contains(&m) {
                    self.site(EffectKind::Io, e.line, format!("`.{m}()`"));
                }
                if ITER_METHODS.contains(&m) {
                    if let Some(root) = self.unordered_root(recv) {
                        self.site(
                            EffectKind::UnorderedIter,
                            e.line,
                            format!("`.{m}()` over unordered `{root}`"),
                        );
                    }
                }
                if REDUCE_METHODS.contains(&m) && self.chain_has_unordered_iter(recv) {
                    self.site(
                        EffectKind::FloatOrder,
                        e.line,
                        format!("`.{m}()` over an unordered iteration"),
                    );
                }
                let hits = self.resolve_method(m, e.line);
                if hits == 0 && !KNOWN_CLEAN_CALLEES.contains(&m) && !is_effect_name(m) {
                    self.unknown.push(m.to_string());
                }
            }
            ExprKind::Call { callee, .. } => {
                if let ExprKind::Path { segments } = &callee.kind {
                    let tail = segments.last().map(String::as_str).unwrap_or("");
                    let prev = segments
                        .len()
                        .checked_sub(2)
                        .map(|i| segments[i].as_str())
                        .unwrap_or("");
                    let is_alloc_ctor =
                        ALLOC_CTORS.contains(&(prev, tail)) || ALLOC_CTOR_TAILS.contains(&tail);
                    let is_clock = CLOCK_CTORS.contains(&(prev, tail)) || CLOCK_FNS.contains(&tail);
                    if is_alloc_ctor {
                        self.site(EffectKind::Alloc, e.line, format!("`{prev}::{tail}`"));
                    }
                    if is_clock {
                        let what = if CLOCK_FNS.contains(&tail) {
                            format!("`{tail}`")
                        } else {
                            format!("`{prev}::{tail}`")
                        };
                        self.site(EffectKind::Clock, e.line, what);
                    }
                    if IO_CTORS.contains(&(prev, tail))
                        || segments
                            .iter()
                            .any(|s| IO_PATH_SEGMENTS.contains(&s.as_str()))
                    {
                        self.site(EffectKind::Io, e.line, format!("`{}`", segments.join("::")));
                    }
                    if tail == "park" {
                        self.site(EffectKind::Lock, e.line, "`thread::park`");
                    }
                    let hits = self.resolve(prev, tail, e.line);
                    if hits == 0
                        && !is_alloc_ctor
                        && !is_clock
                        && !KNOWN_CLEAN_CALLEES.contains(&tail)
                        && !is_effect_name(tail)
                    {
                        self.unknown.push(tail.to_string());
                    }
                }
            }
            ExprKind::Index { .. } if (self.in_hot)(self.file, e.line) => {
                self.site(EffectKind::HotIndex, e.line, "indexing");
            }
            ExprKind::Field { name, .. } if SKEW_PARAM_FIELDS.contains(&name.as_str()) => {
                self.site(
                    EffectKind::LaneDivergent,
                    e.line,
                    format!("reads skew parameter `.{name}`"),
                );
            }
            ExprKind::For { iter, body } => {
                if let Some(root) = self.unordered_root(iter) {
                    self.site(
                        EffectKind::UnorderedIter,
                        e.line,
                        format!("`for` over unordered `{root}`"),
                    );
                    // Compound accumulation inside the loop folds the
                    // iteration order into a value. Integer-literal
                    // increments (`count += 1`) are commutative and skipped.
                    let mut accs: Vec<(u32, String)> = Vec::new();
                    crate::ast::walk_block(body, &mut |ie: &Expr| {
                        if let ExprKind::Assign { op, rhs, .. } = &ie.kind {
                            if (op == "+=" || op == "*=")
                                && !matches!(
                                    &rhs.kind,
                                    ExprKind::Lit {
                                        is_float: false,
                                        ..
                                    }
                                )
                            {
                                accs.push((ie.line, op.clone()));
                            }
                        }
                    });
                    for (line, op) in accs {
                        self.site(
                            EffectKind::FloatOrder,
                            line,
                            format!("`{op}` inside `for` over unordered `{root}`"),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    /// Whether `e` bottoms out at an unordered local/param/field:
    /// `m`, `&m`, `self.map`, `m.iter()`, `map.clone()`.
    fn unordered_root(&self, e: &Expr) -> Option<String> {
        match &e.kind {
            ExprKind::Path { segments } => {
                let last = segments.last()?;
                self.unordered_locals.contains(last).then(|| last.clone())
            }
            ExprKind::Field { base, name } => {
                if self.unordered_fields.contains(name) {
                    Some(name.clone())
                } else {
                    self.unordered_root(base)
                }
            }
            ExprKind::MethodCall { recv, .. } => self.unordered_root(recv),
            ExprKind::Ref { expr } | ExprKind::Paren { expr } | ExprKind::Try { expr } => {
                self.unordered_root(expr)
            }
            _ => None,
        }
    }

    /// Whether the receiver chain of a reduction contains an explicit
    /// iteration over an unordered value (`m.values().sum()`).
    fn chain_has_unordered_iter(&self, recv: &Expr) -> bool {
        let mut cur = recv;
        loop {
            match &cur.kind {
                ExprKind::MethodCall { recv, method, .. } => {
                    if ITER_METHODS.contains(&method.as_str())
                        && self.unordered_root(recv).is_some()
                    {
                        return true;
                    }
                    cur = recv;
                }
                ExprKind::Paren { expr } | ExprKind::Ref { expr } | ExprKind::Try { expr } => {
                    cur = expr;
                }
                _ => return false,
            }
        }
    }
}

/// Names already modeled as effect sites, which must not additionally
/// count as unknown callees.
fn is_effect_name(name: &str) -> bool {
    ALLOC_METHODS.contains(&name)
        || LOCK_METHODS.contains(&name)
        || CLOCK_METHODS.contains(&name)
        || IO_METHODS.contains(&name)
        || ITER_METHODS.contains(&name)
        || REDUCE_METHODS.contains(&name)
        || name == "park"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn parse_all(files: &[(&'static str, &str)]) -> (Vec<crate::ast::File>, Vec<&'static str>) {
        let parsed: Vec<crate::ast::File> = files
            .iter()
            .map(|(_, src)| {
                let f = parse_file(src, &lex(src));
                assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
                f
            })
            .collect();
        (parsed, files.iter().map(|(p, _)| *p).collect())
    }

    fn graph_of<'a>(
        paths: &'a [&'static str],
        parsed: &'a [crate::ast::File],
    ) -> (SymbolTable<'a>, EffectGraph) {
        let table = SymbolTable::build(paths.iter().copied().zip(parsed.iter()), &|_, _| false);
        let fields = HashSet::new();
        let g = EffectGraph::build(&table, &fields, &|_, _| false, &|_, _| true, &|_, _, _| {
            false
        });
        (table, g)
    }

    fn id_of(table: &SymbolTable<'_>, name: &str) -> usize {
        table
            .defs
            .iter()
            .position(|d| d.name() == name)
            .unwrap_or_else(|| panic!("no fn named {name}"))
    }

    /// One workspace for the panic-reachability tests: a helper chain,
    /// one fn per abort site class, a debug-only assert, a hot-region
    /// index (line 9) next to a cold one, and a call into a bin target.
    const PANIC_FIXTURE: &[(&str, &str)] = &[
        (
            "crates/a/src/lib.rs",
            "pub fn api(x: Option<u32>) -> u32 { helper(x) }\n\
             fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n\
             pub fn safe(x: u32) -> u32 { x + 1 }\n\
             pub fn expects(x: Option<u32>) -> u32 { x.expect(\"x\") }\n\
             pub fn panics() { panic!(\"no\"); }\n\
             pub fn asserts(n: u32) { assert!(n > 0); }\n\
             pub fn asserts_eq(n: u32) { assert_eq!(n, 1); }\n\
             pub fn debug_only(n: u32) { debug_assert!(n > 0); }\n\
             pub fn hot_index(v: &[f64]) -> f64 { v[0] }\n\
             pub fn cold_index(v: &[f64]) -> f64 { v[0] }\n\
             pub fn via_bin(x: Option<u32>) -> u32 { tool_helper(x) }\n",
        ),
        (
            "crates/a/src/bin/tool.rs",
            "fn tool_helper(x: Option<u32>) -> u32 { x.unwrap() }\n",
        ),
    ];

    /// The panic fixture's graph, with line 9 of the lib hot and with
    /// either permissive or bin-pruning `may_call`.
    fn panic_graph<'a>(
        paths: &'a [&'static str],
        parsed: &'a [crate::ast::File],
        prune_bins: bool,
    ) -> (SymbolTable<'a>, EffectGraph) {
        let table = SymbolTable::build(paths.iter().copied().zip(parsed.iter()), &|_, _| false);
        let g = EffectGraph::build(
            &table,
            &HashSet::new(),
            &|file, line| file.ends_with("lib.rs") && line == 9,
            &|_, callee: &str| !prune_bins || !callee.contains("/src/bin/"),
            &|_, _, _| false,
        );
        (table, g)
    }

    #[test]
    fn panic_chain_crosses_function_boundaries_and_counts_every_abort_site() {
        let (parsed, paths) = parse_all(PANIC_FIXTURE);
        let (table, g) = panic_graph(&paths, &parsed, true);
        let (path, site) = g.panic_chain(id_of(&table, "api")).unwrap();
        assert_eq!(path, vec![id_of(&table, "api"), id_of(&table, "helper")]);
        assert_eq!(site.what, "`.unwrap()`");
        assert!(g.panic_chain(id_of(&table, "safe")).is_none());
        for (name, what) in [
            ("expects", "`.expect()`"),
            ("panics", "`panic!`"),
            ("asserts", "`assert!`"),
            ("asserts_eq", "`assert_eq!`"),
        ] {
            let (path, site) = g.panic_chain(id_of(&table, name)).unwrap();
            assert_eq!((path.len(), site.what.as_str()), (1, what), "{name}");
        }
        // Debug-only asserts are compiled out of release builds: still an
        // `assert` effect, never panic evidence.
        let debug_only = id_of(&table, "debug_only");
        assert!(g.effective[debug_only].contains(EffectKind::Assert));
        assert!(g.panic_chain(debug_only).is_none());
    }

    #[test]
    fn hot_indexing_counts_only_inside_hot_regions() {
        let (parsed, paths) = parse_all(PANIC_FIXTURE);
        let (table, g) = panic_graph(&paths, &parsed, true);
        let hot = id_of(&table, "hot_index");
        let (_, site) = g.panic_chain(hot).unwrap();
        assert_eq!((site.what.as_str(), site.line), ("indexing", 9));
        // A panic-reachability site, never a certification failure.
        assert!(g.effective[hot].contains(EffectKind::HotIndex));
        assert!(!CERT_KINDS.contains(&EffectKind::HotIndex));
        assert!(g.panic_chain(id_of(&table, "cold_index")).is_none());
    }

    #[test]
    fn may_call_prunes_panic_chains_into_bin_targets() {
        let (parsed, paths) = parse_all(PANIC_FIXTURE);
        // Permissive: the lib fn inherits the binary's unwrap by name.
        let (table, loose) = panic_graph(&paths, &parsed, false);
        let via_bin = id_of(&table, "via_bin");
        let (path, _) = loose.panic_chain(via_bin).unwrap();
        assert_eq!(path, vec![via_bin, id_of(&table, "tool_helper")]);
        // Pruned: binaries are link roots, never callees.
        let (_, strict) = panic_graph(&paths, &parsed, true);
        assert!(strict.panic_chain(via_bin).is_none());
        assert!(strict.panic_chain(id_of(&table, "tool_helper")).is_some());
    }

    #[test]
    fn direct_and_transitive_allocation() {
        let (parsed, paths) = parse_all(&[(
            "crates/core/src/a.rs",
            "pub fn outer() { inner(); }\nfn inner() { let _v = vec![0.0]; }\npub fn clean(x: f64) -> f64 { x + 1.0 }\n",
        )]);
        let (table, g) = graph_of(&paths, &parsed);
        assert!(g.effective[id_of(&table, "outer")].contains(EffectKind::Alloc));
        assert!(g.effective[id_of(&table, "inner")].contains(EffectKind::Alloc));
        assert!(g.effective[id_of(&table, "clean")].is_empty());
        let (path, site) = g
            .shortest_chain(id_of(&table, "outer"), EffectKind::Alloc)
            .unwrap();
        assert_eq!(path, vec![id_of(&table, "outer"), id_of(&table, "inner")]);
        assert_eq!(site.what, "`vec!`");
    }

    #[test]
    fn recursion_cycles_converge() {
        let (parsed, paths) = parse_all(&[(
            "crates/core/src/a.rs",
            "pub fn a(n: u32) { if n > 0 { b(n - 1); } }\nfn b(n: u32) { a(n); c(); }\nfn c() { let _s = format!(\"x\"); }\n",
        )]);
        let (table, g) = graph_of(&paths, &parsed);
        // a and b form an SCC; both inherit c's allocation.
        assert!(g.effective[id_of(&table, "a")].contains(EffectKind::Alloc));
        assert!(g.effective[id_of(&table, "b")].contains(EffectKind::Alloc));
        let scc_with_a = g
            .sccs
            .iter()
            .find(|s| s.contains(&id_of(&table, "a")))
            .unwrap();
        assert!(scc_with_a.contains(&id_of(&table, "b")));
        assert_eq!(scc_with_a.len(), 2);
    }

    #[test]
    fn may_call_prunes_propagation() {
        let (parsed, paths) = parse_all(&[
            ("crates/a/src/lib.rs", "pub fn api() { helper(); }\n"),
            (
                "crates/a/src/bin/tool.rs",
                "fn helper() { let _v = vec![1]; }\n",
            ),
        ]);
        let table = SymbolTable::build(paths.iter().copied().zip(parsed.iter()), &|_, _| false);
        let fields = HashSet::new();
        let loose = EffectGraph::build(&table, &fields, &|_, _| false, &|_, _| true, &|_, _, _| {
            false
        });
        assert!(loose.effective[id_of(&table, "api")].contains(EffectKind::Alloc));
        let strict = EffectGraph::build(
            &table,
            &fields,
            &|_, _| false,
            &|_, callee: &str| !callee.contains("/src/bin/"),
            &|_, _, _| false,
        );
        assert!(!strict.effective[id_of(&table, "api")].contains(EffectKind::Alloc));
        // The pruned call is now an unknown callee, not silently clean.
        assert!(strict.effective[id_of(&table, "api")].contains(EffectKind::UnknownCallee));
    }

    #[test]
    fn lane_divergent_seeds_and_propagates() {
        let (parsed, paths) = parse_all(&[(
            "crates/spice/src/a.rs",
            "pub struct P { pub tau_s: f64 }\n\
             pub fn skewed(p: &P) -> f64 { p.tau_s }\n\
             pub fn upstream(p: &P) -> f64 { skewed(p) }\n",
        )]);
        let (table, g) = graph_of(&paths, &parsed);
        // Reading a skew parameter seeds the effect…
        assert!(g.effective[id_of(&table, "skewed")].contains(EffectKind::LaneDivergent));
        // …and it propagates over the call graph with a renderable chain.
        assert!(g.effective[id_of(&table, "upstream")].contains(EffectKind::LaneDivergent));
        let (path, site) = g
            .shortest_chain(id_of(&table, "upstream"), EffectKind::LaneDivergent)
            .unwrap();
        assert_eq!(
            path,
            vec![id_of(&table, "upstream"), id_of(&table, "skewed")]
        );
        assert!(site.what.contains("tau_s"), "{}", site.what);
    }

    #[test]
    fn asserts_are_tracked_separately_from_panics() {
        let (parsed, paths) = parse_all(&[(
            "crates/core/src/a.rs",
            "pub fn guarded(n: usize) { assert!(n > 0); }\npub fn aborts() { panic!(\"no\"); }\n",
        )]);
        let (table, g) = graph_of(&paths, &parsed);
        let guarded = g.effective[id_of(&table, "guarded")];
        assert!(guarded.contains(EffectKind::Assert));
        assert!(!guarded.contains(EffectKind::Panic));
        assert!(g.effective[id_of(&table, "aborts")].contains(EffectKind::Panic));
    }

    #[test]
    fn unordered_iteration_and_float_order() {
        let src = "use std::collections::HashMap;\n\
                   pub fn sums(m: &HashMap<u32, f64>) -> f64 {\n\
                       let mut acc = 0.0;\n\
                       for (_, v) in m.iter() {\n\
                           acc += v;\n\
                       }\n\
                       acc\n\
                   }\n\
                   pub fn collects(m: &HashMap<u32, f64>) -> f64 { m.values().sum() }\n\
                   pub fn ordered(v: &[f64]) -> f64 { v.iter().sum() }\n\
                   pub fn counts(m: &HashMap<u32, f64>) -> u64 {\n\
                       let mut n = 0;\n\
                       for _ in m.keys() {\n\
                           n += 1;\n\
                       }\n\
                       n\n\
                   }\n";
        let (parsed, paths) = parse_all(&[("crates/core/src/a.rs", src)]);
        let (table, g) = graph_of(&paths, &parsed);
        let sums = g.effective[id_of(&table, "sums")];
        assert!(sums.contains(EffectKind::UnorderedIter), "{sums:?}");
        assert!(sums.contains(EffectKind::FloatOrder), "{sums:?}");
        let collects = g.effective[id_of(&table, "collects")];
        assert!(collects.contains(EffectKind::UnorderedIter));
        assert!(collects.contains(EffectKind::FloatOrder));
        let ordered = g.effective[id_of(&table, "ordered")];
        assert!(!ordered.contains(EffectKind::UnorderedIter));
        assert!(!ordered.contains(EffectKind::FloatOrder));
        // Integer-literal increments are commutative: unordered-iter yes,
        // float-order no.
        let counts = g.effective[id_of(&table, "counts")];
        assert!(counts.contains(EffectKind::UnorderedIter));
        assert!(!counts.contains(EffectKind::FloatOrder));
    }

    #[test]
    fn site_allow_prunes_effective_but_not_raw() {
        let (parsed, paths) = parse_all(&[(
            "crates/core/src/a.rs",
            "pub fn f() { let _v = vec![0.0]; }\n",
        )]);
        let table = SymbolTable::build(paths.iter().copied().zip(parsed.iter()), &|_, _| false);
        let fields = HashSet::new();
        let g = EffectGraph::build(
            &table,
            &fields,
            &|_, _| false,
            &|_, _| true,
            &|_, line, rule| rule == "hot-path-certify" && line == 1,
        );
        let f = id_of(&table, "f");
        assert!(!g.effective[f].contains(EffectKind::Alloc));
        assert!(g.raw[f].contains(EffectKind::Alloc));
    }

    #[test]
    fn edge_allow_prunes_callee_effects_through_that_edge_only() {
        let src = "pub fn excused() { fallback(); }\n\
                   pub fn blamed() { fallback(); }\n\
                   fn fallback() { let _v = vec![0.0]; }\n";
        let (parsed, paths) = parse_all(&[("crates/core/src/a.rs", src)]);
        let table = SymbolTable::build(paths.iter().copied().zip(parsed.iter()), &|_, _| false);
        let fields = HashSet::new();
        // The call inside `excused` sits on line 1.
        let g = EffectGraph::build(
            &table,
            &fields,
            &|_, _| false,
            &|_, _| true,
            &|_, line, rule| rule == "hot-path-certify" && line == 1,
        );
        assert!(!g.effective[id_of(&table, "excused")].contains(EffectKind::Alloc));
        assert!(g.effective[id_of(&table, "blamed")].contains(EffectKind::Alloc));
        assert!(g.effective[id_of(&table, "fallback")].contains(EffectKind::Alloc));
        // Raw keeps the truth everywhere.
        assert!(g.raw[id_of(&table, "excused")].contains(EffectKind::Alloc));
    }

    #[test]
    fn summaries_are_stable_across_rebuilds() {
        let src =
            "pub fn a() { b(); c(); }\nfn b() { a(); }\nfn c() { let _x = String::from(\"s\"); }\n";
        let (parsed, paths) = parse_all(&[("crates/core/src/a.rs", src)]);
        let table = SymbolTable::build(paths.iter().copied().zip(parsed.iter()), &|_, _| false);
        let fields = HashSet::new();
        let g1 = EffectGraph::build(&table, &fields, &|_, _| false, &|_, _| true, &|_, _, _| {
            false
        });
        let g2 = EffectGraph::build(&table, &fields, &|_, _| false, &|_, _| true, &|_, _, _| {
            false
        });
        assert_eq!(g1.effective, g2.effective);
        assert_eq!(g1.raw, g2.raw);
        assert_eq!(g1.sccs, g2.sccs);
    }

    #[test]
    fn clock_lock_and_io_sites() {
        let src =
            "pub fn timed() -> u64 { let t = Instant::now(); t.elapsed().as_nanos() as u64 }\n\
                   pub fn guarded(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }\n\
                   pub fn logs() { println!(\"x\"); }\n";
        let (parsed, paths) = parse_all(&[("crates/core/src/a.rs", src)]);
        let (table, g) = graph_of(&paths, &parsed);
        assert!(g.effective[id_of(&table, "timed")].contains(EffectKind::Clock));
        let guarded = g.effective[id_of(&table, "guarded")];
        assert!(guarded.contains(EffectKind::Lock));
        assert!(guarded.contains(EffectKind::Panic), "the unwrap");
        assert!(g.effective[id_of(&table, "logs")].contains(EffectKind::Io));
    }

    #[test]
    fn test_functions_contribute_nothing() {
        let (parsed, paths) = parse_all(&[(
            "crates/core/src/a.rs",
            "pub fn api() { helper(); }\nfn helper() {}\nfn helper_test() { let _v = vec![1]; }\n",
        )]);
        // Mark line 3 (helper_test) as test code.
        let table = SymbolTable::build(paths.iter().copied().zip(parsed.iter()), &|_, line| {
            line == 3
        });
        let fields = HashSet::new();
        let g = EffectGraph::build(&table, &fields, &|_, _| false, &|_, _| true, &|_, _, _| {
            false
        });
        assert!(g.effective[id_of(&table, "api")].is_empty());
    }
}
