//! Workspace symbol table: every fn/method defined across the parsed
//! workspace, indexed by name for the effect graph's conservative call
//! edges.
//!
//! Definitions borrow the per-file ASTs, so the table is built once per
//! run (cheap: one vector push per fn) and rules can walk bodies
//! without cloning them.

use crate::ast::{File, FnItem, Item, ItemKind};
use std::collections::HashMap;

/// One function or method definition. `container` is the impl
/// self-type or enclosing trait name for methods, empty for free
/// functions.
#[derive(Debug, Clone, Copy)]
pub struct FnDef<'a> {
    pub file: &'a str,
    pub line: u32,
    pub container: &'a str,
    pub is_pub: bool,
    pub item: &'a FnItem,
    /// Index into [`SymbolTable::defs`] — stable id used by the call
    /// graph.
    pub id: usize,
    /// True when the definition sits inside a `#[cfg(test)]` region.
    pub in_tests: bool,
}

impl FnDef<'_> {
    pub fn name(&self) -> &str {
        &self.item.name
    }

    /// `Container::name` for methods, bare `name` for free functions.
    pub fn qualified_name(&self) -> String {
        if self.container.is_empty() {
            self.item.name.clone()
        } else {
            format!("{}::{}", self.container, self.item.name)
        }
    }
}

/// All function definitions in the workspace plus a name index.
#[derive(Debug, Default)]
pub struct SymbolTable<'a> {
    pub defs: Vec<FnDef<'a>>,
    /// name -> ids of every fn/method with that name. Trait impls and
    /// inherent methods collapse together: resolution is conservative.
    by_name: HashMap<&'a str, Vec<usize>>,
}

impl<'a> SymbolTable<'a> {
    /// Builds the table from parsed files. `in_tests` decides, per
    /// file and line, whether a definition is inside `#[cfg(test)]`.
    pub fn build(
        files: impl Iterator<Item = (&'a str, &'a File)>,
        in_tests: &dyn Fn(&str, u32) -> bool,
    ) -> Self {
        let mut table = SymbolTable::default();
        for (path, file) in files {
            for item in &file.items {
                table.collect_item(path, item, "", in_tests);
            }
        }
        table
    }

    fn collect_item(
        &mut self,
        path: &'a str,
        item: &'a Item,
        container: &'a str,
        in_tests: &dyn Fn(&str, u32) -> bool,
    ) {
        match &item.kind {
            ItemKind::Fn(f) => {
                let id = self.defs.len();
                self.defs.push(FnDef {
                    file: path,
                    line: item.line,
                    container,
                    is_pub: f.is_pub,
                    item: f,
                    id,
                    in_tests: in_tests(path, item.line),
                });
                self.by_name.entry(&f.name).or_default().push(id);
            }
            ItemKind::Impl(ib) => {
                for sub in &ib.items {
                    self.collect_item(path, sub, &ib.self_ty, in_tests);
                }
            }
            ItemKind::Trait { name, items } => {
                for sub in items {
                    self.collect_item(path, sub, name, in_tests);
                }
            }
            ItemKind::Mod { items, .. } => {
                for sub in items {
                    self.collect_item(path, sub, container, in_tests);
                }
            }
            _ => {}
        }
    }

    /// All definitions sharing `name` (conservative over-approximation
    /// of what a call to `name` might reach).
    pub fn resolve(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// [`SymbolTable::resolve`] refined by the qualifying path segment
    /// of a `qual::name(…)` call:
    ///
    /// - `Type::name` (UpperCamelCase) keeps only methods whose impl or
    ///   trait container is `Type` — containers are parsed reliably, so
    ///   an empty result means the callee is external (std/vendored)
    ///   and produces no edges;
    /// - `crate`/`self`/`super` keep the caller's own crate;
    /// - a lowercase qualifier keeps defs in the matching workspace
    ///   crate (`shc_fault`/`fault` → `crates/fault/`) or the matching
    ///   module file (`clock::ticks` → `…/clock.rs`). Module aliases
    ///   and re-exports make lowercase negatives unreliable, so when
    ///   the filter would discard every candidate it falls back to the
    ///   unfiltered set instead of under-approximating.
    ///
    /// Unqualified calls (`name(…)`) resolve by name alone.
    pub fn resolve_qualified(&self, qualifier: &str, name: &str, caller_file: &str) -> Vec<usize> {
        let all = self.resolve(name);
        if qualifier.is_empty() {
            return all.to_vec();
        }
        if qualifier.starts_with(|c: char| c.is_ascii_uppercase()) {
            return all
                .iter()
                .copied()
                .filter(|&id| self.defs[id].container == qualifier)
                .collect();
        }
        let target_crate = match qualifier {
            "crate" | "self" | "super" => path_crate(caller_file),
            q => Some(q.strip_prefix("shc_").unwrap_or(q)),
        };
        let module_file = format!("/{qualifier}.rs");
        let module_dir = format!("/{qualifier}/mod.rs");
        let filtered: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&id| {
                let f = self.defs[id].file;
                path_crate(f) == target_crate
                    || f.ends_with(&module_file)
                    || f.ends_with(&module_dir)
            })
            .collect();
        if filtered.is_empty() {
            all.to_vec()
        } else {
            filtered
        }
    }

    /// [`SymbolTable::resolve`] restricted to method definitions (impl or
    /// trait members). A `recv.name(…)` call can only dispatch to a
    /// method — never to a free function that happens to share the name —
    /// so free-fn candidates are soundly dropped.
    pub fn resolve_method(&self, name: &str) -> Vec<usize> {
        self.resolve(name)
            .iter()
            .copied()
            .filter(|&id| !self.defs[id].container.is_empty())
            .collect()
    }
}

/// Crate directory name of a `crates/<name>/…` path; `None` for the
/// top-level `src/` tree.
fn path_crate(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}
