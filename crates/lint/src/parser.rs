//! Tolerant recursive-descent parser over the [`crate::lexer`] token
//! stream, producing the per-file AST in [`crate::ast`].
//!
//! Design constraints, in order:
//!
//! 1. **Never give up.** The linter runs on fixtures rustc would reject;
//!    an unexpected token becomes a [`Diagnostic`] plus single-token
//!    recovery, not an abort.
//! 2. **Zero diagnostics on the real workspace.** The whole-workspace
//!    parse test pins this, so every construct the codebase actually
//!    uses must parse cleanly.
//! 3. **Skim what rules don't need.** Types, patterns, generics, where
//!    clauses, and macro bodies are consumed by bracket balancing and
//!    kept only as raw text; expressions and function/struct/impl
//!    structure are modelled for real.
//!
//! The classic Rust ambiguities handled here: struct literals are
//! forbidden in condition position (`if x == S { … }` — the `{` opens
//! the block, not a literal), `>>` closes two generic angles, closures
//! are recognized from `|`/`move` in prefix position, and tuple-field
//! chains like `x.0.1` are split out of the float-looking `0.1` token.

use crate::ast::{
    Arm, Block, Diagnostic, Expr, ExprKind, FieldDef, File, FnItem, ImplBlock, Item, ItemKind,
    Param, Span, Stmt, StructItem,
};
use crate::lexer::{is_float_literal, Token, TokenKind};

/// Parses one file. `tokens` must come from `lex(src)` on the same
/// source.
pub fn parse_file(src: &str, tokens: &[Token<'_>]) -> File {
    let code: Vec<Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).copied().collect();
    let docs: Vec<(u32, String)> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::DocComment)
        .map(|t| (t.line, strip_doc(t.text)))
        .collect();
    let mut p = Parser {
        toks: code,
        pos: 0,
        diags: Vec::new(),
        docs,
        src_len: src.len(),
    };
    let items = p.parse_items(true);
    File {
        items,
        diagnostics: p.diags,
    }
}

/// Strips the `///` / `//!` prefix and at most one following space.
fn strip_doc(text: &str) -> String {
    let body = text
        .trim_start_matches('/')
        .trim_start_matches('!')
        .strip_prefix(' ')
        .unwrap_or_else(|| text.trim_start_matches('/').trim_start_matches('!'));
    body.to_string()
}

/// Keywords that begin an item in statement position.
const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "impl",
    "trait",
    "mod",
    "use",
    "const",
    "static",
    "macro_rules",
    "extern",
    "union",
];

struct Parser<'a> {
    toks: Vec<Token<'a>>,
    pos: usize,
    diags: Vec<Diagnostic>,
    /// `(line, text)` of every doc comment, in file order.
    docs: Vec<(u32, String)>,
    src_len: usize,
}

impl<'a> Parser<'a> {
    // ----- token plumbing -------------------------------------------------

    fn peek(&self) -> Option<&Token<'a>> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, ahead: usize) -> Option<&Token<'a>> {
        self.toks.get(self.pos + ahead)
    }

    fn text(&self) -> &'a str {
        self.peek().map_or("", |t| t.text)
    }

    fn text_at(&self, ahead: usize) -> &'a str {
        self.peek_at(ahead).map_or("", |t| t.text)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn line(&self) -> u32 {
        self.peek()
            .map_or_else(|| self.toks.last().map_or(1, |t| t.line), |t| t.line)
    }

    /// Byte offset where the *next* node would start.
    fn lo(&self) -> usize {
        self.peek().map_or(self.src_len, |t| t.start)
    }

    /// Span from `lo` to the end of the previously consumed token.
    fn span_from(&self, lo: usize) -> Span {
        let end = if self.pos == 0 {
            lo
        } else {
            self.toks[self.pos - 1].end()
        };
        Span {
            start: lo,
            end: end.max(lo),
        }
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.toks.get(self.pos).copied();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.text() == text {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, text: &str) {
        if !self.eat(text) {
            let got = if self.at_end() {
                "end of file".to_string()
            } else {
                format!("`{}`", self.text())
            };
            self.diag(format!("expected `{text}`, found {got}"));
            // No token is consumed: the caller's recovery loop decides.
        }
    }

    fn diag(&mut self, message: String) {
        let line = self.line();
        self.diags.push(Diagnostic { line, message });
    }

    /// Doc-comment lines directly above `line` (a contiguous run).
    fn docs_above(&self, line: u32) -> Vec<String> {
        let mut run: Vec<String> = Vec::new();
        let mut want = line.saturating_sub(1);
        for (l, text) in self.docs.iter().rev() {
            if *l == want && want > 0 {
                run.push(text.clone());
                want -= 1;
            } else if *l < want {
                break;
            }
        }
        run.reverse();
        run
    }

    // ----- skimming helpers ----------------------------------------------

    /// Skims one balanced `(…)`, `[…]`, or `{…}` group, assuming the
    /// cursor sits on the opener.
    fn skim_group(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match t.text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    self.pos += 1;
                    if depth == 0 {
                        return;
                    }
                    continue;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Skims `#[…]` / `#![…]` attributes.
    fn skim_attrs(&mut self) {
        while self.text() == "#" {
            self.pos += 1;
            self.eat("!");
            if self.text() == "[" {
                self.skim_group();
            }
        }
    }

    /// Skims a generic parameter list `<…>` if present (cursor on `<`).
    fn skim_generics(&mut self) {
        if self.text() != "<" {
            return;
        }
        let mut angle = 0isize;
        while let Some(t) = self.peek() {
            match t.text {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "(" | "[" | "{" => {
                    self.skim_group();
                    continue;
                }
                _ => {}
            }
            self.pos += 1;
            if angle <= 0 {
                return;
            }
        }
    }

    /// Skims tokens until one of `stops` appears at depth 0, balancing
    /// `()[]{}` and `<>`. Returns the raw source-token text, joined.
    fn skim_until(&mut self, stops: &[&str]) -> String {
        let mut parts: Vec<&str> = Vec::new();
        let mut angle = 0isize;
        while let Some(t) = self.peek() {
            if angle <= 0 && stops.contains(&t.text) {
                break;
            }
            match t.text {
                "(" | "[" | "{" => {
                    let from = self.pos;
                    self.skim_group();
                    for tok in &self.toks[from..self.pos] {
                        parts.push(tok.text);
                    }
                    continue;
                }
                ")" | "]" | "}" => break, // unbalanced closer: caller's
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "->" | "=>" => {}
                _ => {}
            }
            parts.push(t.text);
            self.pos += 1;
        }
        parts.join(" ")
    }

    /// Skims a type, stopping at any of `stops` at depth 0.
    fn skim_type(&mut self, stops: &[&str]) -> String {
        self.skim_until(stops)
    }

    /// Skims a pattern up to any of `stops` at depth 0, returning the
    /// single binding identifier when the pattern is a plain binding.
    /// `(name, wildcard, raw)`.
    fn skim_pattern(&mut self, stops: &[&str]) -> (Option<String>, bool, String) {
        let from = self.pos;
        let raw = self.skim_until(stops);
        let toks = &self.toks[from..self.pos];
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && !matches!(t.text, "mut" | "ref" | "_"))
            .map(|t| t.text)
            .collect();
        let structural = toks
            .iter()
            .any(|t| matches!(t.text, "(" | "[" | "{" | "::" | "|" | ".." | "..="));
        let wildcard = idents.is_empty() && toks.iter().any(|t| t.text == "_");
        let name = if !structural && idents.len() == 1 {
            Some(idents[0].to_string())
        } else {
            None
        };
        (name, wildcard, raw)
    }

    // ----- items ----------------------------------------------------------

    /// Parses items until `}` (or end of file when `top` is set).
    fn parse_items(&mut self, top: bool) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if self.at_end() {
                break;
            }
            if self.text() == "}" {
                if top {
                    self.diag("unmatched `}` at item position".to_string());
                    self.pos += 1;
                    continue;
                }
                break;
            }
            items.push(self.parse_item());
        }
        items
    }

    fn parse_item(&mut self) -> Item {
        let lo = self.lo();
        let line = self.line();
        let attr_line = line;
        self.skim_attrs();
        // Only a bare `pub` is public API: `pub(crate)`, `pub(super)`,
        // `pub(self)` and `pub(in path)` stay inside the crate.
        let is_pub = if self.eat("pub") {
            let restricted = self.text() == "(";
            if restricted {
                self.skim_group();
            }
            !restricted
        } else {
            false
        };
        // Function qualifiers.
        let mut saw_extern = false;
        loop {
            match self.text() {
                "const" if self.text_at(1) == "fn" => {
                    self.pos += 1;
                }
                "async" | "default" if matches!(self.text_at(1), "fn" | "unsafe") => {
                    self.pos += 1;
                }
                "unsafe" if matches!(self.text_at(1), "fn" | "extern" | "impl" | "trait") => {
                    self.pos += 1;
                }
                "extern" if self.peek_at(1).is_some_and(|t| t.kind == TokenKind::Str) => {
                    saw_extern = true;
                    self.pos += 2;
                }
                _ => break,
            }
        }
        let kind = match self.text() {
            "fn" => {
                let f = self.parse_fn(is_pub, attr_line);
                ItemKind::Fn(f)
            }
            "struct" => ItemKind::Struct(self.parse_struct(is_pub, attr_line)),
            "enum" => {
                self.pos += 1;
                let name = self.ident_or("");
                self.skim_generics();
                self.skim_until(&["{", ";"]);
                if self.text() == "{" {
                    self.skim_group();
                } else {
                    self.eat(";");
                }
                ItemKind::Enum { name }
            }
            "impl" => ItemKind::Impl(self.parse_impl()),
            "trait" => {
                self.pos += 1;
                let name = self.ident_or("");
                self.skim_generics();
                self.skim_until(&["{", ";"]);
                let items = if self.eat("{") {
                    let items = self.parse_items(false);
                    self.expect("}");
                    items
                } else {
                    self.eat(";");
                    Vec::new()
                };
                ItemKind::Trait { name, items }
            }
            "mod" => {
                self.pos += 1;
                let name = self.ident_or("");
                if self.eat("{") {
                    let items = self.parse_items(false);
                    self.expect("}");
                    ItemKind::Mod { name, items }
                } else {
                    self.eat(";");
                    ItemKind::Mod {
                        name,
                        items: Vec::new(),
                    }
                }
            }
            "use" => {
                self.skim_until(&[";"]);
                self.eat(";");
                ItemKind::Use
            }
            "const" | "static" => {
                let is_const = self.text() == "const";
                self.pos += 1;
                self.eat("mut");
                let name = self.ident_or("");
                self.skim_until(&["=", ";"]);
                let init = if self.eat("=") {
                    let e = self.parse_expr(false);
                    Some(e)
                } else {
                    None
                };
                self.eat(";");
                if is_const {
                    ItemKind::Const { name, init }
                } else {
                    ItemKind::Static { name }
                }
            }
            "type" => {
                self.skim_until(&[";"]);
                self.eat(";");
                ItemKind::TypeAlias
            }
            "macro_rules" => {
                self.pos += 1;
                self.eat("!");
                let name = self.ident_or("");
                let from = self.lo();
                if matches!(self.text(), "(" | "[" | "{") {
                    self.skim_group();
                }
                let raw_span = self.span_from(from);
                ItemKind::MacroItem {
                    name,
                    raw: format!("macro_rules({})", raw_span.end - raw_span.start),
                }
            }
            "extern" if !saw_extern => {
                // `extern crate …;`
                self.skim_until(&[";", "{"]);
                if self.text() == "{" {
                    self.skim_group();
                } else {
                    self.eat(";");
                }
                ItemKind::Other
            }
            "union" => {
                self.skim_until(&["{"]);
                if self.text() == "{" {
                    self.skim_group();
                }
                ItemKind::Other
            }
            "{" if saw_extern => {
                // `extern "C" { … }` block.
                self.skim_group();
                ItemKind::Other
            }
            t if !t.is_empty()
                && self.peek().is_some_and(|tk| tk.kind == TokenKind::Ident)
                && self.text_at(1) == "!" =>
            {
                // Item-position macro invocation: `thread_local! { … }`.
                let name = t.to_string();
                self.pos += 2;
                // Optional macro path continuation (`std::thread_local!`
                // never occurs in item position here, keep it simple).
                let from = self.pos;
                let delim = self.text().to_string();
                if matches!(self.text(), "(" | "[" | "{") {
                    self.skim_group();
                }
                if delim != "{" {
                    self.eat(";");
                }
                let raw = self.toks[from..self.pos]
                    .iter()
                    .map(|t| t.text)
                    .collect::<Vec<_>>()
                    .join(" ");
                ItemKind::MacroItem { name, raw }
            }
            _ => {
                let got = if self.at_end() {
                    "end of file".to_string()
                } else {
                    format!("`{}`", self.text())
                };
                self.diag(format!("unexpected {got} at item position"));
                self.bump();
                ItemKind::Other
            }
        };
        Item {
            span: self.span_from(lo),
            line,
            kind,
        }
    }

    fn ident_or(&mut self, fallback: &str) -> String {
        if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) {
            self.bump()
                .map_or_else(|| fallback.to_string(), |t| t.text.to_string())
        } else {
            fallback.to_string()
        }
    }

    fn parse_fn(&mut self, is_pub: bool, attr_line: u32) -> FnItem {
        self.expect("fn");
        let name = self.ident_or("<anon>");
        self.skim_generics();
        let mut params = Vec::new();
        if self.eat("(") {
            loop {
                if self.text() == ")" || self.at_end() {
                    break;
                }
                self.skim_attrs();
                let pline = self.line();
                let (pname, _wild, raw) = self.skim_pattern(&[":", ",", ")"]);
                let (name, ty) = if self.eat(":") {
                    let ty = self.skim_type(&[",", ")"]);
                    (pname.unwrap_or_default(), ty)
                } else {
                    // `self` receiver of any shape: `&mut self`, `self`.
                    let is_self = raw.split_whitespace().any(|w| w == "self");
                    (
                        if is_self {
                            "self".to_string()
                        } else {
                            pname.unwrap_or_default()
                        },
                        String::new(),
                    )
                };
                params.push(Param {
                    name,
                    ty,
                    line: pline,
                });
                if !self.eat(",") {
                    break;
                }
            }
            self.expect(")");
        }
        let ret = if self.eat("->") {
            Some(self.skim_type(&["{", ";", "where"]))
        } else {
            None
        };
        if self.text() == "where" {
            self.skim_until(&["{", ";"]);
        }
        let body = if self.text() == "{" {
            Some(self.parse_block())
        } else {
            self.eat(";");
            None
        };
        FnItem {
            name,
            is_pub,
            doc: self.docs_above(attr_line),
            params,
            ret,
            body,
        }
    }

    fn parse_struct(&mut self, is_pub: bool, attr_line: u32) -> StructItem {
        self.expect("struct");
        let name = self.ident_or("<anon>");
        let _ = attr_line;
        self.skim_generics();
        if self.text() == "where" {
            self.skim_until(&["{", ";", "("]);
        }
        let mut fields = Vec::new();
        if self.eat("(") {
            // Tuple struct.
            let mut idx = 0usize;
            loop {
                if self.text() == ")" || self.at_end() {
                    break;
                }
                self.skim_attrs();
                let fline = self.line();
                if self.eat("pub") && self.text() == "(" {
                    self.skim_group();
                }
                let ty = self.skim_type(&[",", ")"]);
                fields.push(FieldDef {
                    name: idx.to_string(),
                    ty,
                    doc: Vec::new(),
                    line: fline,
                });
                idx += 1;
                if !self.eat(",") {
                    break;
                }
            }
            self.expect(")");
            if self.text() == "where" {
                self.skim_until(&[";"]);
            }
            self.eat(";");
        } else if self.eat("{") {
            loop {
                if self.text() == "}" || self.at_end() {
                    break;
                }
                let doc_line = self.line();
                self.skim_attrs();
                if self.eat("pub") && self.text() == "(" {
                    self.skim_group();
                }
                let fline = self.line();
                let fname = self.ident_or("");
                self.expect(":");
                let ty = self.skim_type(&[",", "}"]);
                fields.push(FieldDef {
                    name: fname,
                    ty,
                    doc: self.docs_above(doc_line),
                    line: fline,
                });
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("}");
        } else {
            self.eat(";");
        }
        StructItem {
            name,
            is_pub,
            fields,
        }
    }

    fn parse_impl(&mut self) -> ImplBlock {
        self.expect("impl");
        self.skim_generics();
        let first = self.skim_type(&["for", "{", "where"]);
        let (trait_name, self_ty) = if self.eat("for") {
            let ty = self.skim_type(&["{", "where"]);
            (Some(last_path_segment(&first)), last_path_segment(&ty))
        } else {
            (None, last_path_segment(&first))
        };
        if self.text() == "where" {
            self.skim_until(&["{"]);
        }
        self.expect("{");
        let items = self.parse_items(false);
        self.expect("}");
        ImplBlock {
            self_ty,
            trait_name,
            items,
        }
    }

    // ----- statements and blocks -----------------------------------------

    fn parse_block(&mut self) -> Block {
        let lo = self.lo();
        self.expect("{");
        let mut stmts = Vec::new();
        loop {
            if self.text() == "}" || self.at_end() {
                break;
            }
            if self.eat(";") {
                continue; // stray empty statement
            }
            stmts.push(self.parse_stmt());
        }
        self.expect("}");
        Block {
            span: self.span_from(lo),
            stmts,
        }
    }

    fn parse_stmt(&mut self) -> Stmt {
        // Statement attributes (`#[cfg(…)]`, `#[allow(…)]`).
        let attr_start = self.pos;
        self.skim_attrs();
        let had_attrs = self.pos != attr_start;

        let t = self.text();
        if t == "let" {
            return self.parse_let();
        }
        let is_item_kw = ITEM_KEYWORDS.contains(&t)
            || (t == "pub")
            || (t == "unsafe" && matches!(self.text_at(1), "fn" | "impl" | "trait"))
            || (t == "async" && self.text_at(1) == "fn");
        // `const { … }` block expressions and `const` items both start
        // with `const`; items continue with an identifier.
        let is_const_block = t == "const" && self.text_at(1) == "{";
        // `extern` as an item needs `crate`/string/`{`; `union`/`macro_rules`
        // as idents happen in expressions — require the item shape.
        let is_item = is_item_kw
            && !is_const_block
            && match t {
                "macro_rules" => self.text_at(1) == "!",
                "union" => self.peek_at(1).is_some_and(|x| x.kind == TokenKind::Ident),
                _ => true,
            };
        if is_item {
            // Rewind attrs so the item's span covers them.
            self.pos = attr_start;
            return Stmt::Item(self.parse_item());
        }
        let _ = had_attrs;
        let expr = self.parse_expr(false);
        let semi = self.eat(";");
        Stmt::Expr { expr, semi }
    }

    fn parse_let(&mut self) -> Stmt {
        let lo = self.lo();
        let line = self.line();
        self.expect("let");
        let (name, wildcard, _raw) = self.skim_pattern(&["=", ":", ";"]);
        if self.eat(":") {
            self.skim_type(&["=", ";"]);
        }
        let init = if self.eat("=") {
            Some(self.parse_expr(false))
        } else {
            None
        };
        let else_block = if self.eat("else") {
            Some(self.parse_block())
        } else {
            None
        };
        self.eat(";");
        Stmt::Let {
            span: self.span_from(lo),
            line,
            name,
            wildcard,
            init,
            else_block,
        }
    }

    // ----- expressions ----------------------------------------------------

    fn parse_expr(&mut self, no_struct: bool) -> Expr {
        self.expr_bp(0, no_struct)
    }

    fn expr_bp(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        let lo = self.lo();
        let line = self.line();
        let mut lhs = self.parse_prefix(no_struct);

        loop {
            lhs = self.parse_postfix(lhs, lo, line, no_struct);

            let Some(op) = self.peek().map(|t| t.text) else {
                break;
            };
            let Some((l_bp, r_bp, kind)) = infix_binding(op) else {
                break;
            };
            if l_bp < min_bp {
                break;
            }
            self.pos += 1;
            match kind {
                InfixKind::Binary => {
                    let rhs = self.expr_bp(r_bp, no_struct);
                    lhs = Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Binary {
                            op: op.to_string(),
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        },
                    };
                }
                InfixKind::Assign => {
                    let rhs = self.expr_bp(r_bp, no_struct);
                    lhs = Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Assign {
                            op: op.to_string(),
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        },
                    };
                }
                InfixKind::Range => {
                    let hi = if self.starts_expr(no_struct) {
                        Some(Box::new(self.expr_bp(r_bp, no_struct)))
                    } else {
                        None
                    };
                    lhs = Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Range {
                            lo: Some(Box::new(lhs)),
                            hi,
                        },
                    };
                }
                InfixKind::Cast => {
                    self.skim_cast_type();
                    lhs = Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Cast {
                            expr: Box::new(lhs),
                        },
                    };
                }
            }
        }
        lhs
    }

    /// Whether the current token can start an expression (for optional
    /// range ends / return values).
    fn starts_expr(&self, no_struct: bool) -> bool {
        let _ = no_struct;
        let Some(t) = self.peek() else { return false };
        match t.kind {
            TokenKind::Ident => !matches!(t.text, "else" | "in" | "where" | "as"),
            TokenKind::Number | TokenKind::Str | TokenKind::Char | TokenKind::Lifetime => true,
            TokenKind::Punct => {
                matches!(
                    t.text,
                    "(" | "["
                        | "{"
                        | "&"
                        | "&&"
                        | "*"
                        | "-"
                        | "!"
                        | "|"
                        | "||"
                        | ".."
                        | "..="
                        | "<"
                )
            }
            _ => false,
        }
    }

    /// Type position after `as`: `usize`, `*const T`, `&str`. Stops
    /// before any operator that continues the surrounding expression.
    fn skim_cast_type(&mut self) {
        loop {
            match self.text() {
                "*" if matches!(self.text_at(1), "const" | "mut") => {
                    self.pos += 2;
                }
                "&" | "&&" | "'" => {
                    self.pos += 1;
                }
                "dyn" | "mut" | "const" => {
                    self.pos += 1;
                }
                "fn" => {
                    // Function-pointer type: `fn(&T) -> f64`.
                    self.pos += 1;
                    if self.text() == "(" {
                        self.skim_group();
                    }
                    if self.eat("->") {
                        self.skim_cast_type();
                    }
                    return;
                }
                t if self.peek().is_some_and(|x| {
                    x.kind == TokenKind::Ident || x.kind == TokenKind::Lifetime
                }) =>
                {
                    let _ = t;
                    self.pos += 1;
                    // Path continuation and generics.
                    loop {
                        if self.text() == "::" {
                            self.pos += 1;
                            if self.peek().is_some_and(|x| x.kind == TokenKind::Ident) {
                                self.pos += 1;
                                continue;
                            }
                        }
                        if self.text() == "<" {
                            self.skim_generics();
                        }
                        break;
                    }
                    return;
                }
                "(" | "[" => {
                    self.skim_group();
                    return;
                }
                _ => return,
            }
        }
    }

    fn parse_prefix(&mut self, no_struct: bool) -> Expr {
        let lo = self.lo();
        let line = self.line();
        let Some(t) = self.peek().copied() else {
            self.diag("expected expression, found end of file".to_string());
            return Expr {
                span: Span { start: lo, end: lo },
                line,
                kind: ExprKind::Other,
            };
        };
        let mk = |p: &Parser<'a>, kind: ExprKind| Expr {
            span: p.span_from(lo),
            line,
            kind,
        };
        match t.kind {
            TokenKind::Number => {
                self.pos += 1;
                mk(
                    self,
                    ExprKind::Lit {
                        text: t.text.to_string(),
                        is_float: is_float_literal(t.text),
                    },
                )
            }
            TokenKind::Str | TokenKind::Char => {
                self.pos += 1;
                mk(self, ExprKind::StrLit)
            }
            TokenKind::Lifetime => {
                // Labeled loop/block: `'outer: loop { … }`.
                self.pos += 1;
                if self.eat(":") {
                    return self.parse_prefix(no_struct);
                }
                mk(self, ExprKind::Other)
            }
            TokenKind::Ident => self.parse_ident_prefix(t.text, lo, line, no_struct),
            TokenKind::Punct => self.parse_punct_prefix(t.text, lo, line, no_struct),
            _ => {
                self.pos += 1;
                mk(self, ExprKind::Other)
            }
        }
    }

    fn parse_ident_prefix(&mut self, kw: &str, lo: usize, line: u32, no_struct: bool) -> Expr {
        let mk = |p: &Parser<'a>, kind: ExprKind| Expr {
            span: p.span_from(lo),
            line,
            kind,
        };
        match kw {
            "if" => {
                self.pos += 1;
                let cond = self.parse_condition();
                let then = self.parse_block();
                let else_ = if self.eat("else") {
                    Some(Box::new(if self.text() == "if" {
                        self.parse_prefix(false)
                    } else {
                        let b = self.parse_block();
                        Expr {
                            span: b.span,
                            line: 0,
                            kind: ExprKind::Block(b),
                        }
                    }))
                } else {
                    None
                };
                mk(
                    self,
                    ExprKind::If {
                        cond: Box::new(cond),
                        then,
                        else_,
                    },
                )
            }
            "while" => {
                self.pos += 1;
                let cond = self.parse_condition();
                let body = self.parse_block();
                mk(
                    self,
                    ExprKind::While {
                        cond: Box::new(cond),
                        body,
                    },
                )
            }
            "loop" => {
                self.pos += 1;
                let body = self.parse_block();
                mk(self, ExprKind::Loop { body })
            }
            "for" => {
                self.pos += 1;
                self.skim_pattern(&["in"]);
                self.expect("in");
                let iter = self.parse_expr(true);
                let body = self.parse_block();
                mk(
                    self,
                    ExprKind::For {
                        iter: Box::new(iter),
                        body,
                    },
                )
            }
            "match" => {
                self.pos += 1;
                let scrutinee = self.parse_expr(true);
                self.expect("{");
                let mut arms = Vec::new();
                loop {
                    if self.text() == "}" || self.at_end() {
                        break;
                    }
                    self.skim_attrs();
                    self.skim_pattern(&["=>", "if"]);
                    let guard = if self.eat("if") {
                        let g = self.parse_expr(true);
                        Some(g)
                    } else {
                        None
                    };
                    self.expect("=>");
                    let body = self.parse_expr(false);
                    self.eat(",");
                    arms.push(Arm { guard, body });
                }
                self.expect("}");
                mk(
                    self,
                    ExprKind::Match {
                        scrutinee: Box::new(scrutinee),
                        arms,
                    },
                )
            }
            "unsafe" => {
                self.pos += 1;
                let b = self.parse_block();
                mk(self, ExprKind::Block(b))
            }
            "const" if self.text_at(1) == "{" => {
                self.pos += 1;
                let b = self.parse_block();
                mk(self, ExprKind::Block(b))
            }
            "move" => {
                self.pos += 1;
                self.parse_closure(lo, line)
            }
            "return" => {
                self.pos += 1;
                let value = if self.starts_expr(no_struct) {
                    Some(Box::new(self.expr_bp(2, no_struct)))
                } else {
                    None
                };
                mk(self, ExprKind::Return { value })
            }
            "break" => {
                self.pos += 1;
                if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                    self.pos += 1;
                }
                let value = if self.starts_expr(no_struct) {
                    Some(Box::new(self.expr_bp(2, no_struct)))
                } else {
                    None
                };
                mk(self, ExprKind::Break { value })
            }
            "continue" => {
                self.pos += 1;
                if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                    self.pos += 1;
                }
                mk(self, ExprKind::Continue)
            }
            "_" => {
                self.pos += 1;
                mk(self, ExprKind::Other)
            }
            _ => self.parse_path_expr(lo, line, no_struct),
        }
    }

    /// `if`/`while` condition: struct literals forbidden; handles
    /// `let`-pattern conditions by parsing the scrutinee expression.
    fn parse_condition(&mut self) -> Expr {
        if self.eat("let") {
            self.skim_pattern(&["="]);
            self.expect("=");
        }
        self.parse_expr(true)
    }

    fn parse_path_expr(&mut self, lo: usize, line: u32, no_struct: bool) -> Expr {
        let mut segments: Vec<String> = Vec::new();
        segments.push(self.ident_or("<err>"));
        loop {
            if self.text() == "::" {
                match self.text_at(1) {
                    "<" => {
                        self.pos += 1; // `::`
                        self.skim_generics();
                        continue;
                    }
                    _ if self.peek_at(1).is_some_and(|t| t.kind == TokenKind::Ident) => {
                        self.pos += 1;
                        segments.push(self.ident_or("<err>"));
                        continue;
                    }
                    _ => break,
                }
            }
            break;
        }
        // Macro call.
        if self.text() == "!" && matches!(self.text_at(1), "(" | "[" | "{") {
            self.pos += 1;
            self.skim_group();
            return Expr {
                span: self.span_from(lo),
                line,
                kind: ExprKind::MacroCall {
                    name: segments.pop().unwrap_or_default(),
                },
            };
        }
        // Struct literal.
        if self.text() == "{" && !no_struct {
            self.pos += 1;
            let mut fields: Vec<(String, Option<Expr>)> = Vec::new();
            let mut base = None;
            loop {
                if self.text() == "}" || self.at_end() {
                    break;
                }
                self.skim_attrs();
                if self.eat("..") {
                    base = Some(Box::new(self.parse_expr(false)));
                    break;
                }
                let fname = self.ident_or("<err>");
                if self.eat(":") {
                    let v = self.parse_expr(false);
                    fields.push((fname, Some(v)));
                } else {
                    fields.push((fname, None));
                }
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("}");
            return Expr {
                span: self.span_from(lo),
                line,
                kind: ExprKind::StructLit {
                    path: segments,
                    fields,
                    base,
                },
            };
        }
        Expr {
            span: self.span_from(lo),
            line,
            kind: ExprKind::Path { segments },
        }
    }

    fn parse_punct_prefix(&mut self, op: &str, lo: usize, line: u32, no_struct: bool) -> Expr {
        let mk = |p: &Parser<'a>, kind: ExprKind| Expr {
            span: p.span_from(lo),
            line,
            kind,
        };
        match op {
            "(" => {
                self.pos += 1;
                if self.eat(")") {
                    return mk(self, ExprKind::Tuple { elems: Vec::new() });
                }
                let first = self.parse_expr(false);
                if self.eat(")") {
                    return mk(
                        self,
                        ExprKind::Paren {
                            expr: Box::new(first),
                        },
                    );
                }
                let mut elems = vec![first];
                while self.eat(",") {
                    if self.text() == ")" {
                        break;
                    }
                    elems.push(self.parse_expr(false));
                }
                self.expect(")");
                mk(self, ExprKind::Tuple { elems })
            }
            "[" => {
                self.pos += 1;
                if self.eat("]") {
                    return mk(self, ExprKind::Array { elems: Vec::new() });
                }
                let first = self.parse_expr(false);
                if self.eat(";") {
                    let len = self.parse_expr(false);
                    self.expect("]");
                    return mk(
                        self,
                        ExprKind::Repeat {
                            elem: Box::new(first),
                            len: Box::new(len),
                        },
                    );
                }
                let mut elems = vec![first];
                while self.eat(",") {
                    if self.text() == "]" {
                        break;
                    }
                    elems.push(self.parse_expr(false));
                }
                self.expect("]");
                mk(self, ExprKind::Array { elems })
            }
            "{" => {
                let b = self.parse_block();
                mk(self, ExprKind::Block(b))
            }
            "&" | "&&" => {
                self.pos += 1;
                self.eat("mut");
                let inner = if op == "&&" {
                    // Two nested refs share the second's prefix parse.
                    self.eat("mut");
                    let e = self.expr_bp(26, no_struct);
                    Expr {
                        span: e.span,
                        line,
                        kind: ExprKind::Ref { expr: Box::new(e) },
                    }
                } else {
                    self.expr_bp(26, no_struct)
                };
                mk(
                    self,
                    ExprKind::Ref {
                        expr: Box::new(inner),
                    },
                )
            }
            "*" | "-" | "!" => {
                self.pos += 1;
                let e = self.expr_bp(26, no_struct);
                mk(
                    self,
                    ExprKind::Unary {
                        op: op.to_string(),
                        expr: Box::new(e),
                    },
                )
            }
            "|" | "||" => self.parse_closure(lo, line),
            ".." | "..=" => {
                self.pos += 1;
                let hi = if self.starts_expr(no_struct) {
                    Some(Box::new(self.expr_bp(5, no_struct)))
                } else {
                    None
                };
                mk(self, ExprKind::Range { lo: None, hi })
            }
            "<" => {
                // Qualified path root: `<Foo as Bar>::baz(…)`.
                self.skim_generics();
                if self.eat("::") {
                    return self.parse_path_expr(lo, line, no_struct);
                }
                mk(self, ExprKind::Other)
            }
            _ => {
                self.diag(format!("unexpected `{op}` in expression position"));
                self.pos += 1;
                mk(self, ExprKind::Other)
            }
        }
    }

    /// Closure starting at `|`, `||`, or after `move`.
    fn parse_closure(&mut self, lo: usize, line: u32) -> Expr {
        if self.eat("||") {
            // no params
        } else {
            self.expect("|");
            self.skim_until(&["|"]);
            self.expect("|");
        }
        let body = if self.eat("->") {
            self.skim_type(&["{"]);
            let b = self.parse_block();
            Expr {
                span: b.span,
                line,
                kind: ExprKind::Block(b),
            }
        } else {
            self.expr_bp(2, false)
        };
        Expr {
            span: self.span_from(lo),
            line,
            kind: ExprKind::Closure {
                body: Box::new(body),
            },
        }
    }

    fn parse_postfix(&mut self, mut lhs: Expr, lo: usize, line: u32, no_struct: bool) -> Expr {
        let _ = no_struct;
        loop {
            match self.text() {
                "." => {
                    let Some(next) = self.peek_at(1).copied() else {
                        break;
                    };
                    match next.kind {
                        TokenKind::Ident => {
                            self.pos += 2;
                            let name = next.text.to_string();
                            if self.text() == "::" && self.text_at(1) == "<" {
                                self.pos += 1;
                                self.skim_generics();
                            }
                            if self.eat("(") {
                                let args = self.parse_call_args();
                                lhs = Expr {
                                    span: self.span_from(lo),
                                    line,
                                    kind: ExprKind::MethodCall {
                                        recv: Box::new(lhs),
                                        method: name,
                                        args,
                                    },
                                };
                            } else {
                                lhs = Expr {
                                    span: self.span_from(lo),
                                    line,
                                    kind: ExprKind::Field {
                                        base: Box::new(lhs),
                                        name,
                                    },
                                };
                            }
                        }
                        TokenKind::Number => {
                            // Tuple indexing; `x.0.1` lexes the index pair
                            // as the float `0.1`, so split on dots.
                            self.pos += 2;
                            for part in next.text.split('.') {
                                lhs = Expr {
                                    span: self.span_from(lo),
                                    line,
                                    kind: ExprKind::Field {
                                        base: Box::new(lhs),
                                        name: part.to_string(),
                                    },
                                };
                            }
                        }
                        _ => break,
                    }
                }
                "?" => {
                    self.pos += 1;
                    lhs = Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Try {
                            expr: Box::new(lhs),
                        },
                    };
                }
                "(" => {
                    self.pos += 1;
                    let args = self.parse_call_args();
                    lhs = Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Call {
                            callee: Box::new(lhs),
                            args,
                        },
                    };
                }
                "[" => {
                    self.pos += 1;
                    let index = self.parse_expr(false);
                    self.expect("]");
                    lhs = Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Index {
                            base: Box::new(lhs),
                            index: Box::new(index),
                        },
                    };
                }
                _ => break,
            }
        }
        lhs
    }

    /// Call arguments after the opening `(`; consumes the closing `)`.
    fn parse_call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        loop {
            if self.text() == ")" || self.at_end() {
                break;
            }
            args.push(self.parse_expr(false));
            if !self.eat(",") {
                break;
            }
        }
        self.expect(")");
        args
    }
}

enum InfixKind {
    Binary,
    Assign,
    Range,
    Cast,
}

/// `(left bp, right bp, kind)` for infix operators. Left < right means
/// left-associative.
fn infix_binding(op: &str) -> Option<(u8, u8, InfixKind)> {
    Some(match op {
        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => {
            (3, 2, InfixKind::Assign)
        }
        ".." | "..=" => (5, 5, InfixKind::Range),
        "||" => (6, 7, InfixKind::Binary),
        "&&" => (8, 9, InfixKind::Binary),
        "==" | "!=" | "<" | ">" | "<=" | ">=" => (10, 11, InfixKind::Binary),
        "|" => (12, 13, InfixKind::Binary),
        "^" => (14, 15, InfixKind::Binary),
        "&" => (16, 17, InfixKind::Binary),
        "<<" | ">>" => (18, 19, InfixKind::Binary),
        "+" | "-" => (20, 21, InfixKind::Binary),
        "*" | "/" | "%" => (22, 23, InfixKind::Binary),
        "as" => (24, 25, InfixKind::Cast),
        _ => return None,
    })
}

/// Last identifier at angle-depth 0 of a skimmed type string — the name
/// the call graph and impl blocks key on.
fn last_path_segment(skimmed: &str) -> String {
    let mut angle = 0isize;
    let mut last = "";
    for word in skimmed.split_whitespace() {
        match word {
            "<" => angle += 1,
            "<<" => angle += 2,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            w if angle <= 0
                && w.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && w.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                && !matches!(w, "dyn" | "mut" | "const" | "impl" | "where" | "for" | "as") =>
            {
                last = w;
            }
            _ => {}
        }
    }
    last.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;
    use crate::lexer::lex;

    fn parse(src: &str) -> File {
        parse_file(src, &lex(src))
    }

    fn assert_clean(src: &str) -> File {
        let f = parse(src);
        assert!(
            f.diagnostics.is_empty(),
            "diagnostics: {:#?}",
            f.diagnostics
        );
        f
    }

    #[test]
    fn fn_item_with_params_ret_and_doc() {
        let f = assert_clean(
            "/// Adds.\n/// unit(a): s\npub fn add(a: f64, b: &mut Vec<f64>) -> f64 { a + b[0] }\n",
        );
        let ItemKind::Fn(fi) = &f.items[0].kind else {
            panic!("not a fn: {:?}", f.items[0]);
        };
        assert_eq!(fi.name, "add");
        assert!(fi.is_pub);
        assert_eq!(fi.doc, vec!["Adds.", "unit(a): s"]);
        assert_eq!(fi.params.len(), 2);
        assert_eq!(fi.params[0].name, "a");
        assert_eq!(fi.params[1].name, "b");
        assert_eq!(fi.ret.as_deref(), Some("f64"));
        assert!(fi.body.is_some());
    }

    #[test]
    fn struct_fields_carry_docs_and_lines() {
        let f = assert_clean(
            "pub struct P {\n    /// unit: s\n    pub tau_s: f64,\n    pub n: usize,\n}\n",
        );
        let ItemKind::Struct(s) = &f.items[0].kind else {
            panic!();
        };
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "tau_s");
        assert_eq!(s.fields[0].doc, vec!["unit: s"]);
        assert_eq!(s.fields[0].line, 3);
    }

    #[test]
    fn impl_blocks_resolve_self_ty_and_trait() {
        let f = assert_clean(
            "impl Matrix { fn rows(&self) -> usize { self.n } }\nimpl std::fmt::Display for Matrix { }\n",
        );
        let ItemKind::Impl(a) = &f.items[0].kind else {
            panic!()
        };
        assert_eq!(a.self_ty, "Matrix");
        assert!(a.trait_name.is_none());
        let ItemKind::Impl(b) = &f.items[1].kind else {
            panic!()
        };
        assert_eq!(b.self_ty, "Matrix");
        assert_eq!(b.trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn condition_position_rejects_struct_literals() {
        let f = assert_clean("fn f(x: S) { if x == S { } { g(); } }");
        // `S { }` must NOT be a struct literal: the first block is the
        // `if` body, the second a trailing block statement.
        let ItemKind::Fn(fi) = &f.items[0].kind else {
            panic!()
        };
        let body = fi.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 2);
    }

    #[test]
    fn closures_ranges_and_method_chains() {
        assert_clean(
            "fn f(xs: &[f64]) -> f64 {\n    (0..xs.len()).map(|i| xs[i] * 2.0).fold(0.0, |a, b| a + b)\n}\n",
        );
        assert_clean("fn g() { let h = move || 3.0; let _ = h(); }");
        assert_clean("fn h(v: Vec<Vec<f64>>) -> usize { v[0].len() }");
    }

    #[test]
    fn spans_round_trip_to_source() {
        let src = "fn f(a: f64) -> f64 {\n    let y = a.abs().max(1.0);\n    if y > 2.0 { y } else { a }\n}\n";
        let f = assert_clean(src);
        for span in ast::collect_spans(&f) {
            let slice = span.slice(src);
            assert!(!slice.is_empty(), "empty span {span:?}");
            assert_eq!(slice, slice.trim(), "span not token-tight: {slice:?}");
        }
    }

    #[test]
    fn tuple_field_chain_splits_float_token() {
        let f = assert_clean("fn f(p: ((f64, f64), f64)) -> f64 { p.0.1 }");
        let ItemKind::Fn(fi) = &f.items[0].kind else {
            panic!()
        };
        let body = fi.body.as_ref().unwrap();
        let Stmt::Expr { expr, .. } = &body.stmts[0] else {
            panic!()
        };
        let ExprKind::Field { base, name } = &expr.kind else {
            panic!("outer not a field: {expr:?}");
        };
        assert_eq!(name, "1");
        assert!(matches!(&base.kind, ExprKind::Field { name, .. } if name == "0"));
    }

    #[test]
    fn item_macros_keep_raw_tokens() {
        let f = assert_clean("thread_local! { static FOO: Cell<u64> = Cell::new(0); }\n");
        let ItemKind::MacroItem { name, raw } = &f.items[0].kind else {
            panic!()
        };
        assert_eq!(name, "thread_local");
        assert!(raw.contains("static FOO"));
    }

    #[test]
    fn recovery_emits_diagnostics_but_does_not_hang() {
        let f = parse("fn f( { ] } ) garbage ?? !!");
        assert!(!f.diagnostics.is_empty());
    }

    #[test]
    fn let_else_match_guards_and_labels() {
        assert_clean(
            "fn f(v: Option<u32>) -> u32 {\n    let Some(x) = v else { return 0; };\n    match x { n if n > 3 => n, _ => 0 }\n}\n",
        );
        assert_clean("fn g() { 'outer: for i in 0..3 { if i == 1 { break 'outer; } } }");
    }
}
