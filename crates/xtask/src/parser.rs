//! A lightweight item parser on top of [`crate::lexer`].
//!
//! gt-lint v2 needs just enough structure to build a call graph: which
//! functions exist (with their module path and surrounding `impl` type),
//! what each body *calls*, and which `use` declarations are in scope per
//! file. This is deliberately **not** a Rust grammar — it is
//! a single forward pass over the token stream that tracks brace nesting
//! and recognizes `mod`/`impl`/`fn`/`use`/`struct`/`enum` item heads.
//!
//! Precision choices (documented in `DESIGN.md` §8):
//! - `#[cfg(test)]` modules, `#[test]` functions and whole test files are
//!   skipped — the graph describes production paths.
//! - Calls made inside closures are attributed to the enclosing function,
//!   so `thread::spawn(move || handle(x))` yields an edge from the
//!   spawning function to `handle`.
//! - Function-pointer types (`fn(u32)`), trait-method declarations without
//!   bodies, and macro invocations are recognized and skipped; a macro
//!   body's tokens still flow into the enclosing function's call list,
//!   which errs on the side of more edges, never fewer.

use crate::lexer::{Token, TokenKind};

/// One call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Call {
    /// Path segments as written, minus `crate`/`self`/`super` prefixes:
    /// `Stopwatch::start` → `["Stopwatch", "start"]`; a bare `helper()` →
    /// `["helper"]`; a method call `.record(…)` → `["record"]`.
    pub segments: Vec<String>,
    /// True for `.name(…)` method-call syntax.
    pub is_method: bool,
    /// 1-based source line of the call.
    pub line: u32,
}

/// One `fn` item (free function, inherent or trait method).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Inline `mod` path inside the file (the file's own module position
    /// is carried by [`ParsedFile::module`]).
    pub module: Vec<String>,
    /// Enclosing `impl` self-type (last path segment), if any.
    pub impl_type: Option<String>,
    /// Carries a `#[cfg(feature = …)]`-style gate (directly or via the
    /// enclosing item). Such functions stay in the graph but are exempt
    /// from panic-site scanning: feature-gated invariant checks exist to
    /// panic.
    pub cfg_gated: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range `[open, close]` of the body braces, inclusive.
    pub body: (usize, usize),
    /// Every call site found in the body (closures included).
    pub calls: Vec<Call>,
}

/// Parse result for one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Repo-relative `/`-separated path.
    pub rel: String,
    /// Module path of the file itself within its crate (`engine.rs` →
    /// `["engine"]`, `lib.rs`/`main.rs` → `[]`, nested dirs included).
    pub module: Vec<String>,
    /// Flattened `use` paths, each ending in the imported (or `as`-renamed)
    /// name; glob imports record the path ending in `*`.
    pub uses: Vec<Vec<String>>,
    /// Names of `struct`/`enum` types declared in the file.
    pub types: Vec<String>,
    /// All functions found.
    pub fns: Vec<FnItem>,
}

/// Keywords that can never be a call target.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "false"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "self"
            | "Self"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "true"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "async"
            | "await"
    )
}

/// Attribute summary for the item that follows it.
#[derive(Clone, Copy, Debug, Default)]
struct Attrs {
    cfg_test: bool,
    test_fn: bool,
    cfg_gated: bool,
}

struct Parser<'a> {
    tokens: &'a [Token],
    out: ParsedFile,
}

/// Derive the file's module path from its repo-relative location.
fn file_module(rel: &str) -> Vec<String> {
    let Some(tail) = rel
        .split_once("/src/")
        .map(|(_, t)| t)
        .or_else(|| rel.strip_prefix("src/"))
    else {
        // tests/benches/examples: each file is its own root module.
        return Vec::new();
    };
    let mut parts: Vec<String> = tail.split('/').map(str::to_string).collect();
    if let Some(last) = parts.last_mut() {
        *last = last.trim_end_matches(".rs").to_string();
    }
    match parts.last().map(String::as_str) {
        Some("lib") | Some("main") | Some("mod") => {
            parts.pop();
        }
        _ => {}
    }
    parts
}

/// Parse one tokenized file into its item skeleton.
pub fn parse_file(rel: &str, tokens: &[Token]) -> ParsedFile {
    let mut p = Parser {
        tokens,
        out: ParsedFile { rel: rel.to_string(), module: file_module(rel), ..Default::default() },
    };
    let mut i = 0usize;
    p.items(&mut i, tokens.len(), &[], None, false, None);
    p.out
}

impl Parser<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.tokens.get(i)
    }

    /// Token index just past the matching close bracket for `open` at `i`
    /// (or `end` if unbalanced).
    fn skip_balanced(&self, i: usize, end: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        let mut k = i;
        while k < end {
            if let Some(t) = self.tok(k) {
                if t.is_punct(open) {
                    depth += 1;
                } else if t.is_punct(close) {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k + 1;
                    }
                }
            }
            k += 1;
        }
        end
    }

    /// Consume one `#[…]` attribute at `i`, folding its meaning into
    /// `attrs`. Returns the index just past it.
    fn attribute(&self, i: usize, end: usize, attrs: &mut Attrs) -> usize {
        let close = self.skip_balanced(i + 1, end, "[", "]");
        let body = &self.tokens[i + 2..close.saturating_sub(1).min(end)];
        let has = |name: &str| body.iter().any(|t| t.is_ident(name));
        if has("cfg") && has("test") {
            attrs.cfg_test = true;
        }
        if has("cfg") && (has("feature") || has("debug_assertions")) {
            attrs.cfg_gated = true;
        }
        // `#[test]`, `#[bench]` — a body that *is* a test entry point.
        if body
            .first()
            .is_some_and(|t| t.is_ident("test") || t.is_ident("bench"))
        {
            attrs.test_fn = true;
        }
        close
    }

    /// Parse items in `[*i, end)`; `end` is one past the region (the body
    /// close brace of the enclosing scope, or the token count at top
    /// level). Updates `*i` to `end`.
    #[allow(clippy::too_many_arguments)]
    fn items(
        &mut self,
        i: &mut usize,
        end: usize,
        module: &[String],
        impl_type: Option<&str>,
        cfg_gated: bool,
        in_fn: Option<usize>,
    ) {
        let mut attrs = Attrs::default();
        while *i < end {
            let Some(t) = self.tok(*i) else { break };
            let t = t.clone();
            // Attributes (outer `#[…]`; inner `#![…]` is skipped whole).
            if t.is_punct("#") {
                if self.tok(*i + 1).is_some_and(|n| n.is_punct("!")) {
                    *i = self.skip_balanced(*i + 2, end, "[", "]");
                } else if self.tok(*i + 1).is_some_and(|n| n.is_punct("[")) {
                    *i = self.attribute(*i, end, &mut attrs);
                } else {
                    *i += 1;
                }
                continue;
            }
            if t.kind == TokenKind::Ident {
                match t.text.as_str() {
                    // A failed guard falls through to the same plain
                    // descent as any other token.
                    "mod" if self.item_mod(i, end, module, cfg_gated, attrs) => {
                        attrs = Attrs::default();
                        continue;
                    }
                    "impl" if self.item_impl(i, end, module, cfg_gated || attrs.cfg_gated) => {
                        attrs = Attrs::default();
                        continue;
                    }
                    "fn" if self.item_fn(i, end, module, impl_type, cfg_gated, attrs) => {
                        attrs = Attrs::default();
                        continue;
                    }
                    "use" => {
                        self.item_use(i, end);
                        attrs = Attrs::default();
                        continue;
                    }
                    "struct" | "enum" | "trait" => {
                        if let Some(name) = self.tok(*i + 1).filter(|n| n.kind == TokenKind::Ident)
                        {
                            if t.text != "trait" {
                                self.out.types.push(name.text.clone());
                            }
                        }
                        *i += 1;
                        attrs = Attrs::default();
                        continue;
                    }
                    _ => {}
                }
                // Inside a function body: record calls.
                if let Some(fn_idx) = in_fn {
                    if let Some(next) = self.body_token(*i, fn_idx) {
                        *i = next;
                        attrs = Attrs::default();
                        continue;
                    }
                }
            }
            // Any other token: plain descent. Braces inside bodies or item
            // regions are handled by the recursive calls above; here we
            // just advance. Visibility qualifiers between an attribute and
            // its item (`#[cfg(test)] pub mod …`) keep the pending attrs.
            let keeps_attrs = (t.kind == TokenKind::Ident
                && matches!(
                    t.text.as_str(),
                    "pub"
                        | "const"
                        | "unsafe"
                        | "async"
                        | "extern"
                        | "crate"
                        | "super"
                        | "self"
                        | "in"
                ))
                || t.is_punct("(")
                || t.is_punct(")")
                || t.kind == TokenKind::Str;
            *i += 1;
            if !keeps_attrs {
                attrs = Attrs::default();
            }
        }
        *i = end;
    }

    /// `mod name { … }` / `mod name;`. Returns true if consumed.
    fn item_mod(
        &mut self,
        i: &mut usize,
        end: usize,
        module: &[String],
        cfg_gated: bool,
        attrs: Attrs,
    ) -> bool {
        let Some(name) = self.tok(*i + 1).filter(|n| n.kind == TokenKind::Ident) else {
            return false;
        };
        let name = name.text.clone();
        let mut k = *i + 2;
        while k < end && !self.tok(k).is_some_and(|t| t.is_punct("{") || t.is_punct(";")) {
            k += 1;
        }
        if self.tok(k).is_some_and(|t| t.is_punct(";")) {
            *i = k + 1;
            return true;
        }
        if !self.tok(k).is_some_and(|t| t.is_punct("{")) {
            return false;
        }
        let body_end = self.skip_balanced(k, end, "{", "}");
        if attrs.cfg_test {
            *i = body_end; // skip test modules entirely
            return true;
        }
        let mut inner = module.to_vec();
        inner.push(name);
        let mut j = k + 1;
        self.items(
            &mut j,
            body_end.saturating_sub(1),
            &inner,
            None,
            cfg_gated || attrs.cfg_gated,
            None,
        );
        *i = body_end;
        true
    }

    /// `impl … { … }`. Returns true if consumed. `-> impl Trait` inside
    /// signatures never reaches here because signatures are consumed by
    /// [`Self::item_fn`].
    fn item_impl(&mut self, i: &mut usize, end: usize, module: &[String], cfg_gated: bool) -> bool {
        // Find the body `{`, skipping generics (`<…>` may nest).
        let mut k = *i + 1;
        let mut angle = 0i32;
        let mut trait_path: Vec<String> = Vec::new();
        let mut for_path: Vec<String> = Vec::new();
        let mut saw_for = false;
        let mut saw_where = false;
        while k < end {
            let Some(t) = self.tok(k) else { return false };
            match (&t.kind, t.text.as_str()) {
                (TokenKind::Punct, "<") => angle += 1,
                (TokenKind::Punct, "<<") => angle += 2,
                (TokenKind::Punct, ">") => angle -= 1,
                (TokenKind::Punct, ">>") => angle -= 2,
                (TokenKind::Punct, "{") if angle <= 0 => break,
                (TokenKind::Punct, ";") if angle <= 0 => {
                    *i = k + 1;
                    return true;
                }
                (TokenKind::Ident, "for") if angle <= 0 => saw_for = true,
                (TokenKind::Ident, "where") if angle <= 0 => saw_where = true,
                (TokenKind::Ident, id) if angle <= 0 && !is_keyword(id) && !saw_where => {
                    if saw_for {
                        for_path.push(id.to_string());
                    } else {
                        trait_path.push(id.to_string());
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if !self.tok(k).is_some_and(|t| t.is_punct("{")) {
            return false;
        }
        // Self type = the `for`-side when present (trait impl), else the
        // inherent path; its last path segment names the type. Generic
        // params inside `<…>` and everything after `where` are excluded.
        let self_ty = if saw_for {
            for_path.last().cloned()
        } else {
            trait_path.last().cloned()
        };
        let body_end = self.skip_balanced(k, end, "{", "}");
        let mut j = k + 1;
        let module = module.to_vec();
        self.items(
            &mut j,
            body_end.saturating_sub(1),
            &module,
            self_ty.as_deref(),
            cfg_gated,
            None,
        );
        *i = body_end;
        true
    }

    /// `fn name(… ) … { … }`. Returns true if consumed.
    fn item_fn(
        &mut self,
        i: &mut usize,
        end: usize,
        module: &[String],
        impl_type: Option<&str>,
        cfg_gated: bool,
        attrs: Attrs,
    ) -> bool {
        let Some(name_tok) = self.tok(*i + 1).filter(|n| n.kind == TokenKind::Ident) else {
            // `fn(…)` pointer type or malformed — not a definition.
            *i += 1;
            return true;
        };
        let name = name_tok.text.clone();
        let line = self.tokens[*i].line;
        // Consume the signature: everything up to the body `{` or a `;`
        // (trait declaration). `-> impl Trait`, generics and where-clauses
        // carry no braces, so the first brace at angle depth ≤ 0 is the body.
        let mut k = *i + 2;
        let mut angle = 0i32;
        while k < end {
            let Some(t) = self.tok(k) else { break };
            match (&t.kind, t.text.as_str()) {
                (TokenKind::Punct, "<") => angle += 1,
                (TokenKind::Punct, "<<") => angle += 2,
                (TokenKind::Punct, ">") => angle -= 1,
                (TokenKind::Punct, ">>") => angle -= 2,
                (TokenKind::Punct, "{") => break,
                (TokenKind::Punct, ";") if angle <= 0 => {
                    *i = k + 1; // bodyless trait method
                    return true;
                }
                _ => {}
            }
            k += 1;
        }
        if !self.tok(k).is_some_and(|t| t.is_punct("{")) {
            *i = k;
            return true;
        }
        let body_end = self.skip_balanced(k, end, "{", "}");
        if attrs.test_fn || attrs.cfg_test {
            *i = body_end; // test functions contribute no graph nodes
            return true;
        }
        let fn_idx = self.out.fns.len();
        self.out.fns.push(FnItem {
            name,
            module: module.to_vec(),
            impl_type: impl_type.map(str::to_string),
            cfg_gated: cfg_gated || attrs.cfg_gated,
            line,
            body: (k, body_end.saturating_sub(1)),
            calls: Vec::new(),
        });
        let mut j = k + 1;
        let module = module.to_vec();
        self.items(&mut j, body_end.saturating_sub(1), &module, impl_type, cfg_gated, Some(fn_idx));
        *i = body_end;
        true
    }

    /// `use a::{b, c::d as e};` — flatten into leaf paths.
    fn item_use(&mut self, i: &mut usize, end: usize) {
        let mut k = *i + 1;
        let mut stack: Vec<Vec<String>> = vec![Vec::new()];
        let mut current: Vec<String> = Vec::new();
        let flush =
            |stack: &[Vec<String>], current: &mut Vec<String>, out: &mut Vec<Vec<String>>| {
                if current.is_empty() {
                    return;
                }
                let mut full: Vec<String> = stack.iter().flatten().cloned().collect();
                full.append(current);
                out.push(full);
            };
        let mut uses = Vec::new();
        while k < end {
            let Some(t) = self.tok(k) else { break };
            match (&t.kind, t.text.as_str()) {
                (TokenKind::Punct, ";") => {
                    k += 1;
                    break;
                }
                (TokenKind::Punct, "{") => {
                    stack.push(std::mem::take(&mut current));
                }
                (TokenKind::Punct, "}") => {
                    flush(&stack, &mut current, &mut uses);
                    stack.pop();
                }
                (TokenKind::Punct, ",") => flush(&stack, &mut current, &mut uses),
                (TokenKind::Punct, "*") => current.push("*".to_string()),
                (TokenKind::Ident, "as") => {
                    // `x as y`: drop x's last segment, keep y instead.
                    if let Some(next) = self.tok(k + 1).filter(|n| n.kind == TokenKind::Ident) {
                        let renamed = next.text.clone();
                        current.pop();
                        current.push(renamed);
                        k += 1;
                    }
                }
                (TokenKind::Ident, id) if !matches!(id, "crate" | "self" | "super" | "pub") => {
                    current.push(id.to_string());
                }
                _ => {}
            }
            k += 1;
        }
        flush(&stack, &mut current, &mut uses);
        self.out.uses.append(&mut uses);
        *i = k;
    }

    /// Try to read a call starting at identifier index `i` inside a fn
    /// body; on success, push it and return the index to continue from.
    fn body_token(&mut self, i: usize, fn_idx: usize) -> Option<usize> {
        let t = self.tok(i)?;
        if t.kind != TokenKind::Ident || (is_keyword(&t.text) && t.text != "Self") {
            // A method call is keyed off the preceding `.`;
            // handle it when we *land* on the ident after a dot, below.
            return None;
        }
        // Method call: `.name(` — previous token is `.`.
        let after_dot = i > 0 && self.tok(i - 1).is_some_and(|p| p.is_punct("."));
        if after_dot {
            let mut k = i + 1;
            // optional turbofish `::<…>`
            if self.tok(k).is_some_and(|t| t.is_punct("::"))
                && self.tok(k + 1).is_some_and(|t| t.is_punct("<"))
            {
                k = self.skip_balanced_angles(k + 1);
            }
            if self.tok(k).is_some_and(|t| t.is_punct("(")) {
                let line = t.line;
                let name = t.text.clone();
                self.out.fns[fn_idx].calls.push(Call {
                    segments: vec![name],
                    is_method: true,
                    line,
                });
                return Some(i + 1);
            }
            return None;
        }
        // Path call: `A::B::name(` (or bare `name(`), not a macro `name!(`.
        let mut segments = vec![t.text.clone()];
        let line = t.line;
        let mut k = i + 1;
        loop {
            if self.tok(k).is_some_and(|t| t.is_punct("::")) {
                if self.tok(k + 1).is_some_and(|t| t.is_punct("<")) {
                    // turbofish before the final `(`
                    k = self.skip_balanced_angles(k + 1);
                    break;
                }
                if let Some(seg) = self.tok(k + 1).filter(|n| n.kind == TokenKind::Ident) {
                    segments.push(seg.text.clone());
                    k += 2;
                    continue;
                }
            }
            break;
        }
        if self.tok(k).is_some_and(|t| t.is_punct("!")) {
            return None; // macro invocation
        }
        if !self.tok(k).is_some_and(|t| t.is_punct("(")) {
            return None;
        }
        // Drop relative-path prefixes; `Self` is kept for the resolver.
        segments.retain(|s| !matches!(s.as_str(), "crate" | "self" | "super"));
        if segments.is_empty() || segments.iter().any(|s| s != "Self" && is_keyword(s)) {
            return None;
        }
        self.out.fns[fn_idx]
            .calls
            .push(Call { segments, is_method: false, line });
        Some(k)
    }

    /// `i` points at `<`; return the index just past the matching `>`.
    fn skip_balanced_angles(&self, i: usize) -> usize {
        let mut depth = 0i32;
        let mut k = i;
        while let Some(t) = self.tok(k) {
            match t.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
            k += 1;
            if depth <= 0 {
                break;
            }
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/k/src/lib.rs", &tokenize(src))
    }

    #[test]
    fn extracts_free_fns_and_calls() {
        let f = parse("pub fn a() { b(); c::d(); }\nfn b() {}\n");
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "a");
        assert_eq!(f.fns[0].calls.len(), 2);
        assert_eq!(f.fns[0].calls[0].segments, vec!["b"]);
        assert_eq!(f.fns[0].calls[1].segments, vec!["c", "d"]);
        assert!(!f.fns[0].calls[0].is_method);
    }

    #[test]
    fn extracts_impl_methods_and_method_calls() {
        let f = parse("struct S; impl S { fn m(&self) { self.n(); } fn n(&self) {} }");
        assert_eq!(f.types, vec!["S"]);
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("S"));
        assert_eq!(f.fns[0].calls.len(), 1);
        assert!(f.fns[0].calls[0].is_method);
        assert_eq!(f.fns[0].calls[0].segments, vec!["n"]);
    }

    #[test]
    fn trait_impl_uses_the_self_type() {
        let f = parse("impl<T: Clone> Display for Wrapper<T> { fn fmt(&self) {} }");
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn modules_nest_and_test_modules_are_skipped() {
        let f = parse(
            "mod a { mod b { fn deep() {} } }\n#[cfg(test)] mod tests { fn t() { boom(); } }",
        );
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].module, vec!["a", "b"]);
    }

    #[test]
    fn test_fns_and_cfg_gates_are_tracked() {
        let f = parse(
            "#[test] fn t() {}\n#[cfg(feature = \"invariants\")] fn gated() {}\npub(crate) fn go() {}",
        );
        assert_eq!(f.fns.len(), 2);
        assert!(f.fns[0].cfg_gated);
        assert_eq!(f.fns[1].name, "go");
    }

    #[test]
    fn closures_attribute_calls_to_the_enclosing_fn() {
        let f = parse("fn spawner() { spawn(move || { helper(1) }); }");
        let segs: Vec<_> = f.fns[0].calls.iter().map(|c| c.segments.join("::")).collect();
        assert!(segs.contains(&"spawn".to_string()));
        assert!(segs.contains(&"helper".to_string()));
    }

    #[test]
    fn macros_are_not_calls_but_their_args_are_scanned() {
        let f = parse("fn f() { println!(\"{}\", compute()); }");
        let segs: Vec<_> = f.fns[0].calls.iter().map(|c| c.segments.join("::")).collect();
        assert_eq!(segs, vec!["compute"]);
    }

    #[test]
    fn use_declarations_flatten() {
        let f = parse("use a::b::C;\nuse x::{y, z::w as v};\nfn f() {}");
        assert!(f.uses.contains(&vec!["a".into(), "b".into(), "C".into()]));
        assert!(f.uses.contains(&vec!["x".into(), "y".into()]));
        assert!(f.uses.contains(&vec!["x".into(), "z".into(), "v".into()]));
    }

    #[test]
    fn fn_pointer_types_and_trait_decls_are_not_items() {
        let f = parse("fn hof(cb: fn(u32) -> u32) -> u32 { cb(1) }\ntrait T { fn decl(&self); }");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "hof");
    }

    #[test]
    fn impl_trait_return_types_parse() {
        let f = parse("fn make() -> impl Iterator<Item = u32> { inner() } fn inner() {}");
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].calls[0].segments, vec!["inner"]);
    }

    #[test]
    fn turbofish_calls_are_recognized() {
        let f = parse("fn f() { parse::<u32>(); v.collect::<Vec<_>>(); }");
        let names: Vec<_> = f.fns[0].calls.iter().map(|c| c.segments.join("::")).collect();
        assert!(names.contains(&"parse".to_string()));
        assert!(names.contains(&"collect".to_string()));
    }

    #[test]
    fn file_module_paths() {
        assert_eq!(file_module("crates/gossip/src/engine.rs"), vec!["engine"]);
        assert!(file_module("crates/gossip/src/lib.rs").is_empty());
        assert_eq!(
            file_module("crates/a/src/sub/inner.rs"),
            vec!["sub".to_string(), "inner".to_string()]
        );
        assert!(file_module("crates/a/tests/t.rs").is_empty());
    }
}
