//! The gt-lint rule set.
//!
//! Each rule walks the token stream of one file (see [`crate::lexer`]) and
//! reports [`Violation`]s. The rules encode *repo-specific* contracts the
//! compiler cannot see — see `DESIGN.md` §8 for the rationale behind each.
//!
//! | rule            | contract                                             |
//! |-----------------|------------------------------------------------------|
//! | `float-eq`      | no `==`/`!=` (or `assert_eq!`) on float literals in  |
//! |                 | non-test code — float equality is almost always a    |
//! |                 | tolerance bug; exact-sentinel sites need a waiver    |
//! | `env-var`       | no `std::env::var`/`var_os` outside `core::params` — |
//! |                 | every knob goes through the strict parsers           |
//! | `hash-iter`     | no `HashMap`/`HashSet` in the deterministic kernels  |
//! |                 | (`gossip`, `core`, `service::epoch`) — iteration     |
//! |                 | order would silently break replayability             |
//! | `forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]`   |
//! | `entropy`       | no ambient entropy (`thread_rng`, `rand::rng()`,     |
//! |                 | `from_entropy`, `from_os_rng`) outside designated    |
//! |                 | seeding/bench modules                                |
//! | `time-source`   | no raw clock reads (`Instant::now`,                  |
//! |                 | `SystemTime::now`) outside `crates/obs` — all timing |
//! |                 | goes through `Stopwatch`/`Deadline`, so the          |
//! |                 | determinism audit for clock reads stays lexical      |

use crate::lexer::{Token, TokenKind};

/// Stable identifiers of every rule, as used in `lint.toml` waivers.
///
/// The first six are per-file token rules implemented here; the
/// `taint-*` and `panic-path` families are workspace-level call-graph
/// rules implemented in [`crate::analysis`].
pub const RULE_NAMES: &[&str] = &[
    "float-eq",
    "env-var",
    "hash-iter",
    "forbid-unsafe",
    "entropy",
    "time-source",
    "taint-clock",
    "taint-entropy",
    "taint-env",
    "taint-hash",
    "panic-path",
];

/// One finding: rule, location, human-readable detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What was found.
    pub message: String,
}

/// How a file participates in the rule set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileRole {
    /// Integration test / bench / example file (relaxes `float-eq`).
    pub is_test_file: bool,
    /// Inside a deterministic kernel (`hash-iter` applies).
    pub is_kernel: bool,
    /// A crate root that must carry `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
    /// Inside `crates/obs` — the one sanctioned clock surface, exempt
    /// from `time-source`.
    pub is_clock_surface: bool,
}

/// Classify `rel` (a `/`-separated repo-relative path).
pub fn classify(rel: &str) -> FileRole {
    let is_test_file = rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/");
    let is_kernel = rel.starts_with("crates/gossip/src/")
        || rel.starts_with("crates/core/src/")
        || rel == "crates/service/src/epoch.rs";
    let is_crate_root =
        rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));
    let is_clock_surface = rel.starts_with("crates/obs/");
    FileRole { is_test_file, is_kernel, is_crate_root, is_clock_surface }
}

/// Run every applicable rule over one tokenized file.
pub fn check_file(rel: &str, tokens: &[Token], role: FileRole) -> Vec<Violation> {
    let mut out = Vec::new();
    let in_test = test_spans(tokens);
    if !role.is_test_file {
        float_eq(rel, tokens, &in_test, &mut out);
    }
    env_var(rel, tokens, &mut out);
    if role.is_kernel {
        hash_iter(rel, tokens, &mut out);
    }
    if role.is_crate_root {
        forbid_unsafe(rel, tokens, &mut out);
    }
    entropy(rel, tokens, &mut out);
    if !role.is_clock_surface {
        time_source(rel, tokens, &mut out);
    }
    out
}

/// Mark every token index that lies inside a `#[cfg(test)] mod … { … }`
/// block (or a block whose `cfg` attribute mentions `test`, e.g.
/// `#[cfg(all(test, feature = "x"))]`). Unit-test modules get the same
/// float-comparison latitude as integration-test files: pinning exact
/// constants is what tests are *for*.
fn test_spans(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && i + 1 < tokens.len() && tokens[i + 1].is_punct("[") {
            // Scan the attribute body for `cfg` … `test`.
            let Some(close) = matching(tokens, i + 1, "[", "]") else {
                break;
            };
            let body = &tokens[i + 2..close];
            let mentions_cfg_test =
                body.iter().any(|t| t.is_ident("cfg")) && body.iter().any(|t| t.is_ident("test"));
            let mut j = close + 1;
            if mentions_cfg_test {
                // Skip any further attributes between the cfg and the item.
                while j + 1 < tokens.len() && tokens[j].is_punct("#") && tokens[j + 1].is_punct("[")
                {
                    match matching(tokens, j + 1, "[", "]") {
                        Some(c) => j = c + 1,
                        None => break,
                    }
                }
                if j < tokens.len() && tokens[j].is_ident("mod") {
                    // mod <name> { … }
                    let mut k = j + 1;
                    while k < tokens.len() && !tokens[k].is_punct("{") && !tokens[k].is_punct(";") {
                        k += 1;
                    }
                    if k < tokens.len() && tokens[k].is_punct("{") {
                        if let Some(end) = matching(tokens, k, "{", "}") {
                            for m in mask.iter_mut().take(end + 1).skip(i) {
                                *m = true;
                            }
                            i = end + 1;
                            continue;
                        }
                    }
                }
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the token closing the bracket opened at `open_idx`.
fn matching(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// True if `tokens[k]` is a float literal or a `f64::`/`f32::` special
/// constant path (`f64::NAN`, `f32::INFINITY`, …).
fn is_float_operand(tokens: &[Token], k: usize) -> bool {
    if tokens[k].kind == TokenKind::Float {
        return true;
    }
    if (tokens[k].is_ident("f64") || tokens[k].is_ident("f32"))
        && k + 2 < tokens.len()
        && tokens[k + 1].is_punct("::")
        && tokens[k + 2].kind == TokenKind::Ident
    {
        return matches!(
            tokens[k + 2].text.as_str(),
            "NAN" | "INFINITY" | "NEG_INFINITY" | "EPSILON" | "MIN_POSITIVE" | "MAX" | "MIN"
        );
    }
    false
}

/// Tokens that terminate an operand scan (at relative bracket depth 0).
fn is_operand_boundary(t: &Token) -> bool {
    if t.kind == TokenKind::Ident {
        return matches!(
            t.text.as_str(),
            "if" | "while" | "match" | "let" | "return" | "else" | "for" | "in" | "assert"
        );
    }
    t.kind == TokenKind::Punct
        && matches!(
            t.text.as_str(),
            "," | ";" | "{" | "}" | "=" | "==" | "!=" | "&&" | "||" | "=>" | "->" | "?"
        )
}

/// Rule `float-eq`: `==`/`!=` whose operand (either side, same bracket
/// depth) contains a float literal, plus `assert_eq!`/`assert_ne!`
/// invocations containing float literals. Non-test code only.
fn float_eq(rel: &str, tokens: &[Token], in_test: &[bool], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if t.is_punct("==") || t.is_punct("!=") {
            if comparison_involves_float(tokens, i) {
                out.push(Violation {
                    rule: "float-eq",
                    path: rel.to_string(),
                    line: t.line,
                    message: format!(
                        "exact float `{}` comparison — compare against a tolerance, or add a \
                         lint.toml waiver if the sentinel is exact by construction",
                        t.text
                    ),
                });
            }
        } else if t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "assert_eq" | "assert_ne" | "debug_assert_eq" | "debug_assert_ne"
            )
            && i + 2 < tokens.len()
            && tokens[i + 1].is_punct("!")
            && tokens[i + 2].is_punct("(")
        {
            if let Some(close) = matching(tokens, i + 2, "(", ")") {
                if (i + 3..close).any(|k| is_float_operand(tokens, k)) {
                    out.push(Violation {
                        rule: "float-eq",
                        path: rel.to_string(),
                        line: t.line,
                        message: format!(
                            "`{}!` on a float literal — use an epsilon comparison",
                            t.text
                        ),
                    });
                }
            }
        }
    }
}

/// Scan outward from the comparison operator at `op`: does either operand
/// contain a float literal (at the operator's bracket depth)?
fn comparison_involves_float(tokens: &[Token], op: usize) -> bool {
    // Left: walk backwards. Closing brackets push us into nested depth we
    // skip over; an opening bracket below our depth is the boundary.
    let mut depth = 0i32;
    let mut k = op;
    while k > 0 {
        k -= 1;
        let t = &tokens[k];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        if depth == 0 && is_operand_boundary(t) {
            break;
        }
        if depth == 0 && is_float_operand(tokens, k) {
            return true;
        }
    }
    // Right: walk forwards.
    let mut depth = 0i32;
    let mut k = op;
    while k + 1 < tokens.len() {
        k += 1;
        let t = &tokens[k];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        if depth == 0 && is_operand_boundary(t) {
            break;
        }
        if depth == 0 && is_float_operand(tokens, k) {
            return true;
        }
    }
    false
}

/// Rule `env-var`: any `env::var` / `env::var_os` read. Writing
/// (`set_var`, used by tests to stage their own knobs) is fine; reading
/// belongs in `core::params`, which holds the one waiver.
fn env_var(rel: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("env")
            && i + 2 < tokens.len()
            && tokens[i + 1].is_punct("::")
            && (tokens[i + 2].is_ident("var") || tokens[i + 2].is_ident("var_os"))
        {
            out.push(Violation {
                rule: "env-var",
                path: rel.to_string(),
                line: t.line,
                message: format!(
                    "raw `env::{}` read — route the knob through a `core::params` accessor \
                     (strict parsing, one audited surface)",
                    tokens[i + 2].text
                ),
            });
        }
    }
}

/// Rule `hash-iter`: `HashMap`/`HashSet` anywhere in a deterministic
/// kernel. Even "only lookups today" drifts into iteration tomorrow;
/// kernels use `BTreeMap`/sorted vectors so replay stays bit-exact.
fn hash_iter(rel: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for t in tokens {
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(Violation {
                rule: "hash-iter",
                path: rel.to_string(),
                line: t.line,
                message: format!(
                    "`{}` in a deterministic kernel — iteration order is unstable across \
                     runs; use `BTreeMap`/`BTreeSet` or a sorted Vec",
                    t.text
                ),
            });
        }
    }
}

/// Rule `forbid-unsafe`: the crate root must carry the inner attribute
/// `#![forbid(unsafe_code)]`.
fn forbid_unsafe(rel: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    let mut i = 0usize;
    while i + 4 < tokens.len() {
        if tokens[i].is_punct("#")
            && tokens[i + 1].is_punct("!")
            && tokens[i + 2].is_punct("[")
            && tokens[i + 3].is_ident("forbid")
            && tokens[i + 4].is_punct("(")
        {
            if let Some(close) = matching(tokens, i + 4, "(", ")") {
                if (i + 5..close).any(|k| tokens[k].is_ident("unsafe_code")) {
                    return;
                }
            }
        }
        i += 1;
    }
    out.push(Violation {
        rule: "forbid-unsafe",
        path: rel.to_string(),
        line: 1,
        message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
    });
}

/// Rule `entropy`: ambient randomness / wall-clock entropy. Deterministic
/// replay (epoch snapshots, bit-identical parallel steps) only holds when
/// every random draw flows from an explicit seed.
fn entropy(rel: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        let flagged = if t.is_ident("thread_rng")
            || t.is_ident("from_entropy")
            || t.is_ident("from_os_rng")
        {
            Some(t.text.clone())
        } else if t.is_ident("rand")
            && i + 2 < tokens.len()
            && tokens[i + 1].is_punct("::")
            && tokens[i + 2].is_ident("rng")
        {
            Some("rand::rng".to_string())
        } else {
            None
        };
        if let Some(what) = flagged {
            out.push(Violation {
                rule: "entropy",
                path: rel.to_string(),
                line: t.line,
                message: format!(
                    "ambient entropy source `{what}` — take a caller-supplied seeded RNG \
                     (or waive for a designated seeding/bench module)"
                ),
            });
        }
    }
}

/// Rule `time-source`: raw wall/monotonic clock reads (`Instant::now`,
/// `SystemTime::now`) anywhere outside `crates/obs`. The obs crate's
/// `Stopwatch`/`Deadline` are the only sanctioned clock surface, which
/// keeps the "does this code read time?" audit lexical — a module that
/// never names those types provably never reads the clock.
fn time_source(rel: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && i + 2 < tokens.len()
            && tokens[i + 1].is_punct("::")
            && tokens[i + 2].is_ident("now")
        {
            out.push(Violation {
                rule: "time-source",
                path: rel.to_string(),
                line: t.line,
                message: format!(
                    "raw `{}::now` clock read — use `gossiptrust_obs::Stopwatch`/`Deadline` \
                     (the obs crate is the only sanctioned clock surface)",
                    t.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        check_file(rel, &tokenize(src), classify(rel))
    }

    const KERNEL: &str = "crates/gossip/src/some.rs";
    const PLAIN: &str = "crates/workloads/src/some.rs";

    #[test]
    fn float_eq_catches_literal_comparisons() {
        let v = run(PLAIN, "fn f(x: f64) -> bool { x == 1.0 }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "float-eq");
        let v = run(PLAIN, "fn f(x: f64) -> bool { 0.5 != x }");
        assert_eq!(v.len(), 1);
        let v = run(PLAIN, "fn f(x: f64) -> bool { x == f64::INFINITY }");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn float_eq_catches_assert_eq_with_float_literal() {
        let v = run(PLAIN, "fn f(x: f64) { assert_eq!(x, 0.25); }");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("assert_eq"));
    }

    #[test]
    fn float_eq_ignores_int_and_ordering_comparisons() {
        assert!(run(PLAIN, "fn f(x: usize) -> bool { x == 1 }").is_empty());
        assert!(run(PLAIN, "fn f(x: f64) -> bool { x > 1.0 && x <= 2.0 }").is_empty());
        assert!(run(PLAIN, "fn f(x: f64) -> bool { (x - 1.0).abs() < 1e-9 }").is_empty());
    }

    #[test]
    fn float_eq_boundary_does_not_bleed_across_arguments() {
        // The float literal is a *different* argument of the call: the `,`
        // boundary must stop the operand scan.
        assert!(run(PLAIN, "fn f(a: usize, b: f64) { g(a == 1, 2.5); }").is_empty());
    }

    #[test]
    fn float_eq_skips_cfg_test_modules_and_test_files() {
        let src = "#[cfg(test)] mod tests { fn f(x: f64) -> bool { x == 1.0 } }";
        assert!(run(PLAIN, src).is_empty());
        assert!(
            run("crates/workloads/tests/props.rs", "fn f(x: f64) -> bool { x == 1.0 }").is_empty()
        );
        // …but code *before* the test module is still checked.
        let src = "fn g(x: f64) -> bool { x == 2.0 } #[cfg(test)] mod tests {}";
        assert_eq!(run(PLAIN, src).len(), 1);
    }

    #[test]
    fn env_var_flags_reads_not_writes() {
        let v = run(PLAIN, "fn f() { let _ = std::env::var(\"GT_X\"); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "env-var");
        assert!(run(PLAIN, "fn f() { std::env::set_var(\"GT_X\", \"1\"); }").is_empty());
        // var_os is a read too.
        assert_eq!(run(PLAIN, "fn f() { let _ = std::env::var_os(\"GT_X\"); }").len(), 1);
    }

    #[test]
    fn env_var_applies_inside_tests_too() {
        let src = "#[cfg(test)] mod tests { fn f() { let _ = std::env::var(\"GT_X\"); } }";
        assert_eq!(run(PLAIN, src).len(), 1);
    }

    #[test]
    fn hash_iter_only_fires_in_kernels() {
        let src = "use std::collections::HashMap; fn f(m: &HashMap<u32, u32>) {}";
        let v = run(KERNEL, src);
        assert_eq!(v.len(), 2); // the use and the parameter
        assert!(v.iter().all(|v| v.rule == "hash-iter"));
        assert!(run(PLAIN, src).is_empty());
        assert!(run(KERNEL, "use std::collections::BTreeMap;").is_empty());
    }

    #[test]
    fn epoch_rs_is_a_kernel() {
        assert!(classify("crates/service/src/epoch.rs").is_kernel);
        assert!(!classify("crates/service/src/server.rs").is_kernel);
    }

    #[test]
    fn forbid_unsafe_checks_crate_roots() {
        let root = "crates/foo/src/lib.rs";
        assert!(classify(root).is_crate_root);
        let v = run(root, "//! docs\npub mod a;");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "forbid-unsafe");
        assert!(run(root, "#![forbid(unsafe_code)]\npub mod a;").is_empty());
        // Other attributes before it are fine.
        assert!(run(root, "#![warn(missing_docs)]\n#![forbid(unsafe_code)]").is_empty());
        // A non-root file is not required to carry it.
        assert!(run("crates/foo/src/a.rs", "pub fn f() {}").is_empty());
    }

    #[test]
    fn entropy_sources_are_flagged() {
        for src in [
            "fn f() { let mut r = rand::thread_rng(); }",
            "fn f() { let mut r = rand::rng(); }",
            "fn f() { let r = StdRng::from_entropy(); }",
            "fn f() { let r = StdRng::from_os_rng(); }",
        ] {
            let v = run(PLAIN, src);
            assert_eq!(v.len(), 1, "expected 1 violation for {src}");
            assert_eq!(v[0].rule, "entropy");
        }
        // Seeded construction is the sanctioned path.
        assert!(run(PLAIN, "fn f() { let r = StdRng::seed_from_u64(7); }").is_empty());
    }

    #[test]
    fn time_source_flags_raw_clock_reads_outside_obs() {
        for src in [
            "fn f() { let t = std::time::Instant::now(); }",
            "fn f() { let t = time::Instant::now(); }",
            "fn f() { let t = std::time::SystemTime::now(); }",
        ] {
            let v = run(PLAIN, src);
            assert_eq!(v.len(), 1, "expected 1 violation for {src}");
            assert_eq!(v[0].rule, "time-source");
            assert!(v[0].message.contains("Stopwatch"));
        }
        // The rule applies inside test modules and test files too — a
        // flaky sleep-and-check in a test is still a clock read.
        let in_tests = "#[cfg(test)] mod tests { fn f() { let t = Instant::now(); } }";
        assert_eq!(run(PLAIN, in_tests).len(), 1);
        // The obs crate is the sanctioned surface.
        assert!(classify("crates/obs/src/time.rs").is_clock_surface);
        assert!(run("crates/obs/src/time.rs", "fn f() { let t = Instant::now(); }").is_empty());
        // Other uses of the types (arithmetic, elapsed) are fine.
        assert!(run(PLAIN, "fn f(t: Instant) -> Duration { t.elapsed() }").is_empty());
    }

    #[test]
    fn violation_lines_are_accurate() {
        let v = run(PLAIN, "fn a() {}\nfn f(x: f64) -> bool {\n    x == 1.0\n}");
        assert_eq!(v[0].line, 3);
    }
}
