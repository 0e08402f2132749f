//! Workspace-level rule families: taint reachability and panic-path.
//! These run on the call graph ([`crate::graph`]) built
//! from the item parser, complementing the per-file token rules in
//! [`crate::rules`].
//!
//! Both families are configured from the `[analysis]` section of
//! `lint.toml` (see [`crate::config::AnalysisConfig`]); when the section
//! is absent they are no-ops, so scratch workspaces and fixtures opt in
//! explicitly.

use crate::config::AnalysisConfig;
use crate::graph::{Graph, Reach};
use crate::lexer::{Token, TokenKind};
use crate::parser::ParsedFile;
use crate::rules::Violation;
use std::collections::HashSet;

/// Kinds of nondeterminism a taint source introduces, each its own rule so
/// waivers stay narrow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SourceKind {
    Clock,
    Entropy,
    Env,
    Hash,
}

impl SourceKind {
    fn rule(self) -> &'static str {
        match self {
            SourceKind::Clock => "taint-clock",
            SourceKind::Entropy => "taint-entropy",
            SourceKind::Env => "taint-env",
            SourceKind::Hash => "taint-hash",
        }
    }
}

/// A taint source found directly in a function body.
#[derive(Clone, Debug)]
struct Source {
    kind: SourceKind,
    what: String,
    line: u32,
}

/// Scan one body token range for direct nondeterminism sources.
fn find_source(tokens: &[Token], body: (usize, usize)) -> Option<Source> {
    let range = &tokens[body.0..=body.1.min(tokens.len().saturating_sub(1))];
    for (i, t) in range.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next2 = |a: &str, b: &str| {
            range.get(i + 1).is_some_and(|n| n.is_punct(a))
                && range.get(i + 2).is_some_and(|n| n.is_ident(b))
        };
        let src = match t.text.as_str() {
            "Instant" | "SystemTime" if next2("::", "now") => Some(Source {
                kind: SourceKind::Clock,
                what: format!("{}::now", t.text),
                line: t.line,
            }),
            "thread_rng" | "from_entropy" | "from_os_rng" => {
                Some(Source { kind: SourceKind::Entropy, what: t.text.clone(), line: t.line })
            }
            "rand" if next2("::", "rng") => Some(Source {
                kind: SourceKind::Entropy,
                what: "rand::rng".to_string(),
                line: t.line,
            }),
            "env" if next2("::", "var") || next2("::", "var_os") => {
                Some(Source { kind: SourceKind::Env, what: "env::var".to_string(), line: t.line })
            }
            "HashMap" | "HashSet" => {
                Some(Source { kind: SourceKind::Hash, what: t.text.clone(), line: t.line })
            }
            _ => None,
        };
        if src.is_some() {
            return src;
        }
    }
    None
}

/// Render a call chain as `a → b → c`, eliding the middle when long.
fn chain_label(graph: &Graph, chain: &[usize]) -> String {
    let names: Vec<String> = chain.iter().map(|&n| graph.nodes[n].label()).collect();
    if names.len() <= 5 {
        names.join(" → ")
    } else {
        format!(
            "{} → {} → … → {} → {}",
            names[0],
            names[1],
            names[names.len() - 2],
            names[names.len() - 1]
        )
    }
}

/// Taint reachability: no configured sink may transitively reach a
/// function that reads a clock, ambient entropy, the environment, or
/// constructs a `HashMap`/`HashSet`. The violation is attributed to the
/// *caller* of the source-carrying function (or to the sink itself when it
/// is the source), so a waiver pins the exact place nondeterminism enters
/// the deterministic world.
pub fn taint(
    files: &[ParsedFile],
    tokens: &[Vec<Token>],
    graph: &Graph,
    cfg: &AnalysisConfig,
    out: &mut Vec<Violation>,
) {
    let _ = files;
    if cfg.taint_sinks.is_empty() {
        return;
    }
    // Direct sources per node, computed once.
    let sources: Vec<Option<Source>> = graph
        .nodes
        .iter()
        .map(|n| find_source(&tokens[n.file], n.body))
        .collect();
    let mut seen: HashSet<(&'static str, String, usize)> = HashSet::new();
    for spec in &cfg.taint_sinks {
        for sink in graph.match_spec(spec) {
            let reach = graph.reach(&[sink]);
            for (node, src) in sources.iter().enumerate() {
                let (Some(src), true) = (src, reach.visited[node]) else {
                    continue;
                };
                let chain = reach.chain(node);
                // Attribute to the caller of the source fn; the sink
                // itself when the chain has no interior.
                let attributed = if chain.len() >= 2 {
                    chain[chain.len() - 2]
                } else {
                    node
                };
                let a = &graph.nodes[attributed];
                if !seen.insert((src.kind.rule(), a.rel.clone(), node)) {
                    continue;
                }
                let s = &graph.nodes[node];
                out.push(Violation {
                    rule: src.kind.rule(),
                    path: a.rel.clone(),
                    line: graph.edges[attributed]
                        .iter()
                        .find(|e| e.to == *chain.last().unwrap_or(&node))
                        .map_or(a.line, |e| e.line),
                    message: format!(
                        "deterministic sink `{spec}` reaches `{}` ({} at {}:{}) via {}",
                        s.label(),
                        src.what,
                        s.rel,
                        src.line,
                        chain_label(graph, &chain),
                    ),
                });
            }
        }
    }
}

/// Panic-capable sites inside one body.
fn panic_sites(tokens: &[Token], body: (usize, usize)) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let hi = body.1.min(tokens.len().saturating_sub(1));
    for i in body.0..=hi {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "unwrap" | "expect" => {
                    let dotted = i > 0 && tokens[i - 1].is_punct(".");
                    let called = tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
                    if dotted && called {
                        out.push((t.line, format!(".{}()", t.text)));
                    }
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if tokens.get(i + 1).is_some_and(|n| n.is_punct("!")) =>
                {
                    out.push((t.line, format!("{}!", t.text)));
                }
                _ => {}
            }
        } else if t.is_punct("[") && i > 0 {
            let p = &tokens[i - 1];
            let indexable = (p.kind == TokenKind::Ident
                && !matches!(
                    p.text.as_str(),
                    "let" | "mut" | "ref" | "in" | "return" | "box" | "as" | "else" | "if"
                ))
                || p.is_punct(")")
                || p.is_punct("]");
            // `x[..]` is the full-range reslice — it cannot panic, so it
            // is not an index site.
            let full_range = tokens.get(i + 1).is_some_and(|n| n.is_punct(".."))
                && tokens.get(i + 2).is_some_and(|n| n.is_punct("]"));
            if indexable && !full_range {
                out.push((t.line, "slice indexing `[…]`".to_string()));
            }
        }
    }
    out
}

/// Panic-path: functions reachable from the configured roots (server
/// accept loop, epoch manager, WAL replay) and living under the configured
/// scan paths must not contain panic-capable sites. Feature-gated
/// functions are exempt — the invariants layer exists to panic.
pub fn panic_path(
    tokens: &[Vec<Token>],
    graph: &Graph,
    cfg: &AnalysisConfig,
    out: &mut Vec<Violation>,
) {
    if cfg.panic_roots.is_empty() || cfg.panic_scan_paths.is_empty() {
        return;
    }
    let mut roots: Vec<usize> = Vec::new();
    for spec in &cfg.panic_roots {
        roots.extend(graph.match_spec(spec));
    }
    let reach: Reach = graph.reach(&roots);
    for (node, n) in graph.nodes.iter().enumerate() {
        if !reach.visited[node]
            || n.cfg_gated
            || !cfg.panic_scan_paths.iter().any(|p| n.rel.starts_with(p.as_str()))
        {
            continue;
        }
        let chain = reach.chain(node);
        for (line, what) in panic_sites(&tokens[n.file], n.body) {
            out.push(Violation {
                rule: "panic-path",
                path: n.rel.clone(),
                line,
                message: format!(
                    "{what} in `{}`, reachable from `{}` via {} — return a typed error or shed \
                     the request instead",
                    n.label(),
                    graph.nodes[chain[0]].label(),
                    chain_label(graph, &chain),
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::lexer::tokenize;
    use crate::parser::parse_file;
    use std::path::Path;

    fn analyze(files: &[(&str, &str)], cfg: &AnalysisConfig) -> Vec<Violation> {
        let tokens: Vec<Vec<Token>> = files.iter().map(|(_, s)| tokenize(s)).collect();
        let parsed: Vec<ParsedFile> = files
            .iter()
            .zip(&tokens)
            .map(|((rel, _), t)| parse_file(rel, t))
            .collect();
        let graph = Graph::build(Path::new("/nonexistent"), &parsed);
        let mut out = Vec::new();
        taint(&parsed, &tokens, &graph, cfg, &mut out);
        panic_path(&tokens, &graph, cfg, &mut out);
        out
    }

    fn cfg() -> AnalysisConfig {
        AnalysisConfig {
            taint_sinks: vec!["step_slab".into()],
            panic_roots: vec!["serve".into()],
            panic_scan_paths: vec!["crates/a/src".into()],
        }
    }

    #[test]
    fn taint_flags_transitive_clock_reads() {
        let v = analyze(
            &[(
                "crates/a/src/lib.rs",
                "pub fn step_slab() { helper(); }\n\
                 fn helper() { tick(); }\n\
                 fn tick() { let _ = Instant::now(); }",
            )],
            &cfg(),
        );
        let t: Vec<&Violation> = v.iter().filter(|v| v.rule == "taint-clock").collect();
        assert_eq!(t.len(), 1);
        assert!(t[0].message.contains("step_slab"), "{}", t[0].message);
        assert!(t[0].message.contains("tick"), "{}", t[0].message);
    }

    #[test]
    fn taint_silent_when_no_source_reachable() {
        let v = analyze(
            &[(
                "crates/a/src/lib.rs",
                "pub fn step_slab() { helper(); } fn helper() {}\n\
                 fn unrelated() { let _ = Instant::now(); }",
            )],
            &cfg(),
        );
        assert!(v.iter().all(|v| !v.rule.starts_with("taint")), "{v:?}");
    }

    #[test]
    fn panic_path_flags_reachable_sites_only() {
        let v = analyze(
            &[(
                "crates/a/src/lib.rs",
                "pub fn serve() { handle(); }\n\
                 fn handle() { x().unwrap(); }\n\
                 fn offline() { y().unwrap(); }",
            )],
            &cfg(),
        );
        let p: Vec<&Violation> = v.iter().filter(|v| v.rule == "panic-path").collect();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].message.contains("handle"));
    }

    #[test]
    fn panic_path_catches_indexing_and_macros_but_not_attrs() {
        let v = analyze(
            &[(
                "crates/a/src/lib.rs",
                "pub fn serve() { let v = vec![1]; let _ = v[0]; panic!(\"x\"); }",
            )],
            &cfg(),
        );
        let p: Vec<&str> = v
            .iter()
            .filter(|v| v.rule == "panic-path")
            .map(|v| v.message.split(" in ").next().unwrap_or(""))
            .collect();
        assert_eq!(p.len(), 2, "{v:?}"); // v[0] and panic! — not vec![…]
    }

    #[test]
    fn panic_path_allows_full_range_reslice() {
        let v = analyze(
            &[(
                "crates/a/src/lib.rs",
                "pub fn serve(a: [u8; 4], b: &[u8]) -> bool { &a[..] == b }",
            )],
            &cfg(),
        );
        assert!(v.iter().all(|v| v.rule != "panic-path"), "{v:?}");
    }

    #[test]
    fn panic_path_skips_feature_gated_fns() {
        let v = analyze(
            &[(
                "crates/a/src/lib.rs",
                "pub fn serve() { check(); }\n\
                 #[cfg(feature = \"invariants\")] fn check() { x().expect(\"invariant\"); }",
            )],
            &cfg(),
        );
        assert!(v.iter().all(|v| v.rule != "panic-path"), "{v:?}");
    }

    #[test]
    fn analysis_is_noop_without_config() {
        let v = analyze(
            &[("crates/a/src/lib.rs", "pub fn a() { let _ = Instant::now(); x().unwrap(); }")],
            &AnalysisConfig::default(),
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
