//! Module and call graph over the whole workspace.
//!
//! Built from [`crate::parser::ParsedFile`]s, the graph holds one node per
//! production function and a directed edge per *resolved* call site. The
//! resolver is approximate by design (no type inference, no trait
//! dispatch); it errs toward precision using tiered name matching:
//!
//! - **Qualified path calls** (`Stopwatch::start`, `engine::step`): every
//!   written qualifier must match the candidate's crate, module path or
//!   `impl` type. Same-crate matches win over cross-crate ones.
//! - **Bare calls** (`helper()`): same module first, then the file's
//!   `use`-imports, then same crate; a cross-crate match is accepted only
//!   when the name is unique workspace-wide.
//! - **Method calls** (`.record(…)`): no receiver types exist at token
//!   level, so the resolver takes every same-crate method of that name,
//!   and crosses crates only when the name is unique in the workspace.
//!
//! Known imprecision (see `DESIGN.md` §8): trait-object and generic
//! dispatch resolve to every same-crate candidate (over-approximation —
//! safe for reachability rules, may over-flag); calls into `std` or
//! external crates resolve to nothing (under-approximation — a taint
//! source hidden behind an external callback is invisible, which is why
//! the lexical per-file rules stay on).

use crate::parser::{Call, ParsedFile};
use std::collections::HashMap;
use std::path::Path;

/// One workspace crate (or the root facade).
#[derive(Clone, Debug)]
pub struct CrateInfo {
    /// Directory name under `crates/` (empty string for the root package).
    pub dir: String,
    /// Names a path qualifier may use for this crate: the directory name
    /// plus the package name with `-` → `_` (e.g. `service`,
    /// `gossiptrust_serve`).
    pub aliases: Vec<String>,
}

/// One function in the graph (denormalized from the parse results).
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    /// Repo-relative path of the defining file.
    pub rel: String,
    /// Index into [`Graph::crates`].
    pub krate: usize,
    /// Full module path: file position plus inline `mod`s.
    pub module: Vec<String>,
    /// Enclosing `impl` self type, if any.
    pub impl_type: Option<String>,
    /// Function name.
    pub name: String,
    /// Behind a `#[cfg(feature=…)]`-style gate.
    pub cfg_gated: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body in the file's token stream, inclusive.
    pub body: (usize, usize),
}

impl FnNode {
    /// Display name: `Type::name` or plain `name`.
    pub fn label(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One resolved call edge.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
}

/// The workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// Workspace crates, root facade included.
    pub crates: Vec<CrateInfo>,
    /// All production functions.
    pub nodes: Vec<FnNode>,
    /// Adjacency: `edges[n]` are `n`'s resolved callees.
    pub edges: Vec<Vec<Edge>>,
}

/// BFS result over the graph.
#[derive(Clone, Debug)]
pub struct Reach {
    /// `parent[n]` = predecessor on a shortest path from some root, for
    /// reachable non-root nodes.
    pub parent: Vec<Option<usize>>,
    /// `visited[n]` = reachable from the root set (roots included).
    pub visited: Vec<bool>,
}

impl Reach {
    /// The root-to-`node` chain (inclusive), shortest-path.
    pub fn chain(&self, node: usize) -> Vec<usize> {
        let mut out = vec![node];
        let mut cur = node;
        while let Some(p) = self.parent[cur] {
            out.push(p);
            cur = p;
        }
        out.reverse();
        out
    }
}

/// Which crate a repo-relative path belongs to: `crates/<dir>/…` → `dir`,
/// anything else → the root package (empty dir).
fn crate_dir(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|t| t.split('/').next())
        .unwrap_or("")
}

/// Read the `name = "…"` out of a Cargo.toml, tolerating absence.
fn package_name(manifest: &Path) -> Option<String> {
    let text = std::fs::read_to_string(manifest).ok()?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(v) = line.strip_prefix("name") {
            let v = v.trim_start();
            if let Some(v) = v.strip_prefix('=') {
                let v = v.trim();
                return v
                    .strip_prefix('"')
                    .and_then(|v| v.split('"').next())
                    .map(str::to_string);
            }
        }
        if line.starts_with('[') && line != "[package]" && !text.contains("[package]") {
            break;
        }
    }
    None
}

impl Graph {
    /// Build the graph from parsed files. `root` is used only to read
    /// crate manifests for path-qualifier aliases.
    pub fn build(root: &Path, files: &[ParsedFile]) -> Graph {
        // Crate table.
        let mut crates: Vec<CrateInfo> = Vec::new();
        let mut crate_index: HashMap<String, usize> = HashMap::new();
        for f in files {
            let dir = crate_dir(&f.rel).to_string();
            if crate_index.contains_key(&dir) {
                continue;
            }
            let manifest = if dir.is_empty() {
                root.join("Cargo.toml")
            } else {
                root.join("crates").join(&dir).join("Cargo.toml")
            };
            let mut aliases = Vec::new();
            if !dir.is_empty() {
                aliases.push(dir.clone());
            }
            if let Some(pkg) = package_name(&manifest) {
                aliases.push(pkg.replace('-', "_"));
            }
            crate_index.insert(dir.clone(), crates.len());
            crates.push(CrateInfo { dir, aliases });
        }

        // Node table.
        let mut nodes: Vec<FnNode> = Vec::new();
        let mut node_calls: Vec<(usize, Vec<Call>)> = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            let krate = crate_index[crate_dir(&f.rel)];
            for item in &f.fns {
                let mut module = f.module.clone();
                module.extend(item.module.iter().cloned());
                let idx = nodes.len();
                nodes.push(FnNode {
                    file: fi,
                    rel: f.rel.clone(),
                    krate,
                    module,
                    impl_type: item.impl_type.clone(),
                    name: item.name.clone(),
                    cfg_gated: item.cfg_gated,
                    line: item.line,
                    body: item.body,
                });
                node_calls.push((idx, item.calls.clone()));
            }
        }

        let mut graph = Graph { crates, nodes, edges: Vec::new() };
        graph.edges = vec![Vec::new(); graph.nodes.len()];

        // Name index.
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, n) in graph.nodes.iter().enumerate() {
            by_name.entry(n.name.clone()).or_default().push(i);
        }
        for (caller, call_list) in &node_calls {
            for call in call_list {
                for callee in graph.resolve(files, *caller, call, &by_name) {
                    if callee == *caller {
                        continue;
                    }
                    let known = graph.edges[*caller].iter().any(|e| e.to == callee);
                    if !known {
                        graph.edges[*caller].push(Edge { to: callee, line: call.line });
                    }
                }
            }
        }
        graph
    }

    /// Does `qual` name something about `cand` — its crate, a module
    /// segment, or its `impl` type?
    fn qual_matches(&self, cand: &FnNode, qual: &str) -> bool {
        self.crates[cand.krate].aliases.iter().any(|a| a == qual)
            || cand.module.iter().any(|m| m == qual)
            || cand.impl_type.as_deref() == Some(qual)
    }

    /// Resolve one call from `caller` to candidate node indices.
    fn resolve(
        &self,
        files: &[ParsedFile],
        caller: usize,
        call: &Call,
        by_name: &HashMap<String, Vec<usize>>,
    ) -> Vec<usize> {
        let Some(name) = call.segments.last() else {
            return Vec::new();
        };
        let Some(cands) = by_name.get(name) else {
            return Vec::new();
        };
        let me = &self.nodes[caller];

        if call.is_method {
            let methods: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| self.nodes[c].impl_type.is_some())
                .collect();
            let same_crate: Vec<usize> = methods
                .iter()
                .copied()
                .filter(|&c| self.nodes[c].krate == me.krate)
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
            if methods.len() == 1 {
                return methods;
            }
            return Vec::new();
        }

        let quals: Vec<&str> = call.segments[..call.segments.len() - 1]
            .iter()
            .map(|s| {
                if s == "Self" {
                    me.impl_type.as_deref().unwrap_or("Self")
                } else {
                    s.as_str()
                }
            })
            .collect();

        if quals.is_empty() {
            // Bare call: same module → use-imports → same crate → unique
            // workspace-wide.
            let same_module: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| {
                    let n = &self.nodes[c];
                    n.impl_type.is_none() && n.krate == me.krate && n.module == me.module
                })
                .collect();
            if !same_module.is_empty() {
                return same_module;
            }
            if let Some(import) = files[me.file]
                .uses
                .iter()
                .find(|u| u.last().map(String::as_str) == Some(name.as_str()))
            {
                let import_quals: Vec<&str> =
                    import[..import.len() - 1].iter().map(String::as_str).collect();
                let matched = self.qualified(cands, me, &import_quals);
                if !matched.is_empty() {
                    return matched;
                }
            }
            let same_crate: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| {
                    let n = &self.nodes[c];
                    n.impl_type.is_none() && n.krate == me.krate
                })
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
            let free: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| self.nodes[c].impl_type.is_none())
                .collect();
            if free.len() == 1 {
                return free;
            }
            return Vec::new();
        }

        self.qualified(cands, me, &quals)
    }

    /// Qualified match: every qualifier must describe the candidate.
    /// Same-crate candidates shadow cross-crate ones.
    fn qualified(&self, cands: &[usize], me: &FnNode, quals: &[&str]) -> Vec<usize> {
        let matched: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| quals.iter().all(|q| self.qual_matches(&self.nodes[c], q)))
            .collect();
        let same_crate: Vec<usize> = matched
            .iter()
            .copied()
            .filter(|&c| self.nodes[c].krate == me.krate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        matched
    }

    /// Nodes matching a `name` or `Type::name` spec from `lint.toml`.
    pub fn match_spec(&self, spec: &str) -> Vec<usize> {
        let (ty, name) = match spec.rsplit_once("::") {
            Some((t, n)) => (Some(t), n),
            None => (None, spec),
        };
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.name == name && ty.is_none_or(|t| n.impl_type.as_deref() == Some(t)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Multi-source BFS along call edges.
    pub fn reach(&self, roots: &[usize]) -> Reach {
        let mut parent = vec![None; self.nodes.len()];
        let mut visited = vec![false; self.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        for &r in roots {
            if !visited[r] {
                visited[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for e in &self.edges[n] {
                if !visited[e.to] {
                    visited[e.to] = true;
                    parent[e.to] = Some(n);
                    queue.push_back(e.to);
                }
            }
        }
        Reach { parent, visited }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse_file;

    fn build(files: &[(&str, &str)]) -> (Graph, Vec<ParsedFile>) {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(rel, src)| parse_file(rel, &tokenize(src)))
            .collect();
        let g = Graph::build(Path::new("/nonexistent"), &parsed);
        (g, parsed)
    }

    fn idx(g: &Graph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.name == name).unwrap()
    }

    fn has_edge(g: &Graph, from: &str, to: &str) -> bool {
        g.edges[idx(g, from)].iter().any(|e| g.nodes[e.to].name == to)
    }

    #[test]
    fn bare_calls_resolve_within_module_then_crate() {
        let (g, _) = build(&[
            ("crates/a/src/m.rs", "pub fn top() { helper(); } fn helper() { other(); }"),
            ("crates/a/src/n.rs", "pub fn other() {}"),
            ("crates/b/src/lib.rs", "pub fn other() {}"),
        ]);
        assert!(has_edge(&g, "top", "helper"));
        // `other` exists in both crates; same-crate wins, exclusively.
        let callees: Vec<&str> = g.edges[idx(&g, "helper")]
            .iter()
            .map(|e| g.nodes[e.to].rel.as_str())
            .collect();
        assert_eq!(callees, vec!["crates/a/src/n.rs"]);
    }

    #[test]
    fn qualified_calls_match_modules_and_types() {
        let (g, _) = build(&[
            ("crates/a/src/lib.rs", "pub fn go() { engine::step(); Stopwatch::start(); }"),
            ("crates/a/src/engine.rs", "pub fn step() {}"),
            (
                "crates/obs/src/time.rs",
                "pub struct Stopwatch; impl Stopwatch { pub fn start() {} }",
            ),
        ]);
        assert!(has_edge(&g, "go", "step"));
        assert!(has_edge(&g, "go", "start"));
    }

    #[test]
    fn method_calls_prefer_same_crate_and_need_uniqueness_across() {
        let (g, _) = build(&[
            (
                "crates/a/src/lib.rs",
                "struct S; impl S { fn m(&self) {} } pub fn f(s: &S) { s.m(); }",
            ),
            ("crates/b/src/lib.rs", "struct T; impl T { fn m(&self) {} }"),
            ("crates/c/src/lib.rs", "pub fn caller(x: &X) { x.uniq(); }"),
            ("crates/d/src/lib.rs", "struct U; impl U { fn uniq(&self) {} }"),
        ]);
        // `m` is ambiguous across crates: only the same-crate edge exists.
        let m_edges = &g.edges[idx(&g, "f")];
        assert_eq!(m_edges.len(), 1);
        assert_eq!(g.nodes[m_edges[0].to].rel, "crates/a/src/lib.rs");
        // `uniq` is unique workspace-wide: the cross-crate edge exists.
        assert!(has_edge(&g, "caller", "uniq"));
    }

    #[test]
    fn use_imports_steer_bare_calls() {
        let (g, _) = build(&[
            ("crates/a/src/lib.rs", "use crate::util::shared;\npub fn f() { shared(); }"),
            ("crates/a/src/util.rs", "pub fn shared() {}"),
            ("crates/b/src/lib.rs", "pub fn shared() {}"),
        ]);
        let callees: Vec<&str> = g.edges[idx(&g, "f")]
            .iter()
            .map(|e| g.nodes[e.to].rel.as_str())
            .collect();
        assert_eq!(callees, vec!["crates/a/src/util.rs"]);
    }

    #[test]
    fn self_calls_resolve_to_the_impl_type() {
        let (g, _) = build(&[(
            "crates/a/src/lib.rs",
            "struct S; impl S { fn a() { Self::b(); } fn b() {} }\
             struct T; impl T { fn b() {} }",
        )]);
        let callees: Vec<String> =
            g.edges[idx(&g, "a")].iter().map(|e| g.nodes[e.to].label()).collect();
        assert_eq!(callees, vec!["S::b"]);
    }

    #[test]
    fn reach_walks_transitively_with_chains() {
        let (g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub fn root() { mid(); } fn mid() { leaf(); } fn leaf() {} fn island() {}",
        )]);
        let r = g.reach(&g.match_spec("root"));
        assert!(r.visited[idx(&g, "leaf")]);
        assert!(!r.visited[idx(&g, "island")]);
        let chain: Vec<String> = r
            .chain(idx(&g, "leaf"))
            .into_iter()
            .map(|n| g.nodes[n].name.clone())
            .collect();
        assert_eq!(chain, vec!["root", "mid", "leaf"]);
    }

    #[test]
    fn specs_select_by_type_and_name() {
        let (g, _) = build(&[(
            "crates/a/src/lib.rs",
            "struct Wal; impl Wal { fn open() {} } struct Db; impl Db { fn open() {} } fn open() {}",
        )]);
        assert_eq!(g.match_spec("Wal::open").len(), 1);
        assert_eq!(g.match_spec("open").len(), 3);
    }
}
