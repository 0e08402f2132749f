//! # gossiptrust-xtask
//!
//! Workspace automation, `cargo xtask` style. The one subcommand that
//! matters is **`gt-lint`** (`cargo xtask lint`): a repo-specific static
//! analysis pass that machine-checks the contracts the compiler cannot
//! see. Two layers run on every invocation:
//!
//! - **Per-file token rules** ([`rules`]): float-equality hygiene, the
//!   single env-knob surface, hash-free deterministic kernels,
//!   `#![forbid(unsafe_code)]` coverage, the ban on ambient entropy, and
//!   the obs-only clock surface.
//! - **Workspace call-graph rules** ([`analysis`] over [`parser`] +
//!   [`graph`]): taint reachability into the deterministic kernel entry
//!   points, and panic-path freedom for request-serving code.
//!
//! Findings are reported in a human format and, on request, as SARIF
//! 2.1 ([`sarif`]) for CI annotation. See `DESIGN.md` §8 for the contract
//! rationale and the documented imprecision of the call-graph
//! approximation.
//!
//! The crate is **dependency-free by design**: the linter is the first CI
//! gate and must build and run before any of the workspace's external
//! dependencies resolve. It therefore walks token streams from its own
//! small lexer ([`lexer`]) rather than a full AST.
//!
//! Waivers live in the checked-in `lint.toml` ([`config`]): one
//! `(rule, path, reason, expires)` tuple per exception, validated
//! strictly — stale entries are warnings, expired entries are errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod walk;

use config::LintConfig;
use rules::Violation;
use std::path::Path;

/// Outcome of a full lint run.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Violations that survived the waiver filter (non-empty = fail).
    pub violations: Vec<Violation>,
    /// Waivers present in lint.toml that matched no violation this run.
    /// Reported as warnings — the waiver (or the rule) has gone stale.
    pub unused_waivers: Vec<config::Waiver>,
    /// Waivers whose `expires` date has passed (non-empty = fail).
    pub expired_waivers: Vec<config::Waiver>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.expired_waivers.is_empty()
    }
}

/// Run the full gt-lint pass over the workspace at `root`.
///
/// Reads `lint.toml` at the root (absence = no waivers, no workspace
/// analysis), scans every lintable source (see [`walk::rust_sources`]),
/// runs the per-file rules and — when `[analysis]` is configured — the
/// call-graph rule families, and filters violations through the waiver
/// list.
///
/// # Errors
/// Configuration problems (malformed lint.toml, waivers naming unknown
/// rules or nonexistent files) and unreadable sources are errors — a lint
/// run must never silently skip what it cannot check.
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    let config_path = root.join("lint.toml");
    let config_text = if config_path.is_file() {
        std::fs::read_to_string(&config_path).map_err(|e| format!("reading lint.toml: {e}"))?
    } else {
        String::new()
    };
    let config: LintConfig = config::parse(&config_text)?;
    for w in &config.waivers {
        if !root.join(&w.path).is_file() {
            return Err(format!(
                "lint.toml:{}: waiver for ({}, {}) names a file that does not exist",
                w.line, w.rule, w.path
            ));
        }
    }
    let today = config::today_utc();
    let expired_waivers: Vec<config::Waiver> = config::expired(&config.waivers, &today)
        .into_iter()
        .cloned()
        .collect();

    // Layer 1: per-file token rules.
    let files = walk::rust_sources(root);
    let mut raw: Vec<Violation> = Vec::new();
    let mut tokens: Vec<Vec<lexer::Token>> = Vec::with_capacity(files.len());
    for rel in &files {
        let source =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        let toks = lexer::tokenize(&source);
        raw.extend(rules::check_file(rel, &toks, rules::classify(rel)));
        tokens.push(toks);
    }

    // Layer 2: workspace call-graph rules (configured via [analysis]).
    let run_analysis =
        !(config.analysis.taint_sinks.is_empty() && config.analysis.panic_roots.is_empty());
    if run_analysis {
        let parsed: Vec<parser::ParsedFile> = files
            .iter()
            .zip(&tokens)
            .map(|(rel, toks)| {
                if rules::classify(rel).is_test_file {
                    // Test files contribute no production graph nodes.
                    parser::ParsedFile { rel: rel.clone(), ..Default::default() }
                } else {
                    parser::parse_file(rel, toks)
                }
            })
            .collect();
        let g = graph::Graph::build(root, &parsed);
        analysis::taint(&parsed, &tokens, &g, &config.analysis, &mut raw);
        analysis::panic_path(&tokens, &g, &config.analysis, &mut raw);
    }

    // Waiver filter.
    let mut violations = Vec::new();
    let mut used = vec![false; config.waivers.len()];
    for v in raw {
        match config
            .waivers
            .iter()
            .position(|w| w.rule == v.rule && w.path == v.path)
        {
            Some(idx) => used[idx] = true,
            None => violations.push(v),
        }
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let unused_waivers: Vec<config::Waiver> = config
        .waivers
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(w, _)| w.clone())
        .collect();
    Ok(LintReport { violations, unused_waivers, expired_waivers, files_scanned: files.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gt_lint_run_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/k/src")).unwrap();
        fs::write(dir.join("Cargo.toml"), "[workspace]").unwrap();
        dir
    }

    #[test]
    fn clean_tree_is_clean() {
        let root = scratch("clean");
        fs::write(
            root.join("crates/k/src/lib.rs"),
            "#![forbid(unsafe_code)]\npub fn f(x: f64) -> bool { x > 0.5 }\n",
        )
        .unwrap();
        let report = run_lint(&root).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.files_scanned, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn waivers_suppress_and_stale_waivers_surface() {
        let root = scratch("waive");
        fs::write(
            root.join("crates/k/src/lib.rs"),
            "#![forbid(unsafe_code)]\npub fn f(x: f64) -> bool { x == 0.5 }\n",
        )
        .unwrap();
        // Unwaived: one float-eq violation.
        let report = run_lint(&root).unwrap();
        assert_eq!(report.violations.len(), 1);
        // Waived: clean, waiver used.
        fs::write(
            root.join("lint.toml"),
            "[[allow]]\nrule = \"float-eq\"\npath = \"crates/k/src/lib.rs\"\nreason = \"r\"\n\
             expires = \"2099-12-31\"\n",
        )
        .unwrap();
        let report = run_lint(&root).unwrap();
        assert!(report.is_clean());
        assert!(report.unused_waivers.is_empty());
        // Over-waived: a second waiver that matches nothing is reported.
        fs::write(
            root.join("lint.toml"),
            "[[allow]]\nrule = \"float-eq\"\npath = \"crates/k/src/lib.rs\"\nreason = \"r\"\n\
             expires = \"2099-12-31\"\n\
             [[allow]]\nrule = \"entropy\"\npath = \"crates/k/src/lib.rs\"\nreason = \"r\"\n\
             expires = \"2099-12-31\"\n",
        )
        .unwrap();
        let report = run_lint(&root).unwrap();
        assert_eq!(report.unused_waivers.len(), 1);
        assert_eq!(report.unused_waivers[0].rule, "entropy");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn expired_waivers_fail_the_run() {
        let root = scratch("expired");
        fs::write(
            root.join("crates/k/src/lib.rs"),
            "#![forbid(unsafe_code)]\npub fn f(x: f64) -> bool { x == 0.5 }\n",
        )
        .unwrap();
        fs::write(
            root.join("lint.toml"),
            "[[allow]]\nrule = \"float-eq\"\npath = \"crates/k/src/lib.rs\"\nreason = \"r\"\n\
             expires = \"2020-01-01\"\n",
        )
        .unwrap();
        let report = run_lint(&root).unwrap();
        // The waiver still suppresses the violation but its expiry fails
        // the run — renew (with a fresh justification) or fix the code.
        assert!(report.violations.is_empty());
        assert_eq!(report.expired_waivers.len(), 1);
        assert!(!report.is_clean());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn analysis_rules_run_when_configured() {
        let root = scratch("analysis");
        fs::write(
            root.join("crates/k/src/lib.rs"),
            "#![forbid(unsafe_code)]\n\
             pub fn step_slab() { helper(); }\n\
             fn helper() { let _ = Instant::now(); }\n",
        )
        .unwrap();
        // Without [analysis]: only the lexical time-source rule fires.
        let report = run_lint(&root).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "time-source");
        // With [analysis]: the taint rule fires too.
        fs::write(root.join("lint.toml"), "[analysis]\ntaint_sinks = [\"step_slab\"]\n").unwrap();
        let report = run_lint(&root).unwrap();
        assert!(report.violations.iter().any(|v| v.rule == "taint-clock"), "{report:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn waiver_for_missing_file_is_an_error() {
        let root = scratch("missing");
        fs::write(root.join("crates/k/src/lib.rs"), "#![forbid(unsafe_code)]\n").unwrap();
        fs::write(
            root.join("lint.toml"),
            "[[allow]]\nrule = \"float-eq\"\npath = \"crates/gone.rs\"\nreason = \"r\"\n\
             expires = \"2099-12-31\"\n",
        )
        .unwrap();
        let err = run_lint(&root).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }
}
