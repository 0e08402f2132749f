//! End-to-end check that gt-lint catches a seeded violation of **every**
//! rule class in a synthetic workspace — the lint's own acceptance gate:
//! float `==`, a stray `env::var`, `HashMap` in a kernel, a crate root
//! missing `#![forbid(unsafe_code)]`, and an entropy source.

use gossiptrust_xtask::run_lint;
use std::fs;
use std::path::PathBuf;

/// Build a minimal fake workspace with one violation per rule. `tag`
/// keeps the two tests (which run in parallel) out of each other's tree.
fn seeded_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("gt_lint_seeded_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for dir in ["crates/gossip/src", "crates/app/src", "src"] {
        fs::create_dir_all(root.join(dir)).unwrap();
    }
    fs::write(root.join("Cargo.toml"), "[workspace]").unwrap();
    // Root facade: clean.
    fs::write(root.join("src/lib.rs"), "#![forbid(unsafe_code)]\n").unwrap();
    // Kernel crate: missing forbid(unsafe_code) + HashMap + float ==.
    fs::write(
        root.join("crates/gossip/src/lib.rs"),
        "use std::collections::HashMap;\n\
         pub fn merge(m: &HashMap<u32, f64>, x: f64) -> bool {\n\
             let _ = m.len();\n\
             x == 0.5\n\
         }\n",
    )
    .unwrap();
    // App crate: stray env read + ambient entropy.
    fs::write(
        root.join("crates/app/src/lib.rs"),
        "#![forbid(unsafe_code)]\n\
         pub fn knob() -> bool { std::env::var(\"GT_X\").is_ok() }\n\
         pub fn roll() -> u32 { let _r = rand::thread_rng(); 4 }\n",
    )
    .unwrap();
    root
}

#[test]
fn every_rule_class_catches_its_seeded_violation() {
    let root = seeded_workspace("catch");
    let report = run_lint(&root).unwrap();
    let rules_hit: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    for rule in [
        "float-eq",
        "env-var",
        "hash-iter",
        "forbid-unsafe",
        "entropy",
    ] {
        assert!(rules_hit.contains(&rule), "rule {rule} not caught; hit = {rules_hit:?}");
    }
    // And each violation points at the right file.
    for v in &report.violations {
        let expect = match v.rule {
            "float-eq" | "hash-iter" | "forbid-unsafe" => "crates/gossip/src/lib.rs",
            "env-var" | "entropy" => "crates/app/src/lib.rs",
            other => panic!("unexpected rule {other}"),
        };
        assert_eq!(v.path, expect, "{v:?}");
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn waiving_every_violation_makes_the_tree_clean() {
    let root = seeded_workspace("waive");
    let n_before = run_lint(&root).unwrap().violations.len();
    assert!(n_before >= 5);
    fs::write(
        root.join("lint.toml"),
        "[[allow]]\nrule = \"float-eq\"\npath = \"crates/gossip/src/lib.rs\"\nreason = \"t\"\nexpires = \"2099-12-31\"\n\
         [[allow]]\nrule = \"hash-iter\"\npath = \"crates/gossip/src/lib.rs\"\nreason = \"t\"\nexpires = \"2099-12-31\"\n\
         [[allow]]\nrule = \"forbid-unsafe\"\npath = \"crates/gossip/src/lib.rs\"\nreason = \"t\"\nexpires = \"2099-12-31\"\n\
         [[allow]]\nrule = \"env-var\"\npath = \"crates/app/src/lib.rs\"\nreason = \"t\"\nexpires = \"2099-12-31\"\n\
         [[allow]]\nrule = \"entropy\"\npath = \"crates/app/src/lib.rs\"\nreason = \"t\"\nexpires = \"2099-12-31\"\n",
    )
    .unwrap();
    let report = run_lint(&root).unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(report.unused_waivers.is_empty());
    let _ = fs::remove_dir_all(&root);
}
