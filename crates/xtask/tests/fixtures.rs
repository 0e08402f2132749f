//! Golden-fixture self-tests for the workspace-analysis rule families.
//!
//! Each family has a committed pair of mini-workspaces under
//! `crates/xtask/fixtures/`: one that provably trips the rule and one
//! that stays clean while containing the same tempting construct off the
//! analyzed paths. Running the real `run_lint` over them pins both the
//! detection and the precision side of every rule.

use gossiptrust_xtask::rules::Violation;
use gossiptrust_xtask::run_lint;
use std::path::PathBuf;

/// Lint one committed fixture workspace.
fn lint_fixture(name: &str) -> Vec<Violation> {
    // env!, not env::var: the manifest dir is a compile-time constant and
    // the env-var rule exists to keep runtime reads out of this crate.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    assert!(root.is_dir(), "missing fixture {}", root.display());
    let report = run_lint(&root).unwrap_or_else(|e| panic!("lint {name}: {e}"));
    assert!(report.expired_waivers.is_empty(), "{name}: {:?}", report.expired_waivers);
    report.violations
}

#[test]
fn taint_trip_fixture_trips_and_names_the_chain() {
    let v = lint_fixture("taint_trip");
    let taint: Vec<&Violation> = v.iter().filter(|v| v.rule == "taint-clock").collect();
    assert_eq!(taint.len(), 1, "{v:?}");
    let hit = taint[0];
    assert_eq!(hit.path, "crates/k/src/lib.rs");
    // The message carries the full sink → source chain.
    for hop in ["step_slab", "helper", "tick", "Instant::now"] {
        assert!(hit.message.contains(hop), "missing {hop} in {}", hit.message);
    }
}

#[test]
fn taint_clean_fixture_is_clean() {
    let v = lint_fixture("taint_clean");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn panic_trip_fixture_trips_on_the_reachable_unwrap() {
    let v = lint_fixture("panic_trip");
    let p: Vec<&Violation> = v.iter().filter(|v| v.rule == "panic-path").collect();
    assert_eq!(p.len(), 1, "{v:?}");
    assert_eq!(p[0].path, "crates/k/src/lib.rs");
    assert!(p[0].message.contains("handle"), "{}", p[0].message);
    assert!(p[0].message.contains("serve"), "{}", p[0].message);
}

#[test]
fn panic_clean_fixture_tolerates_offline_unwraps() {
    let v = lint_fixture("panic_clean");
    assert!(v.is_empty(), "{v:?}");
}
