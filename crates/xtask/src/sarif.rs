//! SARIF 2.1.0 emission — hand-rolled, dependency-free.
//!
//! The output targets GitHub code scanning: one run, one driver
//! (`gt-lint`), one `result` per violation with a physical location, so a
//! CI upload annotates the offending lines right in the PR diff. Only the
//! small subset of SARIF that code scanning reads is emitted.

use crate::rules::{Violation, RULE_NAMES};

/// Minimal JSON string escaping.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One-line description per rule, shown by SARIF viewers.
fn rule_description(rule: &str) -> &'static str {
    match rule {
        "float-eq" => "No exact float equality in non-test code",
        "env-var" => "Environment reads only through core::params",
        "hash-iter" => "No HashMap/HashSet in deterministic kernels",
        "forbid-unsafe" => "Crate roots must carry #![forbid(unsafe_code)]",
        "entropy" => "No ambient entropy; randomness flows from explicit seeds",
        "time-source" => "Raw clock reads only inside crates/obs",
        "taint-clock" => "No transitive clock reads from deterministic sinks",
        "taint-entropy" => "No transitive ambient entropy from deterministic sinks",
        "taint-env" => "No transitive environment reads from deterministic sinks",
        "taint-hash" => "No transitive HashMap/HashSet use from deterministic sinks",
        "panic-path" => "No panic-capable sites reachable from serving roots",
        _ => "gt-lint rule",
    }
}

/// Serialize violations as a SARIF 2.1.0 log.
///
/// The full rule set is always declared (so a clean run still names its
/// rules), and every violation becomes an `error`-level result.
pub fn to_sarif(violations: &[Violation]) -> String {
    let mut rules_json = String::new();
    for (i, r) in RULE_NAMES.iter().enumerate() {
        if i > 0 {
            rules_json.push(',');
        }
        rules_json.push_str(&format!(
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            esc(r),
            esc(rule_description(r))
        ));
    }
    let mut results_json = String::new();
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            results_json.push(',');
        }
        results_json.push_str(&format!(
            "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            esc(v.rule),
            esc(&v.message),
            esc(&v.path),
            v.line.max(1)
        ));
    }
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"gt-lint\",\
         \"informationUri\":\"https://example.org/gossiptrust\",\"rules\":[{rules_json}]}}}},\
         \"results\":[{results_json}]}}]}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_declares_rules_and_no_results() {
        let s = to_sarif(&[]);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"name\":\"gt-lint\""));
        assert!(s.contains("\"results\":[]"));
        for r in RULE_NAMES {
            assert!(s.contains(&format!("\"id\":\"{r}\"")), "missing rule {r}");
        }
    }

    #[test]
    fn violations_become_located_results() {
        let v = Violation {
            rule: "panic-path",
            path: "crates/service/src/server.rs".into(),
            line: 42,
            message: "a \"quoted\" message\nwith newline".into(),
        };
        let s = to_sarif(&[v]);
        assert!(s.contains("\"ruleId\":\"panic-path\""));
        assert!(s.contains("\"startLine\":42"));
        assert!(s.contains("\\\"quoted\\\""));
        assert!(s.contains("\\n"));
        assert!(!s.contains('\n'), "output must be single-line JSON");
    }
}
