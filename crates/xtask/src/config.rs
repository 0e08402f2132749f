//! `lint.toml` — the checked-in waiver and analysis-config file.
//!
//! Every waiver names one `(rule, file)` pair, a reason, and an expiry
//! date, so the diff review of a new waiver *is* the audit trail and debt
//! cannot rot silently:
//!
//! ```toml
//! [[allow]]
//! rule = "float-eq"
//! path = "crates/core/src/matrix.rs"
//! reason = "zero-skip fast paths compare exact 0.0 sentinels"
//! expires = "2027-08-01"
//! ```
//!
//! The `[analysis]` section configures the workspace-level rule families
//! (taint sinks, panic roots and scan scope); when absent,
//! those rules are no-ops:
//!
//! ```toml
//! [analysis]
//! taint_sinks = ["step_slab", "par_step"]
//! panic_roots = ["serve_on_with", "Wal::open"]
//! panic_scan_paths = ["crates/service/src"]
//! ```
//!
//! The parser is a deliberate subset of TOML (`[[allow]]` tables and one
//! `[analysis]` table with string / string-array values) so the linter
//! stays dependency-free; unknown keys, unknown rules, waivers for files
//! that no longer exist, and **expired waivers** are hard errors.

use crate::rules::RULE_NAMES;

/// One `[[allow]]` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Waiver {
    /// Rule identifier (validated against [`RULE_NAMES`]).
    pub rule: String,
    /// Repo-relative `/`-separated file path the waiver applies to.
    pub path: String,
    /// Why the waiver exists (required, shown in `--list-waivers`).
    pub reason: String,
    /// `YYYY-MM-DD` date after which the waiver is a hard error.
    pub expires: String,
    /// Line in lint.toml (for error messages).
    pub line: u32,
}

/// Configuration for the call-graph rule families (`[analysis]`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Deterministic entry points (`name` or `Type::name`) that taint
    /// sources must not reach.
    pub taint_sinks: Vec<String>,
    /// Serving roots for the panic-path rule.
    pub panic_roots: Vec<String>,
    /// Path prefixes whose functions are scanned for panic sites.
    pub panic_scan_paths: Vec<String>,
}

/// The parsed waiver file.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// All waivers, in file order.
    pub waivers: Vec<Waiver>,
    /// Workspace-analysis configuration.
    pub analysis: AnalysisConfig,
}

impl LintConfig {
    /// True if `(rule, path)` is waived.
    pub fn is_allowed(&self, rule: &str, path: &str) -> bool {
        self.waivers.iter().any(|w| w.rule == rule && w.path == path)
    }
}

/// Validate `YYYY-MM-DD` shape and plausible field ranges.
fn valid_date(s: &str) -> bool {
    let bytes = s.as_bytes();
    if bytes.len() != 10 || bytes.get(4) != Some(&b'-') || bytes.get(7) != Some(&b'-') {
        return false;
    }
    let num = |r: std::ops::Range<usize>| -> Option<u32> { s.get(r)?.parse().ok() };
    let (Some(y), Some(m), Some(d)) = (num(0..4), num(5..7), num(8..10)) else {
        return false;
    };
    (2000..=9999).contains(&y) && (1..=12).contains(&m) && (1..=31).contains(&d)
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock.
///
/// Uses the civil-from-days algorithm (Howard Hinnant) on the Unix epoch
/// offset, so the linter needs no date dependency. The clock read here is
/// the reason `lint.toml` carries a `time-source` waiver for this file.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Waivers whose `expires` date is strictly before `today`
/// (`YYYY-MM-DD` strings compare correctly lexicographically).
pub fn expired<'a>(waivers: &'a [Waiver], today: &str) -> Vec<&'a Waiver> {
    waivers.iter().filter(|w| w.expires.as_str() < today).collect()
}

/// Parse a `["a", "b"]` TOML string array (single line).
fn parse_array(lineno: u32, key: &str, value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| {
            format!("lint.toml:{lineno}: value of `{key}` must be a [\"…\"] array on one line")
        })?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let s = part
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("lint.toml:{lineno}: `{key}` entries must be quoted strings"))?;
        out.push(s.to_string());
    }
    Ok(out)
}

/// Which table the parser is inside.
enum Section {
    None,
    Allow,
    Analysis,
}

/// Parse the waiver file contents.
///
/// # Errors
/// Returns a human-readable message for malformed syntax, unknown keys,
/// unknown rule names, bad dates, or entries missing
/// `rule`/`path`/`reason`/`expires`.
pub fn parse(source: &str) -> Result<LintConfig, String> {
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut analysis = AnalysisConfig::default();
    let mut current: Option<Waiver> = None;
    let mut section = Section::None;
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(w) = current.take() {
                finish(&mut waivers, w)?;
            }
            current = Some(Waiver {
                rule: String::new(),
                path: String::new(),
                reason: String::new(),
                expires: String::new(),
                line: lineno,
            });
            section = Section::Allow;
            continue;
        }
        if line == "[analysis]" {
            if let Some(w) = current.take() {
                finish(&mut waivers, w)?;
            }
            section = Section::Analysis;
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("lint.toml:{lineno}: unknown table {line}"));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("lint.toml:{lineno}: expected `key = \"value\"`, got {line:?}"));
        };
        let key = key.trim();
        let value = value.trim();
        match section {
            Section::Analysis => {
                let arr = parse_array(lineno, key, value)?;
                match key {
                    "taint_sinks" => analysis.taint_sinks = arr,
                    "panic_roots" => analysis.panic_roots = arr,
                    "panic_scan_paths" => analysis.panic_scan_paths = arr,
                    other => {
                        return Err(format!(
                            "lint.toml:{lineno}: unknown [analysis] key `{other}`"
                        ));
                    }
                }
            }
            Section::Allow => {
                let value =
                    value
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| {
                            format!("lint.toml:{lineno}: value of `{key}` must be a quoted string")
                        })?;
                let Some(w) = current.as_mut() else {
                    return Err(format!("lint.toml:{lineno}: `{key}` outside an [[allow]] table"));
                };
                match key {
                    "rule" => w.rule = value.to_string(),
                    "path" => w.path = value.to_string(),
                    "reason" => w.reason = value.to_string(),
                    "expires" => {
                        if !valid_date(value) {
                            return Err(format!(
                                "lint.toml:{lineno}: `expires` must be a YYYY-MM-DD date, \
                                 got {value:?}"
                            ));
                        }
                        w.expires = value.to_string();
                    }
                    other => {
                        return Err(format!("lint.toml:{lineno}: unknown key `{other}`"));
                    }
                }
            }
            Section::None => {
                return Err(format!("lint.toml:{lineno}: `{key}` outside an [[allow]] table"));
            }
        }
    }
    if let Some(w) = current.take() {
        finish(&mut waivers, w)?;
    }
    Ok(LintConfig { waivers, analysis })
}

fn finish(waivers: &mut Vec<Waiver>, w: Waiver) -> Result<(), String> {
    if w.rule.is_empty() || w.path.is_empty() || w.reason.is_empty() || w.expires.is_empty() {
        return Err(format!(
            "lint.toml:{}: an [[allow]] entry needs all of rule, path, reason, expires",
            w.line
        ));
    }
    if !RULE_NAMES.contains(&w.rule.as_str()) {
        return Err(format!(
            "lint.toml:{}: unknown rule {:?} (known: {})",
            w.line,
            w.rule,
            RULE_NAMES.join(", ")
        ));
    }
    if waivers.iter().any(|p| p.rule == w.rule && p.path == w.path) {
        return Err(format!("lint.toml:{}: duplicate waiver for ({}, {})", w.line, w.rule, w.path));
    }
    waivers.push(w);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAIL: &str = "expires = \"2099-12-31\"\n";

    #[test]
    fn parses_entries_and_comments() {
        let cfg = parse(&format!(
            "# header\n\n[[allow]]\nrule = \"float-eq\"\npath = \"crates/a/src/x.rs\"\n\
             reason = \"exact sentinel\"\n{TAIL}\n[[allow]]\nrule = \"env-var\"\n\
             path = \"crates/b/src/y.rs\"\nreason = \"designated accessor\"\n{TAIL}",
        ))
        .unwrap();
        assert_eq!(cfg.waivers.len(), 2);
        assert!(cfg.is_allowed("float-eq", "crates/a/src/x.rs"));
        assert!(!cfg.is_allowed("float-eq", "crates/b/src/y.rs"));
        assert_eq!(cfg.waivers[0].expires, "2099-12-31");
    }

    #[test]
    fn parses_the_analysis_section() {
        let cfg = parse(
            "[analysis]\ntaint_sinks = [\"step_slab\", \"par_step\"]\n\
             panic_roots = [\"Wal::open\"]\npanic_scan_paths = []\n",
        )
        .unwrap();
        assert_eq!(cfg.analysis.taint_sinks, vec!["step_slab", "par_step"]);
        assert_eq!(cfg.analysis.panic_roots, vec!["Wal::open"]);
        assert!(cfg.analysis.panic_scan_paths.is_empty());
        let err = parse("[analysis]\nbogus = [\"x\"]\n").unwrap_err();
        assert!(err.contains("unknown [analysis] key"), "{err}");
        let err = parse("[analysis]\ntaint_sinks = \"x\"\n").unwrap_err();
        assert!(err.contains("array"), "{err}");
    }

    #[test]
    fn rejects_unknown_rules_and_keys() {
        let err =
            parse(&format!("[[allow]]\nrule = \"no-such\"\npath = \"a\"\nreason = \"r\"\n{TAIL}"))
                .unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
        let err = parse("[[allow]]\nrule = \"float-eq\"\nfile = \"a\"\n").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn requires_expires_and_validates_dates() {
        let err =
            parse("[[allow]]\nrule = \"float-eq\"\npath = \"a\"\nreason = \"r\"\n").unwrap_err();
        assert!(err.contains("needs all of"), "{err}");
        let err = parse(
            "[[allow]]\nrule = \"float-eq\"\npath = \"a\"\nreason = \"r\"\n\
             expires = \"soon\"\n",
        )
        .unwrap_err();
        assert!(err.contains("YYYY-MM-DD"), "{err}");
        let err = parse(
            "[[allow]]\nrule = \"float-eq\"\npath = \"a\"\nreason = \"r\"\n\
             expires = \"2027-13-01\"\n",
        )
        .unwrap_err();
        assert!(err.contains("YYYY-MM-DD"), "{err}");
    }

    #[test]
    fn expiry_comparison_is_lexicographic_and_today_is_sane() {
        let w = |date: &str| Waiver {
            rule: "float-eq".into(),
            path: "a".into(),
            reason: "r".into(),
            expires: date.into(),
            line: 1,
        };
        let ws = [w("2020-01-01"), w("2099-12-31")];
        let ex = expired(&ws, "2026-08-08");
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].expires, "2020-01-01");
        let today = today_utc();
        assert!(valid_date(&today), "{today}");
        assert!(today.as_str() > "2026-01-01", "{today}");
    }

    #[test]
    fn rejects_incomplete_and_duplicate_entries() {
        let two = format!("[[allow]]\nrule = \"float-eq\"\npath = \"a\"\nreason = \"r\"\n{TAIL}");
        let err = parse(&format!("{two}{two}")).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn rejects_keys_outside_tables_and_bad_syntax() {
        assert!(parse("rule = \"float-eq\"\n").unwrap_err().contains("outside"));
        assert!(parse("[[allow]]\nrule float-eq\n").unwrap_err().contains("expected"));
        assert!(parse("[[allow]]\nrule = float-eq\n").unwrap_err().contains("quoted"));
        assert!(parse("[bogus]\n").unwrap_err().contains("unknown table"));
    }

    #[test]
    fn empty_config_allows_nothing() {
        let cfg = parse("# nothing here\n").unwrap();
        assert!(cfg.waivers.is_empty());
        assert!(!cfg.is_allowed("float-eq", "x"));
        assert_eq!(cfg.analysis, AnalysisConfig::default());
    }
}
