//! `cargo xtask` — workspace automation entry point.
//!
//! ```text
//! cargo xtask lint                    # run gt-lint over the whole workspace
//! cargo xtask lint --sarif out.sarif  # also write SARIF 2.1 for CI upload
//! cargo xtask lint --list-waivers     # print the active lint.toml waivers
//! cargo xtask lint --list-rules       # print the rule set
//! ```
//!
//! Exit status: 0 clean, 1 violations or expired waivers, 2
//! usage/configuration error.

#![forbid(unsafe_code)]

use gossiptrust_xtask::rules::RULE_NAMES;
use gossiptrust_xtask::{run_lint, sarif, walk};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask subcommand {other:?}; available: lint");
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo xtask lint [--sarif <path>] [--list-rules | --list-waivers]");
            ExitCode::from(2)
        }
    }
}

fn lint(flags: &[String]) -> ExitCode {
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("gt-lint: cannot read current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = walk::find_root(&cwd) else {
        eprintln!("gt-lint: no workspace root (Cargo.toml + crates/) above {}", cwd.display());
        return ExitCode::from(2);
    };

    if flags.iter().any(|f| f == "--list-rules") {
        for r in RULE_NAMES {
            println!("{r}");
        }
        return ExitCode::SUCCESS;
    }

    let mut sarif_path: Option<String> = None;
    let mut it = flags.iter();
    while let Some(f) = it.next() {
        match f.as_str() {
            "--sarif" => {
                let Some(p) = it.next() else {
                    eprintln!("gt-lint: --sarif needs a path");
                    return ExitCode::from(2);
                };
                sarif_path = Some(p.clone());
            }
            "--list-waivers" => {}
            other => {
                eprintln!("gt-lint: unknown flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    if flags.iter().any(|f| f == "--list-waivers") {
        let text = std::fs::read_to_string(root.join("lint.toml")).unwrap_or_default();
        match gossiptrust_xtask::config::parse(&text) {
            Ok(cfg) => {
                for w in &cfg.waivers {
                    println!("{:<16} {:<44} expires {}  {}", w.rule, w.path, w.expires, w.reason);
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("gt-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }

    match run_lint(&root) {
        Ok(report) => {
            if let Some(path) = sarif_path {
                if let Err(e) = std::fs::write(&path, sarif::to_sarif(&report.violations)) {
                    eprintln!("gt-lint: writing SARIF to {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            for w in &report.unused_waivers {
                eprintln!(
                    "gt-lint: warning: unused waiver ({}, {}) — remove it from lint.toml",
                    w.rule, w.path
                );
            }
            for w in &report.expired_waivers {
                eprintln!(
                    "gt-lint: expired waiver ({}, {}) — expired {}; fix the code or renew \
                     with a fresh justification",
                    w.rule, w.path, w.expires
                );
            }
            if report.is_clean() {
                println!("gt-lint: {} files clean", report.files_scanned);
                ExitCode::SUCCESS
            } else {
                for v in &report.violations {
                    println!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
                }
                println!(
                    "gt-lint: {} violation(s), {} expired waiver(s) in {} files scanned",
                    report.violations.len(),
                    report.expired_waivers.len(),
                    report.files_scanned
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gt-lint: {e}");
            ExitCode::from(2)
        }
    }
}
