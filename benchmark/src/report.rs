//! The one command's report modes: every workload untraced then traced
//! (`full`), and the A/A noise run (`aa`). Each run is a child process of
//! this same binary, so set-up time and peak RSS are per run.

use crate::manifest::{self, Manifest, END_TO_END};
use crate::minijson::{self, Value};
use crate::{out_dir, sys, Args};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// What a child run printed: `(correct, attempted, failed, name → value)`.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{workload} (trace {}) exited with {}", traced as u8, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = minijson::parse(line)?;
    let number = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Value::as_bool).unwrap_or(false),
        attempted: number("attempted"),
        failed: number("failed"),
        metrics: doc
            .get("metrics")
            .map(Value::members)
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

fn selected(args: &Args) -> Vec<&'static str> {
    manifest::WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect()
}

fn json_metrics(metrics: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = metrics.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

fn machine_fields() -> String {
    format!(
        "\"nproc\": {}, \"cpu\": {:?}, \"llc_mb\": {}, \"rustc\": {:?}, \"commit\": {:?}, \"deps\": {:?}",
        sys::nproc(),
        sys::cpu_model(),
        sys::llc_bytes() >> 20,
        sys::rustc_version(),
        sys::commit(),
        sys::linked_deps()
    )
}

/// Every selected workload: untraced for the end-to-end metrics, then
/// traced for the per-layer metrics. One JSON object per workload on
/// stdout, the human tables on stderr. Exit code 1 when any check failed.
pub fn full(args: &Args, seconds: f64) -> i32 {
    let mut exit = 0;
    for workload in selected(args) {
        let mut fields = vec![
            format!(
                "\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {seconds}",
                args.seed
            ),
            machine_fields(),
        ];
        let (mut attempted, mut failed, mut correct) = (0, 0, true);
        let modes: &[bool] = if args.traced_only {
            &[true]
        } else {
            &[false, true]
        };
        for &traced in modes {
            eprintln!(
                "\n== {workload} ({}) ==",
                if traced {
                    "traced, per-layer"
                } else {
                    "untraced, end-to-end"
                }
            );
            match child(workload, args.seed, seconds, traced) {
                Ok(result) => {
                    attempted += result.attempted;
                    failed += result.failed;
                    correct &= result.correct;
                    let key = if traced { "per_layer" } else { "end_to_end" };
                    fields.push(format!("\"{key}\": {}", json_metrics(&result.metrics)));
                }
                Err(e) => {
                    eprintln!("gtbench: {e}");
                    correct = false;
                }
            }
        }
        fields.push(format!(
            "\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"fail_share\": {}",
            failed as f64 / attempted.max(1) as f64
        ));
        println!("{{{}}}", fields.join(", "));
        if !correct {
            exit = 1;
        }
    }
    exit
}

/// A/A: every selected workload twice from this one binary, the two runs
/// back to back. Prints each end-to-end metric's relative difference
/// (positive = the second run was worse), writes `out/aa.json`, and returns
/// 1 when any pair disagrees by more than its bound in `BENCHMARK.json`.
///
/// The pair is adjacent in time on purpose: this box's speed drifts by
/// ±10–20 % over minutes (README, "Noise and bounds"), and a pair that
/// straddles other workloads' runs measures that drift, not the noise a
/// paired, alternating A/B comparison of two builds would see.
pub fn aa(args: &Args, seconds: f64, manifest: Option<&Manifest>) -> i32 {
    let order = selected(args);
    let mut runs: BTreeMap<&str, Vec<ChildResult>> = BTreeMap::new();
    for &workload in &order {
        for run in 1..=2 {
            eprintln!("\n== A/A {workload}, run {run} ==");
            match child(workload, args.seed, seconds, false) {
                Ok(result) => runs.entry(workload).or_default().push(result),
                Err(e) => {
                    eprintln!("gtbench: {e}");
                    return 1;
                }
            }
        }
    }
    let mut exit = 0;
    let mut rows = Vec::new();
    eprintln!(
        "\n{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for workload in order {
        let pair = &runs[workload];
        if !(pair[0].correct && pair[1].correct) {
            eprintln!("{workload}: a run reported failed operations");
            exit = 1;
        }
        for metric in &END_TO_END {
            let (a, b) = (pair[0].metrics[metric.name], pair[1].metrics[metric.name]);
            let worse_by = if metric.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let bound = manifest
                .and_then(|m| m.bounds.get(metric.name))
                .copied()
                .unwrap_or(0.25);
            let flag = if worse_by.abs() > bound {
                "  EXCEEDS"
            } else {
                ""
            };
            if worse_by.abs() > bound {
                exit = 1;
            }
            eprintln!(
                "{workload:<14} {:<18} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{flag}",
                metric.name,
                100.0 * worse_by,
                100.0 * bound
            );
            rows.push(format!(
                "    {{\"workload\": \"{workload}\", \"metric\": \"{}\", \"first\": {a}, \"second\": {b}, \"worse_by\": {worse_by}, \"bound\": {bound}}}",
                metric.name
            ));
        }
    }
    let doc = format!(
        "{{\n  \"seed\": {}, \"seconds\": {seconds}, {},\n  \"pairs\": [\n{}\n  ]\n}}\n",
        args.seed,
        machine_fields(),
        rows.join(",\n")
    );
    print!("{doc}");
    let path = out_dir().join("aa.json");
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("gtbench: could not write {}: {e}", path.display());
    }
    exit
}
