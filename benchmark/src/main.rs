//! `gtbench` — the layered GossipTrust benchmark (see README.md).
//!
//! One run: `gtbench --workload W --seed N --seconds S --trace 0|1` prints,
//! as the last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (every end-to-end metric untraced, every per-layer
//! metric traced). Without `--trace` it runs the whole report: each workload
//! untraced, then traced, in child processes of this same binary.

mod driver;
mod inputs;
mod manifest;
mod minijson;
mod probes;
mod report;
mod stats;
mod sys;
mod trace;
mod twin;
mod workloads;

use manifest::Metrics;
use std::path::PathBuf;
use workloads::Outcome;

/// Where the benchmark writes (traces, WAL directories, the A/A result):
/// `out/` inside the benchmark package, ignored by git.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Parsed command line.
#[derive(Default)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub aa: bool,
    pub traced_only: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: gtbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--aa] [--traced-only]\n\
         workloads: {}",
        manifest::WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { seed: 1, ..Args::default() };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                args.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--aa" => args.aa = true,
            "--traced-only" => args.traced_only = true,
            _ => usage(),
        }
    }
    if let Some(w) = &args.workload {
        if !manifest::WORKLOADS.contains(&w.as_str()) {
            eprintln!("unknown workload {w:?}");
            usage();
        }
    }
    if args.seconds.is_some_and(|s| !(s > 0.0 && s <= 60.0)) {
        eprintln!("--seconds must be in (0, 60]");
        usage();
    }
    args
}

/// One workload, one mode, in this process.
fn run_one(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    use workloads::*;
    match (workload, traced) {
        ("epoch_n1000", false) => run_epoch(&EPOCH_N1000, seed, seconds),
        ("epoch_n1000", true) => trace_epoch(&EPOCH_N1000, seed, seconds),
        ("epoch_n256", false) => run_epoch(&EPOCH_N256, seed, seconds),
        ("epoch_n256", true) => trace_epoch(&EPOCH_N256, seed, seconds),
        ("serve_read", false) => run_serve_read(seed, seconds),
        ("serve_read", true) => trace_serve_read(seed, seconds),
        ("serve_ingest", false) => run_serve_ingest(seed, seconds),
        ("serve_ingest", true) => trace_serve_ingest(seed, seconds),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

/// The result line the driver reads.
fn result_line(outcome: &Outcome, end_to_end: bool) -> String {
    let usable = |v: f64| v.is_finite() && (!end_to_end || v > 0.0);
    let correct = outcome.failed == 0
        && outcome.attempted >= 1
        && outcome.metrics.iter().all(|(_, v)| usable(v));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", manifest::unit_of(name))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn print_table(metrics: &Metrics) {
    for (name, value) in metrics.iter() {
        eprintln!("  {name:<34} {value:>18.6} {}", manifest::unit_of(name));
    }
}

fn main() {
    let args = parse_args();
    if cfg!(debug_assertions) {
        eprintln!("gtbench: refusing to measure a non-release build (use benchmark/run.sh)");
        std::process::exit(2);
    }
    if let Some((knob, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("GT_"))
    {
        eprintln!("gtbench: {knob:?} is set; GT_* knobs change what is measured, unset them");
        std::process::exit(2);
    }
    let manifest = manifest::find_manifest().map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        manifest::check(&text).unwrap_or_else(|problems| {
            eprintln!("gtbench: {} disagrees with the harness:\n{problems}", path.display());
            std::process::exit(2);
        })
    });
    let default_seconds = manifest.as_ref().map_or(20.0, |m| m.run_seconds as f64);
    let seconds = args.seconds.unwrap_or(default_seconds);

    match (&args.workload, args.trace) {
        (Some(workload), Some(traced)) if !args.aa => {
            let (steal, clock) = (sys::host_steal_s(), std::time::Instant::now());
            let outcome = run_one(workload, args.seed, seconds, traced);
            // This box's slow phases (README, "Noise and bounds") show here.
            eprintln!(
                "# host steal during this run: {:.2} s of {:.0} s x {} cores",
                sys::host_steal_s() - steal,
                clock.elapsed().as_secs_f64(),
                sys::nproc()
            );
            print_table(&outcome.metrics);
            println!("{}", result_line(&outcome, !traced));
        }
        _ if args.aa => std::process::exit(report::aa(&args, seconds, manifest.as_ref())),
        _ => std::process::exit(report::full(&args, seconds)),
    }
}
