//! What the harness reads from the machine and the build: peak RSS, core
//! count, CPU model, last-level cache size, toolchain, commit, linked crates.

use std::process::Command;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The `index`-th whitespace-separated number after `key` on the first line
/// of `path` that starts with `key`.
fn proc_field_ws(path: &str, key: &str, index: usize) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().nth(index)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor took from this guest since boot, in seconds
/// (the `steal` column of /proc/stat, all cores; 0 where it is not kept).
pub fn host_steal_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    proc_field_ws("/proc/stat", "cpu ", 7).map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
}

/// Size of the largest cache level cpu0 reports, in bytes (32 MiB when
/// sysfs does not say).
pub fn llc_bytes() -> u64 {
    (0..6)
        .filter_map(|i| {
            let text = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let text = text.trim();
            let (digits, unit) =
                text.split_at(text.find(|c: char| !c.is_ascii_digit()).unwrap_or(text.len()));
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                "G" => 1 << 30,
                _ => 1,
            };
            Some(digits.parse::<u64>().ok()? * scale)
        })
        .max()
        .unwrap_or(32 << 20)
}

/// Which `rand` (and with it `bytes`, `serde`, `tokio`: run.sh patches all
/// or none) this binary was linked against, read off the stream itself: the
/// stand-in `StdRng` is bare splitmix64, whose first output from state 0 is
/// a known constant; ChaCha12 from the registry crate gives another.
pub fn linked_deps() -> &'static str {
    use rand::{Rng, SeedableRng};
    if rand::rngs::StdRng::seed_from_u64(0).random::<u64>() == 0xE220_A839_7B1D_CDAF {
        "stand-in"
    } else {
        "registry"
    }
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    first_line("rustc", &["--version"])
}

/// The checked-out commit, or "unknown" outside a git repository (the
/// driver's checkout is not one).
pub fn commit() -> String {
    first_line("git", &["rev-parse", "--short", "HEAD"])
}
