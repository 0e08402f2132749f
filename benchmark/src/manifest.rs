//! The benchmark's metric and workload names — the single table every
//! printer reads, and the checker that holds `BENCHMARK.json` to it.

use crate::minijson::{self, Value};
use std::collections::BTreeMap;

/// One end-to-end metric: what a user of the service sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

/// Every run prints all of these with `--trace 0`. What the generic names
/// mean on each workload is the metric dictionary in README.md.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false },
    EndToEnd { name: "peak_rss_mb", unit: "MB", higher_is_better: false },
    EndToEnd { name: "throughput_per_s", unit: "1/s", higher_is_better: true },
    EndToEnd { name: "latency_p50_us", unit: "us", higher_is_better: false },
    EndToEnd { name: "latency_tail_us", unit: "us", higher_is_better: false },
];

/// Every run prints all of these with `--trace 1`; a layer that did no work
/// on the workload reads 0 (that *is* the bypass prediction, measured).
pub const PER_LAYER: [(&str, &str); 52] = [
    // gossip::engine
    ("engine.step_ns_p50", "ns"),
    ("engine.steps_per_epoch", "count"),
    ("engine.bytes_streamed_per_step", "B"),
    ("engine.achieved_gbps", "GB/s"),
    ("engine.triad_gbps", "GB/s"),
    ("engine.triad_dram_gbps", "GB/s"),
    ("engine.roofline_frac", "ratio"),
    ("engine.messages_per_step", "count"),
    ("engine.seed_ns_p50", "ns"),
    ("engine.extract_ns_p50", "ns"),
    ("engine.par_speedup", "ratio"),
    ("engine.step_share", "ratio"),
    // gossip::cycle
    ("cycle.cycles_per_epoch", "count"),
    ("cycle.steps_per_cycle_mean", "count"),
    ("cycle.self_ns_p50", "ns"),
    ("cycle.gossip_error_max", "ratio"),
    ("cycle.agg_rms_rel_err", "ratio"),
    ("cycle.top10_overlap", "ratio"),
    // core::matrix
    ("matrix.nnz", "count"),
    ("matrix.transpose_mul_ns_p50", "ns"),
    // service::log
    ("log.fold_ns_p50", "ns"),
    ("log.record_ns_p50", "ns"),
    ("log.record_batch_ns_p50", "ns"),
    ("log.events_folded", "count"),
    // service::wal
    ("wal.append_ns_p50", "ns"),
    ("wal.append_batch_ns_p50", "ns"),
    ("wal.group_records_mean", "count"),
    ("wal.commit_ns_p50", "ns"),
    ("wal.bytes_per_event", "B"),
    ("wal.replay_ns_per_event", "ns"),
    ("wal.restart_replay_ms", "ms"),
    // service::snapshot
    ("snapshot.build_ns_p50", "ns"),
    ("snapshot.publish_ns_p50", "ns"),
    ("snapshot.load_ns_p50", "ns"),
    // service::epoch
    ("epoch.cold_wall_ms", "ms"),
    ("epoch.self_ns_p50", "ns"),
    ("epoch.wall_under_ingest_ms_p50", "ms"),
    // service::json
    ("json.parse_ns_p50", "ns"),
    ("json.encode_ns_p50", "ns"),
    // service::server + net::codec
    ("server.hex_decode_ns_p50", "ns"),
    ("codec.batch_decode_ns_p50", "ns"),
    ("server.wire_bytes_per_event", "B"),
    // service::service
    ("handle.score_ns_p50", "ns"),
    ("handle.rank_ns_p50", "ns"),
    ("handle.topk_ns_p50", "ns"),
    ("handle.record_ns_p50", "ns"),
    ("handle.record_batch_ns_p50", "ns"),
    ("handle.read_p99_us", "us"),
    ("handle.read_under_ingest_p99_us", "us"),
    // harness
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.spans", "count"),
];

/// The four workloads, in the order the one command runs them.
pub const WORKLOADS: [&str; 4] = ["epoch_n1000", "epoch_n256", "serve_read", "serve_ingest"];

/// Measured values keyed by metric name; starts with every per-layer name
/// at 0 so a bypassed layer is printed, not omitted.
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn end_to_end() -> Self {
        Metrics(END_TO_END.iter().map(|m| (m.name, 0.0)).collect())
    }

    pub fn per_layer() -> Self {
        Metrics(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Set a metric. Panics on a name outside the table: the table, not the
    /// call sites, decides what is printed.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("metric {name:?} is not in the manifest table"),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// Unit of a metric name from either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|(n, _)| *n == name).map(|&(_, u)| u))
        .unwrap_or("")
}

/// `BENCHMARK.json` as far as the harness reads it.
pub struct Manifest {
    pub run_seconds: u64,
    /// End-to-end metric name → bound (share of the median it may worsen by).
    pub bounds: BTreeMap<String, f64>,
}

/// Locate `BENCHMARK.json`: the working directory (the driver runs from the
/// checkout root) or the parent of the benchmark package.
pub fn find_manifest() -> Option<std::path::PathBuf> {
    let here = std::path::PathBuf::from("BENCHMARK.json");
    if here.is_file() {
        return Some(here);
    }
    let beside = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    beside.is_file().then_some(beside)
}

fn names(doc: &Value, section: &str) -> Vec<(String, Value)> {
    doc.get(section)
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.clone())))
        .collect()
}

/// Parse `BENCHMARK.json` and hold it to the tables above: same workloads,
/// same metric names, same units and directions — none missing, none extra.
pub fn check(text: &str) -> Result<Manifest, String> {
    let doc = minijson::parse(text)?;
    let mut problems = Vec::new();
    let mut compare = |what: &str, file: Vec<String>, table: Vec<String>| {
        for name in &table {
            if !file.contains(name) {
                problems
                    .push(format!("{what} {name:?} is printed but missing from BENCHMARK.json"));
            }
        }
        for name in &file {
            if !table.contains(name) {
                problems.push(format!("{what} {name:?} is in BENCHMARK.json but never printed"));
            }
        }
    };
    let workloads = names(&doc, "workloads");
    compare(
        "workload",
        workloads.iter().map(|(n, _)| n.clone()).collect(),
        WORKLOADS.iter().map(|s| s.to_string()).collect(),
    );
    let e2e = names(&doc, "end_to_end");
    compare(
        "end-to-end metric",
        e2e.iter().map(|(n, _)| n.clone()).collect(),
        END_TO_END.iter().map(|m| m.name.to_string()).collect(),
    );
    let layers = names(&doc, "per_layer");
    compare(
        "per-layer metric",
        layers.iter().map(|(n, _)| n.clone()).collect(),
        PER_LAYER.iter().map(|(n, _)| n.to_string()).collect(),
    );
    let mut bounds = BTreeMap::new();
    for (name, entry) in e2e.iter().chain(&layers) {
        let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
        if unit != unit_of(name) && !unit_of(name).is_empty() {
            problems.push(format!(
                "{name}: unit {unit:?} in BENCHMARK.json, {:?} printed",
                unit_of(name)
            ));
        }
        if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
            let better = entry.get("better").and_then(Value::as_str).unwrap_or("");
            if (better == "higher") != m.higher_is_better {
                problems.push(format!("{name}: direction {better:?} disagrees with the harness"));
            }
            match entry.get("bound").and_then(Value::as_f64) {
                Some(b) if b > 0.0 && b <= 0.25 => {
                    bounds.insert(name.clone(), b);
                }
                other => problems.push(format!("{name}: bound {other:?} outside (0, 0.25]")),
            }
        }
    }
    let run_seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap_or(0.0);
    if !(1.0..=60.0).contains(&run_seconds) || run_seconds.fract() != 0.0 {
        problems.push(format!("run_seconds {run_seconds} is not a whole number in 1..=60"));
    }
    if problems.is_empty() {
        Ok(Manifest { run_seconds: run_seconds as u64, bounds })
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_unique_well_formed_names() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().copied())
            .chain(WORKLOADS.iter().map(|w| (*w, "count")));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} appears twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }

    /// Satellite self-test: the names the harness prints are exactly the
    /// names `BENCHMARK.json` declares — none missing, none extra.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = find_manifest().expect("BENCHMARK.json at the repository root");
        let text = std::fs::read_to_string(path).expect("readable manifest");
        let manifest = check(&text).unwrap_or_else(|e| panic!("BENCHMARK.json mismatch:\n{e}"));
        assert_eq!(manifest.bounds.len(), END_TO_END.len());
    }

    #[test]
    fn checker_reports_missing_and_extra_names() {
        let text = r#"{"run_seconds": 20,
            "workloads": [{"name": "epoch_n1000", "why": "x"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                           {"name": "bogus", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": []}"#;
        let err = check(text).err().expect("mismatch must be reported");
        assert!(err.contains("\"bogus\" is in BENCHMARK.json but never printed"), "{err}");
        assert!(err.contains("\"latency_p50_us\" is printed but missing"), "{err}");
        assert!(err.contains("workload \"serve_read\" is printed but missing"), "{err}");
    }

    #[test]
    #[should_panic(expected = "not in the manifest table")]
    fn setting_an_unlisted_metric_panics() {
        Metrics::per_layer().set("engine.made_up", 1.0);
    }
}
