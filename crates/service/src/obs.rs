//! The service's observability bundle: one shared registry + tracer and
//! pre-fetched handles for every metric the stack records.
//!
//! One [`ServiceObs`] is created per service and shared (as an `Arc`) by
//! the epoch manager, the query/ingest handle, the TCP front-end and the
//! chaos soak — everyone records into the same registry, so one scrape
//! shows the whole stack.
//!
//! ## Metric naming scheme
//!
//! Everything is prefixed `gt_`. Histograms carry their unit as a suffix
//! (`_ns`); monotonic counters end in `_total` (Prometheus convention).
//! The counters that already live in [`ServiceStats`] (epoch outcomes,
//! shed/timeout/connection accounting, gossip message volume) are not
//! duplicated into the registry — [`ServiceObs::export`] appends them to
//! the exposition at scrape time from a [`StatsReport`], so the atomic
//! counter block stays the single source of truth.

use crate::chaos::ChaosReport;
use crate::stats::StatsReport;
use gossiptrust_gossip::engine::EngineObs;
use gossiptrust_obs::{Histogram, Registry, Tracer};
use std::fmt::Write as _;
use std::sync::Arc;

/// Shared metrics + tracing handles for one running service.
#[derive(Debug)]
pub struct ServiceObs {
    /// The registry all histogram/counter handles below belong to.
    pub registry: Registry,
    /// Span ring buffer (capacity = `GT_OBS_EVENTS`): one span per epoch
    /// with fold → aggregate → publish children.
    pub tracer: Arc<Tracer>,
    /// `get_score`/`top_k`/`rank_of` latency, nanoseconds.
    pub query_ns: Arc<Histogram>,
    /// `record`/`record_batch` latency (including WAL append), nanoseconds.
    pub ingest_ns: Arc<Histogram>,
    /// Whole-request latency at the TCP front-end (parse → respond),
    /// nanoseconds.
    pub request_ns: Arc<Histogram>,
    /// Epoch fold phase (feedback log → CSR matrix), nanoseconds.
    pub epoch_fold_ns: Arc<Histogram>,
    /// Epoch aggregate phase (gossip power iteration), nanoseconds.
    pub epoch_aggregate_ns: Arc<Histogram>,
    /// Epoch publish phase (snapshot build + swap), nanoseconds.
    pub epoch_publish_ns: Arc<Histogram>,
    /// Whole-epoch wall time, nanoseconds.
    pub epoch_total_ns: Arc<Histogram>,
    /// The WAL append as the ingest call sees it — encode + lock wait +
    /// write — nanoseconds; minus `gt_wal_commit_ns` = time queued behind
    /// other connections.
    pub wal_append_ns: Arc<Histogram>,
    /// Records per WAL commit: one submission (a single rating or one
    /// whole batch) per `write_all` + `flush`.
    pub wal_group_records: Arc<Histogram>,
    /// One `write_all` + `flush` under the WAL lock, nanoseconds.
    pub wal_commit_ns: Arc<Histogram>,
    /// The gossip engine's step-timing/bytes hooks, backed by this
    /// registry (`gt_gossip_step_ns`, `gt_gossip_bytes_streamed_total`).
    pub engine: EngineObs,
}

impl ServiceObs {
    /// A fresh bundle whose trace ring holds `trace_events` events
    /// (`GT_OBS_EVENTS`, default 4096).
    pub fn new(trace_events: usize) -> Self {
        let registry = Registry::new();
        let engine = EngineObs {
            step_ns: registry.histogram("gt_gossip_step_ns"),
            bytes_streamed: registry.counter("gt_gossip_bytes_streamed_total"),
        };
        ServiceObs {
            tracer: Arc::new(Tracer::new(trace_events)),
            query_ns: registry.histogram("gt_query_latency_ns"),
            ingest_ns: registry.histogram("gt_ingest_latency_ns"),
            request_ns: registry.histogram("gt_request_latency_ns"),
            epoch_fold_ns: registry.histogram("gt_epoch_fold_ns"),
            epoch_aggregate_ns: registry.histogram("gt_epoch_aggregate_ns"),
            epoch_publish_ns: registry.histogram("gt_epoch_publish_ns"),
            epoch_total_ns: registry.histogram("gt_epoch_total_ns"),
            wal_append_ns: registry.histogram("gt_wal_append_ns"),
            wal_group_records: registry.histogram("gt_wal_group_records"),
            wal_commit_ns: registry.histogram("gt_wal_commit_ns"),
            engine,
            registry,
        }
    }

    /// Render the full Prometheus exposition: every registry metric, then
    /// the [`ServiceStats`] counters, then the chaos counters (zeros when
    /// the service runs without an injector, so the metric *names* are
    /// stable whether or not chaos is armed).
    ///
    /// [`ServiceStats`]: crate::stats::ServiceStats
    pub fn export(&self, stats: &StatsReport, chaos: Option<&ChaosReport>) -> String {
        let mut out = self.registry.render();
        let mut counter = |name: &str, v: u64| {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        };
        counter("gt_epochs_attempted_total", stats.epochs_attempted);
        counter("gt_epochs_published_total", stats.epochs_published);
        counter("gt_epochs_degraded_total", stats.epochs_degraded);
        counter("gt_epochs_panicked_total", stats.epochs_panicked);
        counter("gt_epochs_overrun_total", stats.epochs_overrun);
        counter("gt_queries_served_total", stats.queries_served);
        counter("gt_requests_shed_total", stats.requests_shed);
        counter("gt_conns_rejected_total", stats.conns_rejected);
        counter("gt_conns_timed_out_total", stats.conns_timed_out);
        counter("gt_wal_replayed_records_total", stats.wal_replayed_records);
        counter("gt_wal_appended_records_total", stats.wal_appended_records);
        counter("gt_gossip_steps_total", stats.gossip.steps);
        counter("gt_gossip_messages_sent_total", stats.gossip.messages_sent);
        counter("gt_gossip_messages_dropped_total", stats.gossip.messages_dropped);
        counter("gt_gossip_triplets_sent_total", stats.gossip.triplets_sent);
        let zeros = ChaosReport::default();
        let c = chaos.unwrap_or(&zeros);
        counter("gt_chaos_frames_dropped_total", c.frames_dropped);
        counter("gt_chaos_frames_delayed_total", c.frames_delayed);
        counter("gt_chaos_frames_duplicated_total", c.frames_duplicated);
        counter("gt_chaos_frames_truncated_total", c.frames_truncated);
        counter("gt_chaos_client_stalls_total", c.client_stalls);
        counter("gt_chaos_client_oversize_total", c.client_oversize);
        counter("gt_chaos_epochs_panicked_total", c.epochs_panicked);
        counter("gt_chaos_epochs_overrun_total", c.epochs_overrun);
        counter("gt_trace_events_dropped_total", self.tracer.dropped());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_always_carries_the_required_names() {
        let obs = ServiceObs::new(64);
        obs.query_ns.record(1_000);
        obs.engine.step_ns.record(5_000);
        let text = obs.export(&StatsReport::default(), None);
        for name in [
            "gt_query_latency_ns_bucket",
            "gt_ingest_latency_ns",
            "gt_request_latency_ns",
            "gt_epoch_fold_ns",
            "gt_epoch_aggregate_ns",
            "gt_epoch_publish_ns",
            "gt_epoch_total_ns",
            "gt_wal_append_ns",
            "gt_wal_group_records",
            "gt_wal_commit_ns",
            "gt_gossip_step_ns_bucket",
            "gt_gossip_bytes_streamed_total",
            "gt_requests_shed_total",
            "gt_chaos_epochs_panicked_total",
            "gt_epochs_published_total",
        ] {
            assert!(text.contains(name), "exposition must name {name}:\n{text}");
        }
        // No name may be declared twice — chaos zeros and registry metrics
        // must not collide.
        let mut types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let total = types.len();
        types.sort_unstable();
        types.dedup();
        assert_eq!(types.len(), total, "duplicate # TYPE declarations:\n{text}");
    }

    #[test]
    fn chaos_counters_flow_through() {
        let obs = ServiceObs::new(64);
        let report = ChaosReport { frames_dropped: 3, ..ChaosReport::default() };
        let text = obs.export(&StatsReport::default(), Some(&report));
        assert!(text.contains("gt_chaos_frames_dropped_total 3"));
    }
}
