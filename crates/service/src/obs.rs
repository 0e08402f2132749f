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
//! The registry is the only store: every counter the service keeps is a
//! handle below, bumped with one relaxed `fetch_add` where the event
//! happens. The scrape is [`Registry::render`] and nothing else; the
//! `stats` verb's [`StatsReport`] loads the same handles. README's
//! "Metrics" table lists every name (`metric_census` keeps it honest).

use crate::chaos::FaultCounts;
use gossiptrust_gossip::engine::EngineObs;
use gossiptrust_gossip::stats::GossipStats;
use gossiptrust_obs::{Counter, Gauge, Histogram, Registry, Tracer};
use std::sync::Arc;

/// Shared metrics + tracing handles for one running service.
///
/// All counters are monotonic; readers may observe a set that straddles an
/// in-flight epoch (`epochs_attempted` already bumped, `epochs_published`
/// not yet), which is fine for monitoring — only the `SnapshotCell`
/// carries consistency guarantees.
#[derive(Debug)]
pub struct ServiceObs {
    /// The registry every handle below belongs to.
    pub registry: Registry,
    /// Span ring buffer (capacity = `GT_OBS_EVENTS`): one span per epoch
    /// with fold → aggregate → publish children. Its eviction count is
    /// this registry's `gt_trace_events_dropped_total`.
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
    /// The gossip engine's step-timing hook (`gt_gossip_step_ns`).
    pub engine: EngineObs,
    /// Epochs the loop started.
    pub epochs_attempted: Arc<Counter>,
    /// Epochs that published a new snapshot.
    pub epochs_published: Arc<Counter>,
    /// Epochs that failed or did not converge (previous snapshot kept).
    pub epochs_degraded: Arc<Counter>,
    /// Epochs whose body panicked — its own class, never also degraded.
    pub epochs_panicked: Arc<Counter>,
    /// Epochs abandoned past `GT_EPOCH_DEADLINE_MS` — its own class too.
    pub epochs_overrun: Arc<Counter>,
    /// Queries answered across all front-ends.
    pub queries_served: Arc<Counter>,
    /// Ingest requests shed by the admission gate (`GT_INGEST_QUEUE`).
    pub requests_shed: Arc<Counter>,
    /// Connections refused at accept (`GT_CONN_LIMIT`).
    pub conns_rejected: Arc<Counter>,
    /// Connections reaped by the read deadline (`GT_READ_TIMEOUT_MS`).
    pub conns_timed_out: Arc<Counter>,
    /// Feedback records replayed from the WAL at startup.
    pub wal_replayed_records: Arc<Counter>,
    /// Feedback records appended to the WAL since startup.
    pub wal_appended_records: Arc<Counter>,
    /// The five `gt_gossip_*_total`, in [`GossipStats`] field order. Private:
    /// [`absorb_gossip`](Self::absorb_gossip) is their one writer.
    gossip: [Arc<Counter>; 5],
    /// Wall time of the most recent epoch, microseconds.
    pub last_epoch_wall_us: Arc<Gauge>,
    /// The eight `gt_chaos_*_total`: what every `ChaosInjector` built on
    /// this registry has dealt (zeros while none is armed).
    pub chaos: FaultCounts,
}

/// A plain, copyable view of the [`ServiceObs`] counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsReport {
    /// Epochs the loop started.
    pub epochs_attempted: u64,
    /// Epochs that published a new snapshot.
    pub epochs_published: u64,
    /// Epochs that degraded (failed/non-converged; previous snapshot kept).
    pub epochs_degraded: u64,
    /// Epochs whose body panicked (contained; engine rebuilt).
    pub epochs_panicked: u64,
    /// Epochs abandoned for overrunning the epoch deadline.
    pub epochs_overrun: u64,
    /// Queries answered across all front-ends.
    pub queries_served: u64,
    /// Ingest requests shed by the bounded-queue admission gate.
    pub requests_shed: u64,
    /// Connections refused at the accept gate (`GT_CONN_LIMIT`).
    pub conns_rejected: u64,
    /// Connections reaped by the read deadline (`GT_READ_TIMEOUT_MS`).
    pub conns_timed_out: u64,
    /// Feedback records replayed from the WAL at startup.
    pub wal_replayed_records: u64,
    /// Feedback records appended to the WAL since startup.
    pub wal_appended_records: u64,
    /// Total gossip activity across all epochs (sum of per-epoch diffs).
    pub gossip: GossipStats,
    /// Wall time of the most recent epoch in milliseconds.
    pub last_epoch_wall_ms: f64,
}

impl ServiceObs {
    /// A fresh bundle whose trace ring holds `trace_events` events
    /// (`GT_OBS_EVENTS`, default 4096). Every metric is registered here,
    /// once, so the scrape names are the same whatever the service has
    /// done so far.
    pub fn new(trace_events: usize) -> Self {
        let registry = Registry::new();
        let histogram = |name| registry.histogram(name);
        let counter = |name| registry.counter(name);
        ServiceObs {
            tracer: Arc::new(Tracer::with_dropped_counter(
                trace_events,
                counter("gt_trace_events_dropped_total"),
            )),
            query_ns: histogram("gt_query_latency_ns"),
            ingest_ns: histogram("gt_ingest_latency_ns"),
            request_ns: histogram("gt_request_latency_ns"),
            epoch_fold_ns: histogram("gt_epoch_fold_ns"),
            epoch_aggregate_ns: histogram("gt_epoch_aggregate_ns"),
            epoch_publish_ns: histogram("gt_epoch_publish_ns"),
            epoch_total_ns: histogram("gt_epoch_total_ns"),
            wal_append_ns: histogram("gt_wal_append_ns"),
            wal_group_records: histogram("gt_wal_group_records"),
            wal_commit_ns: histogram("gt_wal_commit_ns"),
            engine: EngineObs { step_ns: histogram("gt_gossip_step_ns") },
            epochs_attempted: counter("gt_epochs_attempted_total"),
            epochs_published: counter("gt_epochs_published_total"),
            epochs_degraded: counter("gt_epochs_degraded_total"),
            epochs_panicked: counter("gt_epochs_panicked_total"),
            epochs_overrun: counter("gt_epochs_overrun_total"),
            queries_served: counter("gt_queries_served_total"),
            requests_shed: counter("gt_requests_shed_total"),
            conns_rejected: counter("gt_conns_rejected_total"),
            conns_timed_out: counter("gt_conns_timed_out_total"),
            wal_replayed_records: counter("gt_wal_replayed_records_total"),
            wal_appended_records: counter("gt_wal_appended_records_total"),
            gossip: [
                counter("gt_gossip_steps_total"),
                counter("gt_gossip_messages_sent_total"),
                counter("gt_gossip_messages_dropped_total"),
                counter("gt_gossip_triplets_sent_total"),
                counter("gt_gossip_bytes_streamed_total"),
            ],
            last_epoch_wall_us: registry.gauge("gt_last_epoch_wall_us"),
            chaos: FaultCounts::register(&registry),
            registry,
        }
    }

    /// Add one epoch's engine diff to the five gossip totals. Called for
    /// every epoch that reached the engine, published or not — a degraded,
    /// overrun or panicked epoch still burned the messages.
    pub fn absorb_gossip(&self, delta: &GossipStats) {
        let [steps, sent, dropped, triplets, bytes] = &self.gossip;
        steps.add(delta.steps);
        sent.add(delta.messages_sent);
        dropped.add(delta.messages_dropped);
        triplets.add(delta.triplets_sent);
        bytes.add(delta.bytes_streamed);
    }

    /// Load the counters into a plain report — the same handles the scrape
    /// renders, so the `stats` verb and the exposition cannot disagree.
    pub fn stats_report(&self) -> StatsReport {
        let [steps, messages_sent, messages_dropped, triplets_sent, bytes_streamed] =
            self.gossip.each_ref().map(|total| total.get());
        StatsReport {
            epochs_attempted: self.epochs_attempted.get(),
            epochs_published: self.epochs_published.get(),
            epochs_degraded: self.epochs_degraded.get(),
            epochs_panicked: self.epochs_panicked.get(),
            epochs_overrun: self.epochs_overrun.get(),
            queries_served: self.queries_served.get(),
            requests_shed: self.requests_shed.get(),
            conns_rejected: self.conns_rejected.get(),
            conns_timed_out: self.conns_timed_out.get(),
            wal_replayed_records: self.wal_replayed_records.get(),
            wal_appended_records: self.wal_appended_records.get(),
            gossip: GossipStats {
                steps,
                messages_sent,
                messages_dropped,
                triplets_sent,
                bytes_streamed,
            },
            last_epoch_wall_ms: self.last_epoch_wall_us.get() as f64 / 1_000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// README's "Metrics" table and the registry a fresh service renders
    /// must name the same metrics with the same kinds — a metric nobody
    /// documented, or a row nothing registers, fails here (the knob table
    /// has `knob_census` in scripts/tier1.sh for the same job).
    #[test]
    fn metric_census() {
        let documented: Vec<String> = include_str!("../../../README.md")
            .lines()
            .filter(|row| row.starts_with("| `gt_"))
            .map(|row| {
                let mut cells = row.split('|').map(|c| c.trim().trim_matches('`'));
                let (_, name, kind) = (cells.next(), cells.next(), cells.next());
                format!("# TYPE {} {}", name.expect("name cell"), kind.expect("kind cell"))
            })
            .collect();
        let rendered = ServiceObs::new(64).registry.render();
        let registered: Vec<&str> = rendered.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        for row in &documented {
            assert!(
                registered.contains(&row.as_str()),
                "README documents `{row}`, nothing registers it"
            );
        }
        for line in &registered {
            assert!(
                documented.iter().any(|row| row == line),
                "`{line}` has no row in README's table"
            );
        }
        assert_eq!(documented.len(), registered.len(), "a name is listed twice");
    }

    /// The counters are independent handles: bumping one moves its own
    /// `stats_report` field and its own scrape line, and nothing else.
    #[test]
    fn counters_accumulate_independently_and_read_out_twice() {
        let obs = ServiceObs::new(64);
        for _ in 0..7 {
            obs.queries_served.inc();
        }
        obs.requests_shed.add(2);
        obs.conns_rejected.inc();
        obs.conns_timed_out.inc();
        obs.wal_replayed_records.add(40);
        obs.wal_appended_records.add(3);
        let delta = GossipStats {
            steps: 10,
            messages_sent: 20,
            messages_dropped: 1,
            triplets_sent: 200,
            bytes_streamed: 4_000,
        };
        obs.absorb_gossip(&delta);
        obs.absorb_gossip(&delta);
        obs.last_epoch_wall_us.set(2_500);
        let mut twice = delta;
        twice.absorb(&delta);
        let want = StatsReport {
            queries_served: 7,
            requests_shed: 2,
            conns_rejected: 1,
            conns_timed_out: 1,
            wal_replayed_records: 40,
            wal_appended_records: 3,
            gossip: twice,
            last_epoch_wall_ms: 2.5,
            ..StatsReport::default()
        };
        assert_eq!(obs.stats_report(), want);
        assert!((want.gossip.bytes_streamed_per_step() - 400.0).abs() < 1e-12);
        let scrape = obs.registry.render();
        for line in [
            "gt_queries_served_total 7",
            "gt_requests_shed_total 2",
            "gt_wal_replayed_records_total 40",
            "gt_gossip_bytes_streamed_total 8000",
            "gt_last_epoch_wall_us 2500",
            "gt_epochs_degraded_total 0",
        ] {
            assert!(scrape.lines().any(|l| l == line), "scrape lacks `{line}`:\n{scrape}");
        }
    }

    #[test]
    fn trace_evictions_land_in_the_registry() {
        let obs = ServiceObs::new(2);
        for _ in 0..3 {
            let _span = obs.tracer.span("tick");
        }
        assert_eq!(obs.tracer.dropped(), 4);
        assert!(obs.registry.render().contains("gt_trace_events_dropped_total 4\n"));
    }
}
