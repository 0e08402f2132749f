//! The reputation daemon: ingest feedback, aggregate per epoch, answer
//! queries over line-delimited JSON TCP.
//!
//! ```text
//! GT_N=1000 GT_EPOCH_MS=1000 GT_SERVICE_ADDR=127.0.0.1:7401 \
//!     cargo run --release -p gossiptrust-serve --bin serve
//! ```
//!
//! Knobs (all strictly parsed — a malformed value aborts startup):
//!
//! * `GT_N` — peer population (default 1000)
//! * `GT_EPOCH_MS` — epoch period in milliseconds (default 1000)
//! * `GT_SERVICE_ADDR` — TCP listen address (default `127.0.0.1:7401`)
//! * `GT_THREADS` — gossip engine worker threads (default: machine)
//! * `GT_CONN_LIMIT` — concurrent-connection cap, one OS thread each
//!   (default 1024)
//! * `GT_READ_TIMEOUT_MS` — per-line read deadline (default 30000)
//! * `GT_EPOCH_DEADLINE_MS` — epoch abandonment budget (default 30000)
//! * `GT_INGEST_QUEUE` — unfolded-backlog bound before load-shedding
//!   (default 65536)
//! * `GT_WAL_DIR` — write-ahead-log directory; set it to make every
//!   acknowledged feedback event crash-durable (default: no WAL)
//! * `GT_CHAOS_SEED` — arm the deterministic fault injector with this
//!   seed (a chaos *drill* mode: epoch panics/overruns and response-frame
//!   faults are injected on purpose; never set it in production)
//! * `GT_METRICS_ADDR` — bind a Prometheus scrape listener here (default:
//!   unset = no listener; the `metrics` verb on the main port always works)
//! * `GT_OBS_EVENTS` — trace-event ring capacity (default 4096)

use gossiptrust_core::params::{
    chaos_seed, conn_limit, epoch_deadline_ms, ingest_queue, metrics_addr, network_size_override,
    obs_events, read_timeout_ms, service_addr, wal_dir,
};
use gossiptrust_serve::chaos::{ChaosConfig, ChaosInjector};
use gossiptrust_serve::server::{serve_metrics_on, serve_with, ServerConfig};
use gossiptrust_serve::service::{ReputationService, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let n = network_size_override().unwrap_or(1000);
    let addr = service_addr();
    let mut config = ServiceConfig::new(n)
        .with_epoch_interval_from_env(1_000)
        .with_ingest_queue(ingest_queue())
        .with_epoch_deadline(Duration::from_millis(epoch_deadline_ms()))
        .with_obs_events(obs_events());
    if let Some(dir) = wal_dir() {
        config = config.with_wal_dir(dir);
    }
    let drill = chaos_seed();
    if let Some(seed) = drill {
        config = config.with_chaos(ChaosConfig::soak(seed));
    }
    let interval = config.epoch_interval.expect("interval set from env");
    let wal_note = match &config.wal_dir {
        Some(dir) => format!(", WAL in {}", dir.display()),
        None => String::new(),
    };

    let service = ReputationService::start(config);
    println!(
        "gossiptrust-serve: n = {n}, epoch every {} ms, listening on {addr}{wal_note}",
        interval.as_millis()
    );
    let server_config = ServerConfig {
        max_conns: conn_limit(),
        read_timeout: Duration::from_millis(read_timeout_ms()),
        // The response path gets its own injector (same seed, independent
        // RNG stream from the epoch-path injector inside the service) on
        // the service's registry, so the scrape shows the frame faults too.
        chaos: drill.map(|seed| {
            let registry = &service.handle().obs().registry;
            Arc::new(ChaosInjector::new(ChaosConfig::soak(seed), registry))
        }),
        ..ServerConfig::default()
    };
    if drill.is_some() {
        println!("gossiptrust-serve: CHAOS DRILL armed (GT_CHAOS_SEED) — injecting faults");
    }

    if let Some(scrape_addr) = metrics_addr() {
        println!("gossiptrust-serve: metrics scrape listener on {scrape_addr}");
        let listener = std::net::TcpListener::bind(&scrape_addr).expect("bind GT_METRICS_ADDR");
        let scrape_handle = service.handle();
        std::thread::spawn(move || {
            serve_metrics_on(scrape_handle, listener).expect("metrics listener")
        });
    }
    let result = serve_with(service.handle(), &addr, server_config);
    // serve_with() only returns on a bind/accept error; surface it and stop
    // the epoch loop cleanly.
    service.shutdown();
    result.expect("serve");
}
