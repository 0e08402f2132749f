//! Scrape the observability surface of a live service **mid-epoch under
//! load**: background epochs every few milliseconds, writer/reader load
//! from client threads, and two concurrent scrape paths — the `metrics`
//! verb on the query port and the HTTP listener `serve_metrics_on`
//! drives. Both must return a parseable Prometheus exposition carrying
//! the full metric set while epochs are in flight.

use gossiptrust::core::id::NodeId;
use gossiptrust::serve::server::{serve_metrics_on, serve_on};
use gossiptrust::serve::service::{ReputationService, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 120;

/// Every metric README's "Metrics" table documents — which the
/// `metric_census` unit test keeps equal to what a fresh service registers.
fn census() -> impl Iterator<Item = &'static str> {
    include_str!("../README.md")
        .lines()
        .filter_map(|row| row.strip_prefix("| `")?.split('`').next())
        .filter(|name| name.starts_with("gt_"))
}

fn assert_exposition_complete(text: &str, via: &str) {
    assert!(census().count() >= 30, "README's metrics table went missing");
    for name in census() {
        let declared = text.contains(&format!("# TYPE {name} "));
        assert!(declared, "{via} exposition is missing {name}:\n{text}");
    }
    // Histogram sanity: cumulative bucket lines, +Inf terminator, and a
    // sum/count pair for the query histogram that served the load.
    assert!(
        text.contains("gt_query_latency_ns_bucket{le=\"+Inf\"}"),
        "{via}: query histogram has no +Inf bucket:\n{text}"
    );
    assert!(text.contains("gt_query_latency_ns_count"), "{via}: no count line");
    assert!(text.contains("gt_query_latency_ns_sum"), "{via}: no sum line");
}

#[test]
fn scraping_mid_epoch_under_load_returns_the_full_surface() {
    // Epochs every 5 ms: scrapes land while fold/aggregate/publish spans
    // are genuinely in flight, not between idle epochs.
    let config =
        ServiceConfig { epoch_interval: Some(Duration::from_millis(5)), ..ServiceConfig::new(N) };
    let service = ReputationService::start(config);
    let handle = service.handle();
    for i in 0..N {
        handle
            .record(NodeId::from_index(i), NodeId::from_index((i + 1) % N), 2.0)
            .expect("in range");
    }

    // Client load from plain threads for the whole duration of the test.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let h = service.handle();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let peer = NodeId::from_index(i % N);
                    let _ = h.get_score(peer);
                    let _ = h.record(peer, NodeId::from_index((i + 3) % N), 1.0);
                    i += 1;
                }
            })
        })
        .collect();

    // Both accept loops run on detached threads; they end with the process.
    let query_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let query_addr = query_listener.local_addr().expect("addr");
    let scrape_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let scrape_addr = scrape_listener.local_addr().expect("addr");
    let (query_handle, scrape_handle) = (service.handle(), service.handle());
    std::thread::spawn(move || serve_on(query_handle, query_listener));
    std::thread::spawn(move || serve_metrics_on(scrape_handle, scrape_listener));

    // Let a few epochs and a burst of load land first (bounded wait: how
    // long two epochs take under this load is the machine's business).
    for _ in 0..2_000 {
        if handle.stats_report().epochs_published >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // --- Scrape path 1: the `metrics` verb on the query port -------------
    let mut stream = TcpStream::connect(query_addr).expect("connect");
    stream.write_all(b"{\"op\":\"metrics\"}\n").expect("write");
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).expect("read");
    let obj = gossiptrust::serve::json::parse_flat(line.trim_end()).expect("metrics reply parses");
    let text = gossiptrust::serve::json::get_str(&obj, "metrics").expect("metrics field");
    assert_exposition_complete(text, "metrics verb");

    // --- Scrape path 2: several concurrent HTTP scrapes mid-epoch --------
    // (the listener serves them one at a time; the rest queue)
    let scrapes: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(scrape_addr).expect("connect");
                stream
                    .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                    .expect("write");
                let mut raw = Vec::new();
                stream.read_to_end(&mut raw).expect("read");
                String::from_utf8(raw).expect("utf-8")
            })
        })
        .collect();
    for task in scrapes {
        let response = task.join().expect("scrape thread");
        let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "status: {head}");
        assert_exposition_complete(body, "http scrape");
    }

    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker thread");
    }

    // The load must actually be visible in what was scraped.
    let final_text = service.handle().metrics_text();
    let report = service.handle().stats_report();
    assert!(report.epochs_published >= 2, "background epochs ran: {report:?}");
    assert!(final_text.contains("gt_epoch_fold_ns_count"), "fold was timed");
    assert!(!final_text.contains("gt_queries_served_total 0\n"), "queries were counted");

    service.shutdown();
}
