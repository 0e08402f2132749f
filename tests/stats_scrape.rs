//! One store, two read-outs: on a quiesced service that has been through
//! every epoch outcome class, a shed request, WAL appends and some
//! queries, each integer of the `stats` verb's reply equals the same-named
//! `gt_*_total` line of the scrape, and the chaos injector's report equals
//! the `gt_chaos_*` lines. There is no bridge between the two that could
//! drift: both load the handles of one registry.

use gossiptrust::core::id::NodeId;
use gossiptrust::serve::chaos::ChaosConfig;
use gossiptrust::serve::json::{self, JsonScalar};
use gossiptrust::serve::server::serve_on;
use gossiptrust::serve::service::{ReputationService, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const N: usize = 24;

/// The value of the sample line `name <v>` in a Prometheus exposition.
fn sample(scrape: &str, name: &str) -> u64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("scrape has no `{name}` line:\n{scrape}"))
        .parse()
        .expect("integer sample")
}

fn request(stream: &mut TcpStream, line: &str) -> json::FlatObject {
    stream.write_all(format!("{line}\n").as_bytes()).expect("write");
    let mut reply = String::new();
    BufReader::new(&*stream).read_line(&mut reply).expect("read");
    json::parse_flat(reply.trim_end()).expect("reply parses")
}

#[test]
fn stats_verb_and_scrape_read_one_store() {
    let wal_dir = std::env::temp_dir().join(format!("gt-stats-scrape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    // Chaos deals panics and overruns at 30 % each from a seeded stream;
    // every third epoch is crippled (degrades unless chaos hits it first).
    let chaos = ChaosConfig {
        epoch_panic_per_mille: 300,
        epoch_overrun_per_mille: 300,
        overrun_ms: 300,
        ..ChaosConfig::disabled(5)
    };
    let service = ReputationService::start(ServiceConfig {
        fail_epochs: (1..=300).filter(|e| e % 3 == 0).collect(),
        ..ServiceConfig::new(N)
            .with_ingest_queue(N)
            .with_wal_dir(&wal_dir)
            .with_epoch_deadline(Duration::from_millis(250))
            .with_chaos(chaos)
    });
    let handle = service.handle();

    // WAL appends up to the admission bound, then exactly one shed.
    for i in 0..N {
        let (rater, target) = (NodeId::from_index(i), NodeId::from_index((i + 1) % N));
        handle
            .record(rater, target, 2.0 + (i % 3) as f64)
            .expect("under capacity");
    }
    assert!(handle
        .record(NodeId(0), NodeId(1), 1.0)
        .expect_err("backlog full")
        .retriable());

    // Epochs until every outcome class has been seen (which class an epoch
    // lands in depends on the RNG stream; that all four turn up does not).
    let (mut published, mut degraded, mut panicked, mut overran) = (0u64, 0u64, 0u64, 0u64);
    let mut burned = gossiptrust::gossip::GossipStats::default();
    for _ in 0..300 {
        if published >= 2 && degraded >= 1 && panicked >= 1 && overran >= 1 {
            break;
        }
        let outcome = handle.run_epoch_now().expect("loop alive");
        burned.absorb(&outcome.gossip);
        match (outcome.published, outcome.panicked, outcome.overran) {
            (true, _, _) => published += 1,
            (_, true, _) => panicked += 1,
            (_, _, true) => overran += 1,
            _ => degraded += 1,
        }
    }
    assert!(published >= 2 && degraded >= 1 && panicked >= 1 && overran >= 1);
    for peer in 0..5 {
        handle.get_score(NodeId(peer)).expect("in range");
        handle.rank_of(NodeId(peer)).expect("in range");
    }
    handle.top_k(3);

    // Quiesced: manual epochs only, no client but this one.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server_handle = service.handle();
    std::thread::spawn(move || serve_on(server_handle, listener));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set deadline");
    let stats = request(&mut stream, "{\"op\":\"stats\"}");
    let metrics = request(&mut stream, "{\"op\":\"metrics\"}");
    let scrape = json::get_str(&metrics, "metrics").expect("metrics field");

    let mut compared = Vec::new();
    for (key, value) in &stats {
        match (key.as_str(), value) {
            // Not a count the service keeps: the feedback log's own length,
            // which the parent's scrape did not carry either.
            ("events_ingested", _) => assert_eq!(*value, JsonScalar::Num(N as f64)),
            ("last_epoch_wall_ms", JsonScalar::Num(ms)) => {
                let us = sample(scrape, "gt_last_epoch_wall_us");
                assert!((ms * 1_000.0 - us as f64).abs() < 1.0, "{ms} ms vs {us} us");
            }
            (_, JsonScalar::Num(v)) => {
                assert_eq!(*v, sample(scrape, &format!("gt_{key}_total")) as f64, "{key}");
                compared.push(key.as_str());
            }
            _ => assert_eq!(key, "ok"),
        }
    }
    assert_eq!(
        compared,
        [
            "epochs_attempted",
            "epochs_published",
            "epochs_degraded",
            "epochs_panicked",
            "epochs_overrun",
            "queries_served",
            "requests_shed",
            "conns_rejected",
            "conns_timed_out",
            "wal_replayed_records",
            "wal_appended_records",
            "gossip_steps",
            "gossip_messages_sent",
            "gossip_messages_dropped",
            "gossip_triplets_sent",
        ],
        "the stats verb keeps its keys and their order"
    );

    // The same numbers are what the run itself observed.
    let report = handle.stats_report();
    assert_eq!(report.epochs_attempted, published + degraded + panicked + overran);
    assert_eq!(
        (
            report.epochs_published,
            report.epochs_degraded,
            report.epochs_panicked,
            report.epochs_overrun
        ),
        (published, degraded, panicked, overran)
    );
    assert_eq!((report.queries_served, report.requests_shed), (11, 1));
    assert_eq!(report.wal_appended_records, N as u64);
    assert_eq!(report.gossip, burned, "the totals are the sum of the epochs' diffs");
    assert_eq!(sample(scrape, "gt_gossip_bytes_streamed_total"), burned.bytes_streamed);

    // The injector's report and the scrape's chaos lines: one store too.
    let dealt = service.chaos_report().expect("chaos armed");
    assert_eq!(dealt.epochs_panicked, panicked);
    for (name, v) in [
        ("gt_chaos_frames_dropped_total", dealt.frames_dropped),
        ("gt_chaos_frames_delayed_total", dealt.frames_delayed),
        ("gt_chaos_frames_duplicated_total", dealt.frames_duplicated),
        ("gt_chaos_frames_truncated_total", dealt.frames_truncated),
        ("gt_chaos_client_stalls_total", dealt.client_stalls),
        ("gt_chaos_client_oversize_total", dealt.client_oversize),
        ("gt_chaos_epochs_panicked_total", dealt.epochs_panicked),
        ("gt_chaos_epochs_overrun_total", dealt.epochs_overrun),
    ] {
        assert_eq!(sample(scrape, name), v, "{name}");
    }

    service.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
}
