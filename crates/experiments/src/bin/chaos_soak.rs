//! Chaos soak: drive the reputation service through the full injected
//! fault matrix — epoch panics, fold/aggregate overruns, ingest
//! overload, a hard crash with a torn WAL tail, and a TCP drill with
//! dropped/delayed/duplicated/truncated response frames, slow-loris and
//! oversize clients, and an exhausted connection limit — then prove the
//! self-healing invariants held:
//!
//! 1. **Zero lost acknowledged feedback**: every `record` the service
//!    acked is in the write-ahead log, survives a torn-tail crash, and
//!    folds into the *bit-identical* trust matrix a clean twin produces.
//! 2. **A snapshot on every query**: a concurrent reader never observes
//!    a missing snapshot or a version that goes backwards, no matter how
//!    many epochs panic or overrun around it.
//! 3. **Counters match the faults dealt**: the injector's own tally
//!    agrees with the service's robustness counters, so the degradation
//!    the soak reports is exactly the degradation injected.
//!
//! Faults come from the seeded [`ChaosInjector`] — `GT_CHAOS_SEED`
//! overrides the fixed default, and a given seed replays the identical
//! fault schedule. `GT_QUICK=1` runs the reduced-scale CI shard.

use gossiptrust_core::id::NodeId;
use gossiptrust_core::params::chaos_seed;
use gossiptrust_experiments::{Scale, TextTable};
use gossiptrust_obs::Registry;
use gossiptrust_serve::chaos::{ChaosConfig, ChaosInjector, ClientFault};
use gossiptrust_serve::server::{serve_on_with, ServerConfig};
use gossiptrust_serve::service::{ReputationService, ServiceConfig, ServiceHandle};
use gossiptrust_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One acknowledged feedback event in the shadow ledger.
type Acked = (u32, u32, f64);

/// A unique scratch directory: process id + a fixed tag, no ambient
/// entropy (gt-lint rule 5) and no collision across concurrent CI jobs.
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gt-chaos-soak-{}-{tag}", std::process::id()))
}

fn main() {
    let scale = Scale::from_env();
    let (n, rounds, tcp_ops) = match scale {
        Scale::Paper => (200, 12, 120),
        Scale::Quick => (80, 6, 40),
    };
    let seed = chaos_seed().unwrap_or(7002);
    println!("Chaos soak ({scale:?} scale, n = {n}, seed = {seed}; override with GT_CHAOS_SEED)\n");

    let wal_dir = scratch_dir("wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let acked = soak_phase(n, rounds, seed, &wal_dir);
    restart_phase(n, seed, &wal_dir, &acked);
    tcp_phase(n, tcp_ops, seed);
    let _ = std::fs::remove_dir_all(&wal_dir);

    println!("\nchaos soak passed: zero lost acknowledged feedback, a snapshot on");
    println!("every query, and every degradation counter matching the faults dealt.");
}

/// Phase 1 — the in-process soak: epoch panics and overruns under a tight
/// deadline, ingest overload against a small queue, with a concurrent
/// reader asserting snapshot availability the whole time.
fn soak_phase(n: usize, rounds: usize, seed: u64, wal_dir: &PathBuf) -> Vec<Acked> {
    println!("=== phase 1: in-process soak (epoch faults + overload + WAL) ===");
    let service = ReputationService::start(
        ServiceConfig::new(n)
            .with_seed(seed)
            .with_ingest_queue(512)
            .with_epoch_deadline(Duration::from_millis(25))
            .with_wal_dir(wal_dir)
            .with_chaos(ChaosConfig::soak(seed)),
    );
    let handle = service.handle();

    // Concurrent reader: every query must see a snapshot, versions must
    // never go backwards.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let handle = service.handle();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let queries = AtomicU64::new(0);
            let mut last_version = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = handle.snapshot();
                assert!(
                    snap.vector.n() == handle.n() && !snap.vector.values().is_empty(),
                    "a query observed a missing snapshot"
                );
                assert!(
                    snap.version >= last_version,
                    "snapshot version went backwards: {} -> {}",
                    last_version,
                    snap.version
                );
                last_version = snap.version;
                let top = handle.top_k(5);
                assert_eq!(top.peers.len(), 5.min(handle.n()));
                queries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
            queries.load(Ordering::Relaxed)
        })
    };

    // Writers: Zipf-skewed feedback with retry-on-shed; every Ok is an
    // acknowledgment the rest of the soak holds the service to.
    let zipf = Zipf::new(n, 0.8);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xACED);
    let mut acked: Vec<Acked> = Vec::new();
    let mut sheds_seen = 0u64;
    let (mut panics_seen, mut overruns_seen, mut published_seen) = (0u64, 0u64, 0u64);
    for _round in 0..rounds {
        for rater in 0..n {
            for _ in 0..3 {
                let target = zipf.sample(&mut rng) - 1;
                if target == rater {
                    continue;
                }
                let score = 1.0 + rng.random::<f64>() * 4.0;
                // Retry a shed by draining the backlog (an epoch folds it),
                // exactly what a real client's backoff gives time for.
                for attempt in 0..3 {
                    match handle.record(
                        NodeId::from_index(rater),
                        NodeId::from_index(target),
                        score,
                    ) {
                        Ok(()) => {
                            acked.push((rater as u32, target as u32, score));
                            break;
                        }
                        Err(e) if e.retriable() && attempt < 2 => {
                            sheds_seen += 1;
                            let outcome = handle.run_epoch_now().expect("epoch loop alive");
                            tally(
                                &outcome,
                                &mut panics_seen,
                                &mut overruns_seen,
                                &mut published_seen,
                            );
                        }
                        Err(e) => panic!("non-retriable record failure: {e}"),
                    }
                }
            }
        }
        let outcome = handle.run_epoch_now().expect("epoch loop alive");
        tally(&outcome, &mut panics_seen, &mut overruns_seen, &mut published_seen);
    }
    stop.store(true, Ordering::Relaxed);
    let queries = reader.join().expect("reader thread");

    let stats = handle.stats_report();
    let chaos = service.chaos_report().expect("chaos armed");
    let mut t = TextTable::new(vec!["metric", "observed", "counter"]);
    t.row(vec![
        "epochs panicked".into(),
        panics_seen.to_string(),
        stats.epochs_panicked.to_string(),
    ]);
    t.row(vec![
        "epochs overrun".into(),
        overruns_seen.to_string(),
        stats.epochs_overrun.to_string(),
    ]);
    t.row(vec![
        "requests shed".into(),
        sheds_seen.to_string(),
        stats.requests_shed.to_string(),
    ]);
    t.row(vec![
        "acked feedback".into(),
        acked.len().to_string(),
        stats.wal_appended_records.to_string(),
    ]);
    t.row(vec!["reader queries".into(), queries.to_string(), String::new()]);
    print!("{}", t.render());

    // Counters must match the faults dealt and the acks given — exactly.
    assert_eq!(stats.epochs_panicked, chaos.epochs_panicked, "panic counter vs faults dealt");
    // `>=`: every injected overrun (50 ms pause vs the 25 ms deadline) is
    // abandoned, and a slow machine may add natural overruns on top.
    assert!(stats.epochs_overrun >= chaos.epochs_overrun, "overrun counter vs faults dealt");
    assert_eq!(stats.epochs_panicked, panics_seen, "panic counter vs outcomes observed");
    assert_eq!(stats.epochs_overrun, overruns_seen, "overrun counter vs outcomes observed");
    assert_eq!(stats.requests_shed, sheds_seen, "shed counter vs retriable errors observed");
    assert_eq!(stats.wal_appended_records, acked.len() as u64, "every ack hit the WAL");
    assert_eq!(stats.epochs_published, published_seen, "published tally");
    assert!(
        panics_seen + overruns_seen > 0,
        "the soak rates must actually deal epoch faults (seed {seed})"
    );
    assert!(queries > 0, "the reader must have run");
    service.shutdown();
    acked
}

fn tally(
    outcome: &gossiptrust_serve::epoch::EpochOutcome,
    panics: &mut u64,
    overruns: &mut u64,
    published: &mut u64,
) {
    if outcome.panicked {
        *panics += 1;
    }
    if outcome.overran {
        *overruns += 1;
    }
    if outcome.published {
        *published += 1;
    }
}

/// Phase 2 — crash recovery: tear the WAL tail the way a kill -9 mid-append
/// would, restart, and demand the replayed log fold bit-identically to a
/// clean twin fed the shadow ledger directly.
fn restart_phase(n: usize, seed: u64, wal_dir: &PathBuf, acked: &[Acked]) {
    println!("\n=== phase 2: torn-tail crash + restart (WAL replay) ===");
    // A partial record after the last complete one: what an interrupted
    // append leaves behind. Replay must stop at the last intact record.
    let wal_file = std::fs::read_dir(wal_dir)
        .expect("wal dir exists")
        .next()
        .expect("wal file exists")
        .expect("readable dir entry")
        .path();
    let mut torn = std::fs::OpenOptions::new()
        .append(true)
        .open(&wal_file)
        .expect("open wal for tearing");
    torn.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02])
        .expect("tear tail");
    drop(torn);

    let restarted =
        ReputationService::start(ServiceConfig::new(n).with_seed(seed).with_wal_dir(wal_dir));
    let twin = ReputationService::start(ServiceConfig::new(n).with_seed(seed));
    let th = twin.handle();
    for &(rater, target, score) in acked {
        th.record(NodeId(rater), NodeId(target), score).expect("twin ingest");
    }

    let rh = restarted.handle();
    let stats = rh.stats_report();
    assert_eq!(
        stats.wal_replayed_records,
        acked.len() as u64,
        "replay must recover every acked record past the torn tail"
    );
    assert_eq!(rh.events_ingested(), acked.len() as u64, "zero lost acknowledged feedback");

    // Bit-for-bit: the raw local-trust rows, and the snapshot an epoch
    // folds them into, are identical between replay and twin.
    let flat = |h: &ServiceHandle| -> Vec<(u32, u64)> {
        h.raw_rows()
            .iter()
            .flat_map(|row| {
                row.iter_raw()
                    .map(|(id, amt)| (id.0, amt.to_bits()))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    assert_eq!(flat(&rh), flat(&th), "replayed rows differ from the twin's");
    let r_out = rh.run_epoch_now().expect("epoch loop alive");
    let t_out = th.run_epoch_now().expect("epoch loop alive");
    assert!(r_out.published && t_out.published, "clean epochs publish");
    let bits = |h: &ServiceHandle| -> Vec<u64> {
        h.snapshot().vector.values().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&rh), bits(&th), "replayed fold must aggregate bit-identically");
    println!(
        "replayed {} records past a torn tail; folded matrix and published\nsnapshot bit-identical to a clean twin.",
        acked.len()
    );
    restarted.shutdown();
    twin.shutdown();
}

/// Phase 3 — the TCP drill: response-frame faults on the server side,
/// slow-loris and oversize clients on ours, plus an exhausted connection
/// limit; the server must reap, refuse, and keep answering.
fn tcp_phase(n: usize, ops: usize, seed: u64) {
    println!("\n=== phase 3: TCP drill (frame faults + slow-loris + conn limit) ===");
    let service = ReputationService::start(ServiceConfig::new(n).with_seed(seed));
    let handle = service.handle();
    // The server-side dealer counts into the service's registry (its faults
    // show in the scrape); our own misbehaviour below is not the service's.
    let frame_chaos =
        Arc::new(ChaosInjector::new(ChaosConfig::soak(seed ^ 1), &handle.obs().registry));
    let server_config = ServerConfig {
        max_conns: 4,
        read_timeout: Duration::from_millis(100),
        max_line_bytes: 1024,
        chaos: Some(Arc::clone(&frame_chaos)),
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind drill listener");
    let addr = listener.local_addr().expect("listener addr");
    let server_handle = service.handle();
    std::thread::spawn(move || serve_on_with(server_handle, listener, server_config));

    // Our own misbehavior schedule, independent of the server's injector.
    let client_chaos = ChaosInjector::new(ChaosConfig::soak(seed ^ 2), &Registry::new());
    let (mut answered, mut silent, mut stalled, mut oversized) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..ops {
        let mut conn = std::net::TcpStream::connect(addr).expect("drill connect");
        conn.set_read_timeout(Some(Duration::from_millis(500)))
            .expect("set deadline");
        match client_chaos.client_fault() {
            ClientFault::Honest => {
                conn.write_all(b"{\"op\":\"ping\"}\n").expect("send ping");
                let mut line = String::new();
                // Silence (a dropped frame — we outwait the server's read
                // deadline, so it ends in the reap farewell) or a short read
                // (a truncated one) are the injected weather; an honest reply
                // must be a well-formed frame naming the live snapshot version.
                match BufReader::new(&conn).read_line(&mut line) {
                    Ok(_) if line.ends_with('\n') && !line.contains("read timeout") => {
                        assert!(line.contains("\"version\""), "reply without a version: {line}");
                        answered += 1;
                    }
                    _ => silent += 1,
                }
            }
            ClientFault::Stall => {
                // Slow-loris: hold an incomplete line open; the read
                // deadline must reap us with a farewell, then EOF.
                conn.write_all(b"{\"op\":\"pi").expect("send partial");
                let mut rest = String::new();
                let _ = conn.read_to_string(&mut rest);
                assert!(rest.contains("read timeout"), "stalled conn not reaped: {rest:?}");
                stalled += 1;
            }
            ClientFault::OversizeLine => {
                let huge = vec![b'x'; 4096];
                conn.write_all(&huge).expect("send oversize");
                conn.write_all(b"\n").expect("terminate oversize");
                let mut rest = String::new();
                let _ = conn.read_to_string(&mut rest);
                assert!(rest.contains("too long"), "oversize line not refused: {rest:?}");
                oversized += 1;
            }
        }
    }

    // Exhaust the accept gate: fill every slot with held-open connections,
    // then the next arrival must be shed with a retriable error line.
    let held: Vec<std::net::TcpStream> = (0..4)
        .map(|_| std::net::TcpStream::connect(addr).expect("fill slot"))
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    let shed = std::net::TcpStream::connect(addr).expect("over-limit connect");
    shed.set_read_timeout(Some(Duration::from_millis(500)))
        .expect("set deadline");
    let mut line = String::new();
    let read = BufReader::new(&shed).read_line(&mut line);
    assert!(
        read.is_ok() && line.contains("\"retriable\":true"),
        "over-limit conn must get a retriable shed line, got {line:?}"
    );
    drop(held);

    let stats = handle.stats_report();
    let report = frame_chaos.report();
    let mut t = TextTable::new(vec!["metric", "count"]);
    t.row(vec!["honest replies".into(), answered.to_string()]);
    t.row(vec!["replies lost to frame faults".into(), silent.to_string()]);
    t.row(vec!["slow-loris conns reaped".into(), stalled.to_string()]);
    t.row(vec!["oversize lines refused".into(), oversized.to_string()]);
    t.row(vec![
        "conns rejected at the gate".into(),
        stats.conns_rejected.to_string(),
    ]);
    t.row(vec![
        "frame faults dealt (drop/delay/dup/trunc)".into(),
        format!(
            "{}/{}/{}/{}",
            report.frames_dropped,
            report.frames_delayed,
            report.frames_duplicated,
            report.frames_truncated
        ),
    ]);
    print!("{}", t.render());

    assert!(answered > 0, "some honest requests must get through the weather");
    // `>=`: the held-open gate-filler conns may also trip the deadline.
    assert!(stats.conns_timed_out >= stalled, "every stall must be reaped");
    assert!(stats.conns_rejected >= 1, "the accept gate must have shed the over-limit conn");
    if answered + silent >= 30 {
        assert!(
            report.frames_dropped
                + report.frames_delayed
                + report.frames_duplicated
                + report.frames_truncated
                > 0,
            "soak rates over {} responses must deal at least one frame fault",
            answered + silent
        );
    }
    service.shutdown();
}
