//! Every thread the runtime starts has ended when its driver returns: on
//! the converged path, when a 50 ms `cycle_timeout` cuts every barrier
//! short, and when `deadline` cuts the coordinator-free run short.
//!
//! One test function, so no other test's node threads are alive in this
//! process while it counts. The count reads the kernel's own list of this
//! process's threads, so it needs Linux's procfs.
#![cfg(target_os = "linux")]

mod common;

use common::authority;
use gossiptrust_core::prelude::*;
use gossiptrust_net::autonomous::{run_autonomous, AutonomousConfig};
use gossiptrust_net::cluster::{Cluster, NetConfig};
use gossiptrust_net::transport::{InMemoryHandle, InMemoryNetwork};
use gossiptrust_net::udp::UdpEndpoint;
use gossiptrust_obs::Deadline;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Names of this process's live `gt-node-*` / `gt-udp-*` threads.
fn runtime_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("gt-node-") || name.starts_with("gt-udp-"))
        .collect()
}

/// Wait until exactly `expected` runtime threads are listed. The list lags
/// the calls by a moment either way: a new thread names itself once it
/// runs, and `join` returns when the kernel wakes the joiner, just before
/// it unlinks the exited task from `/proc`. A thread that was really left
/// running stays listed for good.
fn assert_runtime_threads(expected: usize, when: &str) {
    let patience = Deadline::after(Duration::from_secs(2));
    while runtime_threads().len() != expected && !patience.expired() {
        std::thread::yield_now();
    }
    let alive = runtime_threads();
    assert_eq!(alive.len(), expected, "{alive:?} alive {when}");
}

fn assert_no_runtime_threads(after: &str) {
    assert_runtime_threads(0, &format!("after {after}"));
}

#[test]
fn no_runtime_thread_outlives_its_driver() {
    // The count sees a thread of that name while it lives (the name is set
    // by the new thread itself, so wait until its body runs).
    let (started, running) = mpsc::channel::<()>();
    let (release, wait) = mpsc::channel::<()>();
    let probe = std::thread::Builder::new()
        .name("gt-node-probe".into())
        .spawn(move || {
            started.send(()).unwrap();
            wait.recv()
        })
        .unwrap();
    running.recv().unwrap();
    assert_eq!(runtime_threads(), ["gt-node-probe"]);
    drop(release);
    probe.join().unwrap().unwrap_err();
    assert_no_runtime_threads("the probe");

    let n = 8;
    let matrix = authority(n);
    let params = Params::for_network(n);

    let report = Cluster::in_memory(NetConfig::fast_local().with_seed(1)).run(&matrix, &params);
    assert!(report.converged);
    assert_no_runtime_threads("a converged in-memory run");

    let report = Cluster::udp(NetConfig::fast_local().with_seed(2)).run(&matrix, &params);
    assert!(report.converged);
    assert_no_runtime_threads("a converged UDP run");

    // No node can call a cycle converged (the patience outlasts the tick
    // budget of the timeout), so every barrier ends by `cycle_timeout`.
    let cut_short = NetConfig {
        cycle_timeout: Duration::from_millis(50),
        patience: usize::MAX,
        ..NetConfig::fast_local()
    };
    let mut three_cycles = params.clone();
    three_cycles.max_cycles = 3;
    let report = Cluster::in_memory(cut_short.clone()).run(&matrix, &three_cycles);
    assert_eq!(report.cycles, 3);
    assert!(report.pushes_sent > 0);
    assert_no_runtime_threads("an in-memory run of timed-out barriers");
    let report = Cluster::udp(cut_short).run(&matrix, &three_cycles);
    assert_eq!(report.cycles, 3);
    assert_no_runtime_threads("a UDP run of timed-out barriers");

    let autonomous = |config: AutonomousConfig| {
        let (net, inboxes) = InMemoryNetwork::new(n, 2048, 0.0, 0);
        let transports: Vec<InMemoryHandle> =
            (0..n).map(|_| InMemoryHandle::new(Arc::clone(&net))).collect();
        let report = run_autonomous(&matrix, &params, config, transports, inboxes);
        // Each node thread owned one handle onto the network.
        assert_eq!(Arc::strong_count(&net), 1);
        report
    };
    // (A short tick budget: the last node of the last cycle waits it out.)
    let report = autonomous(AutonomousConfig { max_ticks: 200, ..AutonomousConfig::fast_local() });
    assert_eq!(report.nodes.len(), n);
    assert_no_runtime_threads("a finished coordinator-free run");

    // 50 ms is not enough for the planned cycles: no node reports, and the
    // run says so by panicking — after it has stopped and joined everyone.
    let cut_short =
        AutonomousConfig { deadline: Duration::from_millis(50), ..AutonomousConfig::fast_local() };
    let outcome = catch_unwind(AssertUnwindSafe(|| autonomous(cut_short.clone())));
    assert!(outcome.is_err(), "no node can finish in 50 ms");
    assert_no_runtime_threads("a coordinator-free run cut short by its deadline");

    // The same over UDP, where each node thread also owns a receive thread.
    let (transports, inboxes): (Vec<_>, Vec<_>) = UdpEndpoint::bind_cluster(n).into_iter().unzip();
    assert_runtime_threads(n, "once every endpoint's gt-udp thread runs");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_autonomous(&matrix, &params, cut_short, transports, inboxes)
    }));
    assert!(outcome.is_err(), "no node can finish in 50 ms");
    assert_no_runtime_threads("a coordinator-free UDP run cut short by its deadline");
}
