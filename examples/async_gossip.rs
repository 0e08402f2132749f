//! Asynchronous gossip over real message passing: spawns one thread per
//! peer, first over in-process channels (with 5% injected loss), then
//! over real UDP loopback sockets, with every push signed under the
//! sender's identity key.
//!
//! Run with: `cargo run --release --example async_gossip`

use gossiptrust::net::cluster::{Cluster, NetConfig};
use gossiptrust::prelude::*;
use std::time::Duration;

fn demo_matrix(n: usize) -> TrustMatrix {
    let mut b = TrustMatrixBuilder::new(n);
    for i in 1..n as u32 {
        b.record(NodeId(i), NodeId(0), 4.0);
        b.record(NodeId(i), NodeId(i % (n as u32 - 1) + 1), 1.0);
        b.record(NodeId(0), NodeId(i), 1.0);
    }
    b.build()
}

fn main() {
    let n = 24;
    let matrix = demo_matrix(n);
    let params = Params::for_network(n);

    println!("async gossip cluster: {n} node threads, signed pushes\n");

    let config = NetConfig { tick: Duration::from_millis(2), ..NetConfig::fast_local() }
        .with_seed(1)
        .with_loss_rate(0.05);
    let report = Cluster::in_memory(config).run(&matrix, &params);
    println!("[in-memory channels, 5% loss]");
    println!("  cycles: {}, converged: {}", report.cycles, report.converged);
    println!("  pushes sent: {}", report.pushes_sent);
    println!(
        "  auth failures: {}, stale pushes: {}",
        report.auth_failures, report.stale_pushes
    );
    println!(
        "  top peer: {}, power nodes: {:?}",
        report.vector.ranking()[0],
        report.power_nodes
    );

    let report = Cluster::udp(NetConfig::fast_local().with_seed(2)).run(&matrix, &params);
    println!("\n[UDP loopback sockets]");
    println!("  cycles: {}, converged: {}", report.cycles, report.converged);
    println!("  pushes sent: {}", report.pushes_sent);
    println!("  top peer: {}", report.vector.ranking()[0]);

    // Cross-check against the exact oracle.
    let oracle = PowerIteration::new(params).solve(&matrix, &Prior::uniform(n));
    println!(
        "\noracle agrees on the top peer: {}",
        oracle.vector.ranking()[0] == report.vector.ranking()[0]
    );
}
