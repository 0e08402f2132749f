//! The two drivers of the one node core — coordinator barrier and
//! piggybacked bitmap — fed the same matrix, agree on the top peer with
//! each other and with the centralized oracle.

mod common;

use gossiptrust_core::prelude::*;
use gossiptrust_net::autonomous::{run_autonomous, AutonomousConfig};
use gossiptrust_net::cluster::{Cluster, NetConfig};
use gossiptrust_net::transport::{InMemoryHandle, InMemoryNetwork};
use std::sync::Arc;

#[test]
fn barrier_and_autonomous_drivers_agree_with_the_oracle() {
    let n = 12;
    let matrix = common::authority(n);
    let params = Params::for_network(n);

    let barrier = Cluster::in_memory(NetConfig::fast_local().with_seed(5)).run(&matrix, &params);
    assert!(barrier.converged);

    let (net, inboxes) = InMemoryNetwork::new(n, 2048, 0.0, 0);
    let transports: Vec<InMemoryHandle> =
        (0..n).map(|_| InMemoryHandle::new(Arc::clone(&net))).collect();
    let autonomous = run_autonomous(
        &matrix,
        &params,
        AutonomousConfig { seed: 5, ..AutonomousConfig::fast_local() },
        transports,
        inboxes,
    );
    assert_eq!(autonomous.nodes.len(), n, "every node must report");

    let oracle = PowerIteration::new(params).solve(&matrix, &Prior::uniform(n));
    let top = oracle.vector.ranking()[0];
    assert_eq!(top, NodeId(0));
    assert_eq!(barrier.vector.ranking()[0], top);
    assert_eq!(autonomous.vector.ranking()[0], top);
}
