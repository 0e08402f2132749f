//! Shared by the integration tests of this crate.

use gossiptrust_core::prelude::*;

/// Node 0 is an unambiguous authority: everyone directs most trust at it,
/// and it spreads its own thinly over all the others.
pub fn authority(n: usize) -> TrustMatrix {
    let mut b = TrustMatrixBuilder::new(n);
    for i in 1..n {
        b.record(NodeId::from_index(i), NodeId(0), 4.0);
        b.record(NodeId::from_index(i), NodeId::from_index((i + 1) % n), 1.0);
        b.record(NodeId(0), NodeId::from_index(i), 1.0);
    }
    b.build()
}
