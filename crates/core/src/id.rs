//! Compact peer identifiers.

use std::fmt;

/// Identifier of a peer node in the P2P network.
///
/// Node ids are dense indices `0..n` into the trust matrix and reputation
/// vector. A `u32` keeps gossip triplets small (the paper's per-node state is
/// `O(n)` triplets, so entry size matters at scale).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index into dense per-network arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// Iterate over all ids of an `n`-node network: `0, 1, ..., n-1`.
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> + Clone {
        (0..n).map(NodeId::from_index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for i in [0usize, 1, 7, 1000, u32::MAX as usize] {
            assert_eq!(NodeId::from_index(i).index(), i);
        }
    }

    #[test]
    fn all_enumerates_dense_ids() {
        let ids: Vec<NodeId> = NodeId::all(4).collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId(42).to_string(), "N42");
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn from_index_overflow_panics() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn ordering_matches_indices() {
        assert!(NodeId(3) < NodeId(10));
    }
}
