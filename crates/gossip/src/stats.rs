//! Instrumentation counters for gossip runs.

/// Estimated bytes of memory traffic one gossip step streams, for an
/// `n`-node engine that delivered `delivered` pushes (see
/// `engine::step_slab`).
///
/// The model counts every array the kernel's one sweep touches exactly
/// once:
///
/// * own row read (`x` + `w`): `2n` f64 per row → `16n²` bytes,
/// * next-state write (`x` + `w`): `16n²` bytes,
/// * each delivered push reads the sender's `x`/`w` row once: `16n` bytes,
/// * the CSR sender ids (u32) are read once: `4 · delivered` bytes.
///
/// The ε test adds nothing: it re-reads the own row and the merged row
/// while both are cache-resident (`32n` bytes per row), and stops at the
/// row's first failing block.
///
/// It is an *estimate*: a row with several senders revisits its
/// (cache-resident, `16n`-byte) write row once per extra sender, and cache
/// residency makes real DRAM traffic lower, but the figure tracks the
/// right order and, divided by step wall time, shows how far the kernel
/// is from bandwidth-bound (compare against the machine's stream
/// bandwidth).
pub fn step_bytes_estimate(n: usize, delivered: usize) -> u64 {
    let n = n as u64;
    let delivered = delivered as u64;
    32 * n * n + 16 * n * delivered + 4 * delivered
}

/// Counters accumulated by a gossip engine.
///
/// A "message" is one gossip pair/vector pushed across the network (the
/// self-half a node keeps is *not* counted — it never touches a link).
/// `triplets_sent` approximates bandwidth: for the vector protocol each
/// message carries `n` triplets, for the scalar protocol exactly one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Gossip steps executed.
    pub steps: u64,
    /// Messages pushed onto the network (excluding self-halves).
    pub messages_sent: u64,
    /// Messages lost to injected link failures.
    pub messages_dropped: u64,
    /// Total triplets carried by sent messages (bandwidth proxy).
    pub triplets_sent: u64,
    /// Estimated bytes of memory traffic streamed by the step kernel
    /// (see [`step_bytes_estimate`]: state read and written once, one
    /// sender row per delivery), accumulated per step — divided by step
    /// time, the engine's distance from the bandwidth roofline.
    pub bytes_streamed: u64,
}

impl GossipStats {
    /// Merge another counter set into this one (used when summing cycles).
    pub fn absorb(&mut self, other: &GossipStats) {
        self.steps += other.steps;
        self.messages_sent += other.messages_sent;
        self.messages_dropped += other.messages_dropped;
        self.triplets_sent += other.triplets_sent;
        self.bytes_streamed += other.bytes_streamed;
    }

    /// Counter deltas accumulated since `before` was captured (the inverse
    /// of [`absorb`](Self::absorb)): `before.diff(&after)` on a monotonic
    /// engine counter yields exactly the activity of the interval. Panics
    /// (in debug) if `before` is not a prefix of `self` — counters never
    /// decrease.
    pub fn diff(&self, before: &GossipStats) -> GossipStats {
        debug_assert!(
            self.steps >= before.steps
                && self.messages_sent >= before.messages_sent
                && self.messages_dropped >= before.messages_dropped
                && self.triplets_sent >= before.triplets_sent
                && self.bytes_streamed >= before.bytes_streamed,
            "diff against a later snapshot"
        );
        GossipStats {
            steps: self.steps - before.steps,
            messages_sent: self.messages_sent - before.messages_sent,
            messages_dropped: self.messages_dropped - before.messages_dropped,
            triplets_sent: self.triplets_sent - before.triplets_sent,
            bytes_streamed: self.bytes_streamed - before.bytes_streamed,
        }
    }

    /// Mean estimated bytes streamed per executed step (0 before any step)
    /// — the `stats::diff`-friendly readout of [`step_bytes_estimate`].
    pub fn bytes_streamed_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.bytes_streamed as f64 / self.steps as f64
        }
    }

    /// Fraction of sent messages that were dropped (0 when nothing sent).
    pub fn drop_rate(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.messages_dropped as f64 / self.messages_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_fields() {
        let mut a = GossipStats {
            steps: 1,
            messages_sent: 10,
            messages_dropped: 2,
            triplets_sent: 100,
            bytes_streamed: 1000,
        };
        let b = GossipStats {
            steps: 2,
            messages_sent: 5,
            messages_dropped: 0,
            triplets_sent: 50,
            bytes_streamed: 500,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            GossipStats {
                steps: 3,
                messages_sent: 15,
                messages_dropped: 2,
                triplets_sent: 150,
                bytes_streamed: 1500,
            }
        );
    }

    #[test]
    fn diff_inverts_absorb() {
        let before = GossipStats {
            steps: 1,
            messages_sent: 10,
            messages_dropped: 2,
            triplets_sent: 100,
            bytes_streamed: 1000,
        };
        let delta = GossipStats {
            steps: 2,
            messages_sent: 5,
            messages_dropped: 1,
            triplets_sent: 50,
            bytes_streamed: 700,
        };
        let mut after = before;
        after.absorb(&delta);
        assert_eq!(after.diff(&before), delta);
        // Diffing against itself is the zero delta.
        assert_eq!(after.diff(&after), GossipStats::default());
    }

    #[test]
    fn drop_rate_handles_zero() {
        assert_eq!(GossipStats::default().drop_rate(), 0.0);
        let s = GossipStats { messages_sent: 4, messages_dropped: 1, ..Default::default() };
        assert_eq!(s.drop_rate(), 0.25);
    }

    /// Pin the traffic model: every term of [`step_bytes_estimate`] is
    /// checked against the hand-computed expansion for a small step.
    #[test]
    fn step_bytes_estimate_matches_the_model() {
        // n = 8, 5 delivered pushes.
        let n = 8u64;
        let delivered = 5u64;
        let expected = 32 * n * n            // own read + next write
            + 16 * n * delivered             // one sender-row read per push
            + 4 * delivered; // CSR ids, read once
        assert_eq!(step_bytes_estimate(8, 5), expected);
        // No deliveries: pure state streaming.
        assert_eq!(step_bytes_estimate(8, 0), 32 * 64);
    }

    #[test]
    fn bytes_streamed_per_step_averages() {
        assert_eq!(GossipStats::default().bytes_streamed_per_step(), 0.0);
        let s = GossipStats { steps: 4, bytes_streamed: 1000, ..Default::default() };
        assert!((s.bytes_streamed_per_step() - 250.0).abs() < 1e-12);
    }
}
