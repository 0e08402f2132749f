//! Simulation metrics.

use crate::event::SimTime;

/// Counters collected by the discrete-event simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Messages handed to the link layer.
    pub messages_sent: u64,
    /// Messages delivered to their destination.
    pub messages_delivered: u64,
    /// Messages dropped by the link model.
    pub messages_dropped: u64,
    /// Messages lost because the destination was offline at delivery time.
    pub messages_to_offline: u64,
    /// Gossip ticks executed.
    pub ticks: u64,
    /// Join events processed.
    pub joins: u64,
    /// Leave events processed.
    pub leaves: u64,
    /// Simulated time at the end of the run (µs).
    pub end_time: SimTime,
}

impl SimMetrics {
    /// Delivered / sent ratio (1.0 when nothing was sent).
    pub fn delivery_rate(&self) -> f64 {
        if self.messages_sent == 0 {
            1.0
        } else {
            self.messages_delivered as f64 / self.messages_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_rate_handles_zero() {
        assert_eq!(SimMetrics::default().delivery_rate(), 1.0);
        let m = SimMetrics { messages_sent: 10, messages_delivered: 7, ..Default::default() };
        assert!((m.delivery_rate() - 0.7).abs() < 1e-12);
    }
}
