//! Deterministic, seed-driven fault injection for the service paths.
//!
//! The paper sells GossipTrust on fault tolerance — aggregation that keeps
//! converging under churn, message loss and disturbance (§6.1, Fig. 4) —
//! but `simnet` only *simulates* those faults. This module injects them
//! against the **real** service: the TCP front-end's response frames
//! (dropped / delayed / duplicated / truncated), adversarial client
//! behavior (stalled slow-loris connections, oversize lines) and the epoch
//! thread (injected panics, simulated fold/aggregate overruns).
//!
//! Every decision flows from one seeded RNG ([`ChaosConfig::seed`], wired
//! through `core::params::chaos_seed` / `GT_CHAOS_SEED`) — no ambient
//! entropy, per gt-lint rule `entropy` — so a fault schedule is a pure
//! function of `(seed, decision sequence)` and a chaos soak can be
//! replayed exactly. The injector also *counts* every fault it deals
//! ([`ChaosReport`]) — into the `gt_chaos_*_total` counters of the registry
//! it is built on, so its report and that registry's scrape cannot differ —
//! which is what lets the soak assert that the service's degradation
//! counters match the injected fault counts instead of merely "some faults
//! happened".
//!
//! The injector is deliberately dumb: it decides, callers act. That keeps
//! the blast radius auditable — grep for `frame_fault` / `epoch_fault` /
//! `client_fault` and you have the complete list of places chaos can bite.

use gossiptrust_obs::{Counter, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Fault mix of one chaos run. Rates are per-mille (0..=1000) so the knob
/// is integer-exact and the config carries no floats to mis-compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the injector's RNG (thread through
    /// `core::params::chaos_seed`, never ambient entropy).
    pub seed: u64,
    /// Response frames dropped outright (‰).
    pub drop_per_mille: u32,
    /// Response frames delayed by [`ChaosConfig::delay_ms`] (‰).
    pub delay_per_mille: u32,
    /// Delay applied to delayed frames, in milliseconds.
    pub delay_ms: u64,
    /// Response frames written twice (‰).
    pub duplicate_per_mille: u32,
    /// Response frames cut mid-line, connection closed (‰).
    pub truncate_per_mille: u32,
    /// Client connections that stall without completing a line (‰).
    pub stall_per_mille: u32,
    /// Client requests inflated past the server's line cap (‰).
    pub oversize_per_mille: u32,
    /// Epochs that panic on the epoch thread (‰).
    pub epoch_panic_per_mille: u32,
    /// Epochs that sleep [`ChaosConfig::overrun_ms`] to overrun the epoch
    /// deadline (‰).
    pub epoch_overrun_per_mille: u32,
    /// Sleep injected into overrunning epochs, in milliseconds.
    pub overrun_ms: u64,
}

impl ChaosConfig {
    /// All faults off (the injector still counts decisions).
    pub fn disabled(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_per_mille: 0,
            delay_per_mille: 0,
            delay_ms: 0,
            duplicate_per_mille: 0,
            truncate_per_mille: 0,
            stall_per_mille: 0,
            oversize_per_mille: 0,
            epoch_panic_per_mille: 0,
            epoch_overrun_per_mille: 0,
            overrun_ms: 0,
        }
    }

    /// The full soak matrix: loss × delay × duplication × truncation ×
    /// stalls × oversize lines × epoch panics × epoch overruns, at rates
    /// high enough that a few hundred decisions exercise every arm.
    pub fn soak(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_per_mille: 100,
            delay_per_mille: 100,
            delay_ms: 20,
            duplicate_per_mille: 60,
            truncate_per_mille: 60,
            stall_per_mille: 60,
            oversize_per_mille: 40,
            epoch_panic_per_mille: 250,
            epoch_overrun_per_mille: 250,
            overrun_ms: 50,
        }
    }

    /// Domain check: each decision's rates must fit in one per-mille roll.
    pub fn validate(&self) -> Result<(), String> {
        let frame = self.drop_per_mille
            + self.delay_per_mille
            + self.duplicate_per_mille
            + self.truncate_per_mille;
        if frame > 1000 {
            return Err(format!("frame fault rates sum to {frame}‰ (> 1000)"));
        }
        let client = self.stall_per_mille + self.oversize_per_mille;
        if client > 1000 {
            return Err(format!("client fault rates sum to {client}‰ (> 1000)"));
        }
        let epoch = self.epoch_panic_per_mille + self.epoch_overrun_per_mille;
        if epoch > 1000 {
            return Err(format!("epoch fault rates sum to {epoch}‰ (> 1000)"));
        }
        Ok(())
    }
}

/// What to do with one response frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFault {
    /// Write it normally.
    Deliver,
    /// Do not write it at all (the client sees silence and must retry).
    Drop,
    /// Sleep, then write it.
    Delay(Duration),
    /// Write it twice (a retransmit-style duplicate).
    Duplicate,
    /// Write only a prefix, then sever the connection.
    Truncate,
}

/// How the (soak-driven) client behaves on one connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientFault {
    /// Speak the protocol honestly.
    Honest,
    /// Open the connection, send a partial line, and go silent
    /// (slow-loris) — the server's read deadline must reap it.
    Stall,
    /// Send a newline-free line past the server's cap — the line cap must
    /// reject it without buffering unboundedly.
    OversizeLine,
}

/// What to do to one epoch on the epoch thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochFault {
    /// Panic mid-epoch (the watchdog's `catch_unwind` must contain it).
    Panic,
    /// Sleep this long inside the epoch body, simulating a fold/aggregate
    /// overrun (the deadline watchdog must abandon the result).
    Overrun(Duration),
}

impl EpochFault {
    /// Materialize the fault inside the epoch watchdog body: `Panic`
    /// unwinds (the exact failure `catch_unwind` exists to contain),
    /// `Overrun` stalls the epoch thread past its deadline. Keeping the
    /// `panic!` here, not in the epoch manager, makes this file the single
    /// deliberate panic site on the serving path.
    pub fn materialize(self) {
        match self {
            EpochFault::Panic => panic!("chaos: injected epoch panic"),
            EpochFault::Overrun(pause) => std::thread::sleep(pause),
        }
    }
}

/// Monotonic counts of every fault dealt, by kind: as plain numbers
/// ([`ChaosReport`]) or as the live counters behind them ([`FaultCounts`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Faults<T> {
    /// Response frames dropped.
    pub frames_dropped: T,
    /// Response frames delayed.
    pub frames_delayed: T,
    /// Response frames duplicated.
    pub frames_duplicated: T,
    /// Response frames truncated.
    pub frames_truncated: T,
    /// Client connections told to stall.
    pub client_stalls: T,
    /// Client requests told to oversize.
    pub client_oversize: T,
    /// Epochs told to panic.
    pub epochs_panicked: T,
    /// Epochs told to overrun.
    pub epochs_overrun: T,
}

/// A plain, copyable view of the fault counts at one instant.
pub type ChaosReport = Faults<u64>;

/// The eight `gt_chaos_*_total` counters of one registry. Injectors built
/// on the same registry share them.
pub type FaultCounts = Faults<Arc<Counter>>;

impl FaultCounts {
    /// Get or register the eight counters in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Faults {
            frames_dropped: registry.counter("gt_chaos_frames_dropped_total"),
            frames_delayed: registry.counter("gt_chaos_frames_delayed_total"),
            frames_duplicated: registry.counter("gt_chaos_frames_duplicated_total"),
            frames_truncated: registry.counter("gt_chaos_frames_truncated_total"),
            client_stalls: registry.counter("gt_chaos_client_stalls_total"),
            client_oversize: registry.counter("gt_chaos_client_oversize_total"),
            epochs_panicked: registry.counter("gt_chaos_epochs_panicked_total"),
            epochs_overrun: registry.counter("gt_chaos_epochs_overrun_total"),
        }
    }

    /// Snapshot of every fault dealt into these counters so far.
    pub fn report(&self) -> ChaosReport {
        Faults {
            frames_dropped: self.frames_dropped.get(),
            frames_delayed: self.frames_delayed.get(),
            frames_duplicated: self.frames_duplicated.get(),
            frames_truncated: self.frames_truncated.get(),
            client_stalls: self.client_stalls.get(),
            client_oversize: self.client_oversize.get(),
            epochs_panicked: self.epochs_panicked.get(),
            epochs_overrun: self.epochs_overrun.get(),
        }
    }
}

/// The seeded fault dealer. `Send + Sync`: the RNG sits behind a mutex
/// (decisions are rare and cheap next to the I/O they perturb), the
/// counters are the registry's atomics.
#[derive(Debug)]
pub struct ChaosInjector {
    config: ChaosConfig,
    rng: Mutex<StdRng>,
    counters: FaultCounts,
}

impl ChaosInjector {
    /// Build an injector for `config` that counts the faults it deals
    /// into `registry` (the service's, for anything the service's scrape
    /// should show; a private one for a client-side dealer).
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`ChaosConfig::validate`] — an
    /// over-1000‰ fault mix is a harness bug, not a runtime condition.
    pub fn new(config: ChaosConfig, registry: &Registry) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid chaos config: {e}");
        }
        let rng = Mutex::new(StdRng::seed_from_u64(config.seed));
        ChaosInjector { config, rng, counters: FaultCounts::register(registry) }
    }

    /// One per-mille roll off the seeded stream.
    fn roll(&self) -> u32 {
        self.rng
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .random_range(0..1000)
    }

    /// Decide the fate of one response frame.
    pub fn frame_fault(&self) -> FrameFault {
        let c = &self.config;
        let roll = self.roll();
        let mut edge = c.drop_per_mille;
        if roll < edge {
            self.counters.frames_dropped.inc();
            return FrameFault::Drop;
        }
        edge += c.delay_per_mille;
        if roll < edge {
            self.counters.frames_delayed.inc();
            return FrameFault::Delay(Duration::from_millis(c.delay_ms));
        }
        edge += c.duplicate_per_mille;
        if roll < edge {
            self.counters.frames_duplicated.inc();
            return FrameFault::Duplicate;
        }
        edge += c.truncate_per_mille;
        if roll < edge {
            self.counters.frames_truncated.inc();
            return FrameFault::Truncate;
        }
        FrameFault::Deliver
    }

    /// Decide how the soak client behaves on one connection.
    pub fn client_fault(&self) -> ClientFault {
        let c = &self.config;
        let roll = self.roll();
        let mut edge = c.stall_per_mille;
        if roll < edge {
            self.counters.client_stalls.inc();
            return ClientFault::Stall;
        }
        edge += c.oversize_per_mille;
        if roll < edge {
            self.counters.client_oversize.inc();
            return ClientFault::OversizeLine;
        }
        ClientFault::Honest
    }

    /// Decide the fate of one epoch (`None` = run it honestly).
    pub fn epoch_fault(&self) -> Option<EpochFault> {
        let c = &self.config;
        let roll = self.roll();
        let mut edge = c.epoch_panic_per_mille;
        if roll < edge {
            self.counters.epochs_panicked.inc();
            return Some(EpochFault::Panic);
        }
        edge += c.epoch_overrun_per_mille;
        if roll < edge {
            self.counters.epochs_overrun.inc();
            return Some(EpochFault::Overrun(Duration::from_millis(c.overrun_ms)));
        }
        None
    }

    /// Snapshot of every fault dealt so far — by this injector and any
    /// other built on the same registry.
    pub fn report(&self) -> ChaosReport {
        self.counters.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fault_schedule() {
        let a = ChaosInjector::new(ChaosConfig::soak(42), &Registry::new());
        let b = ChaosInjector::new(ChaosConfig::soak(42), &Registry::new());
        let seq_a: Vec<FrameFault> = (0..200).map(|_| a.frame_fault()).collect();
        let seq_b: Vec<FrameFault> = (0..200).map(|_| b.frame_fault()).collect();
        assert_eq!(seq_a, seq_b, "chaos is a pure function of the seed");
        assert_eq!(a.report(), b.report());
        // A different seed deals a different schedule.
        let c = ChaosInjector::new(ChaosConfig::soak(43), &Registry::new());
        let seq_c: Vec<FrameFault> = (0..200).map(|_| c.frame_fault()).collect();
        assert_ne!(seq_a, seq_c, "distinct seeds must not alias");
    }

    #[test]
    fn counters_match_dealt_faults_exactly() {
        let registry = Registry::new();
        let chaos = ChaosInjector::new(ChaosConfig::soak(7), &registry);
        let mut dealt = ChaosReport::default();
        for _ in 0..500 {
            match chaos.frame_fault() {
                FrameFault::Drop => dealt.frames_dropped += 1,
                FrameFault::Delay(_) => dealt.frames_delayed += 1,
                FrameFault::Duplicate => dealt.frames_duplicated += 1,
                FrameFault::Truncate => dealt.frames_truncated += 1,
                FrameFault::Deliver => {}
            }
        }
        for _ in 0..200 {
            match chaos.epoch_fault() {
                Some(EpochFault::Panic) => dealt.epochs_panicked += 1,
                Some(EpochFault::Overrun(_)) => dealt.epochs_overrun += 1,
                None => {}
            }
        }
        for _ in 0..200 {
            match chaos.client_fault() {
                ClientFault::Stall => dealt.client_stalls += 1,
                ClientFault::OversizeLine => dealt.client_oversize += 1,
                ClientFault::Honest => {}
            }
        }
        assert_eq!(chaos.report(), dealt);
        // The report is a read-out of the registry it was given, not a copy:
        // the scrape carries the same numbers, and a second injector on the
        // same registry deals into the same counters.
        let scrape = registry.render();
        assert!(
            scrape.contains(&format!("gt_chaos_frames_dropped_total {}\n", dealt.frames_dropped))
        );
        assert!(
            scrape.contains(&format!("gt_chaos_epochs_overrun_total {}\n", dealt.epochs_overrun))
        );
        let second = ChaosInjector::new(
            ChaosConfig { drop_per_mille: 1000, ..ChaosConfig::disabled(1) },
            &registry,
        );
        assert_eq!(second.frame_fault(), FrameFault::Drop);
        assert_eq!(chaos.report().frames_dropped, dealt.frames_dropped + 1);
        // The soak rates are high enough that every arm actually fired.
        assert!(dealt.frames_dropped > 0);
        assert!(dealt.frames_delayed > 0);
        assert!(dealt.frames_duplicated > 0);
        assert!(dealt.frames_truncated > 0);
        assert!(dealt.client_stalls > 0);
        assert!(dealt.epochs_panicked > 0);
        assert!(dealt.epochs_overrun > 0);
    }

    #[test]
    fn disabled_config_never_faults() {
        let chaos = ChaosInjector::new(ChaosConfig::disabled(1), &Registry::new());
        for _ in 0..100 {
            assert_eq!(chaos.frame_fault(), FrameFault::Deliver);
            assert_eq!(chaos.client_fault(), ClientFault::Honest);
            assert_eq!(chaos.epoch_fault(), None);
        }
        assert_eq!(chaos.report(), ChaosReport::default());
    }

    #[test]
    #[should_panic(expected = "invalid chaos config")]
    fn over_unity_frame_rates_are_rejected() {
        let config =
            ChaosConfig { drop_per_mille: 600, delay_per_mille: 600, ..ChaosConfig::disabled(0) };
        ChaosInjector::new(config, &Registry::new());
    }
}
