//! System parameters mirroring Table 2 of the paper.

/// Strictly parse a positive-integer environment knob.
///
/// Returns `None` when `name` is unset or set to the empty string (shells
/// spell "unset" as `VAR=`), `Some(v)` for a positive integer, and
/// **panics** with a clear message on anything else. Knobs like
/// `GT_THREADS`, `GT_SEEDS` and `GT_EPOCH_MS` route through here: a typo'd
/// value silently falling back to a default is how a pinned 32-thread run
/// quietly becomes a serial one — better to die loudly at startup.
pub fn strict_positive_env(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse::<u64>() {
        Ok(v) if v >= 1 => Some(v),
        Ok(_) => panic!("{name} must be a positive integer (>= 1), got {raw:?}"),
        Err(_) => panic!("{name} must be a positive integer, got {raw:?}"),
    }
}

/// Strictly parse a non-negative-integer environment knob (zero allowed).
///
/// Same contract as [`strict_positive_env`] except that `0` is a valid
/// value — seeds and counters legitimately include zero. Returns `None`
/// when `name` is unset or empty and **panics** on anything that is not a
/// `u64`.
pub fn strict_u64_env(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse::<u64>() {
        Ok(v) => Some(v),
        Err(_) => panic!("{name} must be a non-negative integer, got {raw:?}"),
    }
}

/// Strictly parse a boolean environment knob.
///
/// Returns `None` when `name` is unset or empty, `Some(true)` for
/// `1`/`true`/`yes`, `Some(false)` for `0`/`false`/`no` (all
/// case-insensitive), and **panics** on anything else. Same contract as
/// [`strict_positive_env`]: a typo'd knob must die loudly at startup, not
/// silently fall back to a default.
pub fn strict_bool_env(name: &str) -> Option<bool> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    if ["1", "true", "yes"].iter().any(|t| trimmed.eq_ignore_ascii_case(t)) {
        return Some(true);
    }
    if ["0", "false", "no"].iter().any(|t| trimmed.eq_ignore_ascii_case(t)) {
        return Some(false);
    }
    panic!("{name} must be a boolean (1/true/yes or 0/false/no), got {raw:?}");
}

/// `GT_QUICK`: reduced-scale mode for CI and smoke runs (default: off).
///
/// # Panics
/// Panics when `GT_QUICK` is set to a non-boolean value
/// (see [`strict_bool_env`]).
pub fn quick_mode() -> bool {
    strict_bool_env("GT_QUICK").unwrap_or(false)
}

/// `GT_BENCH_QUICK`: reduced measurement budgets for the benchmark
/// binaries (default: off).
///
/// # Panics
/// Panics when `GT_BENCH_QUICK` is set to a non-boolean value
/// (see [`strict_bool_env`]).
pub fn bench_quick() -> bool {
    strict_bool_env("GT_BENCH_QUICK").unwrap_or(false)
}

/// `GT_N`: network-size override for experiments and service binaries.
///
/// # Panics
/// Panics when `GT_N` is set to something other than a positive integer
/// (see [`strict_positive_env`]).
pub fn network_size_override() -> Option<usize> {
    strict_positive_env("GT_N").map(|v| v as usize)
}

/// Strictly parse a socket-address environment knob.
///
/// Returns `None` when `name` is unset or empty, the trimmed address when
/// it parses as a [`std::net::SocketAddr`], and **panics** on anything
/// else — a malformed address must abort startup, not surface later as a
/// confusing bind error.
pub fn strict_addr_env(name: &str) -> Option<String> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    if trimmed.parse::<std::net::SocketAddr>().is_err() {
        panic!("{name} must be a socket address like 127.0.0.1:7401, got {raw:?}");
    }
    Some(trimmed.to_string())
}

/// `GT_SERVICE_ADDR`: the service's TCP listen address
/// (default `127.0.0.1:7401`).
///
/// # Panics
/// Panics when `GT_SERVICE_ADDR` is set to something that does not parse
/// as a socket address (see [`strict_addr_env`]).
pub fn service_addr() -> String {
    strict_addr_env("GT_SERVICE_ADDR").unwrap_or_else(|| "127.0.0.1:7401".to_string())
}

/// `GT_METRICS_ADDR`: TCP listen address of the Prometheus scrape
/// endpoint (default: unset = scrape listener off). When set, `serve`
/// binds a second listener here that answers any HTTP request with the
/// current metrics exposition — separate from the service port so a
/// scraper never competes with request traffic for connection slots.
///
/// # Panics
/// Panics when `GT_METRICS_ADDR` is set to something that does not parse
/// as a socket address (see [`strict_addr_env`]).
pub fn metrics_addr() -> Option<String> {
    strict_addr_env("GT_METRICS_ADDR")
}

/// `GT_OBS_EVENTS`: capacity of the trace ring buffer, in events
/// (default 4096). When full, the oldest events are evicted (and
/// counted), so a scrape always sees the most recent spans.
///
/// # Panics
/// Panics when `GT_OBS_EVENTS` is set to something other than a positive
/// integer (see [`strict_positive_env`]).
pub fn obs_events() -> usize {
    strict_positive_env("GT_OBS_EVENTS")
        .map(|v| v as usize)
        .unwrap_or(4096)
}

/// `GT_CONN_LIMIT`: maximum concurrent TCP connections the service
/// front-end accepts (default 1024). Connections past the limit are shed
/// with a retriable error line instead of queueing unboundedly.
///
/// # Panics
/// Panics when `GT_CONN_LIMIT` is set to something other than a positive
/// integer (see [`strict_positive_env`]).
pub fn conn_limit() -> usize {
    strict_positive_env("GT_CONN_LIMIT")
        .map(|v| v as usize)
        .unwrap_or(1024)
}

/// `GT_READ_TIMEOUT_MS`: per-request-line read/idle deadline of the TCP
/// front-end, in milliseconds (default 30 000). A connection that does not
/// complete a request line within the deadline (slow-loris) is closed and
/// counted in `conns_timed_out`.
///
/// # Panics
/// Panics when `GT_READ_TIMEOUT_MS` is set to something other than a
/// positive integer (see [`strict_positive_env`]).
pub fn read_timeout_ms() -> u64 {
    strict_positive_env("GT_READ_TIMEOUT_MS").unwrap_or(30_000)
}

/// `GT_EPOCH_DEADLINE_MS`: wall-clock budget of one epoch
/// (fold + aggregate + snapshot build), in milliseconds (default 30 000).
/// An epoch that overruns the budget is abandoned — its result is
/// discarded, the previous snapshot keeps serving and `epochs_overrun`
/// increments.
///
/// # Panics
/// Panics when `GT_EPOCH_DEADLINE_MS` is set to something other than a
/// positive integer (see [`strict_positive_env`]).
pub fn epoch_deadline_ms() -> u64 {
    strict_positive_env("GT_EPOCH_DEADLINE_MS").unwrap_or(30_000)
}

/// `GT_INGEST_QUEUE`: maximum unfolded feedback events the service buffers
/// before load-shedding ingest with a retriable `overloaded` error
/// (default 65 536). The bound is what keeps a write burst from growing
/// memory without limit between epochs.
///
/// # Panics
/// Panics when `GT_INGEST_QUEUE` is set to something other than a positive
/// integer (see [`strict_positive_env`]).
pub fn ingest_queue() -> usize {
    strict_positive_env("GT_INGEST_QUEUE")
        .map(|v| v as usize)
        .unwrap_or(65_536)
}

/// `GT_WAL_DIR`: directory of the feedback write-ahead log (default:
/// unset = WAL off). When set, every acknowledged feedback event is
/// appended to a CRC-framed log before it is applied, and a restarting
/// service replays the log so a crashed node rejoins with its local-trust
/// rows intact.
pub fn wal_dir() -> Option<std::path::PathBuf> {
    match std::env::var("GT_WAL_DIR") {
        Ok(raw) if !raw.trim().is_empty() => Some(std::path::PathBuf::from(raw.trim())),
        _ => None,
    }
}

/// `GT_CHAOS_SEED`: arm the deterministic fault-injection layer with this
/// RNG seed (default: unset = chaos off). All chaos randomness flows from
/// this one seed — no ambient entropy — so a fault schedule can be
/// replayed exactly.
///
/// # Panics
/// Panics when `GT_CHAOS_SEED` is set to something other than a
/// non-negative integer (see [`strict_u64_env`]).
pub fn chaos_seed() -> Option<u64> {
    strict_u64_env("GT_CHAOS_SEED")
}

/// GossipTrust system parameters.
///
/// The default values reproduce Table 2 of the paper ("Parameters and Default
/// Values used"):
///
/// | symbol   | meaning                              | default |
/// |----------|--------------------------------------|---------|
/// | `n`      | number of peers                      | 1000    |
/// | `α`      | greedy factor                        | 0.15    |
/// | `d_max`  | max. peer feedback amount            | 200     |
/// | `d_avg`  | average peer feedback amount         | 20      |
/// | `γ`      | percentage of malicious peers        | 0.20    |
/// | `q`      | max. number of power nodes (1% of n) | 10      |
/// | `δ`      | global aggregation threshold         | 10⁻³    |
/// | `ε`      | gossip error threshold               | 10⁻⁴    |
#[derive(Clone, Debug, PartialEq)]
pub struct Params {
    /// Number of peers `n` in the P2P network.
    pub n: usize,
    /// Greedy factor `α`: eagerness of a peer to work with power nodes.
    /// `α = 0` disables power-node mixing entirely.
    pub alpha: f64,
    /// Maximum feedback out-degree `d_max` of any peer.
    pub d_max: usize,
    /// Average feedback out-degree `d_avg` across peers.
    pub d_avg: usize,
    /// Fraction `γ` of malicious peers in the network (0.0..=1.0).
    pub malicious_fraction: f64,
    /// Maximum number of power nodes `q` (the paper uses up to 1% of `n`).
    pub max_power_nodes: usize,
    /// Global aggregation (outer-loop) convergence threshold `δ`.
    pub delta: f64,
    /// Gossip (inner-loop) convergence threshold `ε`.
    pub epsilon: f64,
    /// Hard cap on aggregation cycles. The paper proves `d ≤ ⌈log_b δ⌉`; the
    /// cap only guards against pathological (non-ergodic) inputs.
    pub max_cycles: usize,
    /// Hard cap on gossip steps within one cycle (`g = O(log₂ n)` expected).
    pub max_gossip_steps: usize,
    /// Number of consecutive below-`ε` steps the inner loop requires before
    /// declaring convergence. The paper checks a single step; a small
    /// patience makes the detector robust to transient plateaus while the
    /// consensus factor `w` is still spreading.
    pub gossip_patience: usize,
    /// Worker threads for the gossip engine's parallel step. `0` (the
    /// default) means *auto*: honor the `GT_THREADS` environment variable
    /// if set, else use the machine's available parallelism. See
    /// [`Params::resolved_threads`]. Results are independent of this
    /// setting — the engine's parallel path is bit-identical to its
    /// sequential path.
    pub threads: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 1000,
            alpha: 0.15,
            d_max: 200,
            d_avg: 20,
            malicious_fraction: 0.20,
            max_power_nodes: 10,
            delta: 1e-3,
            epsilon: 1e-4,
            max_cycles: 200,
            max_gossip_steps: 10_000,
            gossip_patience: 2,
            threads: 0,
        }
    }
}

impl Params {
    /// Parameters for a network of `n` peers, everything else at Table 2
    /// defaults (with `q` scaled to 1% of `n`, minimum 1).
    pub fn for_network(n: usize) -> Self {
        Params { n, max_power_nodes: (n / 100).max(1), ..Params::default() }
    }

    /// Builder-style setter for the greedy factor `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Builder-style setter for the gossip threshold `ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Builder-style setter for the aggregation threshold `δ`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Builder-style setter for the malicious fraction `γ`.
    pub fn with_malicious_fraction(mut self, gamma: f64) -> Self {
        self.malicious_fraction = gamma;
        self
    }

    /// Builder-style setter for the gossip worker thread count
    /// (`0` = auto, see [`Params::resolved_threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Resolve the effective gossip worker thread count: an explicit
    /// [`Params::threads`] wins; otherwise the `GT_THREADS` environment
    /// variable; otherwise the machine's available parallelism.
    ///
    /// # Panics
    ///
    /// Panics when `GT_THREADS` is set to something other than a positive
    /// integer (see [`strict_positive_env`]) — a malformed knob must not
    /// silently degrade to the fallback.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(t) = strict_positive_env("GT_THREADS") {
            return t as usize;
        }
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    }

    /// Validate parameter domains; returns a human-readable violation if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("n must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(format!("alpha must be in [0,1], got {}", self.alpha));
        }
        if !(0.0..=1.0).contains(&self.malicious_fraction) {
            return Err(format!(
                "malicious_fraction must be in [0,1], got {}",
                self.malicious_fraction
            ));
        }
        if self.d_avg > self.d_max {
            return Err(format!("d_avg ({}) must not exceed d_max ({})", self.d_avg, self.d_max));
        }
        if self.delta <= 0.0 || self.epsilon <= 0.0 {
            return Err("delta and epsilon must be positive".into());
        }
        if self.gossip_patience == 0 {
            return Err("gossip_patience must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts that `Params::default()` mirrors Table 2 of the paper exactly.
    #[test]
    fn defaults_mirror_table_2() {
        let p = Params::default();
        assert_eq!(p.n, 1000);
        assert_eq!(p.alpha, 0.15);
        assert_eq!(p.d_max, 200);
        assert_eq!(p.d_avg, 20);
        assert_eq!(p.malicious_fraction, 0.20);
        assert_eq!(p.max_power_nodes, 10); // 1% of 1000
        assert_eq!(p.delta, 1e-3);
        assert_eq!(p.epsilon, 1e-4);
    }

    #[test]
    fn for_network_scales_power_nodes() {
        assert_eq!(Params::for_network(500).max_power_nodes, 5);
        assert_eq!(Params::for_network(50).max_power_nodes, 1);
        assert_eq!(Params::for_network(10_000).max_power_nodes, 100);
    }

    #[test]
    fn default_params_validate() {
        assert!(Params::default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_domains() {
        assert!(Params { n: 0, ..Params::default() }.validate().is_err());
        assert!(Params::default().with_alpha(1.5).validate().is_err());
        assert!(Params::default().with_alpha(-0.1).validate().is_err());
        assert!(Params::default().with_malicious_fraction(2.0).validate().is_err());
        assert!(Params { d_avg: 300, ..Params::default() }.validate().is_err());
        assert!(Params::default().with_delta(0.0).validate().is_err());
        assert!(Params::default().with_epsilon(-1.0).validate().is_err());
        assert!(Params { gossip_patience: 0, ..Params::default() }.validate().is_err());
    }

    #[test]
    fn explicit_threads_win_resolution() {
        // An explicit setting bypasses env/machine lookup entirely.
        assert_eq!(Params::default().with_threads(3).resolved_threads(), 3);
        // Auto mode resolves to *something* usable.
        assert!(Params::default().resolved_threads() >= 1);
    }

    #[test]
    fn threads_default_is_auto() {
        // 0 = auto.
        assert_eq!(Params::default().threads, 0);
        assert_eq!(Params::for_network(500).threads, 0);
    }

    #[test]
    fn strict_env_accepts_positive_integers() {
        // Unique var names per case: the environment is process-global and
        // tests run concurrently, so each test owns its own variable.
        std::env::set_var("GT_TEST_STRICT_OK", "12");
        assert_eq!(strict_positive_env("GT_TEST_STRICT_OK"), Some(12));
        std::env::set_var("GT_TEST_STRICT_WS", "  3 ");
        assert_eq!(strict_positive_env("GT_TEST_STRICT_WS"), Some(3));
    }

    #[test]
    fn strict_env_treats_unset_and_empty_as_none() {
        assert_eq!(strict_positive_env("GT_TEST_STRICT_UNSET"), None);
        std::env::set_var("GT_TEST_STRICT_EMPTY", "");
        assert_eq!(strict_positive_env("GT_TEST_STRICT_EMPTY"), None);
    }

    #[test]
    #[should_panic(expected = "GT_TEST_STRICT_WORD must be a positive integer")]
    fn strict_env_panics_on_malformed_value() {
        std::env::set_var("GT_TEST_STRICT_WORD", "four");
        strict_positive_env("GT_TEST_STRICT_WORD");
    }

    #[test]
    #[should_panic(expected = "GT_TEST_STRICT_ZERO must be a positive integer")]
    fn strict_env_panics_on_zero() {
        std::env::set_var("GT_TEST_STRICT_ZERO", "0");
        strict_positive_env("GT_TEST_STRICT_ZERO");
    }

    #[test]
    #[should_panic(expected = "GT_TEST_STRICT_NEG must be a positive integer")]
    fn strict_env_panics_on_negative() {
        std::env::set_var("GT_TEST_STRICT_NEG", "-2");
        strict_positive_env("GT_TEST_STRICT_NEG");
    }

    #[test]
    fn strict_bool_env_parses_both_spellings() {
        std::env::set_var("GT_TEST_BOOL_ONE", "1");
        assert_eq!(strict_bool_env("GT_TEST_BOOL_ONE"), Some(true));
        std::env::set_var("GT_TEST_BOOL_TRUE", " True ");
        assert_eq!(strict_bool_env("GT_TEST_BOOL_TRUE"), Some(true));
        std::env::set_var("GT_TEST_BOOL_ZERO", "0");
        assert_eq!(strict_bool_env("GT_TEST_BOOL_ZERO"), Some(false));
        std::env::set_var("GT_TEST_BOOL_NO", "no");
        assert_eq!(strict_bool_env("GT_TEST_BOOL_NO"), Some(false));
        assert_eq!(strict_bool_env("GT_TEST_BOOL_UNSET"), None);
        std::env::set_var("GT_TEST_BOOL_EMPTY", "");
        assert_eq!(strict_bool_env("GT_TEST_BOOL_EMPTY"), None);
    }

    #[test]
    #[should_panic(expected = "GT_TEST_BOOL_BAD must be a boolean")]
    fn strict_bool_env_panics_on_garbage() {
        std::env::set_var("GT_TEST_BOOL_BAD", "quick");
        strict_bool_env("GT_TEST_BOOL_BAD");
    }

    #[test]
    fn service_addr_defaults_without_env() {
        // The GT_SERVICE_ADDR-set cases cannot be exercised here without
        // racing other tests on the process-global environment; the strict
        // parse path shares its shape with strict_bool_env above.
        if std::env::var("GT_SERVICE_ADDR").is_err() {
            assert_eq!(service_addr(), "127.0.0.1:7401");
        }
    }

    #[test]
    fn strict_u64_env_accepts_zero() {
        std::env::set_var("GT_TEST_U64_ZERO", "0");
        assert_eq!(strict_u64_env("GT_TEST_U64_ZERO"), Some(0));
        std::env::set_var("GT_TEST_U64_BIG", "18446744073709551615");
        assert_eq!(strict_u64_env("GT_TEST_U64_BIG"), Some(u64::MAX));
        assert_eq!(strict_u64_env("GT_TEST_U64_UNSET"), None);
        std::env::set_var("GT_TEST_U64_EMPTY", " ");
        assert_eq!(strict_u64_env("GT_TEST_U64_EMPTY"), None);
    }

    #[test]
    #[should_panic(expected = "GT_TEST_U64_BAD must be a non-negative integer")]
    fn strict_u64_env_panics_on_garbage() {
        std::env::set_var("GT_TEST_U64_BAD", "-7");
        strict_u64_env("GT_TEST_U64_BAD");
    }

    #[test]
    fn robustness_knobs_have_documented_defaults() {
        // These knobs are unset in the test environment (tier-1 does not
        // export them), so the documented defaults must come back.
        if std::env::var("GT_CONN_LIMIT").is_err() {
            assert_eq!(conn_limit(), 1024);
        }
        if std::env::var("GT_READ_TIMEOUT_MS").is_err() {
            assert_eq!(read_timeout_ms(), 30_000);
        }
        if std::env::var("GT_EPOCH_DEADLINE_MS").is_err() {
            assert_eq!(epoch_deadline_ms(), 30_000);
        }
        if std::env::var("GT_INGEST_QUEUE").is_err() {
            assert_eq!(ingest_queue(), 65_536);
        }
        if std::env::var("GT_WAL_DIR").is_err() {
            assert_eq!(wal_dir(), None);
        }
        if std::env::var("GT_CHAOS_SEED").is_err() {
            assert_eq!(chaos_seed(), None);
        }
        if std::env::var("GT_METRICS_ADDR").is_err() {
            assert_eq!(metrics_addr(), None);
        }
        if std::env::var("GT_OBS_EVENTS").is_err() {
            assert_eq!(obs_events(), 4096);
        }
    }

    #[test]
    fn strict_addr_env_accepts_socket_addrs() {
        std::env::set_var("GT_TEST_ADDR_OK", " 0.0.0.0:9100 ");
        assert_eq!(strict_addr_env("GT_TEST_ADDR_OK").as_deref(), Some("0.0.0.0:9100"));
        assert_eq!(strict_addr_env("GT_TEST_ADDR_UNSET"), None);
        std::env::set_var("GT_TEST_ADDR_EMPTY", "");
        assert_eq!(strict_addr_env("GT_TEST_ADDR_EMPTY"), None);
    }

    #[test]
    #[should_panic(expected = "GT_TEST_ADDR_BAD must be a socket address")]
    fn strict_addr_env_panics_on_malformed_address() {
        std::env::set_var("GT_TEST_ADDR_BAD", "localhost"); // no port, no IP
        strict_addr_env("GT_TEST_ADDR_BAD");
    }

    #[test]
    fn builder_setters_compose() {
        let p = Params::for_network(200)
            .with_alpha(0.3)
            .with_epsilon(1e-5)
            .with_delta(1e-4)
            .with_malicious_fraction(0.1);
        assert_eq!(p.n, 200);
        assert_eq!(p.alpha, 0.3);
        assert_eq!(p.epsilon, 1e-5);
        assert_eq!(p.delta, 1e-4);
        assert_eq!(p.malicious_fraction, 0.1);
    }
}
