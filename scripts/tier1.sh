#!/usr/bin/env bash
# Tier-1 gate: build + full test suite per crate, then a quick end-to-end
# smoke of the experiment harness (which exercises the parallel gossip
# path on any multi-core machine — the engine auto-sizes to GT_THREADS or
# the available parallelism) and the chaos soak, TCP drill included.
#
#   scripts/tier1.sh                # full gate
#   GT_THREADS=2 scripts/tier1.sh   # pin the gossip thread count
#
# The per-crate test loop runs EVERY crate even after a failure and exits
# nonzero if any crate failed, so one red crate cannot mask another.
set -uo pipefail
cd "$(dirname "$0")/.."

failed=0

step() {
  echo
  echo "=== $* ==="
  if ! "$@"; then
    echo "FAILED: $*" >&2
    failed=1
  fi
}

step cargo build --release --workspace

# The deny-level clippy baseline of the workspace manifest, over every
# target: with no macro that compiles test bodies away, an unused import
# in a test file is a real finding here, not a stand-in artefact.
step cargo clippy --workspace --all-targets -- -D warnings

# Repo-specific static analysis (gt-lint): the per-file rules (float-eq
# hygiene, the single env-knob surface, hash-free kernels,
# forbid(unsafe_code) coverage, no ambient entropy) plus the workspace
# call-graph families (taint reachability into the deterministic kernels,
# panic-path on the serving roots). Waivers live in lint.toml; an expired
# waiver fails this step.
step cargo xtask lint

# The linter's own acceptance gate: every rule family must trip on its
# committed trip-fixture and stay quiet on the matching clean one.
step cargo test -q -p gossiptrust-xtask --test fixtures
step cargo test -q -p gossiptrust-xtask --test lint_rules

# Per-crate test runs: a failure in one crate is reported but does not
# stop the remaining crates from being tested.
for manifest in crates/*/Cargo.toml; do
  name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n1)
  step cargo test -q -p "$name"
done

# The facade crate (workspace root package), incl. the integration tests.
step cargo test -q -p gossiptrust

# One shard with the runtime invariant layer on: per-step mass
# conservation, par/seq bit-identity, snapshot-replay determinism.
step cargo test -q -p gossiptrust-core --features invariants
step cargo test -q -p gossiptrust-gossip --features invariants
step cargo test -q -p gossiptrust-serve --features invariants

# WAL shard: the commit path's own tests — the seeded concurrent-submitter
# model (acked = replayed, per-thread order, contiguous batches,
# byte-identity vs sequential appends), partial-write rollback through the
# one-shot fault hook, torn header / torn tail recovery, failed-commit and
# poisoned-lock refusal — run as a named shard so a WAL regression is
# visible at a glance, not buried in the per-crate loop above.
step cargo test -q -p gossiptrust-serve --lib wal::

# Engine shard: the step kernel's own tests — the ε test in lockstep with
# the stored-memory oracle all the way to convergence (block-size edges,
# loss, disturbance, kill/revive, re-seed), its crafted-row and no-sender
# cases, the par/seq bit-identity matrix, the spin-then-park hand-off
# (park path, spin path, disconnect mid-spin, the oversubscription rule, a
# panicking worker) — once plain and once under the per-step shadow run,
# named for the same reason as the WAL shard. The hand-off protocol's
# model (tests/pool_model.rs) is part of the kernel's contract and runs
# beside it.
step cargo test -q -p gossiptrust-gossip --lib engine::
step cargo test -q -p gossiptrust-gossip --lib --features invariants engine::
step cargo test -q -p gossiptrust-gossip --test pool_model

# Observability shard: the mid-epoch scrape integration test (metrics
# verb + HTTP listener under live load), the one-store test (every
# integer of the `stats` verb = the same-named scrape line, after every
# epoch outcome class, a shed and WAL appends) and the <2% engine-hook
# overhead proof (obs_overhead exits nonzero over budget). README's
# metrics table is held to the registry by `metric_census` in the
# per-crate loop above.
step cargo test -q -p gossiptrust --test obs_scrape
step cargo test -q -p gossiptrust --test stats_scrape
step env GT_BENCH_QUICK=1 cargo run --release -p gossiptrust-experiments --bin obs_overhead

step env GT_QUICK=1 cargo run --release -p gossiptrust-experiments --bin all

# Chaos shard: the deterministic fault-injection soak (quick mode) —
# epoch panics/overruns under the watchdog, overload shedding, torn-tail
# WAL recovery, and the TCP drill (frame faults, slow-loris reaping, the
# connection-limit gate). One fixed seed; a red run replays identically.
step env GT_QUICK=1 cargo run --release -p gossiptrust-experiments --bin chaos_soak

# Knob census: the set of GT_* names the code reads (string literals
# handed to the core::params strict readers or env::var under
# crates/*/src, GT_TEST_* excluded) must equal the set of GT_* rows in
# README's table — a knob without a row, or a row without a knob, fails.
knob_census() {
  local read_names documented
  read_names=$(grep -rhoE '(strict_[a-z0-9_]+_env|env::var)\("GT_[A-Z0-9_]+"' crates/*/src |
    grep -oE 'GT_[A-Z0-9_]+' | grep -v '^GT_TEST_' | sort -u)
  documented=$(grep -oE '^\| `GT_[A-Z0-9_]+' README.md | grep -oE 'GT_[A-Z0-9_]+' | sort -u)
  echo "knob census: $(wc -l <<<"$read_names") GT_* knobs read, $(wc -l <<<"$documented") rows in README's table"
  diff <(echo "$read_names") <(echo "$documented")
}
step knob_census

# One concurrency model, and nothing that compiles without running: std
# threads everywhere, no executor, so no test that an offline stand-in
# could compile without executing. Any trace of the old runtime outside
# the linter (whose lexer still has to know the `async` keyword to skip
# it) fails the gate. So does any trace of serde (no serializer exists in
# the tree, so a derive is a capability no caller can use) and of the
# property-test macro crate the pattern ends on: every property is a plain
# seeded `#[test]`, and offline that macro is a stand-in that expands its
# block to nothing — compiled would not mean executed.
one_sync_model() {
  local remnants
  remnants=$(grep -rn 'tokio\|async fn\|\.await\|serde\|proptest' crates src tests examples Cargo.toml lint.toml |
    grep -v '^crates/xtask/' || true)
  [ -z "$remnants" ] || { printf '%s\n' "$remnants"; return 1; }
}
step one_sync_model

if [ "$failed" -ne 0 ]; then
  echo "tier-1 gate FAILED (one or more steps above)" >&2
  exit 1
fi
echo "tier-1 gate passed"
