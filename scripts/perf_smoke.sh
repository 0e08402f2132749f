#!/usr/bin/env bash
# Perf smoke: the obs-overhead budget check, sized to finish in seconds on
# a shared runner. Produces BENCH_obs.json in the repo root.
#
#   scripts/perf_smoke.sh           # quick mode (default here)
#
# Wall times here are advisory: CI runs the job non-blocking (shared
# runners are far too noisy to gate on wall time) and uploads the record
# as an artifact. Engine and end-to-end performance is measured by the
# repository's benchmark, `bash benchmark/run.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

# Observability overhead proof: instrumented vs bare engine step on twin
# seeded trajectories; exits nonzero (failing this script) if the obs
# hooks cost more than their 2% budget. Writes BENCH_obs.json.
GT_BENCH_QUICK=1 cargo run --release -p gossiptrust-experiments --bin obs_overhead
