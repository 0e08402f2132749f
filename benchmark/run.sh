#!/usr/bin/env bash
# The one command: build gtbench in release mode, then run it.
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --workload W --seed S
#   benchmark/run.sh --traced-only        per-layer metrics only
#   benchmark/run.sh --aa                 A/A noise: every workload twice, bounds checked
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the result is the last line of stdout
#
# Output: JSON on stdout, the human tables on stderr. Works from any
# directory; reads and writes only inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The driver pins CARGO_TARGET_DIR (relative to the checkout root, where it
# runs us); on our own we pin benchmark/target.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) target="$CARGO_TARGET_DIR" ;;
        *) target="$PWD/$CARGO_TARGET_DIR" ;;
    esac
else
    target="$here/target"
fi
export CARGO_TARGET_DIR="$target"

# GT_* knobs (GT_THREADS, GT_TILE, ...) change what is measured.
for knob in $(compgen -e | grep '^GT_' || true); do
    unset "$knob"
done

mkdir -p "$here/out"
log="$here/out/build.log"
build() {
    cargo build --release --offline --manifest-path "$here/Cargo.toml" "$@" >"$log" 2>&1
}
# The registry crates where cargo already has them on this machine; the
# stand-ins under stubs/ where it does not. Never the network: a run reads
# and writes only inside the checkout. gtbench prints which it was linked to.
if ! build && ! build --config "$here/stubs/offline.toml"; then
    cat "$log" >&2
    echo "run.sh: build failed (log: $log)" >&2
    exit 1
fi

# The binary refuses debug builds, GT_* knobs, and a BENCHMARK.json whose
# metric or workload names differ from the ones it prints.
cd "$root"
exec "$target/release/gtbench" "$@"
