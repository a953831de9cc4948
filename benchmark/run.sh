#!/usr/bin/env bash
# Builds the benchmark once and runs it.
#
#   benchmark/run.sh [--seed N] [--scale F] [--seconds S]
#       all four workloads, then the traced pass; writes
#       benchmark/out/results.json and benchmark/out/results.trace.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload, one pass; the last line of stdout is the result
#   benchmark/run.sh compare A.json B.json
#
# Run from the root of a checkout. Builds into $CARGO_TARGET_DIR when it
# is set, into benchmark/target otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

BENCH_NPROC="$(nproc)"
BENCH_RUSTC="$(rustc --version)"
BENCH_GIT_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_NPROC BENCH_RUSTC BENCH_GIT_COMMIT

trace=both
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" && $((i + 1)) -lt ${#args[@]} ]]; then
        trace="${args[i + 1]}"
    fi
done
if [[ "${1:-}" == "compare" ]]; then
    trace=0
fi

cd "$root"
case "$trace" in
    0) exec "$target/release/bench" "$@" ;;
    1) exec "$target/release/bench-trace" "$@" ;;
    both)
        "$target/release/bench" "$@"
        exec "$target/release/bench-trace" "$@"
        ;;
    *)
        echo "error: --trace takes 0 or 1, found $trace" >&2
        exit 2
        ;;
esac
