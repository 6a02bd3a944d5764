#!/usr/bin/env bash
# The benchmark's one command. Builds the measured binaries and the
# benchmark's own (offline, one shared target directory), then runs.
#
#   benchmark/run.sh                         every workload, end to end and
#                                            traced; prints `name value unit`
#                                            lines and writes results.jsonl
#   benchmark/run.sh --smoke                 the same at smoke size (< 15 s of runs)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one run; the last stdout line is
#                                            the result object (BENCHMARK.json's
#                                            command)
#   benchmark/run.sh --build-only            build and stop
#   benchmark/run.sh --test                  build, then the package's tests
#
# Anything else is passed to `bench` (see its --help text in src/bin/bench.rs).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
# Absolute, so that every cargo call below agrees on it whatever its manifest.
target=${CARGO_TARGET_DIR:-target}
mkdir -p "$target"
CARGO_TARGET_DIR=$(cd "$target" && pwd)
export CARGO_TARGET_DIR
bin=$CARGO_TARGET_DIR/release

build() {
    # What is measured: the root package's binaries, built the way a user
    # builds them (root profile, root lock file, untouched).
    cargo build --release --offline --locked -p dewe --bins >&2
    # The driver and the input generator: without them there is no benchmark.
    for b in bench gen-inputs; do
        cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml --bin "$b" >&2
    done
    # One build each for the bins that call into the library, so that an API
    # break costs that bin's section and not the whole benchmark. A stale
    # binary from an earlier build must not stand in for a failed one.
    for b in chain-worker layers; do
        if ! cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml --bin "$b" >&2; then
            echo "run.sh: $b does not build; its section will be missing" >&2
            rm -f "$bin/$b"
        fi
    done
}

case "${1:-}" in
--build-only)
    build
    exit 0
    ;;
--test)
    build
    exec cargo test --offline --locked --manifest-path benchmark/Cargo.toml
    ;;
esac

build
for arg in "$@"; do
    if [ "$arg" = --workload ] || [ "$arg" = run ] || [ "$arg" = layers ]; then
        exec "$bin/bench" "$@"
    fi
done

# No workload named: all four, end to end and then traced.
results=$CARGO_TARGET_DIR/bench-work/results.jsonl
mkdir -p "$(dirname "$results")"
: >"$results"
status=0
for workload in sim-paper sim-staggered tcp-wide tcp-chain; do
    for trace in 0 1; do
        echo "== $workload --trace $trace" >&2
        if out=$("$bin/bench" --workload "$workload" --trace "$trace" "$@"); then
            echo "$out" | sed '$d'
            echo "$out" | tail -n 1 | sed "s/^{/{\"workload\": \"$workload\", \"trace\": $trace, /" >>"$results"
        else
            echo "run.sh: $workload --trace $trace failed" >&2
            status=1
        fi
    done
done
echo "run.sh: results in $results" >&2
exit $status
