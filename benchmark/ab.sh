#!/usr/bin/env bash
# Interleaved A/B of two commits with the *current* benchmark code.
#
#   benchmark/ab.sh <refA> <refB> [--pairs N] [--seconds S] [workload...]
#
# Each ref is exported (`git archive`) into a throw-away tree under the
# target directory, this checkout's `benchmark/` and BENCHMARK.json are
# copied over whatever the ref had, and everything is built there, so both
# sides are measured by identical benchmark code linked against their own
# library. Pairs alternate which side runs first; pair i uses seed i on both
# sides. `ab.sh HEAD HEAD` is the A/A check: it shows the spread the bounds in
# BENCHMARK.json have to cover.
#
# Verdict per metric and workload (the choosing-metrics rule): B is a GAIN
# when it wins at least nine tenths of the pairs (ties count for neither)
# and the medians differ by more than A's interquartile distance; it is a
# REGRESSION when its median is worse than A's by more than the metric's
# bound; when A's own spread exceeds the bound the row is UNRESOLVED.
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,5p' "$0" >&2; exit 2; }
ref_a=$1 ref_b=$2
shift 2
pairs=10 seconds= workloads=()
while [ $# -gt 0 ]; do
    case $1 in
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    *) workloads+=("$1"); shift ;;
    esac
done

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
target=${CARGO_TARGET_DIR:-target}
mkdir -p "$target"
work=$(cd "$target" && pwd)/ab
[ -n "$seconds" ] || seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
[ ${#workloads[@]} -gt 0 ] || workloads=(sim-paper sim-staggered tcp-wide tcp-chain)

for side in a b; do
    ref=$ref_a
    [ $side = a ] || ref=$ref_b
    tree=$work/$side
    rm -rf "$tree"
    mkdir -p "$tree"
    git archive "$ref" | tar -x -C "$tree"
    rm -rf "$tree/benchmark"
    cp -r benchmark BENCHMARK.json "$tree/"
    echo "ab.sh: building $side = $ref" >&2
    CARGO_TARGET_DIR=$tree/target bash "$tree/benchmark/run.sh" --build-only 2>"$tree/build.log" ||
        { tail -n 30 "$tree/build.log" >&2; exit 1; }
done

results=$work/results.jsonl
: >"$results"
run() { # side workload seed
    CARGO_TARGET_DIR=$work/$1/target bash "$work/$1/benchmark/run.sh" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1 |
        sed "s/^{/{\"side\": \"$1\", \"workload\": \"$2\", \"pair\": $3, /" >>"$results"
}
for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        echo "ab.sh: $workload pair $pair/$pairs" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run a "$workload" "$pair"; run b "$workload" "$pair"
        else
            run b "$workload" "$pair"; run a "$workload" "$pair"
        fi
    done
done

python3 - "$results" "$ref_a" "$ref_b" <<'EOF'
import json, statistics, sys

results, ref_a, ref_b = sys.argv[1:4]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
runs = {}
for line in open(results):
    r = json.loads(line)
    if not r["correct"] or r["failed"]:
        print(f"INCORRECT run: {r['side']} {r['workload']} pair {r['pair']}: failed {r['failed']} of {r['attempted']}")
    for name, m in r["metrics"].items():
        runs.setdefault((r["workload"], name), {}).setdefault(r["pair"], {})[r["side"]] = m["value"]

def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return statistics.median(values), q[0], q[2]

print(f"A = {ref_a}   B = {ref_b}")
print(f"{'workload':14} {'metric':15} {'A median [q1, q3]':>38} {'B median [q1, q3]':>38} {'B-A':>8} {'A spread':>9} {'B wins':>7}  verdict")
for (workload, name), by_pair in runs.items():
    both = [p for p in by_pair.values() if len(p) == 2]
    if not both:
        continue
    higher = spec[name]["better"] == "higher"
    a, b = [p["a"] for p in both], [p["b"] for p in both]
    (ma, a1, a3), (mb, b1, b3) = summary(a), summary(b)
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    gap = (mb - ma) / ma
    worse = -gap if higher else gap
    spread = (a3 - a1) / ma
    if spread > spec[name]["bound"]:
        verdict = "UNRESOLVED (A's spread exceeds the bound)"
    elif worse > spec[name]["bound"]:
        verdict = "REGRESSION"
    elif wins >= 0.9 * len(both) and abs(mb - ma) > a3 - a1:
        verdict = "GAIN"
    else:
        verdict = "no change shown"
    fmt = lambda m, lo, hi: f"{m:14.4f} [{lo:.4f}, {hi:.4f}]"
    print(f"{workload:14} {name:15} {fmt(ma, a1, a3):>38} {fmt(mb, b1, b3):>38} {gap:+8.2%} {spread:9.2%} {wins:4}/{len(both):<2}  {verdict}")
EOF
