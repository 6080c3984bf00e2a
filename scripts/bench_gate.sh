#!/usr/bin/env sh
# Bench smoke tolerance gate: runs the pair-build benchmark and fails
# if its chips/s throughput drops more than $BENCH_GATE_TOLERANCE
# percent (default 10) below the figure recorded in the committed
# BENCH_pr<N>.json snapshot with the highest PR number N (a numeric
# version sort, so pr10 follows pr9; file mtimes are meaningless in a
# fresh checkout). BENCH_GATE_BASELINE names another snapshot instead.
# This catches data-layout or hot-loop regressions that the correctness
# suite cannot see, while a generous tolerance absorbs ordinary runner
# noise.
#
# Usage: [BENCH_GATE_TOLERANCE=pct] [BENCH_GATE_BASELINE=FILE.json] \
#   scripts/bench_gate.sh [benchtime]
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-3x}"
TOL="${BENCH_GATE_TOLERANCE:-10}"
BASE="${BENCH_GATE_BASELINE:-}"
if [ -z "$BASE" ]; then
    BASE=$(ls BENCH_pr*.json 2>/dev/null | sort -V | tail -n 1 || true)
fi
if [ -z "$BASE" ] || [ ! -f "$BASE" ]; then
    echo "bench_gate: no committed BENCH_pr*.json baseline; skipping gate"
    exit 0
fi

WANT=$(awk '
    /"BenchmarkPopulationBuildPair"/ {
        if (match($0, /"chips_per_sec": *[0-9.]+/)) {
            v = substr($0, RSTART, RLENGTH)
            sub(/.*: */, "", v)
            print v
        }
    }
' "$BASE")
if [ -z "$WANT" ]; then
    echo "bench_gate: $BASE has no pair-build chips_per_sec; skipping gate"
    exit 0
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT
go test -run '^$' -bench '^BenchmarkPopulationBuildPair$' \
    -benchtime "$BENCHTIME" -benchmem . | tee "$RAW"

GOT=$(awk '$1 ~ /^BenchmarkPopulationBuildPair/ {
    for (i = 2; i <= NF; i++) if ($(i) == "chips/s") print $(i - 1)
}' "$RAW")
if [ -z "$GOT" ]; then
    echo "bench_gate: benchmark did not report chips/s" >&2
    exit 1
fi

awk -v got="$GOT" -v want="$WANT" -v tol="$TOL" -v base="$BASE" '
BEGIN {
    floor = want * (1 - tol / 100)
    printf "bench_gate: pair build %.0f chips/s vs %.0f in %s (floor %.0f, tolerance %s%%)\n",
        got, want, base, floor, tol
    if (got < floor) {
        printf "bench_gate: FAIL — throughput dropped more than %s%%\n", tol
        exit 1
    }
    print "bench_gate: OK"
}'
