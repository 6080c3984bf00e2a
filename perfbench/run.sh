#!/usr/bin/env bash
# Builds cmd/paper, cmd/yieldd and the benchmark from this checkout, then
# runs the benchmark with the given arguments. Run it from the root of the
# repository:
#
#   bash perfbench/run.sh --workload paper-repro --seed 1 --seconds 20 --trace 0
#
# Build caches and outputs stay inside the checkout: .bench_build holds the
# Go build cache and the binaries, .bench_out the reports and traces.
set -euo pipefail

root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/paper ] || [ ! -d cmd/yieldd ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/paper, cmd/yieldd not found)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$build/bin/" ./cmd/paper ./cmd/yieldd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin" -out "$root/.bench_out" "$@"
