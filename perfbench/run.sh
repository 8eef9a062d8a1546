#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_sweep --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the go command's own config and
# telemetry, and the traced runs' spans all stay under .bench_build in
# the repository root.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
