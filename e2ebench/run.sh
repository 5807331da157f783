#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload serve-search --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache live
# under .bench_build/ so that nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
