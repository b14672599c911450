#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write (Go's build cache and temporary
# files, the binary, WAL scratch directories, the Chrome trace) stays under
# .bench_build/ at the root of the checkout.
#
#   bash bench/run.sh --workload serve_pipelined --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh -runs 10 -out bench/results/baseline-a.json
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -C bench -o "$out/bench" .
exec "$out/bench" -tmp "$out/tmp" "$@"
