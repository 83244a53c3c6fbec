#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it:
#
#   bash perfbench/run.sh --workload offline-optimum --seed 1 --seconds 15 --trace 0
#
# Run from the root of the checkout. Every build artifact, the Go build
# cache and the benchmark's scratch files (WAL, span logs) stay under
# .bench_build/ in that root. The build fails, and the script exits
# non-zero without printing a result, when the program's sources are not
# next to perfbench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -scratch "$out" "$@"
