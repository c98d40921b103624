#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build writes (Go's build cache, its temporary
# files, the binary) stays under .bench_build/ in the checkout, so a run
# reads and writes nothing outside it. Run from the repository root:
#
#   bash bench/run.sh --workload cp-discover --seed 1 --seconds 16 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOWORK=off
go build -C "$root/bench" -o "$build/fgcs-perfbench" .
exec "$build/fgcs-perfbench" "$@"
