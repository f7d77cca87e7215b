#!/usr/bin/env bash
# Builds tunebench from this checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash tunebench/run.sh --workload small-grid-fleet --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary and Go build cache) stay under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd tunebench && go build -o "$out/tunebench.bin" .)
exec "$out/tunebench.bin" "$@"
