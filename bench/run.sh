#!/usr/bin/env bash
# Builds bench/e2e from source and runs it with the arguments given, from
# the root of a checkout:
#
#   bash bench/run.sh --workload fleet_tiny --seed 1 --seconds 15 --trace 0
#
# The binary and Go's build cache go to .bench_build/ in the checkout, so
# nothing outside it is written; after the first build a run pays only
# the cache lookup.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/e2e" ./bench/e2e
exec "$build/e2e" "$@"
