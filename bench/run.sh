#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the root of a checkout:
#
#   bash bench/run.sh --workload stock --seed 1 --seconds 10 --trace 0
#
# Everything the build writes — Go's build cache included — stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
