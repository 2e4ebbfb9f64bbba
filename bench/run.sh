#!/usr/bin/env bash
# Builds csbench from this checkout and runs it with the arguments given
# (see BENCHMARK.json and bench/README.md). Everything the build and the
# run write stays inside the checkout: .bench_build/ and bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off
go build -C "$root/bench" -o "$build/bin/csbench" ./csbench
exec "$build/bin/csbench" -root "$root" "$@"
