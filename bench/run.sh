#!/usr/bin/env bash
# Builds the harness from source and runs it from the repository root.
# Everything the Go toolchain writes (build cache, temp dirs, binaries)
# stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$root/.bench_build/mapdr-bench" . >&2
exec "$root/.bench_build/mapdr-bench" "$@"
