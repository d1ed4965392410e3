#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout
# (compiler cache included, so nothing outside the checkout is written)
# and runs it from there with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/fluxbench" .
cd "$root"
exec "$build/fluxbench" -out benchmark/out "$@"
