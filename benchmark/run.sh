#!/usr/bin/env bash
# Builds the benchmark driver into .bench_build/ of the checkout this
# is run from (its root) and executes it with the given arguments. Go's
# build and module caches are kept under .bench_build/ too, so nothing
# is read or written outside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/xgftbench" .
exec "$build/xgftbench" "$@"
