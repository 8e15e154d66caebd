#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, from the repo
# root. Everything the build writes (Go build cache, temporary files, the
# binary) goes to .bench_build/ inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/hpbdc-bench" .
exec "$build/hpbdc-bench" "$@"
