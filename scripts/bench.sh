#!/usr/bin/env sh
# Regenerates or checks the committed BENCH_<family>.json files
# (internal/perf): seed-deterministic transcripts of six workload
# families, compared exactly. Run from anywhere.
#
#   scripts/bench.sh          regenerate the committed files in place
#   scripts/bench.sh --diff   run fresh and compare with the committed
#                             files; exit 1 naming every field that differs
#
# `go test ./internal/perf/` makes the same comparison byte for byte on
# every tier-1 run. For wall-clock numbers use `bash bench/run.sh`.
set -eu

cd "$(dirname "$0")/.."

case "${1:-generate}" in
generate)
    go run ./cmd/hpbdc-bench -bench all -bench-out .
    echo "files written; explain what moved and commit BENCH_*.json"
    ;;
--diff)
    go run ./cmd/hpbdc-bench -bench all -bench-diff .
    ;;
*)
    echo "usage: scripts/bench.sh [--diff]" >&2
    exit 2
    ;;
esac
