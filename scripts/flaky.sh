#!/usr/bin/env sh
# Flake hunt: the packages on the batch path — the typed layer, the engine,
# the shuffle, table and the experiments that drive them — twenty times
# over at one, two and four scheduler threads. A test that depends on
# wall-clock speed or goroutine interleaving fails here long before it
# fails a single tier-1 run. internal/perf rides along: its byte-compare of
# the committed BENCH_*.json files is the "same seed, same transcript" test
# for every subsystem a family drives. consensus, ha and kvstore are the
# Raft path and its seeded transcript pins. One package at a time (-p 1),
# so a failure is the package's own and not a neighbour's load. COUNT and
# CPUS override the defaults; pass -race (or any other go test flag) as
# arguments.
set -eu

cd "$(dirname "$0")/.."

go test -p 1 -count="${COUNT:-20}" -cpu "${CPUS:-1,2,4}" "$@" \
    . ./internal/core/ ./internal/group/ ./internal/shuffle/ ./internal/table/ ./internal/experiments/ ./internal/perf/ \
    ./internal/consensus/ ./internal/ha/ ./internal/kvstore/
echo "flaky: OK"
