#!/usr/bin/env sh
# Tier-1 verification gate (see ROADMAP.md), plus the hygiene and race
# checks added with the observability layer. Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== benchmark module (vet, test) =="
# bench/ is its own module, outside ./...: this is where a change that
# breaks an API the benchmark pins shows up before the benchmark runs.
go -C bench vet .
go -C bench test .

echo "== go test -race (concurrent instrumentation) =="
go test -race ./internal/metrics/... ./internal/trace/... \
    ./internal/obs/... ./internal/core/... ./internal/shuffle/... \
    ./internal/dfs/... ./internal/sched/... ./internal/netsim/... \
    ./internal/cluster/... ./internal/chaos/... ./internal/stream/... \
    ./internal/check/... ./internal/kvstore/... ./internal/ha/... \
    ./internal/consensus/... ./internal/perf/... ./internal/admission/... \
    ./internal/query/... ./internal/table/...

echo "== log compaction + txn watermark (race, count=3) =="
# Count-based protocol tests: bounded finished-txn table, shared
# compaction snapshots. No wall clock, so -count=3 on two cores is cheap.
go test -race -count=3 -run 'TestWatermark|TestCompaction' ./internal/kvstore ./internal/ha

echo "== shared log views (race, count=3) + allocation ceilings =="
# Raft hands out views of its log instead of copies: the aliasing tests
# hold them across truncation, compaction and a seeded fault schedule.
# The ceilings pin what one proposal may allocate, layer by layer; they
# run without -race, which changes allocation counts.
go test -race -count=3 -run 'Survives|TestHandedOut|TestDrainedMailbox|TestAppliedSequences' ./internal/consensus/
go test -count=1 -run 'AllocCeiling' ./internal/ha ./internal/kvstore

echo "== table/query batches: identity pins + allocation ceilings =="
# The pins hold wire bytes, counters, split points and row order to what
# the row-at-a-time operators produced; the ceilings (no -race: it changes
# allocation counts) keep per-row boxing from coming back.
go test -count=1 -run 'Identity|TestBatchesAreReadOnly|TestVectorizedFilter|TestActualsCount' ./internal/table ./internal/query
go test -count=1 -run 'AllocCeiling|AllocBudget' ./internal/table

echo "== histogram quantiles under concurrent writers (count=200) =="
go test -count=200 -run 'TestQuantileMonotonic' ./internal/metrics/

echo "== parameter-server loss curve (count=20) =="
# One point per global round, whatever the wall clock did.
go test -count=20 -run 'TestLossCurveDecreases' ./internal/ml/

echo "== stream lanes (race, count=5) =="
# Lane handoff, Close races and crash-inside-a-batch recovery are
# schedule-sensitive: one -race pass is not enough to trust them.
go test -race -count=5 ./internal/stream/

echo "== chaos flap determinism (count=50) =="
# The transition log must follow the seed, never Go's map order.
go test -count=50 -run 'TestFlapDeterminismAndUnflap' ./internal/chaos/

echo "== overload acceptance (race) =="
go test -race -run 'TestOverloadAcceptance' . -count=1

echo "== txn acceptance (race) =="
go test -race -run 'TestTxnAcceptance' . -count=1

echo "== gray-failure acceptance (race) =="
# Control cluster must livelock under asymmetric faults, hardened
# cluster must bound unavailability and terms, deterministically; the
# E-GRAY oracle verdicts (incl. ha-register linearizability) ride along.
go test -race -run 'TestGray' . -count=1
go test -race -run 'TestEGRAYShapes' ./internal/experiments/ -count=1

sh scripts/coverage.sh

if [ "${FUZZ:-0}" = "1" ]; then
    echo "== fuzz smoke (FUZZ=1) =="
    # ~30s of wall clock spread over the decode/round-trip targets; the
    # checked-in corpora under testdata/fuzz run on every plain `go test`.
    go test -fuzz=FuzzReaderDecode -fuzztime=3s -run '^$' ./internal/serde
    go test -fuzz=FuzzIntColumnDecode -fuzztime=2s -run '^$' ./internal/serde
    go test -fuzz=FuzzRoundTrip -fuzztime=3s -run '^$' ./internal/compress
    go test -fuzz=FuzzDecompress -fuzztime=2s -run '^$' ./internal/compress
    go test -fuzz=FuzzReadBlocks -fuzztime=3s -run '^$' ./internal/shuffle
    go test -fuzz=FuzzDecodeRow -fuzztime=2s -run '^$' ./internal/table
    go test -fuzz=FuzzAggMerge -fuzztime=2s -run '^$' ./internal/table
    go test -fuzz=FuzzPlanEquivalence -fuzztime=5s -run '^$' ./internal/query
    go test -fuzz=FuzzParseSchedule -fuzztime=3s -run '^$' ./internal/chaos
    go test -fuzz=FuzzRangeMachineApply -fuzztime=3s -run '^$' ./internal/kvstore
    go test -fuzz=FuzzRangeMachineRestore -fuzztime=2s -run '^$' ./internal/kvstore
    go test -fuzz=FuzzTxnMachineApply -fuzztime=2s -run '^$' ./internal/kvstore
    go test -fuzz=FuzzDecodePipeState -fuzztime=2s -run '^$' ./internal/stream
    go test -fuzz=FuzzDecodeSessState -fuzztime=2s -run '^$' ./internal/stream
fi

if [ "${CHAOS:-0}" = "1" ]; then
    echo "== chaos sweep (CHAOS=1) =="
    sh scripts/chaos.sh
fi

echo "verify: OK"
