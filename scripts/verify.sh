#!/usr/bin/env sh
# Tier-1 verification gate (see ROADMAP.md), plus the hygiene and race
# checks added with the observability layer. Run from the repo root.
# scripts/flaky.sh is the repeat-count companion (-count=20 -cpu 1,2,4).
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

echo "== go test -race (every package) =="
# No hand-kept list: the unfenced speculative copy raced in the root package
# and in experiments, which the list this replaces left out.
go test -race ./...

echo "== speculative loser is fenced (race, count=20) =="
go test -race -count=20 -run 'TestSpeculativeLoserIsFenced|TestPostOwnsItsRecordsView' ./internal/core/
go test -race -count=20 -run 'TestEFTShapes' ./internal/experiments/

echo "== log compaction + txn watermark (race, count=3) =="
# Count-based protocol tests: bounded finished-txn table, shared
# compaction snapshots. No wall clock, so -count=3 on two cores is cheap.
go test -race -count=3 -run 'TestWatermark|TestCompaction' ./internal/kvstore ./internal/ha

echo "== quorum ring under fault toggles (race, count=3) =="
# Liveness, the stale-read flag and the version clock are atomics that
# Get/Put read without a lock while FailNode/RecoverNode flip them.
go test -race -count=3 -run 'TestConcurrent' ./internal/kvstore

echo "== split/merge racing writes (race, count=3) =="
# The only test that races Split/Merge against concurrent Puts: every
# acked write readable and no lock left after Recover.
go test -race -count=3 -run 'TestAntiEntropyRacesSplitMergeNoLostVersions' ./internal/kvstore

echo "== shared log views (race, count=3) + allocation ceilings =="
# Raft hands out views of its log instead of copies: the aliasing tests
# hold them across truncation, compaction and a seeded fault schedule.
# The ceilings pin what one proposal may allocate, layer by layer, and
# what a quorum-ring Get/Put may; they run without -race, which changes
# allocation counts.
go test -race -count=3 -run 'Survives|TestHandedOut|TestDrainedMailbox|TestAppliedSequences|TestClusterIgnoresUnknownIDs' ./internal/consensus/
go test -race -count=3 -run 'TestGroupTranscriptMatchesParent' ./internal/ha/
go test -count=1 -run 'AllocCeiling|ByteCeiling' ./internal/ha ./internal/kvstore
# E-GRAY's register machine: its seeds hold NUL and the escape byte.
go test -count=1 -run 'FuzzRegSM' ./internal/experiments

echo "== batches and the shuffle boundary: identity pins + allocation ceilings =="
# The pins hold wire bytes, counters, split points, partition sizes and row
# order to what the row-at-a-time operators and the per-row shuffle
# contract produced; the ceilings (no -race: it changes allocation counts)
# keep per-row boxing and per-record shuffle allocations from coming back.
# -count=5: each process draws its own key-table hash seeds, and every run
# must still match the pins byte for byte — the fused join-aggregate against
# the join it never builds included.
go test -count=5 -run 'Identity|TestBatchesAreReadOnly|TestVectorizedFilter|TestActualsCount|FuzzPlanEquivalence|TestJoinAgg' ./internal/table ./internal/query
go test -count=5 -run 'WireIdentity|TestShuffleOutputOrderPinned' .
go test -count=1 -run 'TestSortWriterByteIdentity|TestWritersCopyScratch|TestKeyOrder|TestKeyTable|FuzzKeyOrder|FuzzSortWriter|AllocCeiling' ./internal/shuffle
go test -count=1 -run 'AllocCeiling|AllocBudget' ./internal/table
go test -count=1 -run 'AllocBudget|TestNoPerElementAllocations' .

echo "== histogram quantiles under concurrent writers (count=200) =="
go test -count=200 -run 'TestQuantileMonotonic' ./internal/metrics/

echo "== parameter-server loss curve (count=20) =="
# One point per global round, whatever the wall clock did.
go test -count=20 -run 'TestLossCurveDecreases' ./internal/ml/

echo "== stream lanes (race, count=5) =="
# Lane handoff, Close races and crash-inside-a-batch recovery are
# schedule-sensitive: one -race pass is not enough to trust them.
go test -race -count=5 ./internal/stream/

echo "== chaos flap + ha.Group transcript determinism (count=50) =="
# The transition log and the group's delivery order must follow the seed,
# never Go's map order. InstallSnapshot over a log that reaches the
# snapshot acks only the snapshot: the Node-level regressions and seed 95,
# which livelocked a 5-member vanilla group before, ride along.
go test -count=50 -run 'TestFlapDeterminismAndUnflap' ./internal/chaos/
go test -count=50 -run 'TestGroupTranscriptMatchesParent|TestGroupTranscriptSnapshotOverConflictingTail' ./internal/ha/
go test -count=50 -run 'TestSnapshotOver' ./internal/consensus/

echo "== scheduler, network model, overload, autoscaler + generator pins (count=50) =="
# Every scheduling policy's result, every transport's Cost/Simulate output,
# admission.Sim's defended/control/bad-node runs, E11's autoscaler runs and
# the seeded workload generators, hashed against constants recorded before
# the last change to them.
go test -count=50 -run 'TestRunMatchesParent' ./internal/sched/
go test -count=50 -run 'TestModelMatchesParent' ./internal/netsim/
go test -count=50 -run 'TestSimMatchesParent' ./internal/admission/
go test -count=50 -run 'TestSimulateMatchesParent' ./internal/elastic/
go test -count=50 -run 'TestGeneratorsMatchParent' ./internal/workload/

sh scripts/coverage.sh

if [ "${FUZZ:-0}" = "1" ]; then
    echo "== fuzz smoke (FUZZ=1) =="
    # Every Fuzz target in the module, 3s each (about a minute), found by
    # asking the packages rather than kept by hand; the checked-in corpora
    # under testdata/fuzz run on every plain `go test`.
    for pkg in $(go list ./...); do
        for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
            go test -fuzz="^${target}\$" -fuzztime=3s -run '^$' "$pkg"
        done
    done
fi

if [ "${CHAOS:-0}" = "1" ]; then
    echo "== chaos sweep (CHAOS=1) =="
    sh scripts/chaos.sh
fi

echo "verify: OK"
