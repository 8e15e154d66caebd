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

echo "== standard-library API no newer than the go line (both modules) =="
# The local toolchain builds and vets a package or function newer than
# go.mod's go line; this names each import of one and each use of a
# package-level one (methods are out of scope), file:line.
sh scripts/api.sh

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== paired-run driver (vet, syntax) =="
go vet scripts/pairsum.go
sh -n scripts/pair.sh

echo "== benchmark module (vet, test) =="
# bench/ is its own module, outside ./...: this is where a change that
# breaks an API the benchmark pins shows up before the benchmark runs.
go -C bench vet .
go -C bench test .

echo "== go test -race (every package) =="
# No hand-kept list: the unfenced speculative copy raced in the root package
# and in experiments, which the list this replaces left out.
go test -race ./...

echo "== speculative loser is fenced, concurrent jobs journal their own stages (race, count=20) =="
go test -race -count=20 -run 'TestSpeculativeLoserIsFenced|TestPostOwnsItsRecordsView|TestConcurrentJobsJournalTheirOwnStages|TestEmptyMapOutputResumed' ./internal/core/
go test -race -count=20 -run 'TestEFTShapes' ./internal/experiments/

echo "== log compaction + txn watermark (race, count=3) =="
# Count-based protocol tests: bounded finished-txn table, shared
# compaction snapshots, the byte rule (a member snapshots once it has
# applied as many log bytes as its last snapshot holds) and counters that
# move only with an offset. No wall clock, so -count=3 on two cores is cheap.
go test -race -count=3 -run 'TestWatermark|TestCompaction' ./internal/kvstore ./internal/ha
# The byte rule's regression pins without -race, repeated: no compaction
# counted while nothing moves, kv_txn's bytes per iteration, and the sharded
# coordinator's command stream (results, virtual cost, compactions, final
# machine snapshots) hashed against constants from before its commands were
# encoded into stack buffers.
go test -count=20 -run 'TestCompactionCountsOnlyCompactionsThatHappen|TestShardedTxnMixByteCeiling|TestShardedCommandStreamPinned' ./internal/ha ./internal/kvstore
# Concurrent coordinators each encode their commands into their own stack
# array, which Propose copies before returning.
go test -race -count=3 -run 'TestTxn|TestShardedCommandStreamPinned' ./internal/kvstore

echo "== split and merge: one completion driver (count=20, race count=3) =="
# Split and merge run through one driver and one directory case: every
# crash point of both kinds and the ErrRangeBusy refusals, recovered and
# hashed against a constant from before the two drivers were merged.
go test -count=20 -run 'TestRangeChangesPinned|TestShardedMergeCrashRecovers' ./internal/kvstore
go test -race -count=3 -run 'TestShardedSplit|TestShardedMerge|TestTxnSplitRacing' ./internal/kvstore

echo "== quorum ring under fault toggles (race, count=3) =="
# Liveness, the stale-read flag and the version clock are atomics that
# Get/Put read without a lock while FailNode/RecoverNode flip them.
go test -race -count=3 -run 'TestConcurrent' ./internal/kvstore

echo "== history captures' wave driver (race, count=3) =="
# Draws on the driver goroutine, operations concurrent: the one place in
# internal/check where goroutines share the History and the store.
go test -race -count=3 -run 'TestCapture' ./internal/check

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
# E-GRAY's register machine: its seeds put and get keys and values with NUL in them.
go test -count=1 -run 'FuzzRegSM' ./internal/experiments

echo "== batches and the shuffle boundary: identity pins + allocation ceilings =="
# The pins hold wire bytes, counters, split points, partition sizes and row
# order to what the row-at-a-time operators and the per-row shuffle
# contract produced; the ceilings (no -race: it changes allocation counts)
# keep per-row boxing and per-record shuffle allocations from coming back.
# -count=5: each process draws its own key-table hash seeds, and every run
# must still match the pins byte for byte — the fused join-aggregate against
# the join it never builds included — and so must every optimized plan's
# shape, planning allocations and chained join names.
go test -count=5 -run 'Identity|TestBatchesAreReadOnly|TestVectorizedFilter|TestActualsCount|FuzzPlanEquivalence|TestJoinAgg|TestPlanShapesPinned|TestPlanStarAllocCeiling|TestJoinNamesStayUniqueThroughChains' ./internal/table ./internal/query
go test -count=5 -run 'WireIdentity|TestShuffleOutputOrderPinned' .
go test -count=1 -run 'TestSortWriterByteIdentity|TestWritersCopyScratch|TestWriteRecordsMatchesWriteLoop|TestSortWriterBatch|TestKeyOrder|FuzzKeyOrder|FuzzSortWriter|AllocCeiling' ./internal/shuffle
go test -count=1 -run 'TestKeyTable|FuzzKeyTable' ./internal/group
# A sort writer frames values from the batch at Close: speculative copies of
# a task read one batch at once.
go test -race -count=10 -run 'TestSortWritersShareBatch' ./internal/shuffle
# Each block is the only allocation that holds its bytes: the block pins
# (no spare capacity; bytes to write and close, per writer, codec and
# spill) and the identity pins, repeated, since the LZ scratch pool and the
# collector differ from run to run and the wire bytes must not; then both
# packages under the race detector, where writers share LZ's pooled scratch.
go test -count=20 -run 'TestBlocksHoldNoSpareRoom|TestBlockWriteByteCeiling|TestSortWriterByteIdentity' ./internal/shuffle
go test -count=20 -run 'WireIdentity|TestShuffleOutputOrderPinned' .
go test -race -count=3 ./internal/shuffle ./internal/compress
go test -count=1 -run 'AllocCeiling|AllocBudget' ./internal/table
# Group tables keep each key as a span of one arena and each aggregate's
# state in typed vectors: the bytes a grouping allocates per group, column
# keys numbered by type against their byte encodings, the key tables
# against a Go map across their arena's growth, KeyOrder against
# sort.Strings, and the packages under the race detector (join probes read
# one table from many goroutines).
go test -count=20 -run 'TestAggTableByteCeiling|TestColumnKeysMatchByteKeys' ./internal/table
go test -count=20 -run 'TestKeyTableMatchesMap|FuzzKeyTable' ./internal/group
go test -count=20 -run 'TestKeyOrder|FuzzKeyOrder' ./internal/shuffle
go test -race -count=3 ./internal/group ./internal/shuffle ./internal/table
# ORDER BY … LIMIT runs as one top-k: the star suite's results, counters
# and EXPLAIN, TopK against OrderByCols then Head, and the one-partition
# sort that runs no sampling job, repeated; partitions pick their
# candidates concurrently, so TopK also runs under -race. The plan-shape
# pin and the chained join-name answers ride along.
go test -count=20 -run 'TestStarSuiteIdentity|TestStarExplainIdentity|TestTopK|TestOrderByOnePartition|TestPlanShapesPinned|TestJoinNamesStayUnique' ./internal/query ./internal/table
go test -race -count=3 -run TestTopK ./internal/table
go test -count=1 -run 'AllocBudget|TestNoPerElementAllocations' .
# Map, Filter and FlatMap hand their consumer a stream, not a batch: every
# user function once per element per task computation, whoever reads the
# chain; Cache and Checkpoint after a consumer was derived; every operator,
# fused chains included, against the oracle and a plain loop; the bytes a
# Map -> ReduceByKey job may allocate (no -race: it changes what escapes);
# a panic in a job's last step fails its task. Then the root package under
# the race detector, where result tasks settle streams into batches.
go test -count=20 -run 'TestUserFunctionsRunOncePerElement|TestCacheAndCheckpointAfterConsumerDerived|TestOperatorsMatchReferenceAndPlainLoop|TestMapReduceByKeyByteCeiling|TestStepPanicFailsItsTask' .
go test -race -count=3 .
# A reduce side's strings are the bytes of its decompressed blocks, not
# copies (serde.Frozen): strings kept from one job still read as their
# input says after twenty more jobs, at every decode site and under both
# codecs, with and without the race detector; and the sort's bytes per
# record stay within the budget that cut earned.
go test -count=20 -run 'TestInPlaceStringsStayPut' . ./internal/table
go test -race -count=3 -run 'TestInPlaceStringsStayPut' . ./internal/table
go test -count=20 -run 'TestSortByKeyAllocBudget' .
# serde.Frozen is the module's one use of unsafe: no other non-test file
# may import it.
unsafe_users=$(find . \( -path ./.git -o -path ./.bench_build -o -path ./internal/serde \) -prune -o \
    -name '*.go' ! -name '*_test.go' -print | xargs grep -l '"unsafe"' || true)
if [ -n "$unsafe_users" ]; then
    echo "unsafe imported outside internal/serde:" >&2
    echo "$unsafe_users" >&2
    exit 1
fi

echo "== numeric columns: packed and fixed encodings, block skipping =="
# Int columns pack 64-value blocks, float columns are fixed-width: selections
# that leave whole blocks empty against a full decode and a plain loop, the
# chooser's pick per column shape, and both packings at every width.
go test -count=1 -run 'TestSelectSkipsEmptyBlocks|TestNumericChooserPicks|TestPackedRoundTripProperty' ./internal/serde

echo "== histogram quantiles under concurrent writers (count=200) =="
go test -count=200 -run 'TestQuantileMonotonic' ./internal/metrics/

echo "== parameter-server loss curve (count=20) =="
# One point per global round, whatever the wall clock did.
go test -count=20 -run 'TestLossCurveDecreases' ./internal/ml/

echo "== stream lanes (race, count=5) =="
# Lane handoff, Close races and crash-inside-a-batch recovery are
# schedule-sensitive: one -race pass is not enough to trust them.
go test -race -count=5 ./internal/stream/
# The Runner stages events and pushes them to the lanes in runs: batch
# pushes, Close races and crash recovery once more, three times over.
go test -race -count=3 -run 'TestRunner|TestLane|TestCrashInsideBatch|TestBatchingInvisible|TestPipelineCloseRace' ./internal/stream
# A worker fires windows by start and each window's panes in order of
# first arrival, never in Go's map order: two pipelines fed alike fire alike.
go test -count=20 -run 'TestFiringOrderRepeats' ./internal/stream

echo "== chaos flap + ha.Group transcript determinism (count=50) =="
# The transition log and the group's delivery order must follow the seed,
# never Go's map order. InstallSnapshot over a log that reaches the
# snapshot acks only the snapshot: the Node-level regressions and seed 95,
# which livelocked a 5-member vanilla group before, ride along.
go test -count=50 -run 'TestFlapDeterminismAndUnflap' ./internal/chaos/
go test -count=50 -run 'TestGroupTranscriptMatchesParent|TestGroupTranscriptSnapshotOverConflictingTail' ./internal/ha/
go test -count=50 -run 'TestSnapshotOver' ./internal/consensus/

echo "== scheduler, network model, overload, autoscaler, generator, stream runner, KV oracle + replicated machine pins (count=50) =="
# Every scheduling policy's result, every transport's Cost/Simulate output,
# admission.Sim's defended/control/bad-node runs, E11's autoscaler runs,
# the seeded workload generators and the checkpointed stream Runner, hashed
# against constants recorded before the last change to them.
go test -count=50 -run 'TestRunMatchesParent' ./internal/sched/
go test -count=50 -run 'TestModelMatchesParent' ./internal/netsim/
go test -count=50 -run 'TestSimMatchesParent' ./internal/admission/
go test -count=50 -run 'TestSimulateMatchesParent' ./internal/elastic/
go test -count=50 -run 'TestGeneratorsMatchParent' ./internal/workload/
go test -count=50 -run 'TestRunnerMatchesParent' ./internal/stream/
# The KV oracles' one witness search and one wave driver: CheckOps verdicts
# and Detail text over seeded random register histories, and every rng
# draw both history captures make.
go test -count=50 -run 'TestCheckOpsOutcomesPinned|TestCaptureDrawsPinned' ./internal/check/
# The replicated machines' one decoder: the namenode's command stream and
# the range directory's, hashed against constants from before the decoders
# were merged; both namenode modes must fail alike, and a corrupt count
# must not size an allocation.
go test -count=50 -run 'TestNameMachineMatchesParent' ./internal/dfs/
go test -count=50 -run 'TestGoldenDirMachineStream' ./internal/kvstore/
go test -count=1 -run 'TestReplicatedErrorsMatchLocal|TestCountBombsRejectedBeforeAllocating' ./internal/dfs/ ./internal/ha/

sh scripts/coverage.sh

echo "== reachability: REACH.txt lists exactly what no binary runs =="
# Coverage-built binaries driven by every experiment, example, BENCH family
# and bench workload; about 30 s on two cores (most of it the builds).
sh scripts/reach.sh -check

if [ "${FUZZ:-0}" = "1" ]; then
    echo "== fuzz smoke (FUZZ=1) =="
    sh scripts/fuzz.sh
fi

if [ "${CHAOS:-0}" = "1" ]; then
    echo "== chaos sweep (CHAOS=1) =="
    sh scripts/chaos.sh
fi

echo "verify: OK"
