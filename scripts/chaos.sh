#!/usr/bin/env sh
# Multi-seed chaos smoke sweep: the acceptance tests of every
# fault-bearing subsystem under several seeds, all with the race detector
# enabled, then the experiment suite's own oracle verdicts. This is the
# long-form confidence check behind `CHAOS=1 scripts/verify.sh`; run
# directly for a quick sweep:
#
#   scripts/chaos.sh               # default seeds
#   SEEDS="1 2 3 4" scripts/chaos.sh
set -eu

cd "$(dirname "$0")/.."

SEEDS=${SEEDS:-"1 7 42"}

echo "== chaos acceptance tests (race, seeds: $SEEDS) =="
# Includes the checked sweep (TestChaosCheckedSweep: wordcount and
# TeraSort under every preset x seed, diffed against the sequential
# reference oracle), the KV linearizability sweep and the stale-read
# checker self-test (the checker must reject the injected violation).
CHAOS_SEEDS="$SEEDS" go test -race -run 'TestChaos' . -count=1

echo "== control-plane HA sweep (race, seeds: $SEEDS) =="
# Namenode leader crash + coordinator crash mid-job under the "ha"
# preset: the job must finish, record a failover and resume journaled
# stages (TestHAAcceptance), deterministically (TestHADeterministicReplay).
HA_SEEDS="$SEEDS" go test -race -run 'TestHA' . -count=1

echo "== stream exactly-once recovery sweep (race, seeds: $SEEDS) =="
STREAM_SEEDS="$SEEDS" go test -race -run 'TestStream' . -count=1
go test -race -run 'TestPipelineCloseRace|TestSessionizerCloseRace|TestRunner' \
    ./internal/stream/ -count=1

echo "== overload admission sweep (race, seeds: $SEEDS) =="
# The defended stack must hold goodput flat and histories linearizable
# at 2x saturation for every seed; the control run must collapse.
OVL_SEEDS=$(echo "$SEEDS" | tr ' ' ',') go test -race -run 'TestOverload' . -count=1

echo "== sharded txn gauntlet (race, seeds: $SEEDS) =="
# Cross-range 2PC under rotating coordinator crash points, partitions
# spanning the commit point and splits racing live transactions: every
# history strictly serializable, zero dangling locks/records, and the
# dirty-read injection caught (TestTxnAcceptance*).
TXN_SEEDS=$(echo "$SEEDS" | tr ' ' ',') go test -race -run 'TestTxnAcceptance' . -count=1

echo "== gray-failure sweep (race, seeds: $SEEDS) =="
# Asymmetric faults (one-way cuts, non-transitive partial partitions):
# the vanilla control must livelock, the hardened cluster must bound
# unavailability and term growth on the same (schedule, seed), and the
# replay must be deterministic (TestGrayAcceptance*).
GRAY_SEEDS=$(echo "$SEEDS" | tr ' ' ',') go test -race -run 'TestGray' . -count=1

echo "== oracle-checked experiment pass (EFT, E-SFT, E-HA, E-OVL, E-TXN, E-GRAY, E-SQL, E5) =="
# The sweep ends with the experiment suite's own verdicts: batch oracle
# diffs (EFT), stream window oracles (E-SFT), control-plane failover
# oracles (E-HA), overload-with-shedding linearizability (E-OVL),
# sharded-txn strict serializability incl. the gray leader cut (E-TXN),
# gray-failure availability bounds and teeth (E-GRAY), relational
# differential checks incl. a crash-preset replay (E-SQL) and plain
# quorum linearizability (E5). -check exits nonzero on any mismatch, and
# a mistyped ID is a usage error, not a dropped oracle.
go run ./cmd/hpbdc-bench -small -run EFT,E-SFT,E-HA,E-OVL,E-TXN,E-GRAY,E-SQL,E5 -check

echo "chaos sweep: OK"
