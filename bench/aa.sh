#!/usr/bin/env bash
# A/A: runs the full benchmark twice on the same commit and compares the
# two results with the benchmark's own bounds. Flags are passed through to
# both runs (for example: bench/aa.sh -trace 1, bench/aa.sh -seconds 5).
#
# The same tool compares a parent commit with a change: run the benchmark
# in a checkout of each, keep each bench/out/result.json, then
#   bash bench/run.sh -compare parent.json change.json
set -euo pipefail
cd "$(dirname "$0")/.."
out=bench/out
for side in a b; do
	bash bench/run.sh "$@"
	mv "$(ls -t "$out"/result*.json | head -1)" "$out/$side.json"
done
bash bench/run.sh -compare "$out/a.json" "$out/b.json"
