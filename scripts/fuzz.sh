#!/usr/bin/env sh
# Fuzz smoke: every Fuzz target in the module for FUZZTIME each (default
# 3s, about two minutes for all of them), found by asking the packages
# rather than kept by hand. The checked-in corpora under testdata/fuzz
# run on every plain `go test`; a crasher found here is written there.
# Minimizing a new input is capped at 1s: go's default (60s) can spend a
# whole budget shrinking one input instead of running new ones.
#
#     sh scripts/fuzz.sh                # 3s a target
#     FUZZTIME=30s sh scripts/fuzz.sh   # longer budget
set -eu

cd "$(dirname "$0")/.."

fuzztime=${FUZZTIME:-3s}
for pkg in $(go list ./...); do
    for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
        echo "== $pkg $target ($fuzztime) =="
        go test -fuzz="^${target}\$" -fuzztime="$fuzztime" -fuzzminimizetime=1s -run '^$' "$pkg"
    done
done
