#!/usr/bin/env sh
# Non-test Go lines per package of the root module, then the module total:
# physical lines of every .go file that is not a _test.go, outside bench/
# (its own module) and testdata/. Run from anywhere:
#
#     sh scripts/loc.sh            # per-package lines, largest first, then the total
#     sh scripts/loc.sh | tail -1  # the total alone
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' \
    ! -path './bench/*' ! -path '*/testdata/*' ! -path './.bench_build/*' |
    xargs wc -l |
    awk '$2 != "total" {
        dir = $2
        sub(/\/[^\/]*$/, "", dir)
        sub(/^\.\/?/, "", dir)
        if (dir == "") dir = "."
        lines[dir] += $1
        total += $1
    }
    END {
        for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -rn"
        close("sort -rn")
        printf "%7d  total\n", total
    }'
