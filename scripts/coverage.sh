#!/usr/bin/env sh
# Per-package statement coverage with failing floors on the packages the
# correctness story leans on. internal/check is the checker of record —
# an untested oracle is worse than no oracle — so it carries the highest
# floor. Run from anywhere; FULL=1 additionally prints coverage for
# every package in the module (floors still apply).
set -eu

cd "$(dirname "$0")/.."

# package:floor pairs. Floors sit below current coverage (check 90.7%,
# kvstore 92%, stream 96%, query 88%, table 96%) so routine changes pass,
# while a test deletion or a big untested addition fails the gate. check's
# margin is thin but its value does not move from run to run: its capture
# tests drive every error branch through fakes that fail chosen draws, not
# through goroutine timing.
floors="
./internal/check:90
./internal/kvstore:85
./internal/stream:85
./internal/query:75
./internal/table:80
"

fail=0
echo "== coverage floors =="
for entry in $floors; do
    pkg=${entry%:*}
    floor=${entry#*:}
    line=$(go test -count=1 -cover "$pkg" | tail -n 1)
    pct=$(echo "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "FAIL  $pkg: no coverage reported ($line)" >&2
        fail=1
        continue
    fi
    # Integer compare on the whole-percent part keeps this POSIX-sh clean.
    whole=${pct%.*}
    if [ "$whole" -lt "$floor" ]; then
        echo "FAIL  $pkg: ${pct}% < floor ${floor}%" >&2
        fail=1
    else
        echo "ok    $pkg: ${pct}% (floor ${floor}%)"
    fi
done

if [ "${FULL:-0}" = "1" ]; then
    echo "== full per-package coverage (FULL=1) =="
    go test -count=1 -cover ./... | grep -v '^---' || true
fi

if [ "$fail" -ne 0 ]; then
    echo "coverage: FAILED" >&2
    exit 1
fi
echo "coverage: OK"
