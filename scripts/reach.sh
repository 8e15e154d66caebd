#!/usr/bin/env sh
# Reachability report: which functions of the root module no binary runs.
# It builds cmd/hpbdc-bench, every examples/* program and the bench/
# harness with coverage, drives them with the repo's own traffic under one
# GOCOVERDIR, and lists every function that ran 0 % of its statements:
#
#   - hpbdc-bench -small -check              (every experiment, every oracle)
#   - hpbdc-bench -bench all -bench-diff .   (every BENCH family, byte-compared)
#   - hpbdc-bench -small -run E4 -trace-out  (the observability export)
#   - every example
#   - the bench harness's six workloads, one second each at scale 0.25, traced
#
# Writes only to a temp dir. Run from anywhere:
#
#     sh scripts/reach.sh          # unreached lines per package, the total, every 0 % function
#     sh scripts/reach.sh -check   # exit 1 unless the 0 % functions are exactly REACH.txt's
#
# REACH.txt lists one "file function class reason" entry per unreached
# function; -check compares (file, function) keys only, so line numbers and
# function lengths may move freely. The classes are in REACH.txt's header.
set -eu

cd "$(dirname "$0")/.."
mode=${1:-report}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/bin" "$tmp/cov" "$tmp/run"

go build -cover -coverpkg=./... -o "$tmp/bin/hpbdc-bench" ./cmd/hpbdc-bench
for dir in examples/*/; do
    name=$(basename "$dir")
    go build -cover -coverpkg=./... -o "$tmp/bin/example-$name" "./examples/$name"
done
go -C bench build -cover -coverpkg=repro/... -o "$tmp/bin/bench" .

export GOCOVERDIR="$tmp/cov"
quiet() { "$@" >"$tmp/run/out.txt" 2>&1 || { cat "$tmp/run/out.txt" >&2; echo "reach: $* failed" >&2; exit 1; }; }
quiet "$tmp/bin/hpbdc-bench" -small -check
quiet "$tmp/bin/hpbdc-bench" -bench all -bench-diff .
quiet "$tmp/bin/hpbdc-bench" -small -run E4 -trace-out "$tmp/run/trace.json"
for ex in "$tmp"/bin/example-*; do
    (cd "$tmp/run" && quiet "$ex")
done
# With no -workload the harness runs each workload in its own child process,
# which inherits GOCOVERDIR; it writes bench/out/ under the working directory.
(cd "$tmp/run" && quiet "$tmp/bin/bench" -seconds 1 -scale 0.25 -trace 1)

# One "file function lines" line per function at 0 %, file relative to the
# repo root, lines counted from the func line to its closing brace; bench/
# is the harness, not the program, and is left out.
go tool covdata func -i "$tmp/cov" |
    awk '$NF == "0.0%" && $1 !~ /^repro\/bench\// { split($1, a, ":"); f = a[1]; sub(/^repro\//, "", f); print f, a[2], $2 }' |
    sort -u >"$tmp/zero.txt"
while read -r file line fn; do
    n=$(awk -v s="$line" 'NR == s { o = gsub(/{/, "{"); c = gsub(/}/, "}"); if (o == c) { print 1; exit } }
        NR > s && /^}/ { print NR - s + 1; exit }' "$file")
    echo "$file $fn $n"
done <"$tmp/zero.txt" >"$tmp/unreached.txt"
# A package no binary links has no coverage counters at all: it is listed
# whole, as "dir/ (package) lines".
{ go list -deps ./cmd/hpbdc-bench ./examples/...; go -C bench list -deps .; } | sort -u >"$tmp/linked.txt"
go list ./... | sort | comm -23 - "$tmp/linked.txt" | while read -r pkg; do
    dir=${pkg#repro/}
    echo "$dir/ (package) $(cat $(ls "$dir"/*.go | grep -v '_test\.go$') | wc -l)"
done >>"$tmp/unreached.txt"
sort -k1,1 -k2,2 -o "$tmp/unreached.txt" "$tmp/unreached.txt"

if [ "$mode" = "-check" ]; then
    awk '$0 !~ /^#/ && NF { print $1, $2 }' REACH.txt | sort -u >"$tmp/listed.txt"
    awk '{ print $1, $2 }' "$tmp/unreached.txt" | sort -u >"$tmp/fresh.txt"
    new=$(comm -13 "$tmp/listed.txt" "$tmp/fresh.txt")
    stale=$(comm -23 "$tmp/listed.txt" "$tmp/fresh.txt")
    if [ -n "$new" ] || [ -n "$stale" ]; then
        [ -z "$new" ] || printf 'reach: unreached but not in REACH.txt (delete it, or list it with a class and reason):\n%s\n' "$new" >&2
        [ -z "$stale" ] || printf 'reach: stale REACH.txt entries (now reached, renamed or deleted):\n%s\n' "$stale" >&2
        exit 1
    fi
    echo "reach: OK ($(wc -l <"$tmp/fresh.txt") unreached entries, all listed in REACH.txt)"
    exit 0
fi

echo "== unreached lines per package =="
awk '{ d = $1; sub(/\/[^\/]*$/, "", d); if (d == $1) d = "."; lines[d] += $3; total += $3 }
    $2 == "(package)" { pkgs++; next }
    { fns++ }
    END {
        for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -rn"
        close("sort -rn")
        printf "%7d  total (%d functions, %d unlinked packages)\n", total, fns, pkgs
    }' "$tmp/unreached.txt"
echo "== functions at 0 % (file function lines) =="
cat "$tmp/unreached.txt"
