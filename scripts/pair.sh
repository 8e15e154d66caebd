#!/usr/bin/env sh
# Paired benchmark runs of two revisions:
#
#   scripts/pair.sh <base> [<head>] [-w workload[,workload...]] [-n pairs] [-seed s]
#
# <base> and <head> are git revisions; <head> defaults to the working tree,
# recorded as the commit `git stash create` makes of it (tracked files
# only) when it differs from HEAD. Each revision named gets a git worktree
# in a temporary directory, removed on exit, and its bench/ builds against
# its own root through the bench module's replace.
# Each workload (default: every one in BENCHMARK.json) runs n pairs
# (default 10) of `bash bench/run.sh -workload W -seed S` (default seed 42),
# alternating which side runs first. Every run's output and one-line
# result are kept under .bench_build/pair/runs/<stamp>/<workload>/, both
# sides of every pair are appended to BENCH_history.jsonl, and
# scripts/pairsum.go prints each metric's medians, quartiles and wins.
set -eu

cd "$(dirname "$0")/.."
root=$PWD

usage() {
    echo "usage: scripts/pair.sh <base> [<head>] [-w workload[,workload...]] [-n pairs] [-seed s]" >&2
    exit 2
}

base="" head="" workloads="" pairs=10 seed=42
while [ $# -gt 0 ]; do
    case $1 in
    -w) [ $# -ge 2 ] || usage; workloads=$2; shift 2 ;;
    -n) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
    -seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
    -*) usage ;;
    *)
        if [ -z "$base" ]; then base=$1
        elif [ -z "$head" ]; then head=$1
        else usage
        fi
        shift ;;
    esac
done
[ -n "$base" ] || usage
if [ -z "$workloads" ]; then
    workloads=$(awk '/"workloads"/ { w = 1 } /"end_to_end"/ { w = 0 }
        w && /"name"/ { gsub(/.*"name": *"|".*/, ""); print }' BENCHMARK.json | paste -sd, -)
fi

trees=$(mktemp -d "${TMPDIR:-/tmp}/pair.XXXXXX")
cleanup() {
    for t in "$trees"/*; do
        if [ -d "$t" ]; then git worktree remove --force "$t"; fi
    done
    rm -rf "$trees"
    git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# checkout <rev>: prints the directory that holds rev's tree, adding its
# worktree on first use.
checkout() {
    sha=$(git rev-parse --verify "$1^{commit}")
    dir="$trees/$sha"
    [ -d "$dir" ] || git worktree add --detach "$dir" "$sha" >&2
    echo "$dir"
}

baseDir=$(checkout "$base")
baseRev=$(git -C "$baseDir" rev-parse HEAD)
if [ -n "$head" ]; then
    headDir=$(checkout "$head")
    headRev=$(git -C "$headDir" rev-parse HEAD)
else
    headDir=$root
    headRev=$(git stash create)
    [ -n "$headRev" ] || headRev=$(git rev-parse HEAD)
fi

stamp=$(date -u +%Y%m%dT%H%M%SZ)
runs="$root/.bench_build/pair/runs/$stamp"
echo "pair: base $baseRev, head $headRev, workloads $workloads, $pairs pairs, seed $seed"
echo "pair: results in $runs"

# run <side> <pair> <workload>: one bench run, kept and appended to the history.
run() {
    side=$1 i=$2 w=$3
    if [ "$side" = base ]; then dir=$baseDir rev=$baseRev; else dir=$headDir rev=$headRev; fi
    out="$runs/$w/$side-$(printf %02d "$i")"
    status=0
    (cd "$dir" && bash bench/run.sh -workload "$w" -seed "$seed") >"$out.out" 2>&1 || status=$?
    grep '^{' "$out.out" | tail -n 1 >"$out.json" || true
    if [ ! -s "$out.json" ]; then
        echo "pair: $side run $i of $w printed no result (exit $status); see $out.out" >&2
        exit 1
    fi
    [ "$status" -eq 0 ] || echo "pair: $side run $i of $w exited $status; see $out.out" >&2
    printf '{"date":"%s","rev":"%s","side":"%s","pair":%d,"workload":"%s","seed":%s,"result":%s}\n' \
        "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$rev" "$side" "$i" "$w" "$seed" "$(cat "$out.json")" >>"$root/BENCH_history.jsonl"
    echo "pair: $w pair $i $side done"
}

for w in $(echo "$workloads" | tr , ' '); do
    mkdir -p "$runs/$w"
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            run base "$i" "$w"
            run head "$i" "$w"
        else
            run head "$i" "$w"
            run base "$i" "$w"
        fi
        i=$((i + 1))
    done
done

go run scripts/pairsum.go "$runs"
