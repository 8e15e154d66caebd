#!/usr/bin/env sh
# Where one workload's CPU and allocations go, layer by layer:
#
#   scripts/layers.sh [-rev R] -w W
#
# W is a BENCHMARK.json workload; each runs the root-module Go benchmark
# shaped like it:
#
#   sql_star       ./internal/query    BenchmarkSQLStar/all
#   agg_combine    .                   BenchmarkReduceByKey
#   sort_wide      .                   BenchmarkSortByKey
#   kv_txn         ./internal/kvstore  BenchmarkShardedTxnMix
#   kv_mix         ./internal/kvstore  BenchmarkPut and BenchmarkGet
#   stream_window  ./internal/stream   BenchmarkRunnerWindow (one event an iteration)
#
# With -rev the benchmark builds from revision R in a git worktree in a
# temporary directory, removed on exit, as scripts/pair.sh does; without,
# from the working tree. It runs twice, a fixed number of iterations each:
# with -cpuprofile, and with -memprofile -memprofilerate=1. Every sample
# `go tool pprof -traces` prints is folded into one row:
#
#   runtime GC      the stack runs through the collector (runtime.gc*,
#                   bgsweep, bgscavenge)
#   runtime malloc  otherwise, through runtime.mallocgc
#   <package>       otherwise, the package of the innermost repro/... frame
#                   (serde, shuffle, table, query, core, ...; "repro" is the
#                   root package, and a _test package counts as its own)
#   other           the rest
#
# and each row prints its share of the CPU samples and the bytes it
# allocated per benchmark iteration. The memory run is made at N and at 2
# iterations and the difference divided by the iterations between, so the
# benchmark's setup (input generation, table builds) drops out of the
# bytes; CPU shares include it. A heap profile's stacks stop at the
# allocating frame, so allocations land on packages, never on the runtime
# rows.
set -eu

cd "$(dirname "$0")/.."
root=$PWD

usage() {
    echo "usage: scripts/layers.sh [-rev R] -w W" >&2
    exit 2
}

rev="" w=""
while [ $# -gt 0 ]; do
    case $1 in
    -rev) [ $# -ge 2 ] || usage; rev=$2; shift 2 ;;
    -w) [ $# -ge 2 ] || usage; w=$2; shift 2 ;;
    *) usage ;;
    esac
done
[ -n "$w" ] || usage

# pkg, benchmark pattern, then CPU and memory iterations (a second or two each).
case $w in
sql_star) set -- ./internal/query '^BenchmarkSQLStar$/^all$' 60 10 ;;
agg_combine) set -- . '^BenchmarkReduceByKey$' 150 20 ;;
sort_wide) set -- . '^BenchmarkSortByKey$' 200 20 ;;
kv_txn) set -- ./internal/kvstore '^BenchmarkShardedTxnMix$' 60000 10000 ;;
kv_mix) set -- ./internal/kvstore '^(BenchmarkPut|BenchmarkGet)$' 500000 100000 ;;
stream_window) set -- ./internal/stream '^BenchmarkRunnerWindow$' 10000000 2000000 ;;
*) echo "layers: no benchmark for workload $w" >&2; exit 2 ;;
esac
pkg=$1 pattern=$2 cpuN=$3 memN=$4

tmp=$(mktemp -d "${TMPDIR:-/tmp}/layers.XXXXXX")
cleanup() {
    if [ -d "$tmp/tree" ]; then git worktree remove --force "$tmp/tree"; fi
    rm -rf "$tmp"
    git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

dir=$root label=$(git rev-parse --short HEAD)
if [ -n "$rev" ]; then
    git worktree add --detach "$tmp/tree" "$(git rev-parse --verify "$rev^{commit}")" >&2
    dir=$tmp/tree label=$(git -C "$dir" rev-parse --short HEAD)
elif [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    label="$label+dirty"
fi

(cd "$dir" && go test -c -o "$tmp/bench.test" "$pkg")
# run <iterations> <flags...>: the benchmark, from its package directory;
# prints how many iterations ran in all: for each benchmark matched, N
# (at least 2) after the one that sizes b.N, each call redoing its setup.
run() {
    n=$1
    shift
    (cd "$dir/$pkg" && "$tmp/bench.test" -test.run '^$' -test.bench "$pattern" -test.benchtime "${n}x" "$@") >"$tmp/out.txt"
    grep -c '^Benchmark.* ns/op' "$tmp/out.txt" | awk -v n="$n" '$1 == 0 { exit 1 } { print $1 * (n + 1) }' ||
        { cat "$tmp/out.txt" >&2; echo "layers: no benchmark matched $pattern" >&2; exit 1; }
}
cpuOps=$(run "$cpuN" -test.cpuprofile "$tmp/cpu.prof")
memOps=$(run "$memN" -test.memprofile "$tmp/mem.prof" -test.memprofilerate 1)
setupOps=$(run 2 -test.memprofile "$tmp/setup.prof" -test.memprofilerate 1)

# fold: one "layer value" line per sample, value in seconds or bytes.
fold() {
    awk '
    function base(v,   num, unit) {
        num = v; sub(/[A-Za-z]+$/, "", num)
        unit = v; sub(/^[0-9.]+/, "", unit)
        if (unit == "ns") return num * 1e-9
        if (unit == "us") return num * 1e-6
        if (unit == "ms") return num * 1e-3
        if (unit == "s" || unit == "B" || unit == "") return num
        if (unit == "kB") return num * 1024
        if (unit == "MB") return num * 1024 * 1024
        if (unit == "GB") return num * 1024 * 1024 * 1024
        if (unit == "TB") return num * 1024 * 1024 * 1024 * 1024
        print "layers: unknown unit " v > "/dev/stderr"; exit 1
    }
    function flush(   layer) {
        if (have) {
            layer = gc ? "runtime GC" : malloc ? "runtime malloc" : pkg != "" ? pkg : "other"
            print layer "\t" val
        }
        have = 0; gc = 0; malloc = 0; pkg = ""
    }
    function frame(f,   p) {
        sub(/ \(inline\)$/, "", f)
        if (f ~ /^runtime\.(gc|bgsweep|bgscavenge)/) gc = 1
        if (f == "runtime.mallocgc") malloc = 1
        if (pkg == "" && match(f, /^repro(\/[A-Za-z0-9_]+)*\./)) {
            p = substr(f, 1, RLENGTH - 1); sub(/^.*\//, "", p); sub(/_test$/, "", p)
            pkg = p
        }
    }
    /^-+\+-+$/ { flush(); started = 1; next }
    !started { next }
    !have && /^ *[A-Za-z_]+: / { next }      # a label line
    !have { have = 1; val = base($1); $1 = ""; sub(/^ +/, ""); frame($0); next }
    { sub(/^ +/, ""); frame($0) }
    END { flush() }'
}
go tool pprof -traces "$tmp/bench.test" "$tmp/cpu.prof" 2>/dev/null | fold >"$tmp/cpu.txt"
for p in mem setup; do
    go tool pprof -sample_index=alloc_space -traces "$tmp/bench.test" "$tmp/$p.prof" 2>/dev/null | fold >"$tmp/$p.txt"
done

echo "layers: $w ($pkg $pattern) at $label; CPU over $cpuOps iterations, bytes over $memOps less $setupOps"
awk -F '\t' -v memOps="$((memOps - setupOps))" '
    FNR == 1 { file++ }
    file == 1 { cpu[$1] += $2; cpuAll += $2; seen[$1] = 1 }
    file == 2 { mem[$1] += $2; memAll += $2; seen[$1] = 1 }
    file == 3 { mem[$1] -= $2; memAll -= $2 }
    END {
        printf "%-16s %7s %12s\n", "layer", "cpu%", "B/op"
        sort = "sort -rn | cut -f2-"
        for (l in seen) {
            share = cpuAll ? 100 * cpu[l] / cpuAll : 0
            printf "%.6f\t%-16s %7.1f %12.0f\n", share, l, share, mem[l] / memOps | sort
        }
        close(sort)
        printf "%-16s %7.1f %12.0f\n", "total", 100, memAll / memOps
    }' "$tmp/cpu.txt" "$tmp/mem.txt" "$tmp/setup.txt"
