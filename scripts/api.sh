#!/usr/bin/env sh
# Standard-library API guard: both modules (the root and bench/) declare
# an older Go than the local toolchain, which compiles and vets a newer
# standard-library call without a word. This fails, printing file:line
# for each hit, when a non-test .go file of a module
#   - imports a package that first appears in a $(go env GOROOT)/api
#     go1.N.txt newer than the module's go line, or
#   - names (calls or takes) a package-level function first listed there,
#     through the import's name in that file.
# Methods are out of scope: telling a newer method from an older one needs
# the receiver's type, which a text scan does not have. Reads the source
# only. Run from anywhere:
#
#     sh scripts/api.sh
set -eu

cd "$(dirname "$0")/.."

api=$(go env GOROOT)/api
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# "pkg P, ..." or "pkg P (goos-goarch), ..."; a function is "P.Name".
pkgs() { sed -n 's/^pkg \([^ ,]*\).*/\1/p' "$@" | sort -u; }
funcs() { sed -n 's/^pkg \([^ ,]*\)[^,]*, func \([A-Za-z0-9_]*\).*/\1.\2/p' "$@" | sort -u; }

fail=0
for mod in . bench; do
    floor=$(sed -n 's/^go 1\.\([0-9][0-9]*\).*/\1/p' "$mod/go.mod")
    old=""
    new=""
    for f in "$api"/go1*.txt; do
        minor=$(basename "$f" .txt | sed -n 's/^go1\.\([0-9][0-9]*\)$/\1/p')
        if [ -n "$minor" ] && [ "$minor" -gt "$floor" ]; then
            new="$new $f"
        else
            old="$old $f"
        fi
    done
    [ -n "$new" ] || continue
    # $old and $new are lists of files: unquoted, they split.
    pkgs $old > "$tmp/old-pkgs"
    funcs $old > "$tmp/old-funcs"
    newpkgs=$(pkgs $new | comm -23 - "$tmp/old-pkgs")
    newfuncs=$(funcs $new | comm -23 - "$tmp/old-funcs")
    if [ "$mod" = . ]; then
        files=$(find . \( -path ./.git -o -path ./bench -o -path ./.bench_build -o -name testdata \) -prune -o \
            -name '*.go' ! -name '*_test.go' -print)
    else
        files=$(find bench \( -name testdata -o -name out \) -prune -o -name '*.go' ! -name '*_test.go' -print)
    fi
    [ -n "$files" ] || continue
    hits=$(awk -v newpkgs="$newpkgs" -v newfuncs="$newfuncs" -v floor="$floor" '
        BEGIN {
            n = split(newpkgs, a, /[ \n]+/)
            for (i = 1; i <= n; i++) if (a[i] != "") isnew[a[i]] = 1
            n = split(newfuncs, a, /[ \n]+/)
            for (i = 1; i <= n; i++) if (a[i] != "") isfunc[a[i]] = 1
        }
        FNR == 1 { inimport = 0; split("", local) }
        {
            line = $0
            sub(/\/\/.*/, "", line) # drop line comments
        }
        /^import \($/ { inimport = 1; next }
        inimport && /^\)/ { inimport = 0; next }
        inimport || /^import / {
            if (!match(line, /"[^"]+"/)) next
            path = substr(line, RSTART + 1, RLENGTH - 2)
            pre = substr(line, 1, RSTART - 1)
            sub(/^import /, "", pre)
            gsub(/[ \t]/, "", pre)
            name = pre
            if (name == "") {
                k = split(path, el, "/")
                name = el[k]
                if (name ~ /^v[0-9]+$/ && k > 1) name = el[k - 1]
            }
            local[name] = path
            if (path in isnew) printf "%s:%d: imports %s, newer than go 1.%s\n", FILENAME, FNR, path, floor
            next
        }
        {
            rest = line
            while (match(rest, /[A-Za-z_][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*/)) {
                tok = substr(rest, RSTART, RLENGTH)
                before = RSTART > 1 ? substr(rest, RSTART - 1, 1) : ""
                rest = substr(rest, RSTART + RLENGTH)
                if (before ~ /[A-Za-z0-9_.]/) continue # a field or method chain
                dot = index(tok, ".")
                name = substr(tok, 1, dot - 1)
                if (!(name in local)) continue
                fn = local[name] "." substr(tok, dot + 1)
                if (fn in isfunc) printf "%s:%d: calls %s, newer than go 1.%s\n", FILENAME, FNR, fn, floor
            }
        }
    ' $files)
    if [ -n "$hits" ]; then
        echo "$hits" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "standard-library API newer than the module's go line (see above)" >&2
    exit 1
fi
echo "api: no standard-library package or function newer than the go line"
