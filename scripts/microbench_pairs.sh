#!/usr/bin/env bash
# Interleaved parent/change rounds of a Go micro-benchmark, judged by a sign
# test over the rounds:
#
#   scripts/microbench_pairs.sh PARENT PKG BENCH ROUNDS
#   make microbench-pairs PARENT=<rev> PKG=./internal/core BENCH=ReadJSONLines ROUNDS=8
#
# The parent side is `git archive PARENT` unpacked into a temporary
# directory; the change side is this working tree. Each side's PKG is built
# once with `go test -c`, and the two test binaries then run alternately,
# the parent first in odd rounds and the change first in even ones, each run
# `-test.run '^$' -test.bench BENCH -test.count 1 -test.benchmem
# -test.timeout 30m` from its package directory, with the same GOMAXPROCS
# (BENCHTIME, when set, is passed as -test.benchtime).
# Every run's benchmark lines are printed as they come. Then, per benchmark
# and per metric (ns/op, B/op, allocs/op), the script prints both sides'
# medians, the change's change in per cent, how many rounds the change won
# (lower is a win; equal rounds are ties), and the exact two-sided sign-test
# p over the rounds that were not ties. A metric is "moved" when p < 0.05;
# a metric whose rounds all agree on each side is marked "exact". A failed
# build or run makes the script exit non-zero.
set -uo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 4 ]; then
    echo "usage: $0 PARENT PKG BENCH ROUNDS" >&2
    exit 2
fi
PARENT=$1 PKG=$2 BENCH=$3 ROUNDS=$4
case $ROUNDS in '' | *[!0-9]* | 0)
    echo "$0: ROUNDS must be a positive integer, got '$ROUNDS'" >&2
    exit 2
    ;;
esac
case $PKG in ./*) ;; *) PKG=./$PKG ;; esac

CHANGE=$PWD
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
mkdir -p "$TMP/parent"
if ! git archive "$PARENT" | tar -x -C "$TMP/parent"; then
    echo "$0: cannot archive $PARENT" >&2
    exit 2
fi
echo "parent $(git rev-parse --short "$PARENT") vs the working tree: $PKG -bench '$BENCH', $ROUNDS rounds"

for side in parent change; do
    tree=$CHANGE
    [ "$side" = parent ] && tree=$TMP/parent
    if ! (cd "$tree" && go test -c -o "$TMP/$side.test" "$PKG"); then
        echo "$0: cannot build the $side's test binary" >&2
        exit 1
    fi
done

# run SIDE ROUND: one run of SIDE's binary; its benchmark lines go to
# TMP/results as "SIDE ROUND line".
run() {
    local side=$1 round=$2 tree=$CHANGE
    [ "$side" = parent ] && tree=$TMP/parent
    local out
    out=$(cd "$tree/$PKG" && "$TMP/$side.test" -test.run '^$' -test.bench "$BENCH" \
        -test.count 1 -test.benchmem -test.timeout 30m ${BENCHTIME:+-test.benchtime "$BENCHTIME"} 2>&1)
    local status=$?
    if [ "$status" != 0 ]; then
        echo "$out" >&2
        echo "$0: round $round: the $side's run exited $status" >&2
        exit 1
    fi
    echo "$out" | grep '^Benchmark' | while read -r line; do
        printf 'round %d %-6s %s\n' "$round" "$side" "$line"
        echo "$side $round $line" >>"$TMP/results"
    done
}

for i in $(seq 1 "$ROUNDS"); do
    if [ $((i % 2)) = 1 ]; then
        run parent "$i"
        run change "$i"
    else
        run change "$i"
        run parent "$i"
    fi
done
[ -s "$TMP/results" ] || { echo "$0: no benchmark matched '$BENCH'" >&2; exit 1; }

awk '
# Lines: SIDE ROUND NAME N VALUE UNIT VALUE UNIT ...
{
    if (!($3 in seen)) { seen[$3] = 1; names[++nn] = $3 }
    for (i = 5; i < NF; i += 2) {
        u = $(i + 1)
        if (u != "ns/op" && u != "B/op" && u != "allocs/op") continue
        v[$1, $3, u, $2] = $i
        rounds[$2] = 1
    }
}
function median(side, name, u,    a, n, r, i, j, x) {
    n = 0
    for (r in rounds) if ((side, name, u, r) in v) a[++n] = v[side, name, u, r] + 0
    for (i = 2; i <= n; i++) { x = a[i]; for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]; a[j + 1] = x }
    if (n == 0) return ""
    return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
function fmtv(x) { return x >= 1000 ? sprintf("%.0f", x) : sprintf("%.4g", x) }
# signp is the exact two-sided sign-test p of w wins and l losses.
function signp(w, l,    n, k, c, s, m) {
    n = w + l
    if (n == 0) return 1
    m = w < l ? w : l
    c = 1; s = 0
    for (k = 0; k <= m; k++) { s += c; c = c * (n - k) / (k + 1) }
    s = 2 * s / 2 ^ n
    return s > 1 ? 1 : s
}
END {
    for (b = 1; b <= nn; b++) {
        name = names[b]
        print name
        split("ns/op B/op allocs/op", units, " ")
        for (k = 1; k <= 3; k++) {
            u = units[k]
            w = l = t = 0; exact = 1; p0 = c0 = ""
            for (r in rounds) {
                if (!(("parent", name, u, r) in v) || !(("change", name, u, r) in v)) continue
                p = v["parent", name, u, r] + 0; c = v["change", name, u, r] + 0
                if (p0 == "") { p0 = p; c0 = c }
                if (p != p0 || c != c0) exact = 0
                if (c < p) w++; else if (c > p) l++; else t++
            }
            if (w + l + t == 0) continue
            pm = median("parent", name, u); cm = median("change", name, u)
            pct = pm != 0 ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "n/a"
            pv = signp(w, l)
            printf "  %-9s parent %12s  change %12s  %8s  change wins %d/%d (ties %d)  p=%.4f  %s%s\n", \
                u, fmtv(pm), fmtv(cm), pct, w, w + l + t, t, pv, pv < 0.05 ? "moved" : "not moved", exact ? " (exact)" : ""
        }
    }
}' "$TMP/results"
