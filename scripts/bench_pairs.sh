#!/usr/bin/env bash
# Alternating parent/change pairs of the repository benchmark
# (BENCHMARK.json, bench/README.md), judged with `bench compare`:
#
#   scripts/bench_pairs.sh PARENT WORKLOAD PAIRS
#   make bench-e2e-pairs PARENT=<rev> WORKLOAD=<w> PAIRS=<n>
#
# The parent side is `git archive PARENT` unpacked into a temporary
# directory; the change side is this working tree. Pair i runs seed i, the
# parent first when i is odd and the change first when it is even. Every run
# keeps bench's defaults (BENCHMARK.json's run length, the -out directory of
# its own tree) and appends to its side's record, parent.jsonl or
# change.jsonl in bench/.out/pairs-WORKLOAD, emptied of earlier records
# first. Every run's exit status and `set-up times` line is printed; a
# failed run is counted, never retried, and makes the script exit non-zero
# after the comparison.
set -uo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 3 ]; then
    echo "usage: $0 PARENT WORKLOAD PAIRS" >&2
    exit 2
fi
PARENT=$1 WORKLOAD=$2 PAIRS=$3
case $PAIRS in '' | *[!0-9]* | 0)
    echo "$0: PAIRS must be a positive integer, got '$PAIRS'" >&2
    exit 2
    ;;
esac

CHANGE=$PWD
OUT=$CHANGE/bench/.out/pairs-$WORKLOAD
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
mkdir -p "$TMP/parent" "$OUT"
if ! git archive "$PARENT" | tar -x -C "$TMP/parent"; then
    echo "$0: cannot archive $PARENT" >&2
    exit 2
fi
rm -f "$OUT/parent.jsonl" "$OUT/change.jsonl"
echo "parent $(git rev-parse --short "$PARENT") vs the working tree; records in $OUT"

failed=0
# run SIDE SEED: one benchmark run of SIDE (parent or change), its output
# kept in OUT/SIDE-SEED.log.
run() {
    local side=$1 seed=$2 tree=$CHANGE
    [ "$side" = parent ] && tree=$TMP/parent
    local log=$OUT/$side-$seed.log status
    (cd "$tree" && go run ./bench -workload "$WORKLOAD" -seed "$seed" -record "$OUT/$side.jsonl") \
        >"$log" 2>&1
    status=$?
    printf 'pair %d %-6s exit %d  %s\n' "$seed" "$side" "$status" \
        "$(grep -m1 'set-up times' "$log" || echo 'no set-up times line')"
    if [ "$status" != 0 ]; then
        failed=$((failed + 1))
        echo "  failed; its output is in $log" >&2
    fi
}

for i in $(seq 1 "$PAIRS"); do
    if [ $((i % 2)) = 1 ]; then
        run parent "$i"
        run change "$i"
    else
        run change "$i"
        run parent "$i"
    fi
done

go run ./bench compare "$OUT/parent.jsonl" "$OUT/change.jsonl"
compared=$?
if [ "$failed" != 0 ]; then
    echo "$0: $failed of $((2 * PAIRS)) runs failed" >&2
    exit 1
fi
exit "$compared"
