#!/usr/bin/env bash
# Alternating parent/change pairs of the repository benchmark
# (BENCHMARK.json, bench/README.md), judged with `bench compare`:
#
#   scripts/bench_pairs.sh PARENT WORKLOAD PAIRS [FIRST_SEED]
#   make bench-e2e-pairs PARENT=<rev> WORKLOAD=<w> PAIRS=<n> [FIRST_SEED=<s>]
#
# The parent side is `git archive PARENT` unpacked into a temporary
# directory; the change side is this working tree. Pair i (1..PAIRS) runs
# seed FIRST_SEED+i-1 (FIRST_SEED defaults to 1, so seeds no earlier
# measurement used can be run apart), the parent first when i is odd and the
# change first when it is even. Every run keeps bench's defaults
# (BENCHMARK.json's run length, the -out directory of its own tree) and
# appends to its side's record, parent.jsonl or change.jsonl in
# bench/.out/pairs-WORKLOAD, emptied of earlier records first. The records
# do not say which code they came from, so the script writes that to
# provenance there, and prints it: the parent's full hash, and this tree's
# HEAD, followed by "+dirty sha256:<sum>" when the tree differs from HEAD
# (<sum> covers `git diff HEAD` and the untracked files). Every run's exit
# status and `set-up times` line is printed; a failed run is counted, never
# retried, and makes the script exit non-zero after the comparison.
set -uo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 3 ] && [ $# -ne 4 ]; then
    echo "usage: $0 PARENT WORKLOAD PAIRS [FIRST_SEED]" >&2
    exit 2
fi
PARENT=$1 WORKLOAD=$2 PAIRS=$3 FIRST_SEED=${4:-1}
case $PAIRS in '' | *[!0-9]* | 0)
    echo "$0: PAIRS must be a positive integer, got '$PAIRS'" >&2
    exit 2
    ;;
esac
case $FIRST_SEED in '' | *[!0-9]*)
    echo "$0: FIRST_SEED must be a non-negative integer, got '$FIRST_SEED'" >&2
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
change=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain)" ]; then
    sum=$({
        git diff HEAD
        git ls-files -z --others --exclude-standard | xargs -0 -r sha256sum
    } | sha256sum | cut -c1-64)
    change="$change+dirty sha256:$sum"
fi
printf 'parent %s\nchange %s\n' "$(git rev-parse "$PARENT^{commit}")" "$change" | tee "$OUT/provenance"
echo "seeds $FIRST_SEED..$((FIRST_SEED + PAIRS - 1)); records in $OUT"

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
    printf 'seed %d %-6s exit %d  %s\n' "$seed" "$side" "$status" \
        "$(grep -m1 'set-up times' "$log" || echo 'no set-up times line')"
    if [ "$status" != 0 ]; then
        failed=$((failed + 1))
        echo "  failed; its output is in $log" >&2
    fi
}

for i in $(seq 1 "$PAIRS"); do
    seed=$((FIRST_SEED + i - 1))
    if [ $((i % 2)) = 1 ]; then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
done

go run ./bench compare "$OUT/parent.jsonl" "$OUT/change.jsonl"
compared=$?
if [ "$failed" != 0 ]; then
    echo "$0: $failed of $((2 * PAIRS)) runs failed" >&2
    exit 1
fi
exit "$compared"
