#!/usr/bin/env bash
# Cluster test: a race-instrumented 3-worker scatter-gather cluster next to a
# single-node reference serving the same artifact, checked end to end:
#
#   - every probe body (all four strategies, metric variants, batch, and the
#     error cases) must come back BYTE-identical from the coordinator and the
#     reference — the distributed ranking contract;
#   - a loadgen run (8 clients, 400 best-match requests) hammers the
#     coordinator with zero non-200s;
#   - SIGKILL of a shard worker mid-traffic must degrade, not fail: responses
#     carry "degraded":true, partial_failures moves, and after the worker
#     restarts the coordinator reattaches and rankings are bit-identical
#     again;
#   - a cluster-wide two-phase snapshot swap driven under load (POST
#     /v1/reload on the coordinator while loadgen runs) must commit on every
#     node, land everyone on the same epoch, and stay bit-identical to the
#     reloaded reference.
#
# Tunables (env): CLUSTER_DURATION (default 5s, the under-load swap phase),
# CLUSTER_BASE_PORT (default 18090).
set -euo pipefail
cd "$(dirname "$0")/.."

DURATION="${CLUSTER_DURATION:-5s}"
BASE="${CLUSTER_BASE_PORT:-18090}"
REF_ADDR="127.0.0.1:$BASE"
CO_ADDR="127.0.0.1:$((BASE + 1))"
W_HTTP=("127.0.0.1:$((BASE + 2))" "127.0.0.1:$((BASE + 3))" "127.0.0.1:$((BASE + 4))")
W_SHARD=("127.0.0.1:$((BASE + 5))" "127.0.0.1:$((BASE + 6))" "127.0.0.1:$((BASE + 7))")
RANGES=("0:7000" "7000:14000" "14000:-1")

TMP="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "cluster: $*" >&2
    for log in "$TMP"/*.log; do
        echo "--- $log" >&2
        tail -20 "$log" >&2
    done
    exit 1
}

gen_library() { # gen_library <implementations> <file>
    awk -v n="$1" 'BEGIN{
        srand(11)
        for (i = 0; i < n; i++) {
            m = 2 + int(rand() * 5)
            printf "{\"goal\":\"g%d\",\"actions\":[", i % 8000
            for (j = 0; j < m; j++)
                printf "%s\"a%d\"", (j ? "," : ""), int(rand() * 400)
            print "]}"
        }
    }' >"$2"
}

LIB="$TMP/cluster.jsonl"
gen_library 20000 "$LIB"
# The post-swap artifact: the same library grown by 3000 implementations.
# Only the last shard range is open-ended, so growth lands there.
cp "$LIB" "$TMP/cluster2.jsonl"
gen_library 3000 "$TMP/extra.jsonl"
cat "$TMP/extra.jsonl" >>"$TMP/cluster2.jsonl"

echo "cluster: building race-instrumented goalrecd and loadgen"
go build -race -o "$TMP/goalrecd" ./cmd/goalrecd
go build -o "$TMP/loadgen" ./cmd/loadgen

wait_ready() { # wait_ready <url>
    for _ in $(seq 1 150); do
        if curl -fsS "$1" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    fail "$1 never became ready"
}

start_worker() { # start_worker <index>
    local i="$1"
    "$TMP/goalrecd" -library "$LIB" -quiet \
        -role worker -addr "${W_HTTP[$i]}" \
        -cluster-addr "${W_SHARD[$i]}" -shard-range "${RANGES[$i]}" \
        2>>"$TMP/worker$i.log" &
    WORKER_PIDS[$i]=$!
    PIDS+=($!)
}

echo "cluster: starting single-node reference, 3 shard workers, coordinator"
"$TMP/goalrecd" -library "$LIB" -addr "$REF_ADDR" -quiet 2>>"$TMP/ref.log" &
PIDS+=($!)
declare -a WORKER_PIDS
for i in 0 1 2; do start_worker "$i"; done
for i in 0 1 2; do wait_ready "http://${W_HTTP[$i]}/readyz"; done
"$TMP/goalrecd" -library "$LIB" -quiet \
    -role coordinator -addr "$CO_ADDR" \
    -peers "${W_SHARD[0]},${W_SHARD[1]},${W_SHARD[2]}" \
    -heartbeat 500ms 2>>"$TMP/coordinator.log" &
PIDS+=($!)
wait_ready "http://$REF_ADDR/readyz"
wait_ready "http://$CO_ADDR/readyz"

PROBES=(
    '{"activity":["a1","a2","a3"],"strategy":"focus-cmp","k":5}'
    '{"activity":["a1","a2","a3"],"strategy":"focus-cl","k":7}'
    '{"activity":["a5","a9"],"strategy":"breadth","k":10}'
    '{"activity":["a5","a9","a17"],"strategy":"best-match","k":10}'
    '{"activity":["a5","a9","a17"],"strategy":"best-match","metric":"jaccard","k":10}'
    '{"activity":["a1","zz-unknown"],"strategy":"breadth","k":5}'
    '{"activity":["a1"],"strategy":"no-such-strategy","k":5}'
    '{"activity":["a1"],"strategy":"breadth","metric":"hamming","k":5}'
)
BATCH='{"activities":[["a1","a2"],["a5"],["a1","zz-unknown"]],"strategy":"focus-cmp","k":6}'

assert_identical() { # assert_identical <phase>
    local body ref co
    for body in "${PROBES[@]}"; do
        ref="$(curl -sS -X POST -H 'Content-Type: application/json' -d "$body" "http://$REF_ADDR/v1/recommend")"
        co="$(curl -sS -X POST -H 'Content-Type: application/json' -d "$body" "http://$CO_ADDR/v1/recommend")"
        if [ "$ref" != "$co" ]; then
            echo "probe: $body" >&2
            echo "reference:   $ref" >&2
            echo "coordinator: $co" >&2
            fail "$1: coordinator response diverged from single node"
        fi
    done
    ref="$(curl -sS -X POST -H 'Content-Type: application/json' -d "$BATCH" "http://$REF_ADDR/v1/recommend/batch")"
    co="$(curl -sS -X POST -H 'Content-Type: application/json' -d "$BATCH" "http://$CO_ADDR/v1/recommend/batch")"
    if [ "$ref" != "$co" ]; then
        fail "$1: batch response diverged from single node"
    fi
}

echo "cluster: checking bit-identical rankings (healthy, 3/3 workers)"
assert_identical "healthy"

echo "cluster: loadgen against the coordinator"
"$TMP/loadgen" -url "http://$CO_ADDR" -library "$LIB" \
    -concurrency 8 -requests 400 -strategy best-match

echo "cluster: SIGKILL worker 1 (shard ${RANGES[1]}) and checking degraded serving"
kill -9 "${WORKER_PIDS[1]}"
DEGRADED="$(curl -sS -X POST -H 'Content-Type: application/json' \
    -d '{"activity":["a1","a2","a3"],"strategy":"focus-cmp","k":5}' "http://$CO_ADDR/v1/recommend")"
case "$DEGRADED" in
*'"degraded":true'*) ;;
*) fail "response after worker kill is not degraded: $DEGRADED" ;;
esac
METRICS="$(curl -fsS "http://$CO_ADDR/v1/metrics")"
case "$METRICS" in
*'"partial_failures":0,'*) fail "partial_failures did not move after worker kill: $METRICS" ;;
esac

echo "cluster: restarting worker 1 and waiting for bit-identical resume"
start_worker 1
wait_ready "http://${W_HTTP[1]}/readyz"
resumed=""
for _ in $(seq 1 100); do
    co="$(curl -sS -X POST -H 'Content-Type: application/json' \
        -d '{"activity":["a1","a2","a3"],"strategy":"focus-cmp","k":5}' "http://$CO_ADDR/v1/recommend")"
    case "$co" in
    *'"degraded":true'*) sleep 0.2 ;;
    *)
        resumed=1
        break
        ;;
    esac
done
[ -n "$resumed" ] || fail "coordinator never reattached to the restarted worker"
assert_identical "rejoined"

echo "cluster: two-phase snapshot swap under load ($DURATION of traffic)"
cp "$TMP/cluster2.jsonl" "$LIB"
"$TMP/loadgen" -url "http://$CO_ADDR" -library "$LIB" \
    -concurrency 8 -duration "$DURATION" -strategy breadth >"$TMP/loadgen-swap.out" 2>&1 &
LG_PID=$!
PIDS+=($LG_PID)
sleep 1
curl -fsS -X POST "http://$CO_ADDR/v1/reload" || fail "cluster reload failed"
echo
curl -fsS -X POST "http://$REF_ADDR/v1/reload" >/dev/null || fail "reference reload failed"
if ! wait "$LG_PID"; then
    cat "$TMP/loadgen-swap.out" >&2
    fail "loadgen failed across the swap"
fi
cat "$TMP/loadgen-swap.out"

echo "cluster: checking bit-identical rankings on the swapped artifact (epoch 2)"
assert_identical "post-swap"
EPOCH="$(curl -sS -X POST -H 'Content-Type: application/json' \
    -d '{"activity":["a1"],"strategy":"breadth","k":3}' "http://$CO_ADDR/v1/recommend")"
case "$EPOCH" in
*'"epoch":2,'*) ;;
*) fail "post-swap response not at epoch 2: $EPOCH" ;;
esac

echo "cluster: final metrics"
METRICS="$(curl -fsS "http://$CO_ADDR/v1/metrics")"
echo "$METRICS"
case "$METRICS" in
*'"cluster":{"workers":3,"connected":3,'*) ;;
*) fail "cluster metrics block missing or not fully connected" ;;
esac
case "$METRICS" in
*'"scatters":0,'*) fail "scatters counter never moved" ;;
esac
case "$METRICS" in
*'"committed":1,'*) ;;
*) fail "two-phase swap not recorded as committed" ;;
esac
case "$METRICS" in
*'"floor_broadcasts":0,'*) fail "cross-node score floor never broadcast" ;;
esac

echo "cluster: PASS"
