#!/usr/bin/env bash
# Soak test: run a race-instrumented goalrecd under sustained overload and
# check the request-lifecycle contract end to end:
#
#   - loadgen -overload hammers the daemon past its -max-inflight gate;
#     every response must be 200, 503 (shed) or 504 (deadline) — anything
#     else fails the run (loadgen exits nonzero).
#   - the daemon must survive the whole run with the race detector silent
#     and shut down cleanly on SIGTERM (exit code 0).
#   - a second loadgen phase (-users) drives the per-user store: interleaved
#     appends and stored-history recommends across SOAK_USERS users, racing
#     the -watch reload loop.
#
# Tunables (env): SOAK_DURATION (default 30s), SOAK_USER_DURATION (default
# 15s), SOAK_RESTART_DURATION (default 10s), SOAK_USERS (default 200),
# SOAK_LIBRARY, SOAK_ADDR.
#
# Memory-capped mode: SOAK_SNAPSHOT=1 runs the daemon over a durable store
# with a small compaction threshold, then — after the overload phases —
# restarts it on the compacted store and asserts that it recovered from the
# memory-mapped snapshot rather than replaying the whole WAL (pair it with
# GOMEMLIMIT to soak mapped serving under a heap cap).
set -euo pipefail
cd "$(dirname "$0")/.."

DURATION="${SOAK_DURATION:-30s}"
USER_DURATION="${SOAK_USER_DURATION:-15s}"
USERS="${SOAK_USERS:-200}"
ADDR="${SOAK_ADDR:-127.0.0.1:18080}"

TMP="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

# A library big enough that scoring (not HTTP plumbing) is the bottleneck —
# otherwise the admission gate never fills and shedding goes unexercised.
LIB="${SOAK_LIBRARY:-$TMP/soak.jsonl}"
if [ ! -f "$LIB" ]; then
    echo "soak: generating synthetic library"
    awk 'BEGIN{
        srand(7)
        for (i = 0; i < 50000; i++) {
            n = 3 + int(rand() * 6)
            printf "{\"goal\":\"g%d\",\"actions\":[", i % 20000
            for (j = 0; j < n; j++)
                printf "%s\"a%d\"", (j ? "," : ""), int(rand() * 500)
            print "]}"
        }
    }' >"$LIB"
fi

STORE_FLAGS=()
if [ -n "${SOAK_SNAPSHOT:-}" ]; then
    # The seed swap is persisted as a snapshot, and a small threshold makes
    # the store compact the user-phase WAL into fresh ones.
    STORE_FLAGS+=(-snapshot-dir "$TMP/store" -compact-wal-bytes 1048576)
fi

echo "soak: building race-instrumented goalrecd and loadgen"
go build -race -o "$TMP/goalrecd" ./cmd/goalrecd
go build -o "$TMP/loadgen" ./cmd/loadgen

start_daemon() {
    "$TMP/goalrecd" -library "$LIB" -addr "$ADDR" -quiet \
        -max-inflight 2 -admission-wait 200us -request-timeout 250ms \
        -watch 100ms ${STORE_FLAGS[@]+"${STORE_FLAGS[@]}"} 2>>"$TMP/goalrecd.log" &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "soak: daemon never became ready" >&2
    cat "$TMP/goalrecd.log" >&2
    exit 1
}

stop_daemon() {
    kill -TERM "$DAEMON_PID"
    if ! wait "$DAEMON_PID"; then
        echo "soak: daemon exited uncleanly (race detected or unclean shutdown)" >&2
        cat "$TMP/goalrecd.log" >&2
        exit 1
    fi
    DAEMON_PID=""
}

start_daemon

echo "soak: overloading for $DURATION"
"$TMP/loadgen" -url "http://$ADDR" -library "$LIB" -overload \
    -concurrency 16 -duration "$DURATION" -strategy best-match

echo "soak: user-store phase for $USER_DURATION (append/recommend over $USERS users)"
"$TMP/loadgen" -url "http://$ADDR" -library "$LIB" -overload \
    -concurrency 16 -duration "$USER_DURATION" -strategy breadth -users "$USERS"

echo "soak: final metrics"
METRICS="$(curl -fsS "http://$ADDR/v1/metrics")"
echo "$METRICS"

if [ -n "${SOAK_SNAPSHOT:-}" ]; then
    # Wait for a snapshot so the restart can recover from it rather than
    # replaying the whole WAL.
    compacted=""
    for _ in $(seq 1 100); do
        if ls "$TMP/store"/snap-*.gsnp >/dev/null 2>&1; then
            compacted=1
            break
        fi
        sleep 0.1
    done
    if [ -z "$compacted" ]; then
        echo "soak: store never compacted into a snapshot" >&2
        cat "$TMP/goalrecd.log" >&2
        exit 1
    fi
    stop_daemon
    LOG_MARK="$(wc -l <"$TMP/goalrecd.log")"
    echo "soak: restarting on the compacted store (mmap snapshot + WAL tail)"
    start_daemon
    "$TMP/loadgen" -url "http://$ADDR" -library "$LIB" -overload \
        -concurrency 16 -duration "${SOAK_RESTART_DURATION:-10s}" -strategy breadth
    METRICS="$(curl -fsS "http://$ADDR/v1/metrics")"
    echo "$METRICS"
    # Recovery adopted the snapshot: the served library is mapped, and any
    # WAL replay started on top of the snapshot's epoch, never from epoch 0.
    RESTART_LOG="$(tail -n +"$((LOG_MARK + 1))" "$TMP/goalrecd.log")"
    if ! echo "$METRICS" | grep -q '"library":{"backing":"mapped"'; then
        echo "soak: restarted daemon does not serve a mapped snapshot" >&2
        echo "$RESTART_LOG" >&2
        exit 1
    fi
    if ! echo "$RESTART_LOG" | grep -q 'recovered store .* at epoch [1-9]' ||
        echo "$RESTART_LOG" | grep -q 'on top of epoch 0,'; then
        echo "soak: restart replayed the whole WAL instead of adopting the snapshot" >&2
        echo "$RESTART_LOG" >&2
        exit 1
    fi
fi

echo "soak: sending SIGTERM"
stop_daemon
echo "soak: clean shutdown, PASS"
