#!/usr/bin/env bash
# Restart-replay smoke: the durability contract end to end, on a
# race-instrumented goalrecd.
#
#   1. start goalrecd with -snapshot-dir on an empty directory
#   2. ingest several batches over POST /v1/implementations, record the
#      acknowledged epoch and a recommendation response
#   3. SIGTERM the daemon (clean shutdown; the WAL stays non-empty — the
#      store compacts on size, not on exit, so restart genuinely replays)
#   4. restart on the same directory and assert the epoch and the exact
#      recommendation JSON survived
#   5. ingest once more to prove the recovered lineage keeps advancing
#   6. seed a second, empty store from a copy of data/samples/recipes.jsonl
#      (-library: the store persists the seed as a hard link to the
#      library's sidecar, which the script checks by inode), ingest once,
#      SIGTERM, delete the library and its sidecar, restart with
#      -snapshot-dir alone and assert the epoch and the exact recommendation
#      JSON survived, then `goalrec-snap verify` the store's snapshots: the
#      seeded snapshot stands without the sidecar's name
#
# Tunables (env): RR_ADDR (default 127.0.0.1:18091).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${RR_ADDR:-127.0.0.1:18091}"

TMP="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "restart-replay: building race-instrumented goalrecd"
go build -race -o "$TMP/goalrecd" ./cmd/goalrecd

start_daemon() { # start_daemon <store-dir> [flag...]
    local store="$1"
    shift
    "$TMP/goalrecd" -addr "$ADDR" -quiet -snapshot-dir "$store" "$@" \
        2>>"$TMP/goalrecd.log" &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "restart-replay: daemon never became ready" >&2
    cat "$TMP/goalrecd.log" >&2
    exit 1
}

stop_daemon() {
    kill -TERM "$DAEMON_PID"
    if ! wait "$DAEMON_PID"; then
        echo "restart-replay: daemon exited uncleanly (race or shutdown failure)" >&2
        cat "$TMP/goalrecd.log" >&2
        exit 1
    fi
    DAEMON_PID=""
}

ingest() { # ingest <batch-json>  -> prints acknowledged epoch
    curl -fsS -X POST "http://$ADDR/v1/implementations" \
        -H 'Content-Type: application/json' -d "$1" |
        sed -n 's/.*"epoch":\([0-9]*\).*/\1/p'
}

recommend() {
    curl -fsS -X POST "http://$ADDR/v1/recommend" \
        -H 'Content-Type: application/json' \
        -d '{"activity":["flour","eggs"],"strategy":"breadth","k":5}'
}

start_daemon "$TMP/store"

echo "restart-replay: ingesting three batches"
ingest '{"implementations":[
  {"goal":"pancakes","actions":["flour","eggs","milk"]},
  {"goal":"omelette","actions":["eggs","butter"]}]}' >/dev/null
ingest '{"implementations":[
  {"goal":"crepes","actions":["flour","eggs","milk","butter"]},
  {"goal":"scrambled eggs","actions":["eggs","milk"]}]}' >/dev/null
EPOCH_BEFORE="$(ingest '{"implementations":[
  {"goal":"pasta","actions":["flour","eggs","water"]}]}')"
REC_BEFORE="$(recommend)"
echo "restart-replay: epoch $EPOCH_BEFORE before restart"

if [ ! -s "$TMP/store/ingest.wal" ]; then
    echo "restart-replay: WAL missing or empty before restart" >&2
    exit 1
fi

stop_daemon
echo "restart-replay: restarting on the same store"
start_daemon "$TMP/store"

EPOCH_AFTER="$(curl -fsS "http://$ADDR/v1/stats" | sed -n 's/.*"epoch":\([0-9]*\).*/\1/p')"
REC_AFTER="$(recommend)"

if [ "$EPOCH_AFTER" != "$EPOCH_BEFORE" ]; then
    echo "restart-replay: epoch rolled back: $EPOCH_BEFORE -> $EPOCH_AFTER" >&2
    cat "$TMP/goalrecd.log" >&2
    exit 1
fi
# The epoch field inside the recommendation response is part of both
# captures, so byte-equality also re-checks the epoch.
if [ "$REC_AFTER" != "$REC_BEFORE" ]; then
    echo "restart-replay: rankings changed across restart" >&2
    echo "before: $REC_BEFORE" >&2
    echo "after:  $REC_AFTER" >&2
    exit 1
fi

EPOCH_NEXT="$(ingest '{"implementations":[
  {"goal":"waffles","actions":["flour","eggs","milk","sugar"]}]}')"
if [ "$EPOCH_NEXT" -le "$EPOCH_AFTER" ]; then
    echo "restart-replay: post-restart ingest did not advance the epoch" >&2
    exit 1
fi

stop_daemon
echo "restart-replay: epoch $EPOCH_BEFORE survived restart, rankings identical"

echo "restart-replay: seeding an empty store from a copy of data/samples/recipes.jsonl"
mkdir "$TMP/seed"
cp data/samples/recipes.jsonl "$TMP/seed/recipes.jsonl"
start_daemon "$TMP/seeded" -library "$TMP/seed/recipes.jsonl"
SEED_EPOCH="$(ingest '{"implementations":[
  {"goal":"shakshuka","actions":["eggs","tomatoes","onions","peppers"]}]}')"
SEED_REC="$(recommend)"
stop_daemon
if grep -q "serialised, not copied" "$TMP/goalrecd.log"; then
    echo "restart-replay: the seed was serialised, not copied from its sidecar" >&2
    cat "$TMP/goalrecd.log" >&2
    exit 1
fi
SIDECAR_INODE="$(stat -c %i "$TMP/seed/recipes.jsonl.gsnp")"
SEED_INODE="$(stat -c %i "$TMP/seeded/snap-0000000000000001.gsnp")"
if [ "$SEED_INODE" != "$SIDECAR_INODE" ]; then
    echo "restart-replay: the seeded snapshot (inode $SEED_INODE) is not a link to the sidecar (inode $SIDECAR_INODE)" >&2
    cat "$TMP/goalrecd.log" >&2
    exit 1
fi

rm "$TMP/seed/recipes.jsonl" "$TMP/seed/recipes.jsonl.gsnp"
echo "restart-replay: the seeded snapshot is the sidecar's inode $SIDECAR_INODE; library and sidecar deleted, restarting on the store alone"
start_daemon "$TMP/seeded"
SEED_EPOCH_AFTER="$(curl -fsS "http://$ADDR/v1/stats" | sed -n 's/.*"epoch":\([0-9]*\).*/\1/p')"
SEED_REC_AFTER="$(recommend)"
stop_daemon
if [ "$SEED_EPOCH_AFTER" != "$SEED_EPOCH" ]; then
    echo "restart-replay: seeded store's epoch moved: $SEED_EPOCH -> $SEED_EPOCH_AFTER" >&2
    cat "$TMP/goalrecd.log" >&2
    exit 1
fi
if [ "$SEED_REC_AFTER" != "$SEED_REC" ]; then
    echo "restart-replay: seeded store's rankings changed across restart" >&2
    echo "before: $SEED_REC" >&2
    echo "after:  $SEED_REC_AFTER" >&2
    exit 1
fi
for snap in "$TMP"/seeded/snap-*.gsnp; do
    go run ./cmd/goalrec-snap verify "$snap"
done

echo "restart-replay: epoch $EPOCH_BEFORE survived restart; seeded store at epoch $SEED_EPOCH survived without its library; rankings identical, PASS"
