#!/bin/sh
# Distributed sharded checking driver. Starts a shared blob cache server
# (`golclint -cache-serve`), launches n concurrent golclint worker
# processes that partition the module list with `-shard i/n` and
# coordinate only through the shared cache, merges their diag-jsonl
# streams with a plain `sort`, and verifies the merged stream is
# byte-identical to a single-process run. A second (warm) fleet pass then
# re-checks everything and asserts the shared remote store actually served
# hits — the property the distributed speedup rests on.
#
# Usage: scripts/shard.sh [n [file.c ...]]
#   n       shard count (default 2)
#   file.c  modules to check (default testdata/corpus/*.c)
set -eu

cd "$(dirname "$0")/.."

N="${1:-2}"
[ $# -gt 0 ] && shift
if [ $# -gt 0 ]; then
    FILES="$*"
else
    FILES=$(ls testdata/corpus/*.c)
fi

PORT="${SHARD_PORT:-7811}"
WORK=$(mktemp -d)
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

go build -o "$WORK/golclint" ./cmd/golclint

"$WORK/golclint" -cache-serve "127.0.0.1:$PORT" -cache-dir "$WORK/blobstore" 2> "$WORK/server.log" &
SERVER_PID=$!
ok=""
for i in $(seq 1 50); do
    if curl -sf "http://127.0.0.1:$PORT/healthz" > /dev/null 2>&1; then ok=1; break; fi
    sleep 0.1
done
[ -n "$ok" ] || { echo "shard.sh: cache server did not come up" >&2; cat "$WORK/server.log" >&2; exit 1; }

# Single-process reference stream (-shard 0/1 walks the same per-module
# loop the workers do, so its diag-jsonl is the golden merge target).
"$WORK/golclint" -shard 0/1 -cache-dir "$WORK/single-cache" \
    -diag-jsonl "$WORK/single.jsonl" $FILES > "$WORK/single.out" || [ $? -eq 1 ]
sort "$WORK/single.jsonl" > "$WORK/single.sorted"

# fleet pass [label]: N concurrent worker processes sharing one local
# cache dir and the remote store; merged sorted streams land in
# $WORK/<label>.sorted and worker exit codes are checked.
fleet() {
    label="$1"
    i=0
    while [ "$i" -lt "$N" ]; do
        (
            set +e
            "$WORK/golclint" -shard "$i/$N" -cache-dir "$WORK/shared-cache" \
                -remote-cache "127.0.0.1:$PORT" \
                -diag-jsonl "$WORK/$label-shard$i.jsonl" $FILES \
                > "$WORK/$label-shard$i.out" 2> "$WORK/$label-shard$i.err"
            echo $? > "$WORK/$label-shard$i.code"
        ) &
        i=$((i + 1))
    done
    i=0
    while [ "$i" -lt "$N" ]; do
        while [ ! -s "$WORK/$label-shard$i.code" ]; do sleep 0.05; done
        code=$(cat "$WORK/$label-shard$i.code")
        if [ "$code" -gt 1 ]; then
            echo "shard.sh: $label worker $i/$N exited $code" >&2
            cat "$WORK/$label-shard$i.err" >&2
            exit 1
        fi
        i=$((i + 1))
    done
    cat "$WORK/$label"-shard*.jsonl | sort > "$WORK/$label.sorted"
}

fleet cold
cmp "$WORK/single.sorted" "$WORK/cold.sorted" || {
    echo "shard.sh: cold merged stream differs from single-process run" >&2; exit 1; }
echo "shard.sh: cold $N-shard merge identical to single-process run ($(wc -l < "$WORK/cold.sorted") diagnostics)"

# Warm pass from fresh local disks: everything must come from the remote.
rm -rf "$WORK/shared-cache"
fleet warm
cmp "$WORK/single.sorted" "$WORK/warm.sorted" || {
    echo "shard.sh: warm merged stream differs from single-process run" >&2; exit 1; }

HITS=$(curl -sf "http://127.0.0.1:$PORT/stats" | jq -r .store.hits)
[ "$HITS" -gt 0 ] || { echo "shard.sh: warm fleet produced no remote cache hits" >&2; exit 1; }
echo "shard.sh: warm $N-shard merge identical; remote store served $HITS hits"
