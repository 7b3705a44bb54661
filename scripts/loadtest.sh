#!/usr/bin/env bash
# loadtest.sh — end-to-end durability and sustained-load smoke against a real
# pdpad process. Three phases:
#
#   1. Durability: submit runs, kill -9 the daemon mid-life, restart on the
#      same store directory, and require the paginated run list to return
#      every previously completed run with a byte-identical status body.
#   2. Load: a pdpaload soak with more closed-loop workers than the daemon's
#      queue bound, asserting completions, observed 429+Retry-After shedding,
#      a p99 bound, and zero contract violations or leaked goroutines.
#   3. Shutdown: SIGTERM must drain and exit cleanly.
#
# Environment knobs:
#   LOADTEST_PORT      listen port                  (default 18080)
#   LOADTEST_DURATION  soak length for phase 2      (default 5s)
#   LOADTEST_WORKERS   soak concurrency for phase 2 (default 16)
set -euo pipefail
cd "$(dirname "$0")/.."

port=${LOADTEST_PORT:-18080}
addr="http://127.0.0.1:$port"
duration=${LOADTEST_DURATION:-5s}
workers=${LOADTEST_WORKERS:-16}

work=$(mktemp -d)
daemon_pid=""
cleanup() {
    [[ -n "$daemon_pid" ]] && kill -9 "$daemon_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$work/pdpad" ./cmd/pdpad
go build -o "$work/pdpaload" ./cmd/pdpaload

start_daemon() {
    # A deliberately small pool (-queue 4, a fraction of the soak's
    # worker count) so phase 2's closed-loop soak reliably drives the shed
    # path; -store-sync 10ms keeps the durability window short for phase 1's
    # sleep.
    "$work/pdpad" -addr "127.0.0.1:$port" -store "$work/store" -store-sync 10ms \
        -base 2 -max 4 -warmup 10ms -queue 4 >>"$work/pdpad.log" 2>&1 &
    daemon_pid=$!
    for _ in $(seq 1 100); do
        if curl -fsS "$addr/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "FAIL: daemon never answered /healthz" >&2
    cat "$work/pdpad.log" >&2
    exit 1
}

wait_done() { # id -> polls until the run is terminal
    local id=$1 state
    for _ in $(seq 1 300); do
        state=$(curl -fsS "$addr/v1/runs/$id" | jq -r .state)
        case "$state" in
        done) return 0 ;;
        failed | canceled)
            echo "FAIL: run $id reached $state" >&2
            exit 1
            ;;
        esac
        sleep 0.1
    done
    echo "FAIL: run $id never finished" >&2
    exit 1
}

echo "== phase 1: durability across kill -9"
start_daemon
ids=()
for seed in 101 102 103; do
    id=$(curl -fsS "$addr/v1/runs" -d \
        "{\"workload\":{\"mix\":\"w1\",\"load\":0.5,\"window_s\":30,\"seed\":$seed},\"options\":{\"policy\":\"equip\"}}" |
        jq -r .id)
    ids+=("$id")
done
for id in "${ids[@]}"; do
    wait_done "$id"
    curl -fsS "$addr/v1/runs/$id" >"$work/before-$id.json"
done

sleep 1 # > -store-sync 10ms: completed runs are on disk
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
echo "   killed -9, restarting on the same store"
start_daemon

# Cursor-walk the paginated run list and require every pre-kill run back.
listed=$(
    cursor=""
    while :; do
        url="$addr/v1/runs?limit=2"
        [[ -n "$cursor" ]] && url="$url&cursor=$cursor"
        page=$(curl -fsS "$url")
        jq -r '.runs[].id' <<<"$page"
        cursor=$(jq -r '.next_cursor // empty' <<<"$page")
        [[ -z "$cursor" ]] && break
    done
)
for id in "${ids[@]}"; do
    if ! grep -qx "$id" <<<"$listed"; then
        echo "FAIL: recovered run list is missing $id (got: $listed)" >&2
        exit 1
    fi
    curl -fsS "$addr/v1/runs/$id" >"$work/after-$id.json"
    if ! cmp -s "$work/before-$id.json" "$work/after-$id.json"; then
        echo "FAIL: run $id body changed across restart:" >&2
        diff "$work/before-$id.json" "$work/after-$id.json" >&2 || true
        exit 1
    fi
done
echo "   ${#ids[@]} runs byte-identical across kill -9 + restart"

echo "== phase 2: sustained load ($workers workers for $duration)"
"$work/pdpaload" -addr "$addr" -duration "$duration" -workers "$workers" \
    -min-completed 5 -require-shed -max-p99 30s

echo "== phase 3: clean SIGTERM shutdown"
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=""
if [[ $rc -ne 0 ]]; then
    echo "FAIL: daemon exited $rc on SIGTERM" >&2
    tail -n 20 "$work/pdpad.log" >&2
    exit 1
fi
grep -q "pdpad: bye" "$work/pdpad.log" || {
    echo "FAIL: daemon log missing clean-shutdown marker" >&2
    exit 1
}

echo "loadtest: durability, shedding, and clean shutdown all verified"
