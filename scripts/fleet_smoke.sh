#!/usr/bin/env bash
# fleet_smoke.sh — multi-process fleet failover rehearsal.
#
# Boots a real fleet (1 router owning the message center, 3 worker
# processes over TCP), submits runs slowed enough to stay in flight,
# SIGKILLs the worker executing the first run mid-flight, and requires:
#   * every submitted run still completes (state done),
#   * the failover counter says at least one run moved to a survivor,
#   * the eviction counter says the kill was noticed,
#   * a graceful fleet drain shuts every process down.
#
# Usage: scripts/fleet_smoke.sh [bind-host]
set -euo pipefail

HOST=${1:-127.0.0.1}
CTRL_PORT=17070
HTTP_PORT=19193
BASE="http://$HOST:$HTTP_PORT"
RUNS=3

WORK=$(mktemp -d)
BIN="$WORK/pragma-node"
declare -A WORKER_PID

cleanup() {
  for pid in "${WORKER_PID[@]-}" "${ROUTER_PID-}"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

json() { python3 -c "import json,sys; print(json.load(sys.stdin)$1)"; }

echo "== build"
go build -o "$BIN" ./cmd/pragma-node

echo "== start router"
"$BIN" router -serve "$HOST:$CTRL_PORT" -telemetry-addr "$HOST:$HTTP_PORT" \
  -checkpoint-root "$WORK/runs" -heartbeat-timeout 2s \
  >"$WORK/router.log" 2>&1 &
ROUTER_PID=$!

for i in $(seq 1 60); do
  if ! kill -0 "$ROUTER_PID" 2>/dev/null; then
    echo "router exited before serving" >&2; cat "$WORK/router.log" >&2; exit 1
  fi
  curl -fs "$BASE/healthz" >/dev/null && break
  sleep 0.5
done
curl -fs "$BASE/readyz" | grep -q '^ok$'

echo "== start 3 workers"
for i in 1 2 3; do
  "$BIN" worker -join "$HOST:$CTRL_PORT" -id "w$i" -slots 2 \
    -heartbeat 200ms >"$WORK/w$i.log" 2>&1 &
  WORKER_PID[w$i]=$!
done

ready=0
for i in $(seq 1 60); do
  reach=$(curl -fs "$BASE/sched/stats" | json '["reachable"]' || echo 0)
  if [ "$reach" = 3 ]; then ready=1; break; fi
  sleep 0.5
done
if [ "$ready" != 1 ]; then
  echo "fleet never reached 3 workers; /sched/fleet:" >&2
  curl -fs "$BASE/sched/fleet" >&2 || true
  exit 1
fi
echo "3 workers reachable"

echo "== submit $RUNS slowed runs"
IDS=()
for i in $(seq 1 "$RUNS"); do
  ID=$(curl -fs -X POST \
    "$BASE/sched/submit?tenant=smoke&trace=small&regrid-delay-ms=150&checkpoint-every=1" \
    | json '["id"]')
  echo "submitted $ID"
  IDS+=("$ID")
done

# Find where the first run is executing, let it checkpoint a few regrids,
# then SIGKILL that worker process — no goodbye, no drain.
victim=
for i in $(seq 1 120); do
  st=$(curl -fs "$BASE/sched/status?id=${IDS[0]}")
  state=$(echo "$st" | json '["state"]')
  placement=$(echo "$st" | json '.get("placement","")')
  if [ "$state" = running ] && [ -n "$placement" ] && [ "$placement" != local ]; then
    victim=$placement
    break
  fi
  sleep 0.5
done
if [ -z "$victim" ]; then
  echo "run ${IDS[0]} never started on a worker" >&2
  curl -fs "$BASE/sched/runs" >&2 || true
  exit 1
fi
sleep 1 # several regrids at 150ms each: checkpoints exist now
echo "== SIGKILL $victim (pid ${WORKER_PID[$victim]}) mid-run"
kill -9 "${WORKER_PID[$victim]}"
unset "WORKER_PID[$victim]"

echo "== wait for every run to complete anyway"
for id in "${IDS[@]}"; do
  ok=0
  for i in $(seq 1 240); do
    state=$(curl -fs "$BASE/sched/status?id=$id" | json '["state"]')
    if [ "$state" = done ]; then ok=1; break; fi
    if [ "$state" = failed ]; then
      echo "run $id failed:" >&2
      curl -fs "$BASE/sched/status?id=$id" >&2
      exit 1
    fi
    sleep 0.5
  done
  if [ "$ok" != 1 ]; then
    echo "run $id did not finish; status:" >&2
    curl -fs "$BASE/sched/status?id=$id" >&2 || true
    exit 1
  fi
  echo "run $id done"
done

echo "== assert failover + eviction counters"
failovers=$(curl -fs "$BASE/sched/stats" | json '["failovers"]')
if [ "$failovers" -lt 1 ]; then
  echo "failovers = $failovers, want >= 1" >&2
  exit 1
fi
curl -fs "$BASE/metrics" | grep '^pragma_fleet_failovers_total' | grep -qv ' 0$'
curl -fs "$BASE/metrics" | grep '^pragma_fleet_evictions_total' | grep -qv ' 0$'
curl -fs "$BASE/metrics" | grep -q '^pragma_sched_runs_total{outcome="done"} '"$RUNS"'$'
echo "failovers=$failovers"

echo "== graceful fleet drain"
curl -fs -X POST "$BASE/sched/drain" | json '["draining"]' | grep -q True
# The drained router and workers exit on their own.
wait "$ROUTER_PID"
for pid in "${WORKER_PID[@]}"; do
  wait "$pid" || true
done
echo "fleet smoke OK"
