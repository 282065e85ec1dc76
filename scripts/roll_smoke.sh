#!/usr/bin/env bash
# roll_smoke.sh — process-roll rehearsal for a scheduler node with -state.
#
# Boots pragma-node sched -workers 2 with a checkpoint root and a state directory,
# submits named runs slowed enough that some are mid-run, sends SIGINT (the
# drain checkpoints in-flight runs, then snapshots the backlog), reboots on
# the same directories, and requires:
#   * the first process prints its drain line and "scheduler state saved",
#     with at least one run drained mid-run and none failed,
#   * the second process prints "restored N runs" with N > 0, and
#     N + the first process's done runs = every submitted run,
#   * every restored run ends done, and at least one resumed from its
#     checkpoint (pragma_checkpoint_resumes_total >= 1),
#   * a graceful drain shuts the second process down.
#
# Usage: scripts/roll_smoke.sh [bind-host]
set -euo pipefail

HOST=${1:-127.0.0.1}
HTTP_PORT=19195
BASE="http://$HOST:$HTTP_PORT"
RUNS=8
# A trace=small run has 41 regrid intervals: 25 ms each keeps a run in
# flight for about a second, so two workers cannot finish the backlog
# before the interrupt.
REGRID_DELAY_MS=25

WORK=$(mktemp -d)
BIN="$WORK/pragma-node"

cleanup() {
  if [ -n "${NODE_PID-}" ]; then
    kill "$NODE_PID" 2>/dev/null || true
    wait "$NODE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK" 2>/dev/null || true
}
trap cleanup EXIT

json() { python3 -c "import json,sys; print(json.load(sys.stdin)$1)"; }
counter() {
  curl -fs "$BASE/metrics" | awk -v name="$1" '$1==name {print $2; found=1} END {if (!found) print 0}'
}

# boot LOG — start a scheduler node on the shared directories, wait for it.
boot() {
  "$BIN" sched -workers 2 -checkpoint-root "$WORK/runs" -state "$WORK/state" \
    -telemetry-addr "$HOST:$HTTP_PORT" >"$1" 2>&1 &
  NODE_PID=$!
  for i in $(seq 1 60); do
    if ! kill -0 "$NODE_PID" 2>/dev/null; then
      echo "pragma-node exited before serving" >&2; cat "$1" >&2; exit 1
    fi
    curl -fs "$BASE/healthz" >/dev/null && return 0
    sleep 0.5
  done
  echo "pragma-node never served" >&2; cat "$1" >&2; exit 1
}

echo "== build"
go build -o "$BIN" ./cmd/pragma-node

echo "== boot 1"
boot "$WORK/node1.log"

echo "== submit $RUNS named runs"
IDS=()
for i in $(seq 1 "$RUNS"); do
  IDS+=("$(curl -fs -X POST \
    "$BASE/sched/submit?tenant=roll&trace=small&regrid-delay-ms=$REGRID_DELAY_MS&name=roll-$i" \
    | json '["id"]')")
done
echo "   submitted ${IDS[*]}"

echo "== wait until a run is mid-run"
mid=0
for i in $(seq 1 200); do
  STATE=$(curl -fs "$BASE/sched/status?id=${IDS[0]}" | json '["state"]')
  if [ "$STATE" = running ]; then mid=1; break; fi
  sleep 0.05
done
[ "$mid" = 1 ] || { echo "${IDS[0]} never started ($STATE)" >&2; cat "$WORK/node1.log" >&2; exit 1; }
sleep 0.3 # some regrid intervals complete and are checkpointed

echo "== SIGINT: drain, snapshot, exit"
kill -INT "$NODE_PID"
wait "$NODE_PID" || { echo "node 1 exited non-zero" >&2; cat "$WORK/node1.log" >&2; exit 1; }
NODE_PID=
cat "$WORK/node1.log"
grep -q '^scheduler state saved to ' "$WORK/node1.log" || {
  echo "node 1 did not save its state" >&2; exit 1
}
read -r DONE1 DRAINED1 FAILED1 < <(sed -n \
  's/^scheduler drained: \([0-9]*\) done, \([0-9]*\) drained (resumable), [0-9]* cancelled, \([0-9]*\) failed$/\1 \2 \3/p' \
  "$WORK/node1.log")
[ -n "${DONE1-}" ] || { echo "node 1 printed no drain line" >&2; exit 1; }
[ "$FAILED1" = 0 ] || { echo "node 1 failed $FAILED1 runs" >&2; exit 1; }
[ "$DRAINED1" -ge 1 ] || { echo "no run was drained mid-run" >&2; exit 1; }

echo "== boot 2 on the same directories"
boot "$WORK/node2.log"
RESTORED=$(sed -n 's/^restored \([0-9]*\) runs from .*/\1/p' "$WORK/node2.log")
echo "   restored ${RESTORED:-none}; node 1 finished $DONE1 of $RUNS"
[ -n "$RESTORED" ] && [ "$RESTORED" -gt 0 ] || {
  echo "node 2 restored nothing" >&2; cat "$WORK/node2.log" >&2; exit 1
}
[ $((RESTORED + DONE1)) = "$RUNS" ] || {
  echo "runs lost in the roll: $DONE1 done + $RESTORED restored != $RUNS" >&2; exit 1
}

echo "== wait until every restored run is done"
for n in $(seq 1 "$RESTORED"); do
  id=$(printf 'run-%06d' "$n")
  done_ok=0
  for i in $(seq 1 240); do
    STATE=$(curl -fs "$BASE/sched/status?id=$id" | json '["state"]')
    [ "$STATE" = done ] && { done_ok=1; break; }
    if [ "$STATE" = failed ] || [ "$STATE" = cancelled ]; then
      echo "run $id ended $STATE" >&2
      curl -fs "$BASE/sched/status?id=$id" >&2; exit 1
    fi
    sleep 0.25
  done
  [ "$done_ok" = 1 ] || { echo "run $id never finished" >&2; curl -fs "$BASE/sched/status?id=$id" >&2; exit 1; }
done
RESUMES=$(counter pragma_checkpoint_resumes_total)
echo "   pragma_checkpoint_resumes_total: $RESUMES"
awk -v r="$RESUMES" 'BEGIN{exit !(r>=1)}' || { echo "no restored run resumed from a checkpoint" >&2; exit 1; }

echo "== drain"
curl -fs -X POST "$BASE/sched/drain" | json '["draining"]' | grep -q True
wait "$NODE_PID" || true
NODE_PID=
echo "roll smoke ok"
