#!/usr/bin/env bash
# preempt_smoke.sh — weighted-fairness / checkpoint-preemption rehearsal.
#
# Boots a real pragma-node scheduler, floods it with a weight-1 tenant
# ("bg"), then — once bg has banked normalized service — floods a weight-4
# tenant ("vip") into the saturated pool, and requires:
#   * at least one checkpoint-based preemption fired
#     (pragma_sched_preemptions_total >= 1),
#   * over vip's contention window the weighted share holds: vip completes
#     ~4x bg's cost units (ratio asserted inside a lenient [2, 12] band —
#     vip also burns down the catch-up gap from joining late, which skews
#     the window above the steady-state 4:1),
#   * every submitted run — preempted ones included — still ends done,
#   * a graceful drain shuts the node down.
#
# Usage: scripts/preempt_smoke.sh [bind-host]
set -euo pipefail

HOST=${1:-127.0.0.1}
HTTP_PORT=19194
BASE="http://$HOST:$HTTP_PORT"
BG_RUNS=40
VIP_RUNS=20
TRACE_COST=41 # regrid intervals per trace=small run
# Every run pauses this long at each regrid, so a run lasts ~0.17 s however
# fast the host replays it. Without the pause vip's whole backlog is over in
# tens of milliseconds — less than one scrape — and the share measured
# below is mostly what bg does alone between vip finishing and the next
# poll noticing.
REGRID_DELAY_MS=4

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

# gauge NAME TENANT — scrape one per-tenant gauge value (0 if unset).
gauge() {
  curl -fs "$BASE/metrics" | awk -v pat="^$1{tenant=\"$2\"} " \
    'index($0, substr(pat,2,length(pat)-1))==1 {print $2; found=1} END {if (!found) print 0}'
}
counter() {
  curl -fs "$BASE/metrics" | awk -v name="$1" '$1==name {print $2; found=1} END {if (!found) print 0}'
}

echo "== build"
go build -o "$BIN" ./cmd/pragma-node

echo "== start scheduler node"
"$BIN" sched -workers 2 -checkpoint-root "$WORK/runs" \
  -queue 256 -tenant-limit 0 \
  -telemetry-addr "$HOST:$HTTP_PORT" >"$WORK/node.log" 2>&1 &
NODE_PID=$!
for i in $(seq 1 60); do
  if ! kill -0 "$NODE_PID" 2>/dev/null; then
    echo "pragma-node exited before serving" >&2; cat "$WORK/node.log" >&2; exit 1
  fi
  curl -fs "$BASE/healthz" >/dev/null && break
  sleep 0.5
done

IDS=()
flood() { # flood TENANT WEIGHT COUNT — submit COUNT runs in one curl process
  local tenant=$1 weight=$2 count=$3 urls=() out
  for i in $(seq 1 "$count"); do
    urls+=("$BASE/sched/submit?trace=small&regrid-delay-ms=$REGRID_DELAY_MS&tenant=$tenant&weight=$weight&name=$tenant-$i")
  done
  # One curl reusing one connection: a per-submit curl would take ~50ms
  # each, long enough for the pool to drain the flood as it is submitted.
  out=$(curl -fs -X POST "${urls[@]}" | python3 -c '
import json, sys
dec, s, i = json.JSONDecoder(), sys.stdin.read(), 0
while i < len(s):
    obj, i = dec.raw_decode(s, i)
    print(obj["id"])
    while i < len(s) and s[i].isspace():
        i += 1
')
  IDS+=($out)
}

echo "== flood tenant bg (weight 1)"
flood bg 1 "$BG_RUNS"

echo "== wait for bg to bank service"
# Tight poll: vip must join while bg is still deep in its backlog.
for i in $(seq 1 2400); do
  BG0=$(gauge pragma_sched_tenant_cost bg)
  awk -v v="$BG0" 'BEGIN{exit !(v>0)}' && break
  sleep 0.02
done
awk -v v="$BG0" 'BEGIN{exit !(v>0)}' || {
  echo "bg never completed work; node log:" >&2; cat "$WORK/node.log" >&2; exit 1
}
echo "   bg cost at vip submit: $BG0"
# vip starts at normalized service 0 and first burns down the gap to bg's
# banked service (4*BG0 cost units) before steady 4:1 sharing begins. If
# the scrape was so slow that the gap swallows vip's whole backlog, the
# share assertion below would be vacuous — bail loudly instead.
if awk -v bg0="$BG0" -v vip="$((VIP_RUNS * TRACE_COST))" -v c="$TRACE_COST" \
    'BEGIN{exit !(4*bg0 >= vip - 2*c)}'; then
  echo "vip submitted too late (bg already at $BG0); machine too slow for this smoke" >&2
  exit 1
fi

echo "== flood tenant vip (weight 4) into the saturated pool"
flood vip 4 "$VIP_RUNS"

echo "== wait for vip's backlog to complete"
VIP_TOTAL=$((VIP_RUNS * TRACE_COST))
ok=0
# Tight poll again: bg has the pool to itself from the moment vip finishes
# until BG1 is scraped.
for i in $(seq 1 2400); do
  VIP=$(gauge pragma_sched_tenant_cost vip)
  if awk -v v="$VIP" -v want="$VIP_TOTAL" 'BEGIN{exit !(v>=want)}'; then
    ok=1; break
  fi
  sleep 0.05
done
if [ "$ok" != 1 ]; then
  echo "vip never finished its backlog (cost $VIP of $VIP_TOTAL); node log:" >&2
  tail -50 "$WORK/node.log" >&2; exit 1
fi
BG1=$(gauge pragma_sched_tenant_cost bg)

echo "== assert weighted share over the contention window"
# Expected bg progress while vip burned its backlog: vip first catches up
# the 4*BG0 normalized-service gap alone, then the remainder is shared
# 4:1, handing bg a quarter of it. Assert bg landed within 3x either side
# of that (runs complete in whole 41-unit quanta, hence the +-TRACE_COST
# slack), and that vip out-completed bg by at least 2x overall.
awk -v vip="$VIP_TOTAL" -v bg0="$BG0" -v bg1="$BG1" -v c="$TRACE_COST" 'BEGIN {
  bgd = bg1 - bg0
  if (bgd <= 0) { print "bg starved outright: delta " bgd; exit 1 }
  expected = (vip - 4 * bg0) / 4
  r = vip / bgd
  printf "   vip %d vs bg delta %g cost units: ratio %.2f (expected bg ~%g)\n", vip, bgd, r, expected
  if (r < 2.0) { print "vip/bg ratio " r " below 2: weighting not biting"; exit 1 }
  if (bgd < expected / 3 - c || bgd > expected * 3 + 2 * c) {
    print "bg delta " bgd " outside [" expected / 3 - c ", " expected * 3 + 2 * c "]"; exit 1
  }
}'

echo "== assert checkpoint preemptions fired"
PREEMPTIONS=$(counter pragma_sched_preemptions_total)
echo "   pragma_sched_preemptions_total: $PREEMPTIONS"
awk -v p="$PREEMPTIONS" 'BEGIN{exit !(p>=1)}' || {
  echo "no preemption fired" >&2; exit 1
}

echo "== assert every run (preempted included) ended done"
for id in "${IDS[@]}"; do
  done_ok=0
  for i in $(seq 1 480); do
    STATE=$(curl -fs "$BASE/sched/status?id=$id" | json '["state"]')
    [ "$STATE" = done ] && { done_ok=1; break; }
    if [ "$STATE" = failed ] || [ "$STATE" = cancelled ]; then
      echo "run $id ended $STATE" >&2
      curl -fs "$BASE/sched/status?id=$id" >&2; exit 1
    fi
    sleep 0.25
  done
  if [ "$done_ok" != 1 ]; then
    echo "run $id never finished" >&2
    curl -fs "$BASE/sched/status?id=$id" >&2; exit 1
  fi
done
curl -fs "$BASE/sched/runs" | python3 -c '
import json, sys
runs = json.load(sys.stdin)
if isinstance(runs, dict):
    runs = runs["runs"]
pre = [r for r in runs if r.get("preemptions")]
bad = [r["id"] for r in pre if r["state"] != "done"]
assert not bad, f"preempted runs not done: {bad}"
print(f"   {len(pre)} preempted run(s), all done")
'

echo "== drain"
curl -fs -X POST "$BASE/sched/drain" | json '["draining"]' | grep -q True
wait "$NODE_PID" || true
NODE_PID=
echo "preempt smoke ok"
