#!/usr/bin/env bash
# Parent-vs-change gate on the two benchmark metrics that do not depend on
# the clock. From the root of a checkout:
#
#   bash scripts/bench_pair.sh [BASE]      # BASE defaults to HEAD~1
#
# It checks out the merge base of BASE and HEAD in a temporary git
# worktree and runs
#
#   bash bench/run.sh --workload W --seed N --seconds 3 --trace 0
#
# there and in this checkout, for every workload and seeds 1, 2 and 3.
# It fails when, for any pair:
#   - either side is not correct or has a failed operation;
#   - sim_runtime_s differs by more than 1e-9 relative (a decision or a
#     float moved);
#   - alloc_mb_per_run rises by more than 2%.
# Both repeat per seed whatever the host is doing. The time metrics are
# printed beside them and never gated: a shared host cannot resolve them
# in three seconds. The script only calls bench/ and never edits it.
#
# A change that means to move a decision says so in HEAD's commit message
# with a trailer line
#
#   Decision-Change: <reason>
#
# Then the script prints the per-seed sim_runtime_s table (base, change,
# relative delta) and does not fail on sim_runtime_s; every other check
# (correct, failed, alloc_mb_per_run) still fails as before. A change to
# cmd/pragma-bench/testdata/paper.golden (the paper's tables and figures,
# pinned by TestPaperGolden) carries the same trailer, and its CHANGES.md
# entry quotes the golden's diff.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git merge-base "${1:-HEAD~1}" HEAD)
decision=$(git log -1 --format='%(trailers:key=Decision-Change,valueonly,separator=; )' HEAD)
workloads=(rm3d64_adaptive rm3d64_ckpt_resume sched_corpus fleet_tiny)
seeds=(1 2 3)

work=$(mktemp -d)
cleanup() {
	git worktree remove --force "$work/base" >/dev/null 2>&1 || true
	rm -rf "$work"
}
trap cleanup EXIT
git worktree add --detach --quiet "$work/base" "$base"

# run SIDE DIR W N: one invocation, its JSON line kept as $work/SIDE-W-N.json.
run() {
	local out="$work/$1-$3-$4"
	if ! (cd "$2" && bash bench/run.sh --workload "$3" --seed "$4" --seconds 3 --trace 0) >"$out.out" 2>"$out.log"; then
		echo "bench_pair: $1 $3 seed $4 exited non-zero" >&2
		tail -n 20 "$out.log" >&2
		exit 1
	fi
	grep '^{' "$out.out" | tail -n 1 >"$out.json"
}

echo "bench_pair: base $(git rev-parse --short "$base"), change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted changes')"
if [[ -n $decision ]]; then
	echo "bench_pair: HEAD carries Decision-Change: $decision (sim_runtime_s reported, not gated)"
fi
for w in "${workloads[@]}"; do
	for n in "${seeds[@]}"; do
		# Alternate which side goes first, so a drift of the host over the
		# run does not always favour one side's time metrics.
		if (( n % 2 )); then
			run base "$work/base" "$w" "$n"
			run change "$root" "$w" "$n"
		else
			run change "$root" "$w" "$n"
			run base "$work/base" "$w" "$n"
		fi
	done
done

python3 - "$work" "${workloads[*]}" "${seeds[*]}" "$decision" <<'EOF'
import json, sys

work, workloads, seeds, decision = sys.argv[1], sys.argv[2].split(), sys.argv[3].split(), sys.argv[4]
SIM_REL, ALLOC_RISE = 1e-9, 0.02
TIME = ("run_p50_ms", "runs_per_s", "cpu_ms_per_run")

def load(side, w, n):
    with open(f"{work}/{side}-{w}-{n}.json") as f:
        return json.load(f)

failures = []
sims = []
print(f"{'workload':<20} {'seed':>4}  {'sim_runtime_s base':>20} {'change':>20}  "
      f"{'alloc_mb base':>13} {'change':>9} {'delta':>7}  " + "  ".join(f"{m} base/change" for m in TIME))
for w in workloads:
    for n in seeds:
        b, c = load("base", w, n), load("change", w, n)
        tag = f"{w} seed {n}"
        for side, r in (("base", b), ("change", c)):
            if not r["correct"] or r["failed"]:
                failures.append(f"{tag}: {side} correct={r['correct']} failed={r['failed']}")
        bm, cm = b["metrics"], c["metrics"]
        sb, sc = bm["sim_runtime_s"]["value"], cm["sim_runtime_s"]["value"]
        ab, ac = bm["alloc_mb_per_run"]["value"], cm["alloc_mb_per_run"]["value"]
        sims.append((w, n, sb, sc))
        if not decision and abs(sc - sb) > SIM_REL * max(abs(sb), abs(sc)):
            failures.append(f"{tag}: sim_runtime_s {sb!r} -> {sc!r}")
        if ac > ab * (1 + ALLOC_RISE):
            failures.append(f"{tag}: alloc_mb_per_run {ab:.4f} -> {ac:.4f} (+{100 * (ac / ab - 1):.1f}%)")
        times = "  ".join(f"{bm[m]['value']:.4g}/{cm[m]['value']:.4g}" for m in TIME)
        print(f"{w:<20} {n:>4}  {sb:>20.15g} {sc:>20.15g}  {ab:>13.4f} {ac:>9.4f} {100 * (ac / ab - 1):>+6.1f}%  {times}")

if decision:
    print(f"\nDecision-Change: {decision}")
    print(f"{'workload':<20} {'seed':>4}  {'sim_runtime_s base':>20} {'change':>20} {'rel delta':>10}")
    for w, n, sb, sc in sims:
        print(f"{w:<20} {n:>4}  {sb:>20.15g} {sc:>20.15g} {(sc - sb) / sb:>+10.2e}")

if failures:
    print("\nbench_pair: FAIL", file=sys.stderr)
    for f in failures:
        print("  " + f, file=sys.stderr)
    sys.exit(1)
sim = "sim_runtime_s not gated under Decision-Change" if decision else "sim_runtime_s equal"
print(f"\nbench_pair: ok ({sim}, alloc_mb_per_run within +2%; time metrics not gated)")
EOF
