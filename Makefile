# Development targets for the Pragma reproduction.

GO ?= go

.PHONY: build test test-short test-scenario test-fleet fleet-smoke preempt-smoke roll-smoke bench-e2e-smoke bench-pair vet bench bench-telemetry bench-pac bench-sched load-smoke experiments ablations extensions fmt cover clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fast subset: skips the paper-scale Table 4/5 replays (~21 s on a 2-vCPU
# host, warm build cache).
test-short: vet
	$(GO) test -short ./...

# Full suite, including the paper-scale Table 4/5 replays (~24 s on the
# same host).
test: vet
	$(GO) test ./...

# Scenario-engine property suite under the race detector: octant
# reachability, classifier/driver signature agreement, Table-2 conformance
# across the seeded corpus, and a short FuzzScenarioRun smoke.
test-scenario:
	$(GO) test -race ./internal/scenario/ ./internal/octant/
	$(GO) test -race -run 'TestScenario|ExampleParseScenario|ExampleScenarioForOctant' ./internal/experiments/ .
	$(GO) test ./internal/scenario/ -fuzz=FuzzScenarioRun -fuzztime=10s -run='^$$'

# Fleet router/worker suite under the race detector, repeated to shake
# out placement/failover orderings.
test-fleet:
	$(GO) test -race ./internal/fleet/ -count=3

# Multi-process failover rehearsal: 1 router + 3 workers over TCP,
# SIGKILL one worker mid-run, every run must still complete.
fleet-smoke:
	bash scripts/fleet_smoke.sh

# Weighted-fairness/preemption rehearsal: saturate a live pragma-node with a
# weight-1 and a weight-4 tenant, assert the completed-work ratio tracks the
# weights and that checkpoint-preempted runs all finish.
preempt-smoke:
	bash scripts/preempt_smoke.sh

# Process-roll rehearsal: SIGINT a `sched -state` node with runs mid-flight,
# reboot it on the same directories, every submitted run must end done.
roll-smoke:
	bash scripts/roll_smoke.sh

# End-to-end harness smoke over the real HTTP surface: the single-node
# path (sched_corpus) and the fleet path (fleet_tiny), three seconds each,
# then the paper-scale replay with the harness's traced probe, which wraps
# every partitioner in its own timing decorators. The exit code is the
# check: every served result equals its direct core.Run reference, with
# zero fallbacks, failovers and stream drops, and the traced probe decides
# exactly as the untraced strategy does.
bench-e2e-smoke:
	bash bench/run.sh --workload sched_corpus --seed 1 --seconds 3 --trace 0
	bash bench/run.sh --workload fleet_tiny --seed 1 --seconds 3 --trace 0
	bash bench/run.sh --workload rm3d64_adaptive --seed 1 --seconds 3 --trace 1

# Parent-vs-change gate: bench/e2e on the merge base of HEAD~1 (in a
# temporary git worktree) and on this checkout, four workloads x seeds
# 1-3, three seconds each. Fails when sim_runtime_s moves (1e-9 relative)
# or alloc_mb_per_run rises by more than 2%; prints the time metrics
# without gating them. About 3 minutes on a 2-vCPU host.
bench-pair:
	bash scripts/bench_pair.sh

# One timed regeneration of every table, figure and ablation.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Hot-path metric benchmarks (counters and histograms must stay 0 allocs/op).
bench-telemetry:
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/telemetry/

# PAC evaluation kernel benchmarks on the paper-scale hierarchy: CommPlan
# kernels vs the cell-by-cell test oracle (the *Reference rows). Development
# tools with no committed baseline: to compare two trees, run both on one
# host and pipe the outputs through benchstat. The performance gate is
# bench/e2e, parent vs change on one host.
bench-pac:
	$(GO) test -bench='EvalQuality|Adjacency|CommPlan|Migration' -benchmem -run='^$$' ./internal/partition/

# Scheduler benchmarks: admission/fair-queue/worker hand-off overhead
# (development tools, as above).
bench-sched:
	$(GO) test -bench='Scheduler|FairQueue|WeightedQueue' -benchmem -run='^$$' ./internal/sched/

# Open-loop load smoke against an in-process scheduler: a short ramp must
# come back with zero errors and the submit/status p99s inside the SLO.
load-smoke:
	$(GO) run ./cmd/pragma-bench -load -qps 150 -warmup 500ms -duration 2s -slo-p99 250ms

# Print every table and figure of the paper.
experiments:
	$(GO) run ./cmd/pragma-bench -all

ablations:
	$(GO) run ./cmd/pragma-bench -ablations

extensions:
	$(GO) run ./cmd/pragma-bench -extensions

fmt:
	gofmt -w .

cover:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
	rm -rf .bench_build bench/out
