package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/pragma-grid/pragma/internal/chaos"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// scriptedStrategy replays pre-built assignments in call order, holding the
// last one once the script runs out — a deterministic way to force a
// specific dead assignment followed by a specific recovery assignment.
type scriptedStrategy struct {
	assigns []*partition.Assignment
	labels  []string
	calls   int
}

func (s *scriptedStrategy) Name() string { return "scripted" }

func (s *scriptedStrategy) Assign(*StepContext) (*partition.Assignment, string, error) {
	i := s.calls
	if i >= len(s.assigns) {
		i = len(s.assigns) - 1
	}
	s.calls++
	return s.assigns[i], s.labels[i], nil
}

func gaugeValue(t *testing.T, name string) float64 {
	t.Helper()
	series := telemetry.Default.Snapshot().Find(name)
	if len(series) != 1 {
		t.Fatalf("gauge %s: %d series", name, len(series))
	}
	return series[0].Value
}

// TestRecoveryRefreshesPACQuality forces a mid-interval node death between
// a known dead assignment and a known recovery assignment — node 3 dies
// just after the regrid at t = 0, so the recovery is asked for the three
// survivors and scripted in their ids — and asserts the
// recorded snapshot quality, the published PAC gauges, and the interval
// overhead all describe the assignment that actually finished the interval
// — not the one that died under it.
func TestRecoveryRefreshesPACQuality(t *testing.T) {
	full := testTrace(t)
	tr := &samr.Trace{Name: full.Name, RegridEvery: full.RegridEvery, Snapshots: full.Snapshots[:1]}
	h := tr.Snapshots[0].H

	machine := cluster.Homogeneous(4, 1e5, 512, 100)
	machine.Fail(3, 1e-12)

	// The recovery assignment dumps node 3's units onto node 0: alive
	// everywhere, deliberately imbalanced so its quality is distinguishable
	// from the dead assignment's.
	dead, recovered := deadAndRescue(t, h)

	strat := &scriptedStrategy{
		assigns: []*partition.Assignment{dead, survivorRelative(recovered, []int{0, 1, 2})},
		labels:  []string{"doomed", "rescue"},
	}
	builds := pacBuilds(t)
	res, err := Run(tr, strat, RunConfig{Machine: machine, NProcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One plan for the regrid, one more for the recovery's replacement.
	if got := pacBuilds(t) - builds; got != 2 {
		t.Fatalf("run built %d plans over 1 regrid and 1 recovery, want 2", got)
	}
	if math.IsInf(res.TotalTime, 1) {
		t.Fatal("recovery did not unstick the run")
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", res.Recoveries)
	}
	if len(res.Snapshots) != 1 {
		t.Fatalf("%d snapshots, want 1", len(res.Snapshots))
	}
	stat := res.Snapshots[0]
	if stat.Partitioner != "rescue" {
		t.Fatalf("snapshot partitioner = %q, want the recovery label", stat.Partitioner)
	}

	// What the snapshot must describe: the recovery assignment, with
	// migration measured against the assignment it replaced.
	want := partition.EvalQuality(h, recovered, h, dead, 0)
	deadQ := partition.EvalQuality(h, dead, nil, nil, 0)
	if want == deadQ {
		t.Fatal("test is vacuous: recovery quality equals dead quality")
	}
	if stat.Quality != want {
		t.Fatalf("snapshot quality describes the wrong assignment:\n got %+v\nwant %+v", stat.Quality, want)
	}
	if want.Migration == 0 {
		t.Fatal("recovery moved no data; migration refresh untested")
	}

	// The gauges a scraper sees must agree.
	checks := map[string]float64{
		"pragma_core_pac_imbalance_percent":  want.Imbalance,
		"pragma_core_pac_comm_volume":        want.CommVolume,
		"pragma_core_pac_comm_messages":      want.CommMessages,
		"pragma_core_pac_migration_fraction": want.Migration,
		"pragma_core_pac_overhead_ratio":     want.Overhead,
	}
	for name, wantV := range checks {
		if got := gaugeValue(t, name); got != wantV {
			t.Errorf("%s = %g, want %g", name, got, wantV)
		}
	}

	// The interval's overhead must include the recovery redistribution on
	// top of the original partitioning cost.
	splitCost := dead.SplitCost
	if splitCost < 1 {
		splitCost = 1
	}
	partTime := 1e-6 * float64(len(dead.Units)) * splitCost
	recMig := machine.MigrationTime(float64(h.TotalCells()), cluster.DefaultCostModel())
	if diff := stat.Overhead - (partTime + recMig); math.Abs(diff) > 1e-12 {
		t.Errorf("snapshot overhead = %g, want partition %g + recovery migration %g", stat.Overhead, partTime, recMig)
	}
	// And the aggregate imbalance stats must track the refreshed quality.
	if res.MaxImbalance != want.Imbalance || res.AvgImbalance != want.Imbalance {
		t.Errorf("imbalance aggregates (max %g, avg %g) not refreshed to %g",
			res.MaxImbalance, res.AvgImbalance, want.Imbalance)
	}
}

// pacBuilds returns how many communication plans the process has built:
// the sample count of pragma_partition_pac_seconds, which BuildCommPlan
// observes once per call.
func pacBuilds(t *testing.T) uint64 {
	t.Helper()
	series := telemetry.Default.Snapshot().Find("pragma_partition_pac_seconds")
	if len(series) != 1 {
		t.Fatalf("pragma_partition_pac_seconds: %d series", len(series))
	}
	return series[0].Count
}

// TestRunBuildsOneCommPlanPerRegrid proves the replay loop shares its plan:
// a healthy run builds each regrid's plan exactly once — communication
// stats, per-step ghost volumes, and the next cycle's migration diff all
// read that one build.
func TestRunBuildsOneCommPlanPerRegrid(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(8, 1e5, 512, 100)
	builds := pacBuilds(t)
	if _, err := Run(tr, Static{P: partition.GMISPSP}, RunConfig{Machine: machine, NProcs: 8}); err != nil {
		t.Fatal(err)
	}
	if got, want := pacBuilds(t)-builds, uint64(len(tr.Snapshots)); got != want {
		t.Fatalf("run built %d plans over %d regrids, want exactly one per regrid", got, want)
	}
}

// recoveryProbe wraps a strategy and records, for each Assign call, the
// regrid it served. A call for the same regrid as the one before it is a
// mid-interval recovery; with failRecovery set, such a call fails instead.
type recoveryProbe struct {
	inner        Strategy
	failRecovery bool
	calls        []int
}

var errRecoveryRefused = errors.New("recovery refused")

func (p *recoveryProbe) Name() string { return p.inner.Name() }

func (p *recoveryProbe) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	recovery := len(p.calls) > 0 && p.calls[len(p.calls)-1] == ctx.Index
	p.calls = append(p.calls, ctx.Index)
	if recovery && p.failRecovery {
		return nil, "", errRecoveryRefused
	}
	return p.inner.Assign(ctx)
}

// recoveryCalls returns the 1-based numbers of the recovery calls a probe
// saw.
func (p *recoveryProbe) recoveryCalls() []int {
	var out []int
	for i := 1; i < len(p.calls); i++ {
		if p.calls[i] == p.calls[i-1] {
			out = append(out, i+1)
		}
	}
	return out
}

// twoNodesLost is SP2(8) losing nodes 1 and 3 at 5 s and 15 s, both
// mid-interval on the small trace.
func twoNodesLost() *cluster.Cluster {
	m := cluster.SP2(8)
	m.Fail(1, 5)
	m.Fail(3, 15)
	return m
}

// TestRecoveryErrorFailsRun makes a strategy fail only on its
// mid-interval recovery call: the run must fail with that error and the
// regrid's index, as a failing first Assign does, rather than finish on
// the dead assignment at +Inf.
func TestRecoveryErrorFailsRun(t *testing.T) {
	tr := testTrace(t)
	cfg := RunConfig{Machine: twoNodesLost(), NProcs: 8}
	healthy := &recoveryProbe{inner: Static{P: partition.GMISPSP}}
	res, err := Run(tr, healthy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := healthy.recoveryCalls()
	if len(rec) == 0 || res.Recoveries != len(rec) {
		t.Fatalf("%d recoveries, probe saw calls %v: no failure landed mid-interval", res.Recoveries, rec)
	}

	cfg.Machine = twoNodesLost()
	failing := &recoveryProbe{inner: Static{P: partition.GMISPSP}, failRecovery: true}
	res, err = Run(tr, failing, cfg)
	if !errors.Is(err, errRecoveryRefused) {
		t.Fatalf("run whose recovery fails: err = %v, result %+v", err, res)
	}
	regrid := healthy.calls[rec[0]-1]
	if want := fmt.Sprintf("core: regrid %d: ", regrid); !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q does not name regrid %d", err, regrid)
	}
}

// TestCrashOnRecoverySurfaces injects a crash on the first recovery call
// of SystemSensitive on SP2(8) losing two nodes: the run
// must end with the injected crash, not complete.
func TestCrashOnRecoverySurfaces(t *testing.T) {
	tr := testTrace(t)
	probe := &recoveryProbe{inner: &SystemSensitive{}}
	if _, err := Run(tr, probe, RunConfig{Machine: twoNodesLost(), NProcs: 8}); err != nil {
		t.Fatal(err)
	}
	rec := probe.recoveryCalls()
	if len(rec) == 0 {
		t.Fatal("no recovery to crash")
	}
	fp := &chaos.FaultPoint{FailAt: rec[0]}
	crash := crashingStrategy{inner: &SystemSensitive{}, fp: fp}
	res, err := Run(tr, crash, RunConfig{Machine: twoNodesLost(), NProcs: 8})
	if !fp.Fired() {
		t.Fatalf("the crash at call %d never fired", rec[0])
	}
	if !errors.Is(err, chaos.ErrInjectedCrash) {
		t.Fatalf("crash on the recovery call: err = %v, result %+v", err, res)
	}
}
