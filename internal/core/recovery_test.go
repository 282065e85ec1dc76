package core

import (
	"math"
	"testing"

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
// a known dead assignment and a known recovery assignment, and asserts the
// recorded snapshot quality, the published PAC gauges, and the interval
// overhead all describe the assignment that actually finished the interval
// — not the one that died under it.
func TestRecoveryRefreshesPACQuality(t *testing.T) {
	full := testTrace(t)
	tr := &samr.Trace{Name: full.Name, RegridEvery: full.RegridEvery, Snapshots: full.Snapshots[:1]}
	h := tr.Snapshots[0].H

	machine := cluster.Homogeneous(4, 1e5, 512, 100)
	machine.Fail(3, 0)

	dead, err := (partition.GMISPSP{}).Partition(h, samr.UniformWorkModel{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dead.Work()[3] == 0 {
		t.Fatal("dead assignment puts no work on node 3; the failure cannot trigger")
	}
	// The recovery assignment dumps node 3's units onto node 0: alive
	// everywhere, deliberately imbalanced so its quality is distinguishable
	// from the dead assignment's.
	recovered := &partition.Assignment{
		NProcs:    dead.NProcs,
		Units:     dead.Units,
		Owner:     append([]int(nil), dead.Owner...),
		SplitCost: dead.SplitCost,
	}
	for i, o := range recovered.Owner {
		if o == 3 {
			recovered.Owner[i] = 0
		}
	}

	strat := &scriptedStrategy{
		assigns: []*partition.Assignment{dead, recovered},
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
	if _, err := Run(tr, Static{P: partition.GMISPSP{}}, RunConfig{Machine: machine, NProcs: 8}); err != nil {
		t.Fatal(err)
	}
	if got, want := pacBuilds(t)-builds, uint64(len(tr.Snapshots)); got != want {
		t.Fatalf("run built %d plans over %d regrids, want exactly one per regrid", got, want)
	}
}
