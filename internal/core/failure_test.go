package core

import (
	"math"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
)

func TestFailureAwareSurvivesNodeLoss(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(8, 1e5, 512, 100)
	// First measure a healthy run to locate mid-run time.
	healthy, err := Run(tr, &FailureAware{Inner: Static{P: partition.GMISPSP{}}},
		RunConfig{Machine: machine, NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(healthy.TotalTime, 1) {
		t.Fatal("healthy run infinite")
	}

	// Kill two nodes mid-interval, so the run must recover inside an
	// interval, not only re-partition at the next regrid.
	ft := &FailureAware{Inner: Static{P: partition.GMISPSP{}}}
	res, err := Run(tr, ft, RunConfig{Machine: nodeLoss(healthy.TotalTime), NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.TotalTime, 1) || math.IsNaN(res.TotalTime) {
		t.Fatal("fault-tolerant run did not complete")
	}
	if ft.FailuresSeen == 0 {
		t.Fatal("failures never detected")
	}
	if res.Recoveries < 1 {
		t.Fatalf("Recoveries = %d: no failure landed mid-interval", res.Recoveries)
	}
	// Losing a quarter of the machine must cost time, but bounded: the
	// survivors absorb the work.
	if res.TotalTime <= healthy.TotalTime {
		t.Fatalf("run with failures (%.2fs) not slower than healthy (%.2fs)",
			res.TotalTime, healthy.TotalTime)
	}
	if res.TotalTime > healthy.TotalTime*3 {
		t.Fatalf("run with failures (%.2fs) blew up vs healthy (%.2fs)",
			res.TotalTime, healthy.TotalTime)
	}
	if res.Strategy != "G-MISP+SP+ft" {
		t.Fatalf("strategy = %q", res.Strategy)
	}
}

func TestWithoutFailureAwarenessDeadNodeStallsRun(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(4, 1e5, 512, 100)
	machine.Fail(1, 0.1)
	res, err := Run(tr, Static{P: partition.GMISPSP{}}, RunConfig{Machine: machine, NProcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The naive strategy keeps assigning work to the dead node: the
	// simulated run never finishes, and the result says so loudly.
	if !math.IsInf(res.TotalTime, 1) {
		t.Fatalf("dead node did not stall the naive run: %.2fs", res.TotalTime)
	}
}

func TestFailureAwareAllNodesDead(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(2, 1e5, 512, 100)
	machine.Fail(0, 0)
	machine.Fail(1, 0)
	ft := &FailureAware{Inner: Static{P: partition.SFC{}}}
	if _, err := Run(tr, ft, RunConfig{Machine: machine, NProcs: 2}); err == nil {
		t.Fatal("run with zero live nodes succeeded")
	}
}

func TestClusterAliveBookkeeping(t *testing.T) {
	c := cluster.Homogeneous(4, 1e5, 512, 100)
	c.Fail(2, 10)
	if !c.Alive(2, 9.99) {
		t.Error("node dead before failure time")
	}
	if c.Alive(2, 10) {
		t.Error("node alive at failure time")
	}
	if c.Alive(-1, 0) || c.Alive(99, 0) {
		t.Error("out-of-range nodes alive")
	}
	alive := c.AliveNodes(20)
	if len(alive) != 3 || alive[0] != 0 || alive[1] != 1 || alive[2] != 3 {
		t.Errorf("alive = %v", alive)
	}
	if got := c.EffectiveSpeed(2, 20); got != 0 {
		t.Errorf("dead node speed = %g", got)
	}
}

// TestFailureAwareSurvivorRemapOwners drives Assign directly at a time
// when nodes are down and checks the remap invariants: every owner is a
// live machine node, dead nodes carry zero work, and all work is conserved.
func TestFailureAwareSurvivorRemapOwners(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(8, 1e5, 512, 100)
	machine.Fail(1, 5)
	machine.Fail(6, 5)
	ft := &FailureAware{Inner: Static{P: partition.GMISPSP{}}}
	snap := tr.Snapshots[0]
	ctx := &StepContext{
		Index: 0, Trace: tr, Snap: snap, WM: samr.UniformWorkModel{},
		NProcs: 8, SimTime: 10, Machine: machine,
	}
	a, label, err := ft.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if label != "G-MISP+SP+ft" {
		t.Errorf("label = %q, want G-MISP+SP+ft", label)
	}
	if a.NProcs != 8 {
		t.Fatalf("remapped NProcs = %d, want the full machine width 8", a.NProcs)
	}
	alive := map[int]bool{}
	for _, n := range machine.AliveNodes(10) {
		alive[n] = true
	}
	for i, o := range a.Owner {
		if !alive[o] {
			t.Fatalf("unit %d assigned to dead node %d", i, o)
		}
	}
	work := a.Work()
	if work[1] != 0 || work[6] != 0 {
		t.Errorf("dead nodes carry work: node1=%g node6=%g", work[1], work[6])
	}
	var total float64
	for _, w := range work {
		total += w
	}
	if diff := total - a.TotalWeight(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("work not conserved: %g vs %g", total, a.TotalWeight())
	}
	if ft.FailuresSeen != 1 {
		t.Errorf("FailuresSeen = %d, want 1", ft.FailuresSeen)
	}
}

// TestFailureAwareZeroAliveNodes exercises the error path where the whole
// machine is gone by the time a regrid fires.
func TestFailureAwareZeroAliveNodes(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(2, 1e5, 512, 100)
	machine.Fail(0, 3)
	machine.Fail(1, 3)
	ft := &FailureAware{Inner: Static{P: partition.GMISPSP{}}}
	ctx := &StepContext{
		Index: 0, Trace: tr, Snap: tr.Snapshots[0], WM: samr.UniformWorkModel{},
		NProcs: 2, SimTime: 99, Machine: machine,
	}
	if _, _, err := ft.Assign(ctx); err == nil {
		t.Fatal("assign with zero live nodes succeeded")
	}
}
