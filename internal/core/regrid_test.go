package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
)

// nodeLoss is the machine of the node-loss runs: cluster.Homogeneous(8, …)
// with nodes 2 and 5 failing at 0.4 and 0.6 of a healthy run's simulated
// time. Both instants fall inside an interval, not on a regrid boundary,
// so each failure stalls a step and the run recovers mid-interval.
func nodeLoss(healthy float64) *cluster.Cluster {
	m := cluster.Homogeneous(8, 1e5, 512, 100)
	m.Fail(2, 0.4*healthy)
	m.Fail(5, 0.6*healthy)
	return m
}

// nodeLossConfig is the small trace's node-loss replay under
// Static{G-MISP+SP}, whose healthy time places the failures.
func nodeLossConfig(t *testing.T) (*samr.Trace, func() Strategy, RunConfig) {
	t.Helper()
	tr := testTrace(t)
	strat := func() Strategy { return Static{P: partition.GMISPSP} }
	healthy, err := Run(tr, strat(), RunConfig{Machine: cluster.Homogeneous(8, 1e5, 512, 100), NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	return tr, strat, RunConfig{Machine: nodeLoss(healthy.TotalTime), NProcs: 8}
}

// checkFold asserts that a RunResult is the fold of its Snapshots: the
// imbalance aggregates and the switch count exactly, the overheads and the
// total time to rounding (the run adds the same terms in another order).
func checkFold(t *testing.T, name string, res *RunResult) {
	t.Helper()
	var maxImb, imbSum, overhead, total float64
	switches := 0
	for i, s := range res.Snapshots {
		imbSum += s.Quality.Imbalance
		maxImb = max(maxImb, s.Quality.Imbalance)
		overhead += s.Overhead
		total += s.StepTime + s.Overhead
		if i > 0 && s.Partitioner != res.Snapshots[i-1].Partitioner {
			switches++
		}
	}
	if res.MaxImbalance != maxImb || res.AvgImbalance != imbSum/float64(len(res.Snapshots)) {
		t.Errorf("%s: imbalance max %v, avg %v; its snapshots fold to %v, %v",
			name, res.MaxImbalance, res.AvgImbalance, maxImb, imbSum/float64(len(res.Snapshots)))
	}
	if res.Switches != switches {
		t.Errorf("%s: Switches = %d, its snapshots change label %d times", name, res.Switches, switches)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*max(math.Abs(a), math.Abs(b)) }
	if !near(res.PartitionTime+res.MigrationTime, overhead) {
		t.Errorf("%s: PartitionTime + MigrationTime = %v, Σ Overhead = %v", name, res.PartitionTime+res.MigrationTime, overhead)
	}
	if !near(res.TotalTime, total) {
		t.Errorf("%s: TotalTime = %v, Σ (StepTime + Overhead) = %v", name, res.TotalTime, total)
	}
}

// TestRunResultFoldsSnapshots: the golden run, a run that recovers from
// two node losses, and a resumed run each report totals their per-regrid
// records add up to.
func TestRunResultFoldsSnapshots(t *testing.T) {
	golden := goldenScratchCase(t)
	checkFold(t, golden.name, golden.run(t))

	tr, strat, cfg := nodeLossConfig(t)
	res, err := Run(tr, strat(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries < 1 {
		t.Fatalf("node-loss run made %d recoveries, want at least 1", res.Recoveries)
	}
	checkFold(t, "node-loss", res)

	dir := t.TempDir()
	stop := make(chan struct{})
	cfg = golden.config()
	cfg.CheckpointDir, cfg.Interrupt = dir, stop
	if _, err := Run(golden.tr, &interruptAt{Strategy: Adaptive{ImbalanceGuard: 20}, at: 17, stop: stop}, cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted attempt returned %v, want ErrInterrupted", err)
	}
	cfg = golden.config()
	cfg.CheckpointDir, cfg.Resume = dir, true
	res, err = Run(golden.tr, Adaptive{ImbalanceGuard: 20}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFold(t, golden.name+" resumed", res)
}

// deadAndRescue returns an assignment of h with work on node 3 and a copy
// that moves node 3's units onto node 0.
func deadAndRescue(t *testing.T, h *samr.Hierarchy) (dead, rescue *partition.Assignment) {
	t.Helper()
	dead, err := partition.GMISPSP.Partition(h, samr.UniformWorkModel{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dead.Work()[3] == 0 {
		t.Fatal("assignment puts no work on node 3; its failure cannot stall a step")
	}
	rescue = &partition.Assignment{NProcs: dead.NProcs, Units: dead.Units, Owner: append([]int(nil), dead.Owner...), SplitCost: dead.SplitCost}
	for i, o := range rescue.Owner {
		if o == 3 {
			rescue.Owner[i] = 0
		}
	}
	return dead, rescue
}

// TestSwitchesFollowRecordedLabels: a switch is a change of the label a
// snapshot records, which after a mid-interval recovery is the
// replacement's. Node 3 dies just after the first regrid, at t = 0: the
// scripted strategy hands out the dead assignment there, and the recovery
// that follows, and every regrid after it, are asked for the three
// survivors and scripted in their ids.
func TestSwitchesFollowRecordedLabels(t *testing.T) {
	h := testTrace(t).Snapshots[0].H
	dead, rescue4 := deadAndRescue(t, h)
	rescue := survivorRelative(rescue4, []int{0, 1, 2})
	cases := []struct {
		name         string
		assigns      []*partition.Assignment
		labels       []string
		want         []string
		wantSwitches int
	}{
		// doomed→rescue, then rescue: no switch between the records.
		{"recovery-then-same", []*partition.Assignment{dead, rescue}, []string{"doomed", "rescue"}, []string{"rescue", "rescue"}, 0},
		// A→B, then A, then B: two switches between the records, none
		// for the doomed label.
		{"recovery-then-switches", []*partition.Assignment{dead, rescue, rescue, rescue}, []string{"A", "B", "A", "B"}, []string{"B", "A", "B"}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			machine := cluster.Homogeneous(4, 1e5, 512, 100)
			machine.Fail(3, 1e-12)
			tr := &samr.Trace{Name: c.name, RegridEvery: testTrace(t).RegridEvery}
			for range c.want {
				tr.Snapshots = append(tr.Snapshots, samr.Snapshot{H: h})
			}
			dir := t.TempDir()
			res, err := Run(tr, &scriptedStrategy{assigns: c.assigns, labels: c.labels},
				RunConfig{Machine: machine, NProcs: 4, CheckpointDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if res.Recoveries != 1 {
				t.Fatalf("Recoveries = %d, want 1", res.Recoveries)
			}
			var got []string
			for _, s := range res.Snapshots {
				got = append(got, s.Partitioner)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("recorded labels %v, want %v", got, c.want)
			}
			if res.Switches != c.wantSwitches {
				t.Errorf("Switches = %d, want %d", res.Switches, c.wantSwitches)
			}
			checkFold(t, c.name, res)
			// The last checkpoint, at the final boundary, carries the
			// label that finished the interval before it.
			ck, err := ReadCheckpoint(dir)
			if err != nil || ck == nil {
				t.Fatalf("ReadCheckpoint = %v, %v", ck, err)
			}
			if want := c.want[ck.Next-1]; ck.PrevLabel != want {
				t.Errorf("checkpoint at regrid %d: PrevLabel %q, want %q", ck.Next, ck.PrevLabel, want)
			}
		})
	}
}

// TestResumeAcrossRecoveriesIsBitIdentical interrupts the node-loss run at
// every regrid boundary and resumes it: each resumed run is the
// uninterrupted one. It drives the resume's rebuild of the outgoing plan,
// the recoveries' rebuilds from the dead plan, and the plans' swaps,
// wherever the interruption falls among them.
func TestResumeAcrossRecoveriesIsBitIdentical(t *testing.T) {
	tr, strat, cfg := nodeLossConfig(t)
	want, err := Run(tr, strat(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Recoveries != 2 {
		t.Fatalf("node-loss run made %d recoveries, want 2", want.Recoveries)
	}
	for next := 1; next < len(tr.Snapshots); next++ {
		dir := t.TempDir()
		stop := make(chan struct{})
		c := cfg
		c.CheckpointDir, c.CheckpointEvery, c.Interrupt = dir, 1, stop
		c.OnRegrid = func(idx int, _ string) {
			if idx == next-1 {
				close(stop)
			}
		}
		var ie *InterruptedError
		if _, err := Run(tr, strat(), c); !errors.As(err, &ie) || ie.Next != next {
			t.Fatalf("attempt interrupted in regrid %d returned %v, want an interrupt at %d", next-1, err, next)
		}
		c = cfg
		c.CheckpointDir, c.Resume = dir, true
		res, err := Run(tr, strat(), c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("resumed at regrid %d:", next)
			sameResult(t, res, want)
		}
	}
}
