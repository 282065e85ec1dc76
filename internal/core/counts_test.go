package core

import (
	"errors"
	"reflect"
	"runtime/debug"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
)

// Exact counts a change must not move by accident: a regression that
// doubles one of them fails here, in seconds, with no benchmark host in
// the loop.

// countingLookup is a MetaPartitioner.Lookup that wraps every partitioner
// of the standard database so that each call through it is counted — the
// shape of a caller's decorating Lookup, which Adaptive must still call
// through rather than around.
type countingLookup struct{ calls int }

func (c *countingLookup) lookup(name string) (partition.Partitioner, error) {
	inner, err := partition.ByName(name)
	if err != nil {
		return nil, err
	}
	cp := countedPartitioner{Partitioner: inner, n: &c.calls}
	if ip, ok := inner.(partition.IncrementalPartitioner); ok {
		return countedIncremental{countedPartitioner: cp, inc: ip}, nil
	}
	return cp, nil
}

type countedPartitioner struct {
	partition.Partitioner
	n *int
}

func (cp countedPartitioner) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*partition.Assignment, error) {
	*cp.n++
	return cp.Partitioner.Partition(h, wm, nprocs)
}

type countedIncremental struct {
	countedPartitioner
	inc partition.IncrementalPartitioner
}

func (ci countedIncremental) PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *partition.PartitionPlan) (*partition.Assignment, error) {
	*ci.n++
	return ci.inc.PartitionIncremental(h, wm, nprocs, plan)
}

// TestGoldenTracePartitionerCalls pins how often the guarded adaptive
// strategy partitions on the golden SmallConfig trace at 64 procs: one
// call per regrid plus one per guard re-run. Through the counting Lookup
// the run must also still be the golden run, bit for bit.
func TestGoldenTracePartitionerCalls(t *testing.T) {
	// 41 regrids: 34 pBD-ISP selections, 12 of them re-run as G-MISP+SP.
	const (
		wantCalls  = 53
		wantReruns = 12
	)
	tr := testTrace(t)
	var c countingLookup
	meta := NewMetaPartitioner()
	meta.Lookup = c.lookup
	res, err := Run(tr, Adaptive{Meta: meta, ImbalanceGuard: 20}, RunConfig{
		Machine: cluster.SP2(64), NProcs: 64, WorkModel: rm3d.SmallConfig().WorkModel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenResult(t, "rm3d-small/adaptive/64"); !reflect.DeepEqual(res, want) {
		t.Fatal("a counting Lookup changed the run: it no longer matches the golden record")
	}
	reruns := c.calls - len(tr.Snapshots)
	if c.calls != wantCalls || reruns != wantReruns {
		t.Fatalf("%d partitioner calls and %d guard re-runs per run, want %d and %d", c.calls, reruns, wantCalls, wantReruns)
	}
}

// interruptAt closes stop when the run enters regrid at, so the run stops
// at the next regrid boundary.
type interruptAt struct {
	Strategy
	at   int
	stop chan struct{}
}

func (s *interruptAt) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	if ctx.Index == s.at {
		close(s.stop)
	}
	return s.Strategy.Assign(ctx)
}

// TestCheckpointedRunSyncsOncePerAttempt: a short checkpointed run — one
// that finishes well inside the store's one-second sync bound — makes
// exactly one sync per attempt, at Close, whether it runs through or is
// interrupted once and resumed.
func TestCheckpointedRunSyncsOncePerAttempt(t *testing.T) {
	full := testTrace(t)
	tr := *full
	tr.Snapshots = full.Snapshots[:8]
	cfg := func(dir string) RunConfig {
		return RunConfig{Machine: cluster.SP2(8), NProcs: 8, CheckpointDir: dir, CheckpointEvery: 1}
	}
	syncs := func() uint64 { return histogramCount("pragma_checkpoint_sync_seconds") }

	before := syncs()
	ref, err := Run(&tr, Adaptive{ImbalanceGuard: 20}, cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if got := syncs() - before; got != 1 {
		t.Fatalf("uninterrupted run made %d syncs, want 1", got)
	}

	dir := t.TempDir()
	before = syncs()
	stop := make(chan struct{})
	c := cfg(dir)
	c.Interrupt = stop
	if _, err := Run(&tr, &interruptAt{Strategy: Adaptive{ImbalanceGuard: 20}, at: 3, stop: stop}, c); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted attempt returned %v, want ErrInterrupted", err)
	}
	if got := syncs() - before; got != 1 {
		t.Fatalf("interrupted attempt made %d syncs, want 1", got)
	}
	before = syncs()
	c = cfg(dir)
	c.Resume = true
	res, err := Run(&tr, Adaptive{ImbalanceGuard: 20}, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := syncs() - before; got != 1 {
		t.Fatalf("resumed attempt made %d syncs, want 1", got)
	}
	sameResult(t, res, ref)
}

// TestGuardedAssignAllocatesOnlyTheAssignment: once the step's plan is
// warm, a guarded Assign in which pBD-ISP loses to G-MISP+SP allocates the
// assignment it returns — the struct, its Units, its Owner — and nothing
// for the discarded candidate.
func TestGuardedAssignAllocatesOnlyTheAssignment(t *testing.T) {
	tr := testTrace(t)
	wmAt := rm3d.SmallConfig().WorkModel
	meta := NewMetaPartitioner()
	guarded := Adaptive{Meta: meta, ImbalanceGuard: 20}
	plan := partition.NewPartitionPlan()
	for idx := range tr.Snapshots {
		p, _, err := meta.SelectAt(tr, idx)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &StepContext{Index: idx, Trace: tr, Snap: tr.Snapshots[idx], WM: wmAt(idx), NProcs: 64, PartitionPlan: plan}
		_, label, err := guarded.Assign(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != "pBD-ISP" || label != "G-MISP+SP" {
			continue
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := guarded.Assign(ctx); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 3 {
			t.Fatalf("regrid %d: a guarded Assign allocates %v objects, want 3 (the assignment, its Units, its Owner)", idx, allocs)
		}
		return
	}
	t.Fatal("no regrid of the trace where the guard replaces pBD-ISP with G-MISP+SP")
}

// TestWarmRunAllocations pins what a warm core.Run allocates on the golden
// SmallConfig trace at 64 procs: 41 regrids, 12 guard re-runs. With its
// scratch taken from the pool, a run allocates only what it hands out or
// records:
//
//	  127  assignments: 41 × 3 (struct, Units, Owner); the candidate
//	       slots grow Units and Owner 43 times for the 41 they hand
//	       over (41 × 3 + 2 × 2)
//	+  49  the run: its RunResult, 41 StepContexts, 7 growths of Snapshots
//	+ 228  the pac and migration span attributes: 3 floats formatted per
//	       regrid, a buffer and a string each, no string for the 18
//	       one-character results (41 × 3 × 2 − 18)
//	+ 598  the regrid trace: 14 per regrid (trace and its attributes,
//	       three span growths and the open stack, four span attribute
//	       lists, two events and their attributes) and 2 per guard re-run
//	       (its event) = 41 × 14 + 12 × 2
//	+   1  this test's Adaptive, boxed into a Strategy
//	= 1003
//
// Before runs recycled their scratch the count was 1188: every run grew
// its partition plan, both communication plans and its work vector from
// empty, 185 objects more. A change that brings that warm-up back fails
// here. The work models are built once, as the fleet's materializer
// builds them, and the collector is held off while counting: a
// collection can account an object of its own to the window.
func TestWarmRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled scratch at random")
	}
	const want = 1003
	tr := testTrace(t)
	wms := make([]samr.WorkModel, len(tr.Snapshots))
	for i := range wms {
		wms[i] = rm3d.SmallConfig().WorkModel(i)
	}
	cfg := RunConfig{Machine: cluster.SP2(64), NProcs: 64, WorkModel: func(i int) samr.WorkModel { return wms[i] }}
	run := func() {
		if _, err := Run(tr, Adaptive{ImbalanceGuard: 20}, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(10, run); got != want {
		t.Fatalf("a warm run allocates %v objects, want %d", got, want)
	}
}
