package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/telemetry"
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

// TestGoldenTracePlanLevels pins how the golden run's communication plans
// find their contacts. Each of the 41 regrids builds one plan, with the
// previous regrid's as its source (none for the first), over 95 levels
// in all: 41 with level 0 and level 1, 13 of them with level 2 as well
// (41 × 2 + 13). A level is copied when the source has exactly its boxes
// and, if it has a coarser level, that level is copied too:
//
//	41 copied = 24 level-0 + 17 level-1 + 0 level-2
//	54 searched = 17 level-0 + 24 level-1 + 13 level-2
//
// One level 2 has the source's boxes under a changed level 1, so only its
// fine/coarse contacts are searched; it counts as searched. A change that
// stops copying, or copies what it may not, moves these counts while the
// run stays golden.
func TestGoldenTracePlanLevels(t *testing.T) {
	const wantCopied, wantSearched = 41, 54
	tr := testTrace(t)
	levels := func(geometry string) float64 {
		var n float64
		for _, s := range telemetry.Default.Snapshot().Find("pragma_partition_plan_levels_total") {
			if s.Labels["geometry"] == geometry {
				n += s.Value
			}
		}
		return n
	}
	copied, searched := levels("copied"), levels("searched")
	res, err := Run(tr, Adaptive{ImbalanceGuard: 20}, RunConfig{
		Machine: cluster.SP2(64), NProcs: 64, WorkModel: rm3d.SmallConfig().WorkModel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenResult(t, "rm3d-small/adaptive/64"); !reflect.DeepEqual(res, want) {
		t.Fatal("the run no longer matches the golden record")
	}
	copied, searched = levels("copied")-copied, levels("searched")-searched
	if copied != wantCopied || searched != wantSearched {
		t.Fatalf("plan levels: %g copied and %g searched per run, want %d and %d", copied, searched, wantCopied, wantSearched)
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
// for the discarded candidate, when the plan remembers nothing (the first
// regrid of a run on recycled scratch); repeated on the same inputs, it
// returns the same assignment and allocates nothing.
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
		a, label, err := guarded.Assign(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != "pBD-ISP" || label != "G-MISP+SP" {
			continue
		}
		first := testing.AllocsPerRun(20, func() {
			plan.Forget()
			if _, _, err := guarded.Assign(ctx); err != nil {
				t.Fatal(err)
			}
		})
		if first != 3 {
			t.Fatalf("regrid %d: a guarded Assign allocates %v objects, want 3 (the assignment, its Units, its Owner)", idx, first)
		}
		if a, _, err = guarded.Assign(ctx); err != nil {
			t.Fatal(err)
		}
		repeated := testing.AllocsPerRun(20, func() {
			if b, _, err := guarded.Assign(ctx); err != nil || b != a {
				t.Fatalf("regrid %d: a repeated guarded Assign returned %p (%v), want the last one's %p", idx, b, err, a)
			}
		})
		if repeated != 0 {
			t.Fatalf("regrid %d: a repeated guarded Assign allocates %v objects, want 0", idx, repeated)
		}
		return
	}
	t.Fatal("no regrid of the trace where the guard replaces pBD-ISP with G-MISP+SP")
}

// TestGoldenTraceCandidatesReused pins how many candidates the guarded
// adaptive strategy is served from its plan's memory at 64 processors:
// every regrid whose hierarchy and work model equal the previous one's
// gets its selected candidate back, and, when the guard fires, the
// G-MISP+SP one too, and returns the previous assignment itself. On the
// golden SmallConfig trace 16 of 41 regrids repeat (19 candidates: 16
// pBD-ISP, 3 G-MISP+SP); on the paper trace 91 of 202 (142 candidates: 86
// pBD-ISP, 56 G-MISP+SP). Both runs must stay what they were.
func TestGoldenTraceCandidatesReused(t *testing.T) {
	reused := func() map[string]float64 {
		m := map[string]float64{}
		for _, s := range telemetry.Default.Snapshot().Find("pragma_partition_candidates_reused_total") {
			m[s.Labels["partitioner"]] = s.Value
		}
		return m
	}
	for _, c := range []struct {
		name        string
		tr          *samr.Trace
		wm          func(int) samr.WorkModel
		repeats     int
		pbd, gmispp float64
	}{
		{"rm3d-small", testTrace(t), rm3d.SmallConfig().WorkModel, 16, 16, 3},
		{"rm3d-paper", paperTrace(t), rm3d.DefaultConfig().WorkModel, 91, 86, 56},
	} {
		before := reused()
		strat := &repeatCounter{Strategy: Adaptive{ImbalanceGuard: 20}}
		res, err := Run(c.tr, strat, RunConfig{Machine: cluster.SP2(64), NProcs: 64, WorkModel: c.wm})
		if err != nil {
			t.Fatal(err)
		}
		after := reused()
		if c.name == "rm3d-small" {
			if want := goldenResult(t, "rm3d-small/adaptive/64"); !reflect.DeepEqual(res, want) {
				t.Fatal("the run no longer matches the golden record")
			}
		} else if got := fmt.Sprintf("%.1f", res.TotalTime); got != "252.2" {
			t.Fatalf("%s: simulated run-time %s s, want Table 4's adaptive 252.2 s", c.name, got)
		}
		var other float64
		for name, v := range after {
			if name != "pBD-ISP" && name != "G-MISP+SP" {
				other += v - before[name]
			}
		}
		pbd, gmispp := after["pBD-ISP"]-before["pBD-ISP"], after["G-MISP+SP"]-before["G-MISP+SP"]
		if strat.repeats != c.repeats || pbd != c.pbd || gmispp != c.gmispp || other != 0 {
			t.Errorf("%s: %d assignments repeated, candidates reused %g pBD-ISP, %g G-MISP+SP, %g other; want %d, %g, %g, 0",
				c.name, strat.repeats, pbd, gmispp, other, c.repeats, c.pbd, c.gmispp)
		}
	}
}

// repeatCounter counts the regrids whose assignment is the outgoing one
// itself.
type repeatCounter struct {
	Strategy
	repeats int
}

func (s *repeatCounter) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	a, label, err := s.Strategy.Assign(ctx)
	if err == nil && a == ctx.PrevAssignment {
		s.repeats++
	}
	return a, label, err
}

// TestWarmRunAllocations pins what a warm core.Run allocates on the golden
// SmallConfig trace at 64 procs: 41 regrids, 12 guard re-runs, 16 regrids
// that repeat the previous one's inputs. With its scratch taken from the
// pool, a run allocates only what it hands out or records:
//
//	   79  assignments: the 25 regrids that do not repeat materialize
//	       one each, 3 objects (struct, Units, Owner); the candidate
//	       slots grow Units and Owner 27 times for the 25 they hand over
//	       (25 × 3 + 2 × 2). A repeating regrid is served its candidates
//	       and its assignment from the plan's memory
//	+  49  the run: its RunResult, 41 StepContexts, 7 growths of Snapshots
//	+ 228  the pac and migration span attributes: 3 floats formatted per
//	       regrid, a buffer and a string each, no string for the 18
//	       one-character results (41 × 3 × 2 − 18)
//	+ 598  the regrid trace: 14 per regrid (trace and its attributes,
//	       three span growths and the open stack, four span attribute
//	       lists, two events and their attributes) and 2 per guard re-run
//	       (its event) = 41 × 14 + 12 × 2
//	+   1  this test's Adaptive, boxed into a Strategy
//	= 955
//
// Before a repeating regrid reused its decision the count was 1003 (41
// assignments, 43 growths); before runs recycled their scratch it was
// 1188: every run grew its partition plan, both communication plans and
// its work vector from empty, 185 objects more. A change that brings
// either back fails here. The work models are built once, as the fleet's
// materializer builds them, and the collector is held off while counting:
// a collection can account an object of its own to the window.
func TestWarmRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled scratch at random")
	}
	const want = 955
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
