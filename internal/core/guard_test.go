package core

import (
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
)

// badBalancer always produces a maximally imbalanced assignment (all units
// on processor 0), to force the adaptive quality guard.
type badBalancer struct{}

func (badBalancer) Name() string { return "bad-balancer" }

func (badBalancer) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*partition.Assignment, error) {
	a := &partition.Assignment{NProcs: nprocs, SplitCost: 1}
	for l, boxes := range h.Levels {
		for _, b := range boxes {
			a.Units = append(a.Units, partition.Unit{Level: l, Box: b, Weight: wm.BoxWork(h, l, b)})
			a.Owner = append(a.Owner, 0)
		}
	}
	return a, nil
}

func TestAdaptiveImbalanceGuardFallsBack(t *testing.T) {
	tr := testTrace(t)
	meta := NewMetaPartitioner()
	meta.Lookup = func(name string) (partition.Partitioner, error) {
		if name == "G-MISP+SP" {
			return partition.GMISPSP, nil
		}
		// Every non-fallback selection balances terribly.
		return badBalancer{}, nil
	}
	guarded := Adaptive{Meta: meta, ImbalanceGuard: 20}
	ctx := &StepContext{
		Index:   10,
		Trace:   tr,
		Snap:    tr.Snapshots[10],
		WM:      samr.UniformWorkModel{},
		NProcs:  4,
		Machine: cluster.SP2(4),
	}
	// Find a comm-phase snapshot where the policy picks pBD-ISP (so the
	// lookup returns the bad balancer).
	found := false
	for idx := 0; idx < len(tr.Snapshots); idx++ {
		s, err := octant.StateAt(tr, idx, meta.Window)
		if err != nil {
			t.Fatal(err)
		}
		if octant.Classify(s, meta.Thresholds).CommDominated() {
			ctx.Index = idx
			ctx.Snap = tr.Snapshots[idx]
			found = true
			break
		}
	}
	if !found {
		t.Skip("trace has no communication-dominated snapshot")
	}
	a, label, err := guarded.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if label != "G-MISP+SP" {
		t.Fatalf("guard did not fall back: used %s (imbalance %.1f%%)", label, a.Imbalance())
	}
	if a.Imbalance() > 20 {
		t.Fatalf("fallback imbalance %.1f%% above guard", a.Imbalance())
	}
	// The fallback is charged the wasted pass.
	if a.SplitCost <= 60 {
		t.Fatalf("guard did not charge the extra partitioning pass: split cost %g", a.SplitCost)
	}

	// Without the guard the bad assignment sails through.
	unguarded := Adaptive{Meta: meta}
	a2, label2, err := unguarded.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if label2 != "bad-balancer" || a2.Imbalance() < 100 {
		t.Fatalf("unguarded run unexpectedly balanced: %s %.1f%%", label2, a2.Imbalance())
	}
}

func TestAdaptiveGuardKeepsBetterOriginal(t *testing.T) {
	// When the fallback is no better, the original assignment is kept.
	tr := testTrace(t)
	meta := NewMetaPartitioner()
	meta.Lookup = func(name string) (partition.Partitioner, error) {
		if name == "G-MISP+SP" {
			return badBalancer{}, nil // fallback is the bad one
		}
		return partition.PBDISP, nil
	}
	guarded := Adaptive{Meta: meta, ImbalanceGuard: 0.0001} // always triggers
	var ctx *StepContext
	for idx := 0; idx < len(tr.Snapshots); idx++ {
		s, err := octant.StateAt(tr, idx, meta.Window)
		if err != nil {
			t.Fatal(err)
		}
		if octant.Classify(s, meta.Thresholds).CommDominated() {
			ctx = &StepContext{
				Index: idx, Trace: tr, Snap: tr.Snapshots[idx],
				WM: samr.UniformWorkModel{}, NProcs: 4, Machine: cluster.SP2(4),
			}
			break
		}
	}
	if ctx == nil {
		t.Skip("no communication-dominated snapshot")
	}
	_, label, err := guarded.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if label != "pBD-ISP" {
		t.Fatalf("guard replaced a better original with a worse fallback: %s", label)
	}
}
