package octant

import (
	"math"
	"testing"

	"github.com/pragma-grid/pragma/internal/samr"
)

// This file holds the boundary-value property tests for octant
// classification: behavior exactly at and ±ε around each axis threshold
// must be stable and total, and degenerate inputs (NaN axes, zero-extent
// refinement) must classify without panicking.

// eps is well below any threshold scale but large enough to survive the
// float64 arithmetic inside the classifier.
const eps = 1e-9

// TestClassifyBoundaryStability sweeps all 27 combinations of
// {below, at, above} threshold across the three axes and checks the crisp
// classifier lands in exactly the octant FromAxes predicts, with the
// documented >=-at-threshold convention.
func TestClassifyBoundaryStability(t *testing.T) {
	th := DefaultThresholds()
	offsets := []float64{-eps, 0, +eps}
	for _, dd := range offsets {
		for _, dc := range offsets {
			for _, ds := range offsets {
				s := State{
					Dynamics:   th.Dynamics + dd,
					CommRatio:  th.CommRatio + dc,
					Dispersion: th.Dispersion + ds,
				}
				// At-threshold (offset 0) counts as the upper half-space.
				want := FromAxes(dd >= 0, dc >= 0, ds >= 0)
				got := Classify(s, th)
				if got != want {
					t.Errorf("offsets (%g,%g,%g): classified %v, want %v", dd, dc, ds, got, want)
				}
				// Stability: the same state classifies identically on
				// repeated calls (the classifier is stateless).
				if again := Classify(s, th); again != got {
					t.Errorf("offsets (%g,%g,%g): classification flapped %v -> %v", dd, dc, ds, got, again)
				}
			}
		}
	}
}

// TestClassifyTotal checks totality over a degenerate-input grid: every
// state — including zeros, negatives, infinities and NaN — classifies to
// exactly one valid octant without panicking.
func TestClassifyTotal(t *testing.T) {
	th := DefaultThresholds()
	values := []float64{math.NaN(), math.Inf(-1), -1, 0, eps, th.Dynamics, 0.5, 1, 100, math.Inf(1)}
	for _, d := range values {
		for _, c := range values {
			for _, s := range values {
				st := State{Dynamics: d, CommRatio: c, Dispersion: s}
				o := Classify(st, th)
				if !o.Valid() {
					t.Fatalf("state %+v: invalid octant %v", st, o)
				}
			}
		}
	}
	// NaN compares false on every axis, so it lands in the all-lower
	// octant III deterministically.
	nan := math.NaN()
	if o := Classify(State{Dynamics: nan, CommRatio: nan, Dispersion: nan}, th); o != III {
		t.Errorf("all-NaN state classified %v, want III", o)
	}
}

// TestStateAtZeroExtentRefinement checks the measurement path on traces
// whose hierarchies have no refined region at all: metrics degrade to
// zeros (no division-by-zero panic) and classification stays total.
func TestStateAtZeroExtentRefinement(t *testing.T) {
	mk := func() *samr.Hierarchy {
		h, err := samr.NewHierarchy(samr.MakeBox(16, 16, 16), 2)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	tr := &samr.Trace{Name: "empty", RegridEvery: 4}
	for i := 0; i < 3; i++ {
		tr.Snapshots = append(tr.Snapshots, samr.Snapshot{Index: i, H: mk()})
	}
	s, err := StateAt(tr, 2, 3)
	if err != nil {
		t.Fatalf("StateAt on empty refinement: %v", err)
	}
	if s.Dynamics != 0 || s.CommRatio != 0 || s.Dispersion != 0 {
		t.Errorf("empty refinement state %+v, want zeros", s)
	}
	if o := Classify(s, DefaultThresholds()); o != III {
		t.Errorf("empty refinement classified %v, want III", o)
	}
}
