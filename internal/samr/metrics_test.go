package samr

import (
	"math"
	"math/rand"
	"testing"
)

func hierarchyWithLevel1(t testing.TB, boxes ...Box) *Hierarchy {
	t.Helper()
	h := mustHierarchy(t, MakeBox(64, 64, 64), 2)
	if err := h.SetLevel(1, boxes); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestClusterCount(t *testing.T) {
	// Two abutting boxes form one cluster; a distant third is separate.
	h := hierarchyWithLevel1(t,
		Box{Lo: Point{0, 0, 0}, Hi: Point{8, 8, 8}},
		Box{Lo: Point{8, 0, 0}, Hi: Point{16, 8, 8}},
		Box{Lo: Point{100, 100, 100}, Hi: Point{108, 108, 108}},
	)
	if got := h.ClusterCount(1); got != 2 {
		t.Fatalf("cluster count = %d, want 2", got)
	}
	if got := h.ClusterCount(0); got != 1 {
		t.Fatalf("base cluster count = %d", got)
	}
	if got := h.ClusterCount(7); got != 0 {
		t.Fatalf("out-of-range cluster count = %d", got)
	}
}

func TestDispersion(t *testing.T) {
	solid := hierarchyWithLevel1(t, Box{Lo: Point{0, 0, 0}, Hi: Point{16, 16, 16}})
	if got := solid.Dispersion(1); got != 0 {
		t.Fatalf("solid dispersion = %g", got)
	}
	scattered := hierarchyWithLevel1(t,
		Box{Lo: Point{0, 0, 0}, Hi: Point{4, 4, 4}},
		Box{Lo: Point{124, 124, 124}, Hi: Point{128, 128, 128}},
	)
	if got := scattered.Dispersion(1); got < 0.99 {
		t.Fatalf("scattered dispersion = %g, want near 1", got)
	}
	if got := solid.Dispersion(0); got != 0 {
		t.Fatalf("level-0 dispersion = %g", got)
	}
}

func TestSurfaceToVolume(t *testing.T) {
	// A thin sheet has much higher surface/volume than a cube of equal volume.
	sheet := hierarchyWithLevel1(t, Box{Lo: Point{0, 0, 0}, Hi: Point{64, 64, 2}})
	cube := hierarchyWithLevel1(t, Box{Lo: Point{0, 0, 0}, Hi: Point{20, 20, 20}})
	if sheet.SurfaceToVolume(1) <= cube.SurfaceToVolume(1) {
		t.Fatalf("sheet s/v %.3f <= cube s/v %.3f",
			sheet.SurfaceToVolume(1), cube.SurfaceToVolume(1))
	}
	// Exact value for the sheet: 2*(64*64+64*2+2*64)/(64*64*2).
	want := float64(2*(64*64+64*2+2*64)) / float64(64*64*2)
	if got := sheet.SurfaceToVolume(1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("sheet s/v = %g, want %g", got, want)
	}
}

func TestChangeFraction(t *testing.T) {
	a := hierarchyWithLevel1(t, Box{Lo: Point{0, 0, 0}, Hi: Point{16, 16, 16}})
	same := hierarchyWithLevel1(t, Box{Lo: Point{0, 0, 0}, Hi: Point{16, 16, 16}})
	if got := ChangeFraction(a, same, 1); got != 0 {
		t.Fatalf("identical change = %g", got)
	}
	disjoint := hierarchyWithLevel1(t, Box{Lo: Point{32, 32, 32}, Hi: Point{48, 48, 48}})
	if got := ChangeFraction(a, disjoint, 1); got != 1 {
		t.Fatalf("disjoint change = %g", got)
	}
	// Half-overlap: A = [0,16), B = [8,24) along x.
	// |A\B| = 8*16*16, |B\A| = 8*16*16, union = 24*16*16 -> 16/24.
	half := hierarchyWithLevel1(t, Box{Lo: Point{8, 0, 0}, Hi: Point{24, 16, 16}})
	if got := ChangeFraction(a, half, 1); math.Abs(got-16.0/24.0) > 1e-12 {
		t.Fatalf("half change = %g, want %g", got, 16.0/24.0)
	}
	// Symmetry.
	if ChangeFraction(a, half, 1) != ChangeFraction(half, a, 1) {
		t.Fatal("change fraction not symmetric")
	}
	// Missing level on one side counts as full change.
	bare := mustHierarchy(t, MakeBox(64, 64, 64), 2)
	if got := ChangeFraction(a, bare, 1); got != 1 {
		t.Fatalf("missing level change = %g", got)
	}
	if got := ChangeFraction(bare, bare, 1); got != 0 {
		t.Fatalf("both missing change = %g", got)
	}
}

func TestTraceAt(t *testing.T) {
	h := hierarchyWithLevel1(t, Box{Lo: Point{0, 0, 0}, Hi: Point{8, 8, 8}})
	tr := &Trace{Name: "x", RegridEvery: 4, Snapshots: []Snapshot{
		{Index: 0, CoarseStep: 0, H: h},
		{Index: 1, CoarseStep: 4, H: h},
	}}
	if s, ok := tr.At(1); !ok || s.CoarseStep != 4 {
		t.Fatal("At(1) wrong")
	}
	if _, ok := tr.At(2); ok {
		t.Fatal("At(2) should fail")
	}
	if _, ok := tr.At(-1); ok {
		t.Fatal("At(-1) should fail")
	}
}

// differenceVolumeSubtract is the box-carving differenceVolume that
// ChangeFraction used before it was rewritten on intersection volumes,
// kept verbatim as the oracle: |union(a) \ union(b)| assuming the boxes
// within a are pairwise disjoint (a hierarchy level invariant).
func differenceVolumeSubtract(a, b []Box) int64 {
	var vol int64
	for _, box := range a {
		remaining := []Box{box}
		for _, cut := range b {
			var next []Box
			for _, r := range remaining {
				next = append(next, r.Subtract(cut)...)
			}
			remaining = next
			if len(remaining) == 0 {
				break
			}
		}
		vol += boxesVolume(remaining)
	}
	return vol
}

// changeFractionSubtract is the old ChangeFraction on top of that oracle.
func changeFractionSubtract(aBoxes, bBoxes []Box) float64 {
	aVol := boxesVolume(aBoxes)
	bVol := boxesVolume(bBoxes)
	if aVol == 0 && bVol == 0 {
		return 0
	}
	aOnly := differenceVolumeSubtract(aBoxes, bBoxes)
	bOnly := differenceVolumeSubtract(bBoxes, aBoxes)
	union := aVol + bOnly
	if union == 0 {
		return 0
	}
	return float64(aOnly+bOnly) / float64(union)
}

// levelOne wraps a box list as level 1 of an otherwise unchecked hierarchy:
// ChangeFraction reads nothing else.
func levelOne(boxes []Box) *Hierarchy {
	if len(boxes) == 0 {
		return &Hierarchy{Ratio: 2, Levels: [][]Box{nil}}
	}
	return &Hierarchy{Ratio: 2, Levels: [][]Box{nil, boxes}}
}

// disjointBoxes carves a pairwise-disjoint list out of a random box astride
// zero by repeated splitting, dropping some pieces and trimming others.
func disjointBoxes(rng *rand.Rand) []Box {
	lo := Point{rng.Intn(16) - 12, rng.Intn(16) - 12, rng.Intn(16) - 12}
	pieces := []Box{{Lo: lo, Hi: Point{lo[0] + 4 + rng.Intn(16), lo[1] + 4 + rng.Intn(16), lo[2] + 4 + rng.Intn(16)}}}
	for cuts := rng.Intn(6); cuts > 0; cuts-- {
		i := rng.Intn(len(pieces))
		d := rng.Intn(3)
		if pieces[i].Dx(d) < 2 {
			continue
		}
		a, b := pieces[i].Split(d, pieces[i].Lo[d]+1+rng.Intn(pieces[i].Dx(d)-1))
		pieces[i] = a
		pieces = append(pieces, b)
	}
	var out []Box
	for _, p := range pieces {
		switch rng.Intn(4) {
		case 0: // dropped
			continue
		case 1: // trimmed, still inside its piece
			d := rng.Intn(3)
			if p.Dx(d) > 1 {
				p.Hi[d]--
			}
		}
		out = append(out, p)
	}
	return out
}

func checkChangeFraction(t *testing.T, a, b []Box) {
	t.Helper()
	got := ChangeFraction(levelOne(a), levelOne(b), 1)
	if want := changeFractionSubtract(a, b); got != want {
		t.Fatalf("ChangeFraction = %v, box subtraction gives %v\na = %v\nb = %v", got, want, a, b)
	}
	if back := ChangeFraction(levelOne(b), levelOne(a), 1); back != got {
		t.Fatalf("ChangeFraction not symmetric: %v vs %v\na = %v\nb = %v", got, back, a, b)
	}
}

func TestChangeFractionMatchesSubtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 2000; i++ {
		a, b := disjointBoxes(rng), disjointBoxes(rng)
		checkChangeFraction(t, a, b)
		checkChangeFraction(t, a, a)
		checkChangeFraction(t, a, nil)
		if len(a) > 0 {
			// One side nested in the other.
			inner := a[0]
			if inner.Dx(0) > 2 {
				inner.Lo[0]++
				inner.Hi[0]--
			}
			checkChangeFraction(t, a, []Box{inner})
		}
	}
}

// TestChangeFractionOverlappingOperand documents the precondition: a level
// that overlaps itself is not a hierarchy level (Validate rejects it), and
// ChangeFraction counts its doubly covered cells once per overlapping pair.
func TestChangeFractionOverlappingOperand(t *testing.T) {
	x := Box{Lo: Point{0, 0, 0}, Hi: Point{8, 8, 8}}
	whole := Box{Lo: Point{0, 0, 0}, Hi: Point{12, 12, 12}}
	cases := []struct {
		name string
		a, b []Box
		want float64
	}{
		// a covers 960 distinct cells of b's 1728 but reports 1024: the
		// common volume reads 1024, so 704 cells differ instead of 768.
		{"two boxes sharing 4^3 cells", []Box{x, {Lo: Point{4, 4, 4}, Hi: Point{12, 12, 12}}}, []Box{whole}, 704.0 / 1728.0},
		// The common volume (1024) exceeds |b| (512): |b \ a| clamps at 0
		// rather than going negative.
		{"the same box twice", []Box{x, x}, []Box{x}, 0},
	}
	for _, c := range cases {
		h := mustHierarchy(t, MakeBox(16, 16, 16), 2)
		h.Levels = append(h.Levels, c.a)
		if err := h.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted a level that overlaps itself", c.name)
		}
		if got := ChangeFraction(levelOne(c.a), levelOne(c.b), 1); got != c.want {
			t.Errorf("%s: ChangeFraction = %v, documented %v", c.name, got, c.want)
		}
	}
}

// FuzzChangeFraction holds the closed form to the box-carving oracle on
// fuzzer-shaped pairwise-disjoint levels.
func FuzzChangeFraction(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(7), int64(7))
	f.Add(int64(-5), int64(0))
	f.Fuzz(func(t *testing.T, seedA, seedB int64) {
		a := disjointBoxes(rand.New(rand.NewSource(seedA)))
		b := disjointBoxes(rand.New(rand.NewSource(seedB)))
		checkChangeFraction(t, a, b)
		checkChangeFraction(t, a, nil)
	})
}
