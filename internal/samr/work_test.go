package samr

import (
	"math/rand"
	"testing"
)

// frontWorkPerCall is FrontWorkModel.BoxWork as it was before the prepared
// form: every front refined `level` times and intersected on every call.
// Kept verbatim as the oracle for TestBoxWeigherMatchesFrontWorkModel.
func frontWorkPerCall(f FrontWorkModel, h *Hierarchy, level int, b Box) float64 {
	w := f.Base.BoxWork(h, level, b)
	base := f.Base.CellCost
	if base == 0 {
		base = 1
	}
	scale := h.refinementScale(level)
	for _, fr := range f.Fronts {
		region := fr.Region
		for i := 0; i < level; i++ {
			region = region.Refine(h.Ratio)
		}
		if inter, ok := b.Intersect(region); ok && fr.Multiplier > 1 {
			w += base * (fr.Multiplier - 1) * float64(inter.Volume()) * float64(scale)
		}
	}
	return w
}

// halvingNodes visits every node of the variable-grain recursion on b:
// halve along the longest axis down to single cells along it or 5 levels.
func halvingNodes(b Box, depth int, visit func(Box)) {
	visit(b)
	longest := 0
	for d := 1; d < 3; d++ {
		if b.Dx(d) > b.Dx(longest) {
			longest = d
		}
	}
	if depth == 0 || b.Dx(longest) < 2 {
		return
	}
	lo, hi := b.Split(longest, b.Lo[longest]+b.Dx(longest)/2)
	halvingNodes(lo, depth-1, visit)
	halvingNodes(hi, depth-1, visit)
}

// TestBoxWeigherMatchesFrontWorkModel: a weigher Reset for a hierarchy box
// returns, for every node of that box's halving recursion, exactly the
// float the per-call front model returns — the same terms in the same
// order — and so does FrontWorkModel.BoxWork itself. Float equality, no
// tolerance: partitioners compare these weights against thresholds.
func TestBoxWeigherMatchesFrontWorkModel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var w BoxWeigher // one weigher throughout: Reset must leave nothing behind
	for it := 0; it < 300; it++ {
		ratio := 2 + rng.Intn(2)
		dom := MakeBox(8+rng.Intn(12), 6+rng.Intn(8), 6+rng.Intn(8))
		h := mustHierarchy(t, dom, ratio)
		fronts := make([]Front, rng.Intn(9))
		for i := range fronts {
			// Level-0 regions inside, astride and outside the domain.
			lo := Point{rng.Intn(dom.Dx(0)+12) - 6, rng.Intn(dom.Dx(1)+12) - 6, rng.Intn(dom.Dx(2)+12) - 6}
			fronts[i] = Front{
				Region:     Box{Lo: lo, Hi: Point{lo[0] + 1 + rng.Intn(8), lo[1] + 1 + rng.Intn(6), lo[2] + 1 + rng.Intn(6)}},
				Multiplier: []float64{0, 0.5, 1, 1.25, 2, 3.7}[rng.Intn(6)],
			}
		}
		f := FrontWorkModel{Base: UniformWorkModel{CellCost: []float64{0, 1, 0.3, 2.5}[rng.Intn(4)]}, Fronts: fronts}
		for level := 0; level <= 2; level++ {
			ld := h.LevelDomain(level)
			// A hierarchy box somewhere in the level domain; many fronts
			// miss it.
			lo := Point{rng.Intn(ld.Dx(0) - 3), rng.Intn(ld.Dx(1) - 3), rng.Intn(ld.Dx(2) - 3)}
			box, _ := Box{Lo: lo, Hi: Point{lo[0] + 2 + rng.Intn(24), lo[1] + 2 + rng.Intn(16), lo[2] + 2 + rng.Intn(16)}}.Intersect(ld)
			w.Reset(f, h, level, box)
			halvingNodes(box, 5, func(b Box) {
				want := frontWorkPerCall(f, h, level, b)
				if got := w.BoxWork(b); got != want {
					t.Fatalf("iter %d level %d: prepared weight of %v in %v = %v, per-call model %v\nfronts %v",
						it, level, b, box, got, want, fronts)
				}
				if got := f.BoxWork(h, level, b); got != want {
					t.Fatalf("iter %d level %d: FrontWorkModel.BoxWork(%v) = %v, per-call model %v\nfronts %v",
						it, level, b, got, want, fronts)
				}
			})
		}
		// Any other model is called through.
		u := UniformWorkModel{CellCost: 1.5}
		w.Reset(u, h, 1, h.LevelDomain(1))
		if got, want := w.BoxWork(h.LevelDomain(1)), u.BoxWork(h, 1, h.LevelDomain(1)); got != want {
			t.Fatalf("uniform model through the weigher = %v, direct %v", got, want)
		}
	}
}

// TestFrontWorkModelBoxWorkDoesNotAllocate: the unprepared entry point
// builds its front list on the stack for the front counts the trace
// generators produce.
func TestFrontWorkModelBoxWorkDoesNotAllocate(t *testing.T) {
	h := mustHierarchy(t, MakeBox(32, 16, 16), 2)
	f := FrontWorkModel{Fronts: []Front{
		{Region: MakeBox(8, 16, 16), Multiplier: 2},
		{Region: Box{Lo: Point{20, 0, 0}, Hi: Point{24, 16, 16}}, Multiplier: 3},
	}}
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += f.BoxWork(h, 1, h.LevelDomain(1)) }); n != 0 {
		t.Fatalf("FrontWorkModel.BoxWork allocated %v times per call", n)
	}
	_ = sink
}
