package samr

import (
	"math"
	"math/rand"
	"slices"
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

// deepHierarchy is dom refined whole down to the given depth.
func deepHierarchy(t testing.TB, dom Box, ratio, depth int) *Hierarchy {
	t.Helper()
	h := mustHierarchy(t, dom, ratio)
	for l := 1; l < depth; l++ {
		if err := h.SetLevel(l, []Box{h.LevelDomain(l)}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// checkWeigher resets w, already prepared for f and h, to box on level and
// holds every node of box's halving recursion to the per-call oracle: the
// weigher's weight and FrontWorkModel.BoxWork's, float equality, no
// tolerance — partitioners compare these weights against thresholds. It
// returns box's own weight.
func checkWeigher(t *testing.T, w *BoxWeigher, f FrontWorkModel, h *Hierarchy, level int, box Box) float64 {
	t.Helper()
	w.Reset(level, box)
	halvingNodes(box, 5, func(b Box) {
		want := frontWorkPerCall(f, h, level, b)
		if got := w.BoxWork(b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("level %d ratio %d: prepared weight of %v in %v = %v, per-call model %v\nmodel %+v",
				level, h.Ratio, b, box, got, want, f)
		}
		if got := f.BoxWork(h, level, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("level %d ratio %d: FrontWorkModel.BoxWork(%v) = %v, per-call model %v\nmodel %+v",
				level, h.Ratio, b, got, want, f)
		}
	})
	return w.BoxWork(box)
}

// TestBoxWeigherMatchesFrontWorkModel: a weigher prepared for a hierarchy
// and Reset for one of its boxes returns, for every node of that box's
// halving recursion, exactly the float the per-call front model returns —
// the same terms in the same order — and so does FrontWorkModel.BoxWork
// itself. One weigher serves every case and every random hierarchy in
// turn: Prepare must leave nothing of the previous one behind.
func TestBoxWeigherMatchesFrontWorkModel(t *testing.T) {
	var w BoxWeigher
	t.Run("face contact only", func(t *testing.T) {
		// Each box shares exactly one face with the front: one extent is 0,
		// so the front is dropped and the weight is the base weight.
		h := mustHierarchy(t, MakeBox(16, 8, 8), 2)
		f := FrontWorkModel{Base: UniformWorkModel{CellCost: 0.75}, Fronts: []Front{
			{Region: Box{Lo: Point{4, 2, 2}, Hi: Point{8, 6, 6}}, Multiplier: 3},
		}}
		w.Prepare(f, h)
		for _, box := range []Box{
			{Lo: Point{8, 2, 2}, Hi: Point{12, 6, 6}}, // x = 8 face
			{Lo: Point{0, 2, 2}, Hi: Point{4, 6, 6}},  // x = 4 face
			{Lo: Point{4, 6, 2}, Hi: Point{8, 8, 6}},  // y = 6 face
			{Lo: Point{4, 2, 0}, Hi: Point{8, 6, 2}},  // z = 2 face
		} {
			if got, base := checkWeigher(t, &w, f, h, 0, box), f.Base.BoxWork(h, 0, box); got != base {
				t.Fatalf("%v touches the front only on a face: weight %v, base %v", box, got, base)
			}
		}
		// On level 1 the same faces, refined.
		box := Box{Lo: Point{16, 4, 4}, Hi: Point{24, 12, 12}}
		if got, base := checkWeigher(t, &w, f, h, 1, box), f.Base.BoxWork(h, 1, box); got != base {
			t.Fatalf("level-1 %v touches the front only on a face: weight %v, base %v", box, got, base)
		}
		// Reset for a box the front overlaps, whose halving nodes touch it
		// on faces: the front is kept, and each face-only node must skip
		// it. An infinite multiplier makes a zero-volume term NaN, so a
		// zero extent counted as an overlap shows.
		inf := FrontWorkModel{Base: f.Base, Fronts: []Front{{Region: f.Fronts[0].Region, Multiplier: math.Inf(1)}}}
		w.Prepare(inf, h)
		checkWeigher(t, &w, inf, h, 0, MakeBox(16, 8, 8))
		face := Box{Lo: Point{8, 0, 0}, Hi: Point{16, 8, 8}}
		if got := w.BoxWork(face); got != inf.Base.BoxWork(h, 0, face) {
			t.Fatalf("%v touches an infinite front on a face: weight %v", face, got)
		}
	})
	t.Run("negative coordinates", func(t *testing.T) {
		dom := Box{Lo: Point{-8, -6, -4}, Hi: Point{8, 2, 4}}
		h := deepHierarchy(t, dom, 3, 3)
		f := FrontWorkModel{Base: UniformWorkModel{CellCost: 1.25}, Fronts: []Front{
			{Region: Box{Lo: Point{-5, -6, -3}, Hi: Point{-1, -2, 1}}, Multiplier: 2.5},
			{Region: Box{Lo: Point{-12, -1, -9}, Hi: Point{-6, 5, -2}}, Multiplier: 4},
			{Region: Box{Lo: Point{-2, -3, -1}, Hi: Point{3, 1, 2}}, Multiplier: 1.5},
		}}
		w.Prepare(f, h)
		for level := 0; level < 3; level++ {
			checkWeigher(t, &w, f, h, level, h.LevelDomain(level))
			s := h.refinementScale(level)
			checkWeigher(t, &w, f, h, level, Box{Lo: Point{-7 * s, -5 * s, -4 * s}, Hi: Point{-s, s, 0}})
		}
	})
	t.Run("no surcharge", func(t *testing.T) {
		// CellCost 0 charges 1 per cell; multipliers 0, 1 and < 1 add
		// nothing and are dropped.
		h := deepHierarchy(t, MakeBox(12, 8, 8), 2, 2)
		f := FrontWorkModel{Fronts: []Front{
			{Region: MakeBox(6, 8, 8), Multiplier: 0},
			{Region: Box{Lo: Point{2, 2, 2}, Hi: Point{10, 6, 6}}, Multiplier: 1},
			{Region: Box{Lo: Point{4, 0, 0}, Hi: Point{12, 4, 4}}, Multiplier: 0.5},
		}}
		w.Prepare(f, h)
		if len(w.refined) != 0 {
			t.Fatalf("%d refined regions kept for fronts without a surcharge", len(w.refined))
		}
		for level := 0; level <= 2; level++ {
			box := h.LevelDomain(level)
			if got, want := checkWeigher(t, &w, f, h, level, box), float64(box.Volume())*float64(h.refinementScale(level)); got != want {
				t.Fatalf("level %d: weight %v, want one per cell-update %v", level, got, want)
			}
		}
	})
	t.Run("hierarchies in turn", func(t *testing.T) {
		// Depth 3 at ratio 2, depth 1 at ratio 3, depth 2 at ratio 4, and
		// back: each Prepare refines for its own levels and Ratio only.
		f := FrontWorkModel{Base: UniformWorkModel{CellCost: 0.5}, Fronts: []Front{
			{Region: Box{Lo: Point{1, 1, 1}, Hi: Point{5, 4, 3}}, Multiplier: 2},
			{Region: Box{Lo: Point{3, 0, 2}, Hi: Point{9, 2, 6}}, Multiplier: 1.75},
		}}
		dom := MakeBox(10, 6, 6)
		hs := []*Hierarchy{deepHierarchy(t, dom, 2, 3), deepHierarchy(t, dom, 3, 1), deepHierarchy(t, dom, 4, 2)}
		for round := 0; round < 2; round++ {
			for _, h := range hs {
				w.Prepare(f, h)
				if want := 2 * h.Depth(); len(w.refined) != want {
					t.Fatalf("ratio %d depth %d: %d refined regions, want %d", h.Ratio, h.Depth(), len(w.refined), want)
				}
				for level := 2; level >= 0; level-- {
					checkWeigher(t, &w, f, h, level, h.LevelDomain(level))
				}
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		for it := 0; it < 300; it++ {
			ratio := 2 + rng.Intn(2)
			dom := MakeBox(8+rng.Intn(12), 6+rng.Intn(8), 6+rng.Intn(8))
			h := deepHierarchy(t, dom, ratio, 1+rng.Intn(3))
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
			w.Prepare(f, h)
			// Levels 0-2 whatever the hierarchy holds, in a random order.
			for _, level := range rng.Perm(3) {
				ld := h.LevelDomain(level)
				// A hierarchy box somewhere in the level domain; many
				// fronts miss it.
				lo := Point{rng.Intn(ld.Dx(0) - 3), rng.Intn(ld.Dx(1) - 3), rng.Intn(ld.Dx(2) - 3)}
				box, _ := Box{Lo: lo, Hi: Point{lo[0] + 2 + rng.Intn(24), lo[1] + 2 + rng.Intn(16), lo[2] + 2 + rng.Intn(16)}}.Intersect(ld)
				checkWeigher(t, &w, f, h, level, box)
			}
			// Any other model is called through.
			u := UniformWorkModel{CellCost: 1.5}
			w.Prepare(u, h)
			w.Reset(1, h.LevelDomain(1))
			if got, want := w.BoxWork(h.LevelDomain(1)), u.BoxWork(h, 1, h.LevelDomain(1)); got != want {
				t.Fatalf("uniform model through the weigher = %v, direct %v", got, want)
			}
		}
	})
}

// FuzzBoxWeigherMatchesFrontWorkModel holds the prepared weigher to the
// per-call oracle on fuzzer-shaped boxes, fronts, levels, ratios, cell
// costs and multipliers, after the same weigher served another hierarchy.
// Each front is five bytes: a level-0 corner (three int8), a size byte
// (three 2-bit extents + 1) and a multiplier byte ((m-32)/16, 255 being
// +Inf so that a zero-volume term would show as NaN). Every
// front's overlap with every node is also held to Intersect + Volume.
func FuzzBoxWeigherMatchesFrontWorkModel(f *testing.F) {
	f.Add(int8(0), int8(0), int8(0), uint8(20), uint8(12), uint8(12), uint8(1), uint8(2), uint8(3), uint8(8),
		[]byte{2, 2, 2, 0x3f, 64, 250, 1, 3, 0x15, 48, 8, 0, 0, 0x2a, 40})
	f.Add(int8(-9), int8(-3), int8(5), uint8(7), uint8(31), uint8(2), uint8(2), uint8(3), uint8(0), uint8(0),
		[]byte{247, 253, 5, 0xff, 200, 0, 0, 0, 0, 32})
	f.Add(int8(4), int8(4), int8(4), uint8(4), uint8(4), uint8(4), uint8(0), uint8(4), uint8(2), uint8(1),
		[]byte{8, 4, 4, 0x00, 255, 0, 4, 4, 0x00, 96}) // face contacts on x and y
	f.Fuzz(func(t *testing.T, x, y, z int8, dx, dy, dz, level, ratio, depth, cost uint8, raw []byte) {
		level %= 4
		r := 2 + int(ratio%3)
		var fronts []Front
		for ; len(raw) >= 5 && len(fronts) < 12; raw = raw[5:] {
			lo := Point{int(int8(raw[0])), int(int8(raw[1])), int(int8(raw[2]))}
			size := Point{1 + int(raw[3]&3), 1 + int(raw[3]>>2&3), 1 + int(raw[3]>>4&3)}
			m := (float64(raw[4]) - 32) / 16
			if raw[4] == 255 {
				m = math.Inf(1)
			}
			fronts = append(fronts, Front{Region: Box{Lo: lo, Hi: lo.Add(size.Scale(1 + int(raw[3]>>6)))}, Multiplier: m})
		}
		model := FrontWorkModel{Base: UniformWorkModel{CellCost: float64(cost) / 8}, Fronts: fronts}
		dom := Box{Lo: Point{-16, -16, -16}, Hi: Point{16, 16, 16}}
		var w BoxWeigher
		// Another hierarchy and model first: nothing of it may remain.
		other := deepHierarchy(t, dom, 5-r+2, 3-int(depth%3))
		w.Prepare(FrontWorkModel{Fronts: []Front{{Region: MakeBox(4, 4, 4), Multiplier: 9}}}, other)
		w.Reset(2, other.LevelDomain(2))
		w.BoxWork(other.LevelDomain(2))

		h := deepHierarchy(t, dom, r, 1+int(depth%3))
		w.Prepare(model, h)
		s := h.refinementScale(int(level))
		lo := Point{int(x), int(y), int(z)}.Scale(s)
		box := Box{Lo: lo, Hi: lo.Add(Point{1 + int(dx%32), 1 + int(dy%32), 1 + int(dz%32)})}
		checkWeigher(t, &w, model, h, int(level), box)
		halvingNodes(box, 5, func(b Box) {
			for _, fr := range model.Fronts {
				region := fr.Region.Refine(s)
				inter, _ := b.Intersect(region)
				if got, want := b.OverlapVolume(region), inter.Volume(); got != want {
					t.Fatalf("%v.OverlapVolume(%v) = %d, Intersect + Volume %d", b, region, got, want)
				}
			}
		})
	})
}

// TestBoxWeigherPreparesOncePerHierarchy pins the prepared path: Prepare
// refines each surcharged front once per level, and a Reset per box only
// filters. After Prepare the model's fronts are moved, so a Reset that
// re-refines from the model weighs the moved fronts and fails; the refined
// list must keep its backing array and contents, and Resets allocate
// nothing.
func TestBoxWeigherPreparesOncePerHierarchy(t *testing.T) {
	h := mustHierarchy(t, MakeBox(24, 16, 16), 2)
	if err := h.SetLevel(1, []Box{
		{Lo: Point{4, 4, 4}, Hi: Point{20, 16, 16}},
		{Lo: Point{20, 4, 4}, Hi: Point{36, 16, 16}},
		{Lo: Point{8, 16, 8}, Hi: Point{24, 28, 20}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.SetLevel(2, []Box{
		{Lo: Point{12, 12, 12}, Hi: Point{40, 28, 28}},
		{Lo: Point{40, 12, 12}, Hi: Point{64, 28, 28}},
	}); err != nil {
		t.Fatal(err)
	}
	fronts := []Front{
		{Region: Box{Lo: Point{2, 2, 2}, Hi: Point{10, 8, 8}}, Multiplier: 2},
		{Region: Box{Lo: Point{8, 0, 0}, Hi: Point{12, 16, 16}}, Multiplier: 1},
		{Region: Box{Lo: Point{6, 6, 6}, Hi: Point{18, 10, 10}}, Multiplier: 3.5},
		{Region: Box{Lo: Point{0, 12, 0}, Hi: Point{24, 16, 4}}, Multiplier: 0.5},
		{Region: Box{Lo: Point{14, 4, 8}, Hi: Point{20, 12, 14}}, Multiplier: 1.25},
	}
	const surcharged = 3 // multipliers 2, 3.5 and 1.25
	original := append([]Front(nil), fronts...)
	f := FrontWorkModel{Base: UniformWorkModel{CellCost: 0.5}, Fronts: fronts}
	var w BoxWeigher
	w.Prepare(f, h)
	if got, want := len(w.refined), h.Depth()*surcharged; got != want {
		t.Fatalf("Prepare holds %d refined regions, want %d (%d levels x %d surcharged fronts)", got, want, h.Depth(), surcharged)
	}
	refined := append([]Front(nil), w.refined...)
	backing := &w.refined[0]
	for i := range fronts {
		fronts[i].Region = fronts[i].Region.Shift(Point{3, 1, 2})
	}

	type levelBox struct {
		level int
		box   Box
	}
	var boxes []levelBox
	for l, bs := range h.Levels {
		for _, b := range bs {
			boxes = append(boxes, levelBox{l, b})
		}
	}
	var sink float64
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			lb := boxes[i%len(boxes)]
			w.Reset(lb.level, lb.box)
			sink += w.BoxWork(lb.box)
		}
	})
	if allocs != 0 {
		t.Fatalf("1000 Resets allocated %v times", allocs)
	}
	if &w.refined[0] != backing || !slices.Equal(w.refined, refined) {
		t.Fatalf("Resets rewrote the refined regions:\n got %v\nwant %v", w.refined, refined)
	}
	f.Fronts = original
	for l, boxes := range h.Levels {
		for _, b := range boxes {
			w.Reset(l, b)
			if got, want := w.BoxWork(b), frontWorkPerCall(f, h, l, b); got != want {
				t.Fatalf("level %d box %v: weight %v, the prepared fronts' %v", l, b, got, want)
			}
		}
	}
	_ = sink
}

// TestBoxWeigherHierarchyWork: summing through a weigher is
// HierarchyWork bit for bit, and allocates nothing once warm even with
// more fronts than FrontWorkModel.BoxWork keeps on its stack.
func TestBoxWeigherHierarchyWork(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	h := mustHierarchy(t, MakeBox(32, 16, 16), 2)
	if err := h.SetLevel(1, []Box{{Lo: Point{4, 4, 4}, Hi: Point{40, 28, 28}}}); err != nil {
		t.Fatal(err)
	}
	fronts := make([]Front, 12)
	for i := range fronts {
		lo := Point{rng.Intn(28), rng.Intn(12), rng.Intn(12)}
		fronts[i] = Front{Region: Box{Lo: lo, Hi: Point{lo[0] + 4, lo[1] + 4, lo[2] + 4}}, Multiplier: 1.5 + rng.Float64()}
	}
	f := FrontWorkModel{Base: UniformWorkModel{CellCost: 0.7}, Fronts: fronts}
	var w BoxWeigher
	if got, want := w.HierarchyWork(f, h), HierarchyWork(h, f); got != want {
		t.Fatalf("weigher sum %v, HierarchyWork %v", got, want)
	}
	var m WorkModel = f
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += w.HierarchyWork(m, h) }); n != 0 {
		t.Fatalf("BoxWeigher.HierarchyWork allocated %v times per call", n)
	}
	_ = sink
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
