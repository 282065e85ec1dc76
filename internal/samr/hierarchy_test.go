package samr

import (
	"math"
	"testing"
)

func mustHierarchy(t testing.TB, domain Box, ratio int) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(domain, ratio)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(Box{}, 2); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewHierarchy(MakeBox(4, 4, 4), 1); err == nil {
		t.Error("ratio 1 accepted")
	}
	h := mustHierarchy(t, MakeBox(128, 32, 32), 2)
	if h.Depth() != 1 {
		t.Fatalf("depth = %d", h.Depth())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetLevelAndValidate(t *testing.T) {
	h := mustHierarchy(t, MakeBox(16, 16, 16), 2)
	// Level 1 lives in 32^3 coordinates.
	if err := h.SetLevel(1, []Box{{Lo: Point{4, 4, 4}, Hi: Point{12, 12, 12}}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Level 2 nested in refined level 1: level-1 box refined is [8..24)^3.
	if err := h.SetLevel(2, []Box{{Lo: Point{10, 10, 10}, Hi: Point{20, 20, 20}}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 3 {
		t.Fatalf("depth = %d", h.Depth())
	}
	// Cannot skip levels.
	h2 := mustHierarchy(t, MakeBox(16, 16, 16), 2)
	if err := h2.SetLevel(2, []Box{MakeBox(2, 2, 2)}); err == nil {
		t.Error("skipping level accepted")
	}
	// Cannot replace base.
	if err := h2.SetLevel(0, nil); err == nil {
		t.Error("replacing base level accepted")
	}
	// Empty level truncates.
	if err := h.SetLevel(2, nil); err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 2 {
		t.Fatalf("truncate failed: depth = %d", h.Depth())
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	h := mustHierarchy(t, MakeBox(16, 16, 16), 2)
	// Box escaping the level domain.
	h.Levels = append(h.Levels, []Box{{Lo: Point{30, 30, 30}, Hi: Point{40, 40, 40}}})
	if err := h.Validate(); err == nil {
		t.Error("escaping box accepted")
	}
	// Overlapping boxes at a level.
	h.Levels[1] = []Box{
		{Lo: Point{0, 0, 0}, Hi: Point{8, 8, 8}},
		{Lo: Point{4, 4, 4}, Hi: Point{12, 12, 12}},
	}
	if err := h.Validate(); err == nil {
		t.Error("overlapping boxes accepted")
	}
	// Unnested level-2 box.
	h.Levels[1] = []Box{{Lo: Point{0, 0, 0}, Hi: Point{8, 8, 8}}}
	h.Levels = append(h.Levels, []Box{{Lo: Point{20, 20, 20}, Hi: Point{30, 30, 30}}})
	if err := h.Validate(); err == nil {
		t.Error("unnested box accepted")
	}
	// Empty box at a level.
	h.Levels = h.Levels[:2]
	h.Levels[1] = []Box{{Lo: Point{4, 4, 4}, Hi: Point{4, 8, 8}}}
	if err := h.Validate(); err == nil {
		t.Error("empty box accepted")
	}
}

func TestWorkAndEfficiency(t *testing.T) {
	// RM3D-like configuration: 128x32x32 base, refinement where needed.
	h := mustHierarchy(t, MakeBox(128, 32, 32), 2)
	if err := h.SetLevel(1, []Box{{Lo: Point{100, 20, 20}, Hi: Point{140, 44, 44}}}); err != nil {
		t.Fatal(err)
	}
	if err := h.SetLevel(2, []Box{{Lo: Point{210, 50, 50}, Hi: Point{250, 80, 80}}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	base := float64(128 * 32 * 32)
	l1 := float64(40*24*24) * 2
	l2 := float64(40*30*30) * 4
	if got := h.TotalWork(); math.Abs(got-(base+l1+l2)) > 1e-9 {
		t.Fatalf("TotalWork = %g, want %g", got, base+l1+l2)
	}
	uniform := base * 64 * 4 // 4^3 more cells, 4x sub-stepping
	if got := h.UniformWork(); math.Abs(got-uniform) > 1e-6 {
		t.Fatalf("UniformWork = %g, want %g", got, uniform)
	}
	eff := h.AMREfficiency()
	if eff < 95 || eff > 100 {
		t.Fatalf("AMR efficiency = %.2f%%, want 95-100%%", eff)
	}
}

func TestCloneIsDeep(t *testing.T) {
	h := mustHierarchy(t, MakeBox(16, 16, 16), 2)
	if err := h.SetLevel(1, []Box{{Lo: Point{0, 0, 0}, Hi: Point{8, 8, 8}}}); err != nil {
		t.Fatal(err)
	}
	c := h.Clone()
	c.Levels[1][0] = Box{Lo: Point{2, 2, 2}, Hi: Point{10, 10, 10}}
	if h.Levels[1][0] == c.Levels[1][0] {
		t.Fatal("clone shares box storage")
	}
}

func TestLevelDomainAndScale(t *testing.T) {
	h := mustHierarchy(t, MakeBox(128, 32, 32), 2)
	if got := h.LevelDomain(0); got != h.Domain {
		t.Fatalf("level 0 domain = %v", got)
	}
	if got := h.LevelDomain(2); got != MakeBox(512, 128, 128) {
		t.Fatalf("level 2 domain = %v", got)
	}
	if h.refinementScale(3) != 8 {
		t.Fatalf("scale(3) = %d", h.refinementScale(3))
	}
}

func TestWorkModels(t *testing.T) {
	h := mustHierarchy(t, MakeBox(32, 32, 32), 2)
	if err := h.SetLevel(1, []Box{{Lo: Point{0, 0, 0}, Hi: Point{16, 16, 16}}}); err != nil {
		t.Fatal(err)
	}
	var uniform UniformWorkModel
	baseWork := uniform.BoxWork(h, 0, h.Domain)
	if baseWork != float64(32*32*32) {
		t.Fatalf("base work = %g", baseWork)
	}
	l1Work := uniform.BoxWork(h, 1, h.Levels[1][0])
	if l1Work != float64(16*16*16)*2 {
		t.Fatalf("level-1 work = %g (MIT scaling missing?)", l1Work)
	}

	front := FrontWorkModel{
		Base:   UniformWorkModel{CellCost: 1},
		Fronts: []Front{{Region: MakeBox(8, 32, 32), Multiplier: 3}},
	}
	// Base box work plus 2x surcharge in the front slab.
	got := front.BoxWork(h, 0, h.Domain)
	want := float64(32*32*32) + 2*float64(8*32*32)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("front work = %g, want %g", got, want)
	}
	// At level 1 the front region is refined too.
	gotL1 := front.BoxWork(h, 1, h.Levels[1][0])
	wantL1 := float64(16*16*16)*2 + 2*float64(16*16*16)*2
	if math.Abs(gotL1-wantL1) > 1e-9 {
		t.Fatalf("front level-1 work = %g, want %g", gotL1, wantL1)
	}

	total := HierarchyWork(h, uniform)
	if math.Abs(total-h.TotalWork()) > 1e-9 {
		t.Fatalf("HierarchyWork %g != TotalWork %g", total, h.TotalWork())
	}
}

func TestTotalCellsSumsLevels(t *testing.T) {
	h := mustHierarchy(t, MakeBox(16, 16, 16), 2)
	if got := h.TotalCells(); got != 16*16*16 {
		t.Fatalf("base-only TotalCells = %d", got)
	}
	if err := h.SetLevel(1, []Box{{Lo: Point{4, 4, 4}, Hi: Point{12, 12, 12}}}); err != nil {
		t.Fatal(err)
	}
	if err := h.SetLevel(2, []Box{{Lo: Point{10, 10, 10}, Hi: Point{20, 20, 20}}}); err != nil {
		t.Fatal(err)
	}
	want := int64(16*16*16 + 8*8*8 + 10*10*10)
	if got := h.TotalCells(); got != want {
		t.Fatalf("TotalCells = %d, want %d", got, want)
	}
	var sum int64
	for l := 0; l < h.Depth(); l++ {
		sum += h.CellsAtLevel(l)
	}
	if sum != want {
		t.Fatalf("CellsAtLevel sums to %d, want %d", sum, want)
	}
}
