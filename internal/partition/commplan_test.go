package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/pragma-grid/pragma/internal/samr"
)

// diffSuite is the partitioner set used to produce realistic assignments
// for the differential tests.
func diffSuite() []Partitioner {
	return []Partitioner{SFC{}, GMISPSP{}, PBDISP{}, EqualBlock{}}
}

// requirePlanMatchesReference asserts the box-geometry kernel reproduces
// the cell-by-cell reference bit for bit: CommStats (including per-processor
// shares), the pair list in canonical order, and self-migration.
func requirePlanMatchesReference(t *testing.T, h *samr.Hierarchy, a *Assignment, label string) *CommPlan {
	t.Helper()
	plan := BuildCommPlan(h, a)
	requireMatchesReference(t, plan, label)
	return plan
}

// requireMatchesReference holds an already-built plan to the reference for
// its own hierarchy and assignment.
func requireMatchesReference(t *testing.T, plan *CommPlan, label string) {
	t.Helper()
	refSt, refPairs := ReferenceCommunication(plan.H, plan.A)
	if !reflect.DeepEqual(plan.Stats, refSt) {
		t.Fatalf("%s: stats diverge\n plan: %+v\n  ref: %+v", label, plan.Stats, refSt)
	}
	pairs := plan.Pairs()
	if len(pairs) != len(refPairs) || (pairs == nil) != (refPairs == nil) {
		t.Fatalf("%s: %d pairs (nil %t), reference has %d (nil %t)", label, len(pairs), pairs == nil, len(refPairs), refPairs == nil)
	}
	for i := range refPairs {
		if pairs[i] != refPairs[i] {
			t.Fatalf("%s: pair %d = %+v, reference %+v", label, i, pairs[i], refPairs[i])
		}
	}
	if got := plan.MigrationFrom(plan); got != 0 {
		t.Fatalf("%s: self-migration = %g, want 0", label, got)
	}
}

// requireMigrationMatchesReference checks the migration diff between two
// plans in both directions.
func requireMigrationMatchesReference(t *testing.T, plan, other *CommPlan, label string) {
	t.Helper()
	if got, want := plan.MigrationFrom(other), ReferenceMigrationFraction(other.H, other.A, plan.H, plan.A); got != want {
		t.Fatalf("%s: migration from the other plan %g, reference %g", label, got, want)
	}
	if got, want := other.MigrationFrom(plan), ReferenceMigrationFraction(plan.H, plan.A, other.H, other.A); got != want {
		t.Fatalf("%s: migration to the other plan %g, reference %g", label, got, want)
	}
}

// TestCommPlanMatchesReferenceSuite checks every partitioner at several
// processor counts on the representative hierarchy, at GOMAXPROCS 1 and
// a multi-worker setting — the sums are exact integers scaled by
// quarter-faces, so neither the order the search finds contacts in nor
// the scheduler may change a single bit.
func TestCommPlanMatchesReferenceSuite(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, p := range diffSuite() {
			for _, nprocs := range []int{1, 2, 7, 16, 64} {
				a, err := p.Partition(h, wm, nprocs)
				if err != nil {
					t.Fatalf("%s/%d: %v", p.Name(), nprocs, err)
				}
				requirePlanMatchesReference(t, h, a, p.Name())
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestCommPlanDifferentialRandom fuzzes the kernels against each other on
// randomized hierarchies and assignments, comparing communication and
// migration between independently partitioned prev/new configurations.
func TestCommPlanDifferentialRandom(t *testing.T) {
	wm := samr.UniformWorkModel{}
	suite := diffSuite()
	rng := rand.New(rand.NewSource(7))
	iters := 40
	if testing.Short() {
		iters = 12
	}
	for it := 0; it < iters; it++ {
		h := randomHierarchy(rng.Int63())
		prevH := h
		if rng.Intn(2) == 0 {
			prevH = randomHierarchy(rng.Int63())
		}
		nprocs := 1 + rng.Intn(24)
		p := suite[rng.Intn(len(suite))]
		pp := suite[rng.Intn(len(suite))]
		a, err := p.Partition(h, wm, nprocs)
		if err != nil {
			t.Fatalf("iter %d: %s: %v", it, p.Name(), err)
		}
		prev, err := pp.Partition(prevH, wm, 1+rng.Intn(24))
		if err != nil {
			t.Fatalf("iter %d: %s: %v", it, pp.Name(), err)
		}
		plan := requirePlanMatchesReference(t, h, a, p.Name())
		prevPlan := BuildCommPlan(prevH, prev)
		got := plan.MigrationFrom(prevPlan)
		want := ReferenceMigrationFraction(prevH, prev, h, a)
		if got != want {
			t.Fatalf("iter %d: migration %g, reference %g", it, got, want)
		}
	}
}

// TestCommPlanGOMAXPROCSInvariance builds the same plan under several
// GOMAXPROCS settings and requires byte-identical results: the kernel
// spawns no goroutine, and this pins that nothing in it depends on how
// many could run.
func TestCommPlanGOMAXPROCSInvariance(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	a, err := (GMISPSP{}).Partition(h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := (PBDISP{}).Partition(h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	prevGMP := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prevGMP)
	base := BuildCommPlan(h, a)
	baseMig := base.MigrationFrom(BuildCommPlan(h, prev))
	for _, procs := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		plan := BuildCommPlan(h, a)
		if !reflect.DeepEqual(plan.Stats, base.Stats) || !reflect.DeepEqual(plan.Pairs(), base.Pairs()) {
			t.Fatalf("GOMAXPROCS=%d: plan diverges from GOMAXPROCS=1", procs)
		}
		if mig := plan.MigrationFrom(BuildCommPlan(h, prev)); mig != baseMig {
			t.Fatalf("GOMAXPROCS=%d: migration %g, want %g", procs, mig, baseMig)
		}
	}
}

// TestCommPlanNegativeCoordinates exercises index spaces with negative
// lows: the preimage of a coarse box under the reference's truncating
// x / Ratio must be taken exactly, not as the box scaled by Ratio.
func TestCommPlanNegativeCoordinates(t *testing.T) {
	domain := samr.Box{Lo: samr.Point{-8, -4, -4}, Hi: samr.Point{8, 4, 4}}
	h, err := samr.NewHierarchy(domain, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetLevel(1, []samr.Box{{Lo: samr.Point{-10, -6, -6}, Hi: samr.Point{6, 2, 2}}}); err != nil {
		t.Fatal(err)
	}
	a := &Assignment{
		NProcs: 3,
		Units: []Unit{
			{Level: 0, Box: samr.Box{Lo: samr.Point{-8, -4, -4}, Hi: samr.Point{0, 4, 4}}, Weight: 1},
			{Level: 0, Box: samr.Box{Lo: samr.Point{0, -4, -4}, Hi: samr.Point{8, 4, 4}}, Weight: 1},
			{Level: 1, Box: samr.Box{Lo: samr.Point{-10, -6, -6}, Hi: samr.Point{-2, 2, 2}}, Weight: 1},
			{Level: 1, Box: samr.Box{Lo: samr.Point{-2, -6, -6}, Hi: samr.Point{6, 2, 2}}, Weight: 1},
		},
		Owner: []int{0, 1, 2, 0},
	}
	requirePlanMatchesReference(t, h, a, "negative-lo")
}

// TestCommPlanEmptyAndSingleOwner covers the degenerate ends: an
// assignment with no cross-processor contact produces empty pairs and
// zero stats, and a single-unit assignment has nothing to exchange.
func TestCommPlanEmptyAndSingleOwner(t *testing.T) {
	h := flatHierarchy(t, 8, 4, 4)
	solo := manualAssignment(2, pair{samr.MakeBox(8, 4, 4), 1})
	plan := requirePlanMatchesReference(t, h, solo, "single-unit")
	if plan.Stats.Volume != 0 || plan.Stats.Messages != 0 || len(plan.Pairs()) != 0 {
		t.Fatalf("single-unit plan not empty: %+v", plan.Stats)
	}
	sameOwner := manualAssignment(2,
		pair{samr.MakeBox(4, 4, 4), 1},
		pair{samr.Box{Lo: samr.Point{4, 0, 0}, Hi: samr.Point{8, 4, 4}}, 1},
	)
	plan = requirePlanMatchesReference(t, h, sameOwner, "same-owner")
	if plan.Stats.Volume != 0 || len(plan.Pairs()) != 0 {
		t.Fatalf("same-owner plan not empty: %+v", plan.Stats)
	}
}

// TestEvalQualityPlanMatchesEvalQuality: the plan-threading fast path and
// the convenience wrapper must agree exactly.
func TestEvalQualityPlanMatchesEvalQuality(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	a, err := (GMISPSP{}).Partition(h, wm, 8)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := (SFC{}).Partition(h, wm, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := EvalQuality(h, a, h, prev, 0)
	got := EvalQualityPlan(BuildCommPlan(h, a), BuildCommPlan(h, prev), a.Work(), 0)
	if got != want {
		t.Fatalf("EvalQualityPlan = %+v, EvalQuality = %+v", got, want)
	}
}

// TestRasterizationSharing: one BuildCommPlan is one observation of the
// PAC histogram, and every consumer of the plan — stats, pairs, migration
// in either direction — builds nothing further.
func TestRasterizationSharing(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	a, _ := (GMISPSP{}).Partition(h, wm, 8)
	b, _ := (PBDISP{}).Partition(h, wm, 8)

	builds := metricPACSeconds.Count()
	planA := BuildCommPlan(h, a)
	if got := metricPACSeconds.Count() - builds; got != 1 {
		t.Fatalf("BuildCommPlan observed %d builds, want 1", got)
	}
	planB := BuildCommPlan(h, b)
	builds = metricPACSeconds.Count()
	_ = planA.Stats
	_ = planA.Pairs()
	_ = planA.MigrationFrom(planB)
	_ = planB.MigrationFrom(planA)
	EvalQualityPlan(planA, planB, a.Work(), 0)
	if got := metricPACSeconds.Count() - builds; got != 0 {
		t.Fatalf("plan consumers built %d plans, want 0", got)
	}
}

// shifted returns a copy of the assignment with every unit moved by
// -origin coarse cells (origin * ratio^level cells of its own level), so a
// domain that started at zero ends astride it or wholly below it.
func shifted(a *Assignment, ratio int, origin samr.Point) *Assignment {
	out := &Assignment{NProcs: a.NProcs, Owner: a.Owner, SplitCost: a.SplitCost, Units: make([]Unit, len(a.Units))}
	for i, u := range a.Units {
		scale := -1
		for l := 0; l < u.Level; l++ {
			scale *= ratio
		}
		u.Box = u.Box.Shift(origin.Scale(scale))
		out.Units[i] = u
	}
	return out
}

// finer returns a copy of the assignment one level deeper over nprocs
// processors: every unit a level up, its box refined by ratio.
func finer(a *Assignment, ratio, nprocs int) *Assignment {
	out := &Assignment{NProcs: nprocs, Owner: a.Owner, Units: make([]Unit, len(a.Units))}
	for i, u := range a.Units {
		u.Level++
		u.Box = u.Box.Refine(ratio)
		out.Units[i] = u
	}
	return out
}

// FuzzCommPlanMatchesReference holds the box-geometry kernel to the
// cell-by-cell reference on random hierarchies: every partitioner of the
// differential suite, refinement factors 2 to 4 (the preimage of a coarse
// interval under truncating division), and domains astride zero and
// wholly negative (where truncation and flooring differ). Stats, pairs in
// order, and migration against a second, independently partitioned
// hierarchy must all be bit-identical — and stay so when one plan is
// rebuilt in turn for assignments that differ in processor count, levels
// and unit count.
func FuzzCommPlanMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(7), uint8(1), uint8(9))
	f.Add(int64(3), uint8(2), uint8(16), uint8(2), uint8(21))
	f.Add(int64(4), uint8(3), uint8(23), uint8(0), uint8(63))
	f.Add(int64(5), uint8(6), uint8(1), uint8(1), uint8(40))
	f.Add(int64(-6), uint8(9), uint8(12), uint8(2), uint8(3))
	suite := diffSuite()
	wm := samr.UniformWorkModel{}
	f.Fuzz(func(t *testing.T, seed int64, part, procs, ratioRaw, shiftRaw uint8) {
		ratio := 2 + int(ratioRaw%3)
		// Domains are at most 40x24x24: a shift below 24 leaves every axis
		// astride zero, one above 40 puts x wholly negative first.
		s := int(shiftRaw % 64)
		origin := samr.Point{s, s / 2, s / 3}
		build := func(seed int64, part, procs uint8) (*samr.Hierarchy, *Assignment) {
			h := randomHierarchyRatio(seed, ratio)
			p := suite[int(part)%len(suite)]
			a, err := p.Partition(h, wm, 1+int(procs%24))
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			return h, shifted(a, ratio, origin)
		}
		h, a := build(seed, part, procs)
		prevH, prev := build(seed^0x5bd1e995, part/uint8(len(suite)), procs/24)
		plan := requirePlanMatchesReference(t, h, a, "new")
		prevPlan := requirePlanMatchesReference(t, prevH, prev, "prev")
		if got, want := plan.MigrationFrom(prevPlan), ReferenceMigrationFraction(prevH, prev, h, a); got != want {
			t.Fatalf("migration %g, reference %g", got, want)
		}

		// The reuse sequence: a, then other (more processors, every level
		// one deeper, a different unit count), a twice, a's boxes under
		// other owners, then a's level 0 or nothing at all — one plan,
		// rebuilt each time.
		other := finer(prev, ratio, max(a.NProcs, prev.NProcs)+1)
		if len(other.Units) == len(a.Units) {
			other.Units, other.Owner = other.Units[1:], other.Owner[1:]
		}
		last := &Assignment{NProcs: 1 + s%7}
		if seed%2 == 0 {
			last.NProcs = a.NProcs
			for i, u := range a.Units {
				if u.Level == 0 {
					last.Units, last.Owner = append(last.Units, u), append(last.Owner, a.Owner[i])
				}
			}
		}
		rotated := &Assignment{NProcs: a.NProcs, Units: a.Units, Owner: make([]int, len(a.Owner))}
		for i, o := range a.Owner {
			rotated.Owner[i] = (o + 1 + s) % a.NProcs
		}
		var reused *CommPlan
		before := prevPlan
		for i, step := range []struct {
			h *samr.Hierarchy
			a *Assignment
		}{{h, a}, {prevH, other}, {h, a}, {h, a}, {h, rotated}, {h, last}} {
			// Each rebuild names the previous step's plan as its source:
			// the repeated step copies every level, the rotated one every
			// level under new owners, the others what they share.
			reused = RebuildCommPlan(reused, before, step.h, step.a)
			label := fmt.Sprintf("rebuild %d", i)
			requireMatchesReference(t, reused, label)
			requireMigrationMatchesReference(t, reused, before, label)
			before = BuildCommPlan(step.h, step.a)
		}
	})
}

// TestCommPlanGeometryCases pins the cases box geometry could get wrong
// where cells cannot: contact of measure zero, one fine unit under several
// coarse owners, plans whose levels do not line up, nothing at all, and
// the one input the closed forms do not cover, which panics.
func TestCommPlanGeometryCases(t *testing.T) {
	h := flatHierarchy(t, 12, 8, 8)
	box := func(x0, y0, z0, x1, y1, z1 int) samr.Box {
		return samr.Box{Lo: samr.Point{x0, y0, z0}, Hi: samr.Point{x1, y1, z1}}
	}
	units := func(nprocs int, us ...Unit) *Assignment {
		a := &Assignment{NProcs: nprocs, Units: us}
		for i := range us {
			a.Owner = append(a.Owner, i%nprocs)
		}
		return a
	}

	t.Run("edge and corner contact is no pair", func(t *testing.T) {
		a := units(3,
			Unit{Box: box(0, 0, 0, 4, 4, 4)},
			Unit{Box: box(4, 4, 0, 8, 8, 4)}, // shares the edge x=4, y=4
			Unit{Box: box(4, 4, 4, 8, 8, 8)}, // shares the corner (4,4,4) with the first
		)
		plan := requirePlanMatchesReference(t, h, a, "edge-corner")
		// The second and third do share a face (z=4); the first touches
		// neither on more than a line.
		if pairs := plan.Pairs(); len(pairs) != 1 || pairs[0].U1 != 1 || pairs[0].U2 != 2 {
			t.Fatalf("pairs = %+v, want only units 1 and 2", pairs)
		}
	})

	t.Run("fine unit under three coarse owners", func(t *testing.T) {
		a := units(4,
			Unit{Level: 0, Box: box(0, 0, 0, 4, 4, 4)},
			Unit{Level: 0, Box: box(4, 0, 0, 8, 4, 4)},
			Unit{Level: 0, Box: box(8, 0, 0, 12, 4, 4)},
			Unit{Level: 1, Box: box(6, 0, 0, 18, 8, 8)}, // parents x = 3..8
		)
		plan := requirePlanMatchesReference(t, h, a, "three-parents")
		want := map[int]float64{0: 0.25 * 2 * 8 * 8, 1: 0.25 * 8 * 8 * 8, 2: 0.25 * 2 * 8 * 8}
		for _, p := range plan.Pairs() {
			if p.U2 != 3 {
				continue
			}
			if p.Faces != want[p.U1] || p.Frequency != 2 {
				t.Fatalf("parent pair %+v, want %g faces at frequency 2", p, want[p.U1])
			}
			delete(want, p.U1)
		}
		if len(want) != 0 {
			t.Fatalf("coarse units %v have no pair with the fine unit", want)
		}
	})

	t.Run("migration across mismatched levels", func(t *testing.T) {
		lower := units(2,
			Unit{Level: 0, Box: box(0, 0, 0, 6, 8, 8)},
			Unit{Level: 0, Box: box(6, 0, 0, 12, 8, 8)},
			Unit{Level: 1, Box: box(4, 4, 4, 12, 12, 12)},
		)
		upper := units(3, // level 1 gone, level 2 new, one more level than lower
			Unit{Level: 0, Box: box(0, 0, 0, 12, 4, 8)},
			Unit{Level: 0, Box: box(0, 4, 0, 12, 8, 8)},
			Unit{Level: 2, Box: box(8, 8, 8, 16, 16, 16)},
			Unit{Level: 3, Box: box(16, 16, 16, 20, 20, 20)},
		)
		lp := requirePlanMatchesReference(t, h, lower, "lower")
		up := requirePlanMatchesReference(t, h, upper, "upper")
		for _, c := range []struct {
			name     string
			new, old *CommPlan
		}{{"fewer levels from more", lp, up}, {"more levels from fewer", up, lp}} {
			got := c.new.MigrationFrom(c.old)
			want := ReferenceMigrationFraction(c.old.H, c.old.A, c.new.H, c.new.A)
			if got != want || got == 0 {
				t.Fatalf("%s: migration %g, reference %g (want equal and non-zero)", c.name, got, want)
			}
		}
	})

	t.Run("empty assignment", func(t *testing.T) {
		empty := &Assignment{NProcs: 2}
		plan := requirePlanMatchesReference(t, h, empty, "empty")
		if plan.Stats.Volume != 0 || plan.Stats.Messages != 0 || plan.Pairs() != nil {
			t.Fatalf("empty plan = %+v, %v", plan.Stats, plan.Pairs())
		}
		full := BuildCommPlan(h, units(2, Unit{Box: box(0, 0, 0, 12, 8, 8)}))
		if a, b := plan.MigrationFrom(full), full.MigrationFrom(plan); a != 0 || b != 0 {
			t.Fatalf("migration to and from nothing = %g, %g, want 0", a, b)
		}
	})

	t.Run("spans too wide for a packed key", func(t *testing.T) {
		// A unit 2^22 cells out on every axis makes the low corners' spans
		// 3 × 23 bits, so the index sorts by comparison. The far unit
		// touches nothing and is listed between the two that abut, so an
		// index left in input order would end the face sweep at it: the
		// plan must be the near units' plan, unit for unit.
		near := units(3,
			Unit{Box: box(0, 0, 0, 6, 8, 8)},
			Unit{Box: box(6, 0, 0, 12, 8, 8)},
			Unit{Level: 1, Box: box(8, 0, 0, 16, 16, 16)},
		)
		far := 1 << 22
		wide := &Assignment{NProcs: 3,
			Units: []Unit{near.Units[1], {Box: box(far, far, far, far+4, far+4, far+4)}, near.Units[0], near.Units[2]},
			Owner: []int{near.Owner[1], 0, near.Owner[0], near.Owner[2]},
		}
		nearID := []int{1, -1, 0, 2}
		want := requirePlanMatchesReference(t, h, near, "near")
		got := BuildCommPlan(h, wide)
		pairs := got.Pairs()
		for i, p := range pairs {
			pairs[i].U1, pairs[i].U2 = min(nearID[p.U1], nearID[p.U2]), max(nearID[p.U1], nearID[p.U2])
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) || !reflect.DeepEqual(pairs, want.Pairs()) {
			t.Fatalf("wide plan %+v %v, want %+v %v", got.Stats, pairs, want.Stats, want.Pairs())
		}
		if m := got.MigrationFrom(want); m != 0 {
			t.Fatalf("migration from the near plan %g, want 0", m)
		}
		if copied := RebuildCommPlan(nil, got, h, wide); !reflect.DeepEqual(copied.Stats, want.Stats) {
			t.Fatalf("wide plan copied from itself %+v, want %+v", copied.Stats, want.Stats)
		}
	})

	t.Run("overlapping units panic", func(t *testing.T) {
		a := units(3,
			Unit{Box: box(0, 0, 0, 8, 8, 8)},
			Unit{Box: box(4, 0, 0, 12, 8, 8)}, // shares x = 4..7 with the first
			Unit{Level: 1, Box: box(4, 0, 0, 20, 8, 8)},
		)
		if a.Validate() == nil {
			t.Fatal("overlapping assignment validates")
		}
		disjoint := units(2,
			Unit{Box: box(0, 0, 0, 6, 8, 8)},
			Unit{Box: box(6, 0, 0, 12, 8, 8)},
			Unit{Level: 1, Box: box(0, 0, 0, 24, 8, 8)},
		)
		used := BuildCommPlan(h, disjoint)
		for _, step := range []struct {
			name  string
			build func()
		}{
			{"fresh build", func() { BuildCommPlan(h, a) }},
			{"rebuild into a used plan", func() { RebuildCommPlan(used, nil, h, a) }},
			{"rebuild with a source", func() { RebuildCommPlan(nil, BuildCommPlan(h, disjoint), h, a) }},
			{"rebuild with the plan that panicked as source", func() { RebuildCommPlan(nil, used, h, a) }},
		} {
			t.Run(step.name, func(t *testing.T) {
				msg := panicMessage(step.build)
				if !strings.Contains(msg, "overlapping units") || !strings.Contains(msg, "Assignment.Validate") {
					t.Fatalf("panic %q, want one about overlapping units naming Assignment.Validate", msg)
				}
			})
		}
	})
}

// TestCommPlanCopiesUnchangedLevels pins the copy rule of RebuildCommPlan
// against the cell-by-cell reference: a level copies its source's contacts
// only when the source has exactly its boxes, whatever the owners and the
// order of the units, and its fine/coarse contacts only when the next
// coarser level is copied too and the refinement factor is the same.
func TestCommPlanCopiesUnchangedLevels(t *testing.T) {
	h := flatHierarchy(t, 12, 8, 8)
	h4, err := samr.NewHierarchy(samr.MakeBox(12, 8, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	box := func(x0, y0, z0, x1, y1, z1 int) samr.Box {
		return samr.Box{Lo: samr.Point{x0, y0, z0}, Hi: samr.Point{x1, y1, z1}}
	}
	// Two coarse units split at x = 6 under two fine ones that meet at
	// y = 8 and straddle the split (coarse x = 4..8).
	coarse := []Unit{{Box: box(0, 0, 0, 6, 8, 8)}, {Box: box(6, 0, 0, 12, 8, 8)}}
	fine := []Unit{{Level: 1, Box: box(8, 0, 0, 16, 8, 16)}, {Level: 1, Box: box(8, 8, 0, 16, 16, 16)}}
	movedSplit := []Unit{{Box: box(0, 0, 0, 5, 8, 8)}, {Box: box(5, 0, 0, 12, 8, 8)}}
	assign := func(owners []int, units ...[]Unit) *Assignment {
		a := &Assignment{NProcs: 3, Owner: owners}
		for _, us := range units {
			a.Units = append(a.Units, us...)
		}
		return a
	}
	full := assign([]int{0, 1, 2, 0}, coarse, fine)
	// permuted lists shared's boxes in reverse order under other owners.
	// Pairs on one owner in shared span two in permuted (the two coarse
	// units; the first fine unit and each coarse unit), and one pair goes
	// the other way (the second fine unit and the first coarse unit): a
	// copy of only the source's cross-owner faces or fine/coarse contacts
	// misses a contact.
	shared := assign([]int{0, 0, 0, 1}, coarse, fine)
	permuted := assign([]int{0, 2, 1, 0}, []Unit{fine[1], fine[0], coarse[1], coarse[0]})

	for _, c := range []struct {
		name             string
		srcH             *samr.Hierarchy
		src              *Assignment // nil: no source
		h                *samr.Hierarchy
		a                *Assignment
		copied, searched uint64
	}{
		{"identical boxes, permuted owners", h, shared, h, permuted, 2, 0},
		{"level 1 identical, level 0 changed", h, assign([]int{1, 2, 2, 0}, movedSplit, fine), h, full, 0, 2},
		{"another refinement factor", h, full, h4, full, 1, 1},
		{"source without level 1", h, assign([]int{2, 0}, coarse), h, full, 1, 1},
		{"source without level 0", h, assign([]int{0, 1}, fine), h, full, 0, 2},
		{"nil source", nil, nil, h, full, 0, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			var src *CommPlan
			if c.src != nil {
				src = requirePlanMatchesReference(t, c.srcH, c.src, "source")
			}
			// Into a used plan, so that nothing of the copy can come
			// from the target's own buffers.
			p := BuildCommPlan(h, assign([]int{0, 1, 2}, movedSplit, fine[:1]))
			copied, searched := metricPlanLevelsCopied.Value(), metricPlanLevelsSearched.Value()
			RebuildCommPlan(p, src, c.h, c.a)
			copied, searched = metricPlanLevelsCopied.Value()-copied, metricPlanLevelsSearched.Value()-searched
			if copied != c.copied || searched != c.searched {
				t.Fatalf("%d levels copied and %d searched, want %d and %d", copied, searched, c.copied, c.searched)
			}
			requireMatchesReference(t, p, c.name)
			if src != nil {
				requireMigrationMatchesReference(t, p, src, c.name)
			}
		})
	}
}

// panicMessage runs f and returns what it panicked with, "" if it did not.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestCommPlanRebuildAllocatesNothing: once a plan's buffers have grown to
// the paper-scale assignment, rebuilding it allocates nothing — the
// steady state of a run, which rebuilds two plans in turn.
func TestCommPlanRebuildAllocatesNothing(t *testing.T) {
	h, a, prev := paperAssignments(t)
	plan := BuildCommPlan(h, a)
	RebuildCommPlan(plan, nil, h, a)
	if allocs := testing.AllocsPerRun(10, func() { RebuildCommPlan(plan, nil, h, a) }); allocs != 0 {
		t.Fatalf("a warm rebuild allocates %g times, want 0", allocs)
	}
	requireMatchesReference(t, plan, "warm rebuild")
	// With a source: one with every box (every level copied) and one with
	// another partitioner's boxes (searched where they differ).
	for _, src := range []*CommPlan{BuildCommPlan(h, a), BuildCommPlan(h, prev)} {
		if allocs := testing.AllocsPerRun(10, func() { RebuildCommPlan(plan, src, h, a) }); allocs != 0 {
			t.Fatalf("a warm rebuild with a source allocates %g times, want 0", allocs)
		}
		requireMatchesReference(t, plan, "warm rebuild with a source")
	}
}

// TestCommPlanMigrationFromAllocatesNothing: the migration diff sweeps the
// two plans' indexes and allocates nothing, for built and rebuilt plans.
func TestCommPlanMigrationFromAllocatesNothing(t *testing.T) {
	h, a, prev := paperAssignments(t)
	plan := RebuildCommPlan(BuildCommPlan(h, prev), nil, h, a)
	prevPlan := BuildCommPlan(h, prev)
	if allocs := testing.AllocsPerRun(10, func() { plan.MigrationFrom(prevPlan) }); allocs != 0 {
		t.Fatalf("MigrationFrom allocates %g times, want 0", allocs)
	}
}

// TestAdjacencyIsThePlanPairList checks that Adjacency returns the
// reference pair list, cross-processor pairs only, in canonical order.
func TestAdjacencyIsThePlanPairList(t *testing.T) {
	h := testHierarchy(t)
	for _, nprocs := range []int{1, 7} {
		a, err := SFC{}.Partition(h, samr.UniformWorkModel{}, nprocs)
		if err != nil {
			t.Fatal(err)
		}
		_, want := ReferenceCommunication(h, a)
		got := Adjacency(h, a)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d procs: Adjacency has %d pairs, reference %d", nprocs, len(got), len(want))
		}
		if nprocs > 1 && len(got) == 0 {
			t.Fatalf("%d procs: no cross-processor pairs", nprocs)
		}
		for _, p := range got {
			if a.Owner[p.U1] == a.Owner[p.U2] {
				t.Fatalf("%d procs: pair %+v joins units of one processor", nprocs, p)
			}
		}
	}
}
