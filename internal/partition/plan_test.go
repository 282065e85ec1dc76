package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/pragma-grid/pragma/internal/samr"
)

// The pipeline's contract (DESIGN.md §16): for any hierarchy, work model and
// processor count, every ISP partitioner's assignment is bit-identical to
// ReferencePartition — the retained pipeline with the library sort and the
// unprepared work model — whether it ran in a PartitionPlan's scratch or
// without one, and whatever ran through that plan before. The plan carries
// capacity, never contents: these tests drive sequences of regrid deltas,
// alternating partitioners, processor counts and work models through one
// plan and look for anything that leaks from one call into the next or
// from the scratch into a returned assignment.

// clampBox intersects b with dom; an empty result is reported as the zero
// box, which Validate rejects (the caller retries the mutation).
func clampBox(b, dom samr.Box) samr.Box {
	inter, ok := b.Intersect(dom)
	if !ok {
		return samr.Box{}
	}
	return inter
}

func appendRandomBox(c *samr.Hierarchy, rng *rand.Rand) bool {
	dom := c.LevelDomain(1)
	lo := samr.Point{
		dom.Lo[0] + rng.Intn(max(dom.Dx(0)-4, 1)),
		dom.Lo[1] + rng.Intn(max(dom.Dx(1)-4, 1)),
		dom.Lo[2] + rng.Intn(max(dom.Dx(2)-4, 1)),
	}
	b := clampBox(samr.Box{Lo: lo, Hi: samr.Point{
		lo[0] + 2 + rng.Intn(8), lo[1] + 2 + rng.Intn(6), lo[2] + 2 + rng.Intn(6)}}, dom)
	if b.Empty() {
		return false
	}
	if len(c.Levels) < 2 {
		return c.SetLevel(1, []samr.Box{b}) == nil
	}
	c.Levels[1] = append(append([]samr.Box(nil), c.Levels[1]...), b)
	return true
}

func mutateOnce(c *samr.Hierarchy, rng *rand.Rand) bool {
	if len(c.Levels) < 2 || len(c.Levels[1]) == 0 {
		return appendRandomBox(c, rng)
	}
	boxes := c.Levels[1]
	i := rng.Intn(len(boxes))
	dom := c.LevelDomain(1)
	switch rng.Intn(6) {
	case 0: // grow one face
		b := boxes[i]
		d := rng.Intn(3)
		if rng.Intn(2) == 0 {
			b.Lo[d] -= 1 + rng.Intn(3)
		} else {
			b.Hi[d] += 1 + rng.Intn(3)
		}
		boxes[i] = clampBox(b, dom)
	case 1: // shrink one face
		b := boxes[i]
		d := rng.Intn(3)
		n := 1 + rng.Intn(2)
		if b.Dx(d) <= n+1 {
			return false
		}
		if rng.Intn(2) == 0 {
			b.Lo[d] += n
		} else {
			b.Hi[d] -= n
		}
		boxes[i] = b
	case 2: // move
		sh := samr.Point{rng.Intn(7) - 3, rng.Intn(5) - 2, rng.Intn(5) - 2}
		boxes[i] = clampBox(boxes[i].Shift(sh), dom)
	case 3: // vanish
		c.Levels[1] = append(boxes[:i:i], boxes[i+1:]...)
		if len(c.Levels[1]) == 0 {
			c.Levels = c.Levels[:1]
		}
	case 4: // appear
		return appendRandomBox(c, rng)
	case 5: // toggle a level-2 core nested in box i (depth change)
		if len(c.Levels) > 2 && rng.Intn(2) == 0 {
			c.Levels = c.Levels[:2]
			return true
		}
		b := boxes[i]
		if b.Dx(0) < 4 || b.Dx(1) < 4 || b.Dx(2) < 4 {
			return false
		}
		core := samr.Box{
			Lo: samr.Point{b.Lo[0] + 1, b.Lo[1] + 1, b.Lo[2] + 1},
			Hi: samr.Point{b.Hi[0] - 1, b.Hi[1] - 1, b.Hi[2] - 1},
		}.Refine(c.Ratio)
		return c.SetLevel(2, []samr.Box{core}) == nil
	}
	return true
}

// mutateHierarchy applies one random structural delta (grow / shrink /
// move / appear / vanish a level-1 box, or toggle a level-2 core) and
// returns a new valid hierarchy. Deltas violating hierarchy invariants
// (overlap, escape, nesting) are discarded and retried; after 8 failed
// attempts the input is returned unchanged.
func mutateHierarchy(h *samr.Hierarchy, rng *rand.Rand) *samr.Hierarchy {
	for attempt := 0; attempt < 8; attempt++ {
		c := h.Clone()
		if mutateOnce(c, rng) && c.Validate() == nil {
			return c
		}
	}
	return h
}

func requireSameAssignment(t *testing.T, label string, got, ref *Assignment) {
	t.Helper()
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: assignment diverges from the from-scratch reference\ngot:       nunits=%d owner=%v\nreference: nunits=%d owner=%v",
			label, len(got.Units), got.Owner, len(ref.Units), ref.Owner)
	}
}

// randomWorkModel draws a uniform model or a front model with up to
// twelve fronts — more than FrontWorkModel.BoxWork keeps on its stack —
// inside the domain, astride its edge, wholly outside it, and with
// multipliers at and below 1 (no surcharge) as well as above.
func randomWorkModel(rng *rand.Rand, h *samr.Hierarchy) samr.WorkModel {
	base := samr.UniformWorkModel{CellCost: float64(rng.Intn(4))}
	if rng.Intn(3) == 0 {
		return base
	}
	dom := h.Domain
	fronts := make([]samr.Front, rng.Intn(13))
	for i := range fronts {
		lo := samr.Point{
			dom.Lo[0] - 4 + rng.Intn(dom.Dx(0)+8),
			dom.Lo[1] - 4 + rng.Intn(dom.Dx(1)+8),
			dom.Lo[2] - 4 + rng.Intn(dom.Dx(2)+8),
		}
		fronts[i] = samr.Front{
			Region:     samr.Box{Lo: lo, Hi: samr.Point{lo[0] + 1 + rng.Intn(12), lo[1] + 1 + rng.Intn(8), lo[2] + 1 + rng.Intn(8)}},
			Multiplier: []float64{0.5, 1, 1.5, 2, 2.5}[rng.Intn(5)],
		}
	}
	return samr.FrontWorkModel{Base: base, Fronts: fronts}
}

// planCheck runs p through plan and requires the result to equal both
// ReferencePartition and a nil-plan call. held is the previous result
// taken from the same plan with a private copy of its reference: it must
// have survived this call untouched, or an assignment aliases the scratch.
// Each call also proposes p as a candidate, in the plan's two slots
// alternately, whose imbalance and unit count must match the reference.
// The previous candidate, in the other slot, is materialized only after
// this one is proposed: it must still equal its reference, or one slot's
// scratch leaks into the other's. And the candidate materialized on the
// previous call must survive this one, or a handed-over buffer is still
// scratch.
type planCheck struct {
	plan       *PartitionPlan
	held       *Assignment
	heldRef    *Assignment
	slot       int
	pending    *Candidate
	pendingRef *Assignment
	mat        *Assignment
	matRef     *Assignment
}

func (c *planCheck) partition(t *testing.T, label string, p Partitioner, h *samr.Hierarchy, wm samr.WorkModel, nprocs int) {
	t.Helper()
	got, errGot := p.(IncrementalPartitioner).PartitionIncremental(h, wm, nprocs, c.plan)
	cand, errCand := c.plan.Propose(c.slot, p, h, wm, nprocs)
	ref, errRef := ReferencePartition(p, h, wm, nprocs)
	plain, errPlain := p.Partition(h, wm, nprocs)
	if (errGot != nil) != (errRef != nil) || (errPlain != nil) != (errRef != nil) || (errCand != nil) != (errRef != nil) {
		t.Fatalf("%s: plan err %v, candidate err %v, nil-plan err %v, reference err %v", label, errGot, errCand, errPlain, errRef)
	}
	if c.held != nil {
		requireSameAssignment(t, label+": earlier assignment after a later call", c.held, c.heldRef)
	}
	if c.mat != nil {
		requireSameAssignment(t, label+": earlier materialized candidate after a later call", c.mat, c.matRef)
	}
	if c.pending != nil {
		c.mat, c.matRef = c.pending.Materialize(), c.pendingRef
		c.pending = nil
		requireSameAssignment(t, label+": earlier candidate after a later one", c.mat, c.matRef)
	}
	if errRef != nil {
		return
	}
	requireSameAssignment(t, label+" through the plan", got, ref)
	requireSameAssignment(t, label+" without a plan", plain, ref)
	if imb, want := cand.Imbalance(), ref.Imbalance(); imb != want || cand.Len() != len(ref.Units) {
		t.Fatalf("%s: candidate imbalance %v over %d units, reference %v over %d", label, imb, cand.Len(), want, len(ref.Units))
	}
	c.held, c.heldRef = got, ref
	c.pending, c.pendingRef, c.slot = cand, ref, 1-c.slot
}

// wrapped hides a partitioner's candidate stage, as a caller's decorating
// Lookup does, and counts the calls that reach it.
type wrapped struct {
	Partitioner
	calls *int
}

func (w wrapped) PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	*w.calls++
	return w.Partitioner.(IncrementalPartitioner).PartitionIncremental(h, wm, nprocs, plan)
}

// TestProposeOwnCandidate: a partitioner with no candidate stage — one
// outside the pipeline, or an ISP partitioner behind a wrapper — is called
// through once per Propose and is its own candidate: Materialize returns
// the assignment it produced, with the candidate's SplitCost. A wrapped
// call that works in the plan leaves a live candidate in the other slot
// intact.
func TestProposeOwnCandidate(t *testing.T) {
	h := testHierarchy(t)
	var wm samr.WorkModel = samr.UniformWorkModel{}
	plan := NewPartitionPlan()
	first, err := plan.Propose(0, PBDISP{}, h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferencePartition(PBDISP{}, h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	second, err := plan.Propose(1, wrapped{Partitioner: GMISPSP{}, calls: &calls}, h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("the wrapper was called %d times, want 1", calls)
	}
	requireSameAssignment(t, "slot 0 after a wrapped call into the plan", first.Materialize(), want)
	ref, err := ReferencePartition(GMISPSP{}, h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	if second.Imbalance() != ref.Imbalance() || second.Len() != len(ref.Units) {
		t.Fatalf("wrapped candidate: imbalance %v over %d units, reference %v over %d", second.Imbalance(), second.Len(), ref.Imbalance(), len(ref.Units))
	}
	second.SplitCost += 7
	a := second.Materialize()
	if again := second.Materialize(); again != a {
		t.Fatal("a partitioner's own candidate materialized as a copy")
	}
	if a.SplitCost != ref.SplitCost+7 {
		t.Fatalf("materialized split cost %v, want %v", a.SplitCost, ref.SplitCost+7)
	}
	a.SplitCost = ref.SplitCost
	requireSameAssignment(t, "wrapped candidate", a, ref)

	eq, err := plan.Propose(0, EqualBlock{}, h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := EqualBlock{}.Partition(h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Imbalance() != direct.Imbalance() {
		t.Fatalf("EqualBlock candidate imbalance %v, its assignment's %v", eq.Imbalance(), direct.Imbalance())
	}
	requireSameAssignment(t, "EqualBlock candidate", eq.Materialize(), direct)
}

func TestDeltaPartitionDifferentialRandom(t *testing.T) {
	iters := 30
	cycles := 6
	if testing.Short() {
		iters = 8
	}
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < iters; it++ {
		h := randomHierarchy(rng.Int63())
		check := planCheck{plan: NewPartitionPlan()}
		nprocs := 1 + rng.Intn(24)
		var wm samr.WorkModel = samr.UniformWorkModel{}
		for cycle := 0; cycle < cycles; cycle++ {
			if cycle > 0 {
				h = mutateHierarchy(h, rng)
				if rng.Intn(4) == 0 {
					nprocs = 1 + rng.Intn(24)
				}
				if rng.Intn(2) == 0 {
					wm = randomWorkModel(rng, h)
				}
			}
			// A run's plan sees the policy's pick and then, when the guard
			// fires, G-MISP+SP: any order, repeats included.
			suite := All()
			for n := 2 + rng.Intn(len(suite)); n > 0; n-- {
				p := suite[rng.Intn(len(suite))]
				check.partition(t, fmt.Sprintf("iter %d cycle %d %s", it, cycle, p.Name()), p, h, wm, nprocs)
			}
		}
	}
}

// deltaSequence is a deterministic 3-level regrid sequence: the paper-style
// blob's level-2 core drifts, then a level-1 slab shrinks.
func deltaSequence(t testing.TB) []*samr.Hierarchy {
	t.Helper()
	h0 := testHierarchy(t)
	h1 := h0.Clone()
	h1.Levels[2] = []samr.Box{{Lo: samr.Point{174, 50, 50}, Hi: samr.Point{218, 86, 86}}}
	h2 := h1.Clone()
	h2.Levels[1] = append([]samr.Box(nil), h2.Levels[1]...)
	h2.Levels[1][0] = samr.Box{Lo: samr.Point{20, 0, 0}, Hi: samr.Point{34, 64, 64}}
	for i, h := range []*samr.Hierarchy{h0, h1, h2} {
		if err := h.Validate(); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	return []*samr.Hierarchy{h0, h1, h2}
}

// TestPartitionPlanScratch pins what a plan is: buffers that stop growing
// once they have seen the run's largest hierarchy, and a unit count with
// nothing reused.
func TestPartitionPlanScratch(t *testing.T) {
	seq := deltaSequence(t)
	// An interface value, as core.Run hands it over: converting a struct
	// at every call would be the caller's allocation.
	var wm samr.WorkModel = samr.FrontWorkModel{Fronts: []samr.Front{{Region: samr.MakeBox(40, 32, 32), Multiplier: 2}}}
	plan := NewPartitionPlan()
	var want int64
	for _, h := range seq {
		for _, p := range All() {
			a, err := p.(IncrementalPartitioner).PartitionIncremental(h, wm, 16, plan)
			if err != nil {
				t.Fatal(err)
			}
			want += int64(len(a.Units))
		}
	}
	if reused, total := plan.Stats(); reused != 0 || total != want {
		t.Fatalf("stats reused=%d total=%d, want 0 and %d", reused, total, want)
	}
	// Warm: only the assignment itself is allocated — the struct, its
	// units and its owners. The splitters work in plan scratch.
	h := seq[len(seq)-1]
	for _, p := range All() {
		ip := p.(IncrementalPartitioner)
		warm := testing.AllocsPerRun(20, func() {
			if _, err := ip.PartitionIncremental(h, wm, 16, plan); err != nil {
				t.Fatal(err)
			}
		})
		if warm != 3 {
			t.Errorf("%s: %v allocations through a warm plan, want 3 (the assignment, its Units, its Owner)", p.Name(), warm)
		}
	}
}

// granularityForProbe is the original linear-probe implementation, kept as
// the table-test oracle for the closed-form cube-root version.
func granularityForProbe(h *samr.Hierarchy, nprocs, targetUnitsPerProc, minSide, maxSide int) int {
	var cells int64
	for l := range h.Levels {
		cells += h.CellsAtLevel(l)
	}
	target := int64(nprocs * targetUnitsPerProc)
	if target < 1 {
		target = 1
	}
	side := minSide
	for side < maxSide {
		next := side + 1
		perUnit := int64(next) * int64(next) * int64(next)
		if cells/perUnit < target {
			break
		}
		side = next
	}
	return side
}

func TestGranularityForMatchesProbe(t *testing.T) {
	tiny, err := samr.NewHierarchy(samr.MakeBox(1, 1, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	hs := []*samr.Hierarchy{tiny, testHierarchy(t), randomHierarchy(3), randomHierarchy(99)}
	for _, h := range hs {
		for _, nprocs := range []int{1, 2, 7, 16, 64, 333} {
			for _, target := range []int{0, 1, 3, 10, 48} {
				for minSide := 1; minSide <= 6; minSide++ {
					for maxSide := minSide; maxSide <= minSide+25; maxSide += 5 {
						got := granularityFor(h, nprocs, target, minSide, maxSide)
						want := granularityForProbe(h, nprocs, target, minSide, maxSide)
						if got != want {
							t.Fatalf("granularityFor(cells of %v, nprocs=%d, target=%d, min=%d, max=%d) = %d, probe = %d",
								h.Domain, nprocs, target, minSide, maxSide, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzDeltaPartition is the differential test with the fuzzer choosing the
// regrid deltas and, per delta, the processor count, the work model and
// which partitioners run through the one plan, in which order.
func FuzzDeltaPartition(f *testing.F) {
	f.Add(int64(1), uint8(4), []byte{0, 1, 2})
	f.Add(int64(7), uint8(1), []byte{3, 4, 5, 0})
	f.Add(int64(42), uint8(16), []byte{5, 5, 2, 2, 1})
	f.Add(int64(-3), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, procsRaw uint8, ops []byte) {
		h := randomHierarchy(seed)
		nprocs := 1 + int(procsRaw%24)
		var wm samr.WorkModel = samr.UniformWorkModel{}
		check := planCheck{plan: NewPartitionPlan()}
		suite := All()
		if len(ops) > 5 {
			ops = ops[:5]
		}
		for cycle := 0; cycle <= len(ops); cycle++ {
			first, count := 0, len(suite)
			if cycle > 0 {
				op := ops[cycle-1]
				rng := rand.New(rand.NewSource(seed ^ int64(op)*1099511628211 ^ int64(cycle)))
				h = mutateHierarchy(h, rng)
				if op%7 == 6 {
					nprocs = 1 + int(op)%24
				}
				if op%3 != 0 {
					wm = randomWorkModel(rng, h)
				}
				first, count = int(op)%len(suite), 1+int(op>>4)%len(suite)
			}
			for i := 0; i < count; i++ {
				p := suite[(first+i*5)%len(suite)]
				check.partition(t, fmt.Sprintf("cycle %d %s", cycle, p.Name()), p, h, wm, nprocs)
			}
		}
	})
}
