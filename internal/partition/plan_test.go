package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/pragma-grid/pragma/internal/samr"
)

// The pipeline's contract (DESIGN.md §16): for any hierarchy, work model,
// processor count and capacities, every pipeline partitioner's assignment is bit-identical to
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
	c.materializePending(t, label+": earlier candidate after a later one")
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

// materializePending materializes the candidate proposed last and
// requires it to equal its reference.
func (c *planCheck) materializePending(t *testing.T, label string) {
	t.Helper()
	if c.pending != nil {
		c.mat, c.matRef = c.pending.Materialize(), c.pendingRef
		c.pending = nil
		requireSameAssignment(t, label, c.mat, c.matRef)
	}
}

// pipelineSuite returns the partitioners the differentials draw from:
// every pipeline partitioner, and Heterogeneous also at capacities for
// nprocs processors drawn from rng.
func pipelineSuite(rng *rand.Rand, nprocs int) []Partitioner {
	return suiteAt(randomCaps(rng, nprocs))
}

// suiteAt is pipelineSuite with the weighted Heterogeneous at caps.
func suiteAt(caps []float64) []Partitioner {
	return append(All(), EqualBlock, Heterogeneous, weightedPipeline(caps))
}

// randomCaps draws relative capacities for nprocs processors: about a
// quarter of them zero, and one draw in five all zero.
func randomCaps(rng *rand.Rand, nprocs int) []float64 {
	caps := make([]float64, nprocs)
	if rng.Intn(5) == 0 {
		return caps
	}
	for i := range caps {
		if rng.Intn(4) != 0 {
			caps[i] = 4 * rng.Float64()
		}
	}
	return caps
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
	first, err := plan.Propose(0, PBDISP, h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferencePartition(PBDISP, h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	second, err := plan.Propose(1, wrapped{Partitioner: GMISPSP, calls: &calls}, h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("the wrapper was called %d times, want 1", calls)
	}
	requireSameAssignment(t, "slot 0 after a wrapped call into the plan", first.Materialize(), want)
	ref, err := ReferencePartition(GMISPSP, h, wm, 16)
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

	pg, err := plan.Propose(0, PatchGreedy{}, h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := PatchGreedy{}.Partition(h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Imbalance() != direct.Imbalance() {
		t.Fatalf("PatchGreedy candidate imbalance %v, its assignment's %v", pg.Imbalance(), direct.Imbalance())
	}
	requireSameAssignment(t, "PatchGreedy candidate", pg.Materialize(), direct)
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
			suite := pipelineSuite(rng, nprocs)
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
// once they have seen the run's largest hierarchy, and a memory of the
// last inputs that serves a repeated call whole.
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
	// Warm, a call with other inputs than the last allocates only the
	// assignment itself — the struct, its units and its owners; the
	// splitters work in plan scratch. A call that repeats the last one's
	// inputs, on value-equal copies, returns the same assignment and
	// allocates nothing.
	for _, p := range All() {
		ip := p.(IncrementalPartitioner)
		k := 0
		first := testing.AllocsPerRun(20, func() {
			k++
			if _, err := ip.PartitionIncremental(seq[1+k%2], wm, 16, plan); err != nil {
				t.Fatal(err)
			}
		})
		if first != 3 {
			t.Errorf("%s: %v allocations through a warm plan, want 3 (the assignment, its Units, its Owner)", p.Name(), first)
		}
		h, again := seq[2].Clone(), samr.WorkModel(samr.FrontWorkModel{Fronts: []samr.Front{{Region: samr.MakeBox(40, 32, 32), Multiplier: 2}}})
		a, err := ip.PartitionIncremental(h, wm, 16, plan)
		if err != nil {
			t.Fatal(err)
		}
		reused, total := plan.Stats()
		repeated := testing.AllocsPerRun(20, func() {
			if b, err := ip.PartitionIncremental(h, again, 16, plan); err != nil || b != a {
				t.Fatalf("a repeated call returned %p (%v), want the last call's %p", b, err, a)
			}
		})
		if repeated != 0 {
			t.Errorf("%s: %v allocations repeating the last call, want 0", p.Name(), repeated)
		}
		n := int64(len(a.Units))
		if r, tot := plan.Stats(); r-reused != 21*n || tot-total != 21*n {
			t.Errorf("%s: 21 repeated calls of %d units counted reused=%d total=%d, want %d each", p.Name(), n, r-reused, tot-total, 21*n)
		}
	}
}

// TestProposeKeepsEachSlotsCandidate: one pipeline proposed into both
// slots alternately, on repeated and on new inputs, leaves each slot's
// candidate valid until that slot's next Propose, materialized or not. A
// memory keyed per pipeline instead of per slot would serve slot 1 the
// candidate slot 0 holds, and slot 0's next computation would change it.
func TestProposeKeepsEachSlotsCandidate(t *testing.T) {
	seq := deltaSequence(t)
	var wm samr.WorkModel = samr.UniformWorkModel{}
	plan := NewPartitionPlan()
	var held [2]*Candidate
	var refs [2]*Assignment
	var mats, matRefs []*Assignment
	for i, h := range []*samr.Hierarchy{seq[0], seq[0], seq[0], seq[1], seq[1], seq[0], seq[2], seq[2], seq[2]} {
		slot := i % 2
		if other := held[1-slot]; other != nil {
			if other.Imbalance() != refs[1-slot].Imbalance() || other.Len() != len(refs[1-slot].Units) {
				t.Fatalf("step %d: slot %d's candidate changed under slot %d's Propose", i, 1-slot, slot)
			}
		}
		cand, err := plan.Propose(slot, GMISPSP, h, wm, 16)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ReferencePartition(GMISPSP, h, wm, 16)
		if err != nil {
			t.Fatal(err)
		}
		if other := held[1-slot]; other != nil {
			if other == cand {
				t.Fatalf("step %d: slot %d was served slot %d's candidate", i, slot, 1-slot)
			}
			if i%3 == 0 {
				a := other.Materialize()
				requireSameAssignment(t, fmt.Sprintf("step %d: slot %d's candidate after slot %d's Propose", i, 1-slot, slot), a, refs[1-slot])
				mats, matRefs = append(mats, a), append(matRefs, refs[1-slot])
			}
		}
		held[slot], refs[slot] = cand, ref
	}
	for i, a := range mats {
		requireSameAssignment(t, fmt.Sprintf("materialized assignment %d at the end", i), a, matRefs[i])
	}
	if reused, _ := plan.Stats(); reused == 0 {
		t.Fatal("no candidate was served from memory: the test repeats nothing")
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
// which partitioners run through the one plan, in which order. Three
// operations test the plan's memory of the last inputs: a repeat of the
// previous cycle on value-equal copies behind fresh pointers; the previous
// front model's Fronts mutated in place, which a memory holding the
// caller's slice would not see; and the previous cycle again under a work
// model of a type the plan does not know, which must never be served from
// memory.
func FuzzDeltaPartition(f *testing.F) {
	f.Add(int64(1), uint8(4), []byte{0, 1, 2})
	f.Add(int64(7), uint8(1), []byte{3, 4, 5, 0})
	f.Add(int64(42), uint8(16), []byte{5, 5, 2, 2, 1})
	f.Add(int64(-3), uint8(0), []byte{})
	// Ops ≡ 7, 8 and 9 mod 10 are the repeat, the in-place change and
	// the unknown model type.
	f.Add(int64(5), uint8(8), []byte{0x01, 0x11, 0x1c, 0x27, 0x25})
	f.Add(int64(9), uint8(3), []byte{0x02, 0x12, 0x1b, 0x13})
	f.Fuzz(func(t *testing.T, seed int64, procsRaw uint8, ops []byte) {
		h := randomHierarchy(seed)
		nprocs := 1 + int(procsRaw%24)
		var wm samr.WorkModel = samr.UniformWorkModel{}
		check := planCheck{plan: NewPartitionPlan()}
		if len(ops) > 5 {
			ops = ops[:5]
		}
		var caps []float64
		var first, count, last int
		for cycle := 0; cycle <= len(ops); cycle++ {
			rng := rand.New(rand.NewSource(seed))
			var op byte
			repeat, foreign := false, false
			if cycle > 0 {
				op = ops[cycle-1]
				rng = rand.New(rand.NewSource(seed ^ int64(op)*1099511628211 ^ int64(cycle)))
				switch op % 10 {
				case 7: // the previous cycle, on copies
					h, wm, caps, repeat = h.Clone(), cloneWorkModel(wm), slices.Clone(caps), true
				case 8: // the previous fronts, changed in place
					if f, ok := wm.(samr.FrontWorkModel); ok && len(f.Fronts) > 0 {
						fr := &f.Fronts[int(op>>4)%len(f.Fronts)]
						fr.Multiplier = 2*fr.Multiplier + 1
						fr.Region = h.Domain
						repeat = true
					}
				case 9: // the previous cycle, under an unknown model type
					wm, repeat, foreign = foreignModel{wm}, true, true
				}
				if !repeat {
					h = mutateHierarchy(h, rng)
					if op%7 == 6 {
						nprocs = 1 + int(op)%24
					}
					if op%3 != 0 {
						wm = randomWorkModel(rng, h)
					}
				}
			}
			if !repeat {
				caps = randomCaps(rng, nprocs)
				first, count = 0, len(suiteAt(caps))
				if cycle > 0 {
					first, count = int(op)%count, 1+int(op>>4)%count
				}
			}
			suite := suiteAt(caps)
			before, _ := check.plan.Stats()
			if repeat {
				// The previous cycle's last call again, into the same
				// slot: both its slot and PartitionIncremental's remember
				// exactly these inputs, or their unchanged copies.
				check.materializePending(t, fmt.Sprintf("cycle %d: last candidate", cycle-1))
				check.slot = 1 - check.slot
				check.partition(t, fmt.Sprintf("cycle %d %s again", cycle, suite[last].Name()), suite[last], h, wm, nprocs)
			}
			for i := 0; i < count; i++ {
				last = (first + i*5) % len(suite)
				check.partition(t, fmt.Sprintf("cycle %d %s", cycle, suite[last].Name()), suite[last], h, wm, nprocs)
			}
			if reused, _ := check.plan.Stats(); foreign && reused != before {
				t.Fatalf("cycle %d: %d units served from memory under a work model of an unknown type", cycle, reused-before)
			}
			if foreign {
				wm = wm.(foreignModel).WorkModel
			}
		}
	})
}

// cloneWorkModel returns a value-equal copy of wm that shares no memory
// with it.
func cloneWorkModel(wm samr.WorkModel) samr.WorkModel {
	if f, ok := wm.(samr.FrontWorkModel); ok {
		f.Fronts = slices.Clone(f.Fronts)
		return f
	}
	return wm
}

// foreignModel weighs as its model does, under a type the plan cannot
// copy or compare.
type foreignModel struct{ samr.WorkModel }
