package partition

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"github.com/pragma-grid/pragma/internal/samr"
)

// CommPlan is everything the runtime derives from the geometry of one
// assignment: the communication statistics and the per-level index of unit
// boxes (swept by MigrationFrom at the next regrid). Build it once per
// regrid and thread it through every layer that needs either.
//
// A plan is immutable and safe for concurrent reads until it is rebuilt.
// RebuildCommPlan writes another assignment's plan into the same buffers,
// which invalidates every slice the plan handed out before
// (Stats.PerProcVolume, Stats.PerProcMessages): rebuild a plan only when
// nothing reads it any more.
//
// The closed forms assume the units of each level are disjoint, which
// Assignment.Validate checks. A plan of an assignment with overlapping
// units is a programming error: RebuildCommPlan panics on one. Callers
// that take an assignment from outside the process validate it first.
type CommPlan struct {
	// H and A are the hierarchy and assignment the plan was built for.
	H *samr.Hierarchy
	A *Assignment
	// Stats is the assignment's communication requirement.
	Stats CommStats

	// levels holds the non-empty units grouped by level, levels ascending.
	levels []planLevel
	// found holds every level's contacts, whatever the owners: a level's
	// abutting pairs are found[lo:mid], its fine/coarse overlaps
	// found[mid:hi].
	found []contact

	// Scratch whose capacity survives a rebuild: the units of every level
	// (levels[i].units are windows of it), the sort keys and permutation,
	// and the coarse preimages of parentContacts.
	units    []planUnit
	keys     []uint64
	idx, tmp []int32
	pre      []planUnit
}

// planLevel is one level's units in canonical order, the level's
// exchanges per coarse step (Ratio^level) and where its contacts lie in
// CommPlan.found.
type planLevel struct {
	level int
	freq  float64
	units []planUnit
	// coarse is the units of the next coarser level, nil when the plan
	// has none; the fine/coarse contacts name their coarse unit in it.
	coarse      []planUnit
	lo, mid, hi int
	// same is the position in the source plan's levels of a level with
	// exactly these boxes, -1 when the source has none.
	same int
}

// planUnit is one unit of the index. The units of a level are in
// canonical order, sorted by low corner x, then y, then z: the units are
// disjoint, so no two share a low corner, and two plans list identical
// boxes in the same order. Both sweeps prune along x, the first key.
type planUnit struct {
	box   samr.Box
	id    int32
	owner int32
	// maxHi is the largest Box.Hi[0] among this unit and those sorted
	// before it: units up to the last one with maxHi <= x end before x.
	maxHi int
}

// contact is one unit pair that exchanges data, both units named by their
// position in the level's units (a fine/coarse contact's u2 in the coarse
// level's). Disjoint boxes meet in exactly one region — one rectangle for
// two boxes of a level, one box for a fine unit and a coarse unit's
// preimage — so one contact holds all of a pair's exchange.
type contact struct {
	u1, u2   int32
	quarters int64 // faces count faceQuarters, parent cells 1
}

// A contact weighs in quarter faces: a cell face between two units counts
// faceQuarters, and a fine cell whose coarse parent another unit owns
// counts one, so an inter-level prolongation/restriction transfer weighs
// interLevelWeight of a ghost exchange — level transfers happen once per
// sub-cycle rather than per ghost-fill. Integer weights keep the plan's
// sums exact.
const (
	faceQuarters     = 4
	interLevelWeight = 1.0 / faceQuarters
)

// partners returns the units the second unit of the level's contact at k
// is named in: the level's own for a face, the coarser level's for a
// fine/coarse contact.
func (lv *planLevel) partners(k int) []planUnit {
	if k < lv.mid {
		return lv.units
	}
	return lv.coarse
}

// BuildCommPlan indexes the assignment's unit boxes and computes its
// communication from their geometry into a fresh plan; it is
// RebuildCommPlan(nil, nil, h, a).
func BuildCommPlan(h *samr.Hierarchy, a *Assignment) *CommPlan {
	return RebuildCommPlan(nil, nil, h, a)
}

// RebuildCommPlan builds the plan of (h, a) into p's buffers and returns p;
// a nil p gets a fresh plan. Once the buffers have grown to the
// assignment's size a rebuild allocates nothing. Everything p handed out
// before is invalid afterwards (see CommPlan).
//
// Two boxes of a level exchange the area of the rectangle where they abut,
// a fine and a coarse unit a quarter of the volume of the fine box inside
// the coarse box's preimage under x / Ratio. No cell is visited, and the
// contacts are not sorted: Stats is accumulated in discovery order and is
// still bit-identical to the cell-by-cell oracle of the tests, because
// every contribution is a multiple of a quarter face counted in integers,
// so no sum depends on the order of its terms.
//
// from, when not nil and not p, is a plan left intact since it was built —
// at a regrid, the previous one's. A from built for a itself on a
// hierarchy equal to h by value (a regrid that repeats) is copied whole.
// Otherwise a level whose boxes from lists too copies from's contacts
// instead of searching for them: the contacts hold every pair whatever the
// owners, by position in the canonical order, so the same boxes have the
// same contacts. Its fine/coarse contacts are copied only when the next
// coarser level is unchanged too and the refinement factor is the same,
// which is all a preimage depends on.
//
// It panics when two units of one level overlap (see CommPlan).
func RebuildCommPlan(p, from *CommPlan, h *samr.Hierarchy, a *Assignment) *CommPlan {
	start := time.Now()
	if p == nil {
		p = &CommPlan{}
	}
	if from == p {
		from = nil
	}
	if from != nil && a == from.A && sameHierarchy(h, from.H) {
		p.copyPlan(from, h)
		metricPlanLevelsCopied.Add(uint64(len(p.levels)))
		metricPACSeconds.Observe(time.Since(start).Seconds())
		return p
	}
	p.H, p.A = h, a
	p.Stats = CommStats{
		PerProcVolume:   cleared(p.Stats.PerProcVolume, a.NProcs),
		PerProcMessages: cleared(p.Stats.PerProcMessages, a.NProcs),
	}
	p.index(a)
	p.matchLevels(from)
	p.found = p.found[:0]
	var copied, searched uint64
	for i := range p.levels {
		lv := &p.levels[i]
		lv.lo = len(p.found)
		var src *planLevel
		if lv.same >= 0 {
			src = &from.levels[lv.same]
			p.found = append(p.found, from.found[src.lo:src.mid]...)
		} else {
			var overlap bool
			if p.found, overlap = lv.faceContacts(p.found); overlap {
				// Nothing may copy from what is left.
				p.levels, p.A = p.levels[:0], nil
				panic(fmt.Sprintf("partition: CommPlan of overlapping units on level %d: the assignment fails Assignment.Validate", lv.level))
			}
		}
		lv.mid = len(p.found)
		copiedAll := src != nil
		if lv.coarse != nil {
			if copiedAll && p.levels[i-1].same >= 0 && h.Ratio == from.H.Ratio {
				p.found = append(p.found, from.found[src.mid:src.hi]...)
			} else {
				p.found, p.pre = lv.parentContacts(p.found, p.pre, h.Ratio)
				copiedAll = false
			}
		}
		lv.hi = len(p.found)
		if copiedAll {
			copied++
		} else {
			searched++
		}
		lv.freq = 1.0
		for range lv.level {
			lv.freq *= float64(h.Ratio)
		}
		// Exact: quarters and freq = Ratio^level are integers, so every
		// term has at most two fractional bits and the float64 additions
		// never round at any realistic hierarchy size.
		st := &p.Stats
		for k := lv.lo; k < lv.hi; k++ {
			c := &p.found[k]
			o1, o2 := lv.units[c.u1].owner, lv.partners(k)[c.u2].owner
			if o1 == o2 {
				continue
			}
			faces := float64(c.quarters) / faceQuarters
			st.Volume += float64(faces * lv.freq)
			st.PerProcVolume[o1] += float64(faces * lv.freq)
			st.PerProcVolume[o2] += float64(faces * lv.freq)
			st.Messages += lv.freq
			st.PerProcMessages[o1] += lv.freq
			st.PerProcMessages[o2] += lv.freq
		}
	}
	metricPlanLevelsCopied.Add(copied)
	metricPlanLevelsSearched.Add(searched)
	metricPACSeconds.Observe(time.Since(start).Seconds())
	return p
}

// copyPlan makes p a copy of from, as the plan of h, in p's buffers: the
// levels' windows move into p.units.
func (p *CommPlan) copyPlan(from *CommPlan, h *samr.Hierarchy) {
	st := from.Stats
	st.PerProcVolume = append(p.Stats.PerProcVolume[:0], st.PerProcVolume...)
	st.PerProcMessages = append(p.Stats.PerProcMessages[:0], st.PerProcMessages...)
	p.H, p.A, p.Stats = h, from.A, st
	p.units = append(p.units[:0], from.units...)
	p.found = append(p.found[:0], from.found...)
	p.levels = append(p.levels[:0], from.levels...)
	off := 0
	for i := range p.levels {
		lv := &p.levels[i]
		n := len(lv.units)
		lv.units = p.units[off : off+n]
		if lv.coarse != nil {
			lv.coarse = p.levels[i-1].units
		}
		off += n
	}
}

// sameHierarchy reports whether two hierarchies are equal by value:
// domain, ratio and every level's boxes in order.
func sameHierarchy(g, h *samr.Hierarchy) bool {
	if g == h {
		return true
	}
	if g.Domain != h.Domain || g.Ratio != h.Ratio || len(g.Levels) != len(h.Levels) {
		return false
	}
	for l := range g.Levels {
		if !slices.Equal(g.Levels[l], h.Levels[l]) {
			return false
		}
	}
	return true
}

// cleared returns s resized to n zeros, reusing its capacity.
func cleared(s []float64, n int) []float64 {
	s = grow(s, n)[:n]
	clear(s)
	return s
}

// matchLevels sets each level's same: the position of the level of from
// with the same level number and exactly the same boxes, or -1.
func (p *CommPlan) matchLevels(from *CommPlan) {
	j := 0
	for i := range p.levels {
		lv := &p.levels[i]
		lv.same = -1
		if from == nil {
			continue
		}
		for j < len(from.levels) && from.levels[j].level < lv.level {
			j++
		}
		if j < len(from.levels) && from.levels[j].level == lv.level && sameBoxes(lv.units, from.levels[j].units) {
			lv.same = j
		}
	}
}

// sameBoxes reports whether two levels' units have the same boxes in the
// same order.
func sameBoxes(us, vs []planUnit) bool {
	if len(us) != len(vs) {
		return false
	}
	for i := range us {
		if us[i].box != vs[i].box {
			return false
		}
	}
	return true
}

// index groups the assignment's non-empty units by level, levels
// ascending, each level in canonical order, in the plan's buffers. One
// radix sort orders them all on a key packing the level and the low
// corner's x, y and z, each offset by its minimum and as wide as its span
// needs; an assignment whose spans do not fit 64 bits is sorted by
// comparison.
func (p *CommPlan) index(a *Assignment) {
	p.levels, p.units = p.levels[:0], p.units[:0]
	p.keys, p.idx, p.tmp = p.keys[:0], p.idx[:0], p.tmp[:0]
	var lo, hi [4]int // level, then the low corner
	for i, u := range a.Units {
		p.keys = append(p.keys, 0)
		if u.Box.Empty() {
			continue
		}
		c := [4]int{u.Level, u.Box.Lo[0], u.Box.Lo[1], u.Box.Lo[2]}
		if len(p.idx) == 0 {
			lo, hi = c, c
		}
		for d := range c {
			lo[d], hi[d] = min(lo[d], c[d]), max(hi[d], c[d])
		}
		p.idx = append(p.idx, int32(i))
		p.tmp = append(p.tmp, 0)
	}
	if len(p.idx) == 0 {
		return
	}
	var width [4]int
	total := 0
	for d := range width {
		width[d] = bits.Len(uint(hi[d] - lo[d]))
		total += width[d]
	}
	sorted := p.idx
	if total <= 64 {
		for _, id := range p.idx {
			u := &a.Units[id]
			c := [4]int{u.Level, u.Box.Lo[0], u.Box.Lo[1], u.Box.Lo[2]}
			var key uint64
			for d := range c {
				key = key<<width[d] | uint64(c[d]-lo[d])
			}
			p.keys[id] = key
		}
		sorted = radixSortRun(p.keys, p.idx, p.tmp)
	} else {
		slices.SortFunc(sorted, func(i, j int32) int {
			x, y := &a.Units[i], &a.Units[j]
			if c := cmp.Compare(x.Level, y.Level); c != 0 {
				return c
			}
			for d := 0; d < 3; d++ {
				if c := cmp.Compare(x.Box.Lo[d], y.Box.Lo[d]); c != 0 {
					return c
				}
			}
			return 0
		})
	}
	// Full capacity up front: the levels' windows must not move.
	p.units = slices.Grow(p.units, len(sorted))
	first := 0
	for _, id := range sorted {
		u := &a.Units[id]
		pu := planUnit{box: u.Box, id: id, owner: int32(a.Owner[id]), maxHi: u.Box.Hi[0]}
		if n := len(p.levels); n == 0 || p.levels[n-1].level != u.Level {
			if n > 0 {
				p.levels[n-1].units = p.units[first:]
			}
			first = len(p.units)
			p.levels = append(p.levels, planLevel{level: u.Level})
		} else {
			pu.maxHi = max(pu.maxHi, p.units[len(p.units)-1].maxHi)
		}
		p.units = append(p.units, pu)
	}
	p.levels[len(p.levels)-1].units = p.units[first:]
	for i := 1; i < len(p.levels); i++ {
		if p.levels[i-1].level == p.levels[i].level-1 {
			p.levels[i].coarse = p.levels[i-1].units
		}
	}
}

// unitsAt returns the indexed units of a level, nil when it has none.
func (p *CommPlan) unitsAt(level int) []planUnit {
	for _, lv := range p.levels {
		if lv.level == level {
			return lv.units
		}
	}
	return nil
}

// faceContacts appends the face contact of every pair of the level's
// units, and reports whether any two units overlap. Candidates are pruned
// along x: units are sorted by Box.Lo[0], so the partners of a unit among
// the later ones end at the first one starting past its Hi[0].
func (lv *planLevel) faceContacts(found []contact) (_ []contact, overlap bool) {
	for i := range lv.units {
		a, later := &lv.units[i], lv.units[i+1:]
		for j := 0; j < len(later) && later[j].box.Lo[0] <= a.box.Hi[0]; j++ {
			b := &later[j]
			if apartYZ(&a.box, &b.box) {
				continue
			}
			// w[d] is the extent the boxes share along d, zero where they
			// abut: sharing all three is an overlap, abutting on one a
			// face, on more an edge or a corner.
			var w [3]int
			axis, abut := 0, 0
			for d := 0; d < 3; d++ {
				w[d] = min(a.box.Hi[d], b.box.Hi[d]) - max(a.box.Lo[d], b.box.Lo[d])
				if w[d] == 0 {
					axis = d
					abut++
				}
			}
			if abut == 0 {
				return found, true
			}
			if abut == 1 {
				found = append(found, contact{
					u1: int32(i), u2: int32(i + 1 + j),
					quarters: faceQuarters * int64(w[(axis+1)%3]) * int64(w[(axis+2)%3]),
				})
			}
		}
	}
	return found, false
}

// apartYZ reports whether a gap separates the boxes along y or z: they
// neither share a cell nor abut there. It is the candidate filter of both
// searches, one branch on the sign of four differences.
func apartYZ(a, b *samr.Box) bool {
	return (a.Hi[1]-b.Lo[1])|(b.Hi[1]-a.Lo[1])|(a.Hi[2]-b.Lo[2])|(b.Hi[2]-a.Lo[2]) < 0
}

// preimageEdge maps an interval edge of the coarse index space to the fine
// one under Go's truncating x / ratio: [lo, hi) is the image of exactly
// [preimageEdge(lo), preimageEdge(hi)). Quotient 0 is reached from both
// signs, so edges at or below zero sit ratio-1 cells lower than v*ratio.
func preimageEdge(v, ratio int) int {
	if v > 0 {
		return v * ratio
	}
	return v*ratio - (ratio - 1)
}

// parentContacts appends, for every unit of the level and every coarse
// unit, the fine cells whose parent cell the coarse unit owns. It maps the
// coarse units into pre, which it returns for reuse. The map is strictly
// increasing along each axis, so the preimages are disjoint and in
// canonical order like the units they come from.
func (lv *planLevel) parentContacts(found []contact, pre []planUnit, ratio int) ([]contact, []planUnit) {
	pre = pre[:0]
	for _, c := range lv.coarse {
		for d := 0; d < 3; d++ {
			c.box.Lo[d] = preimageEdge(c.box.Lo[d], ratio)
			c.box.Hi[d] = preimageEdge(c.box.Hi[d], ratio)
		}
		c.maxHi = preimageEdge(c.maxHi, ratio)
		pre = append(pre, c)
	}
	overlapping(lv.units, pre, func(f, c int, common samr.Box) {
		found = append(found, contact{u1: int32(f), u2: int32(c), quarters: common.Volume()})
	})
	return found, pre
}

// overlapping calls visit with the intersection of every as[i], bs[j] that
// share a cell. Both lists are in canonical order, disjoint, with maxHi
// filled in. A box both lists hold is met by a merge along the canonical
// order and overlaps nothing else in either list, so it skips the sweep;
// for the others one cursor skips the bs that end before as[i] starts and
// the scan stops at the first that starts after it ends.
func overlapping(as, bs []planUnit, visit func(i, j int, common samr.Box)) {
	start, twin := 0, 0
	for i := range as {
		a := &as[i]
		for twin < len(bs) && lowerCorner(&bs[twin].box, &a.box) {
			twin++
		}
		if twin < len(bs) && bs[twin].box == a.box {
			visit(i, twin, a.box)
			continue
		}
		for start < len(bs) && bs[start].maxHi <= a.box.Lo[0] {
			start++
		}
		for j := start; j < len(bs) && bs[j].box.Lo[0] < a.box.Hi[0]; j++ {
			if apartYZ(&a.box, &bs[j].box) {
				continue
			}
			if common, ok := a.box.Intersect(bs[j].box); ok {
				visit(i, j, common)
			}
		}
	}
}

// lowerCorner reports whether a's low corner comes before b's in the
// canonical order: x, then y, then z.
func lowerCorner(a, b *samr.Box) bool {
	if a.Lo[0] != b.Lo[0] {
		return a.Lo[0] < b.Lo[0]
	}
	if a.Lo[1] != b.Lo[1] {
		return a.Lo[1] < b.Lo[1]
	}
	return a.Lo[2] < b.Lo[2]
}

// MigrationFrom returns the fraction of grid data present in both plans'
// configurations whose owning processor changed — the paper's "amount of
// data migration" component, with prev as the outgoing configuration: the
// summed volume of prev-unit ∩ new-unit over each common level, and the
// part of it where the owners differ. It merges the two plans' indexes —
// a unit whose box prev also has counts whole and is not swept — and
// sweeps the rest, and allocates nothing; a plan of prev's own assignment
// moved nothing and is not swept. Bit-identical to the cell-by-cell oracle.
func (p *CommPlan) MigrationFrom(prev *CommPlan) float64 {
	if p == nil || prev == nil || p.A == prev.A {
		return 0
	}
	var both, moved int64
	for _, lv := range p.levels {
		olds := prev.unitsAt(lv.level)
		overlapping(lv.units, olds, func(n, o int, common samr.Box) {
			v := common.Volume()
			both += v
			if lv.units[n].owner != olds[o].owner {
				moved += v
			}
		})
	}
	if both == 0 {
		return 0
	}
	return float64(moved) / float64(both)
}
