package partition

import (
	"cmp"
	"slices"
	"time"

	"github.com/pragma-grid/pragma/internal/samr"
)

// CommPlan is everything the runtime derives from the geometry of one
// assignment: the communication statistics, the cross-processor unit-pair
// adjacencies a distributed executor must realize (Pairs), and the per-level
// index of unit boxes (swept by MigrationFrom at the next regrid). Build it
// once per regrid and thread it through every layer that needs any of the
// three.
//
// A plan is immutable and safe for concurrent reads until it is rebuilt.
// RebuildCommPlan writes another assignment's plan into the same buffers,
// which invalidates every slice the plan handed out before
// (Stats.PerProcVolume, Stats.PerProcMessages): rebuild a plan only when
// nothing reads it any more. Pairs returns a fresh slice and survives it.
type CommPlan struct {
	// H and A are the hierarchy and assignment the plan was built for.
	H *samr.Hierarchy
	A *Assignment
	// Stats is the assignment's communication requirement.
	Stats CommStats

	// levels holds the non-empty units grouped by level, levels ascending.
	levels []planLevel
	// found holds every level's contacts in discovery order; a level's are
	// found[lo:hi].
	found []contact
	// overlap is set when two units of one level share a cell, which
	// Assignment.Validate forbids. The closed forms below assume disjoint
	// units, so such a plan takes its numbers from the cell-by-cell
	// reference, whose raster lets the later unit win the shared cells.
	overlap bool

	// Scratch whose capacity survives a rebuild: the units of every level
	// (levels[i].units are windows of it), the x-sort keys and permutation,
	// and the coarse preimages of parentContacts.
	units    []planUnit
	keys     []uint64
	idx, tmp []int32
	pre      []planUnit
}

// planLevel is one level's units, sorted by Box.Lo[0], their bounding box,
// the level's exchanges per coarse step (Ratio^level) and where its contacts
// lie in CommPlan.found.
type planLevel struct {
	level  int
	box    samr.Box
	freq   float64
	units  []planUnit
	lo, hi int
}

// planUnit is one unit of the index. Both operands of a migration diff
// must be sorted along the same axis, so the axis is fixed: x, the long
// axis of every domain in the repository.
type planUnit struct {
	box   samr.Box
	id    int32
	owner int32
	// maxHi is the largest Box.Hi[0] among this unit and those sorted
	// before it: units up to the last one with maxHi <= x end before x.
	maxHi int
}

// contact is one cross-processor unit pair as the reference sweep first
// sees it. Disjoint boxes meet in exactly one region — one rectangle for
// two boxes of a level, one box for a fine unit and a coarse unit's
// preimage — so the reference's first-touch cell is that region's low
// corner on the lower side, and its pair order is a sort by key.
type contact struct {
	key      uint64 // planLevel.sweepKey of the first-touch cell and relation
	u1, u2   int32
	quarters int64 // faces count 4, parent cells 1 (interLevelWeight)
}

// sweepKey places a relation of the cell at in the reference's sweep of the
// level: the cell's linear index in the level's bounding box, z-major as
// the reference walks it, then dir — 0, 1, 2 for the cell's +x, +y, +z
// face, 3 for its coarse parent.
func (lv *planLevel) sweepKey(at samr.Point, dir int) uint64 {
	b := lv.box
	cell := ((at[2]-b.Lo[2])*b.Dx(1)+(at[1]-b.Lo[1]))*b.Dx(0) + (at[0] - b.Lo[0])
	return uint64(cell)<<2 | uint64(dir)
}

// BuildCommPlan indexes the assignment's unit boxes and computes its
// communication from their geometry into a fresh plan; it is
// RebuildCommPlan(nil, h, a).
func BuildCommPlan(h *samr.Hierarchy, a *Assignment) *CommPlan {
	return RebuildCommPlan(nil, h, a)
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
// still bit-identical to ReferenceCommunication, because every contribution
// is a multiple of a quarter face counted in integers, so no sum depends on
// the order of its terms. Pairs sorts them when asked.
func RebuildCommPlan(p *CommPlan, h *samr.Hierarchy, a *Assignment) *CommPlan {
	start := time.Now()
	if p == nil {
		p = &CommPlan{}
	}
	p.H, p.A, p.overlap = h, a, false
	p.Stats = CommStats{
		PerProcVolume:   cleared(p.Stats.PerProcVolume, a.NProcs),
		PerProcMessages: cleared(p.Stats.PerProcMessages, a.NProcs),
	}
	p.index(a)
	p.found = p.found[:0]
	for i := range p.levels {
		lv := &p.levels[i]
		lv.lo = len(p.found)
		if p.found, p.overlap = lv.faceContacts(p.found); p.overlap {
			p.Stats, _ = ReferenceCommunication(h, a)
			break
		}
		if coarse := p.unitsAt(lv.level - 1); coarse != nil {
			p.found, p.pre = lv.parentContacts(p.found, p.pre, coarse, h.Ratio)
		}
		lv.hi = len(p.found)
		lv.freq = 1.0
		for range lv.level {
			lv.freq *= float64(h.Ratio)
		}
		// Exact: quarters and freq = Ratio^level are integers, so every
		// term has at most two fractional bits and the float64 additions
		// never round at any realistic hierarchy size.
		st := &p.Stats
		for _, c := range p.found[lv.lo:lv.hi] {
			faces := 0.25 * float64(c.quarters)
			o1, o2 := a.Owner[c.u1], a.Owner[c.u2]
			st.Volume += faces * lv.freq
			st.PerProcVolume[o1] += faces * lv.freq
			st.PerProcVolume[o2] += faces * lv.freq
			st.Messages += lv.freq
			st.PerProcMessages[o1] += lv.freq
			st.PerProcMessages[o2] += lv.freq
		}
	}
	metricPACSeconds.Observe(time.Since(start).Seconds())
	return p
}

// cleared returns s resized to n zeros, reusing its capacity.
func cleared(s []float64, n int) []float64 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Pairs returns every cross-processor unit-pair adjacency in canonical
// order (levels ascending, then the reference's sweep order z, y, x;
// +x/+y/+z faces before the coarse-parent relation at each cell) as a fresh
// slice. It sorts the plan's contacts on every call, so a caller that needs
// the pairs more than once keeps the slice.
func (p *CommPlan) Pairs() []UnitPair {
	if p.overlap {
		_, pairs := ReferenceCommunication(p.H, p.A)
		return pairs
	}
	if len(p.found) == 0 {
		return nil
	}
	pairs := make([]UnitPair, 0, len(p.found))
	for _, lv := range p.levels {
		found := p.found[lv.lo:lv.hi]
		keys := make([]uint64, len(found))
		for i, c := range found {
			keys[i] = c.key
		}
		for _, k := range byKeys(keys) {
			c := &found[k]
			pairs = append(pairs, UnitPair{
				U1: int(min(c.u1, c.u2)), U2: int(max(c.u1, c.u2)),
				Faces: 0.25 * float64(c.quarters), Frequency: lv.freq,
			})
		}
	}
	return pairs
}

// byKeys returns the positions of keys in ascending order of key, equal
// keys in order of position.
func byKeys(keys []uint64) []int32 {
	buf := make([]int32, 2*len(keys))
	idx := buf[:len(keys)]
	for i := range idx {
		idx[i] = int32(i)
	}
	return radixSortRun(keys, idx, buf[len(keys):])
}

// index groups the assignment's non-empty units by level, levels
// ascending, and sorts each level by Box.Lo[0], in the plan's buffers.
func (p *CommPlan) index(a *Assignment) {
	p.levels, p.units = p.levels[:0], p.units[:0]
	if len(a.Units) == 0 {
		return
	}
	minX := a.Units[0].Box.Lo[0]
	for _, u := range a.Units {
		minX = min(minX, u.Box.Lo[0])
		if !slices.ContainsFunc(p.levels, func(lv planLevel) bool { return lv.level == u.Level }) {
			p.levels = append(p.levels, planLevel{level: u.Level})
		}
	}
	slices.SortFunc(p.levels, func(x, y planLevel) int { return cmp.Compare(x.level, y.level) })
	p.keys, p.idx, p.tmp = p.keys[:0], p.idx[:0], p.tmp[:0]
	for i, u := range a.Units {
		p.keys = append(p.keys, uint64(u.Box.Lo[0]-minX))
		p.idx = append(p.idx, int32(i))
		p.tmp = append(p.tmp, 0)
	}
	byX := radixSortRun(p.keys, p.idx, p.tmp)
	// Full capacity up front: the levels' windows must not move.
	p.units = slices.Grow(p.units, len(a.Units))
	for i := range p.levels {
		lv := &p.levels[i]
		first := len(p.units)
		for _, id := range byX {
			u := &a.Units[id]
			if u.Level != lv.level || u.Box.Empty() {
				continue
			}
			pu := planUnit{box: u.Box, id: id, owner: int32(a.Owner[id]), maxHi: u.Box.Hi[0]}
			if len(p.units) > first {
				pu.maxHi = max(pu.maxHi, p.units[len(p.units)-1].maxHi)
			}
			p.units = append(p.units, pu)
			lv.box = lv.box.Bound(u.Box)
		}
		lv.units = p.units[first:]
	}
	p.levels = slices.DeleteFunc(p.levels, func(lv planLevel) bool { return len(lv.units) == 0 })
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

// faceContacts appends the face contact of every cross-processor pair of
// the level's units, and reports whether any two units overlap. Candidates
// are pruned along x: units are sorted by Box.Lo[0], so the partners of
// a unit among the later ones end at the first one starting past its Hi[0].
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
			var at samr.Point
			axis, abut := 0, 0
			for d := 0; d < 3; d++ {
				at[d] = max(a.box.Lo[d], b.box.Lo[d])
				w[d] = min(a.box.Hi[d], b.box.Hi[d]) - at[d]
				if w[d] == 0 {
					axis = d
					abut++
				}
			}
			if abut == 0 {
				return found, true
			}
			if abut == 1 && a.owner != b.owner {
				// The rectangle's cells on the lower box lie one below
				// the plane where the two meet.
				at[axis]--
				found = append(found, contact{
					key: lv.sweepKey(at, axis), u1: a.id, u2: b.id,
					quarters: 4 * int64(w[(axis+1)%3]) * int64(w[(axis+2)%3]),
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

// parentContacts appends, for every cross-processor pair of a unit of the
// level and a coarse unit, the fine cells whose parent cell the coarse unit
// owns. It maps the coarse units into pre, which it returns for reuse.
func (lv *planLevel) parentContacts(found []contact, pre, coarse []planUnit, ratio int) ([]contact, []planUnit) {
	pre = pre[:0]
	for _, c := range coarse {
		for d := 0; d < 3; d++ {
			c.box.Lo[d] = preimageEdge(c.box.Lo[d], ratio)
			c.box.Hi[d] = preimageEdge(c.box.Hi[d], ratio)
		}
		c.maxHi = preimageEdge(c.maxHi, ratio)
		pre = append(pre, c)
	}
	overlapping(lv.units, pre, func(f, c *planUnit, common samr.Box) {
		if f.owner != c.owner {
			found = append(found, contact{key: lv.sweepKey(common.Lo, 3), u1: f.id, u2: c.id, quarters: common.Volume()})
		}
	})
	return found, pre
}

// overlapping calls visit with the intersection of every as[i], bs[j] that
// share a cell. Both lists are sorted by Box.Lo[0] with maxHi filled in, so
// one cursor skips the bs that end before as[i] starts and the scan stops at
// the first that starts after it ends.
func overlapping(as, bs []planUnit, visit func(a, b *planUnit, common samr.Box)) {
	start := 0
	for i := range as {
		a := &as[i]
		for start < len(bs) && bs[start].maxHi <= a.box.Lo[0] {
			start++
		}
		for j := start; j < len(bs) && bs[j].box.Lo[0] < a.box.Hi[0]; j++ {
			if apartYZ(&a.box, &bs[j].box) {
				continue
			}
			if common, ok := a.box.Intersect(bs[j].box); ok {
				visit(a, &bs[j], common)
			}
		}
	}
}

// MigrationFrom returns the fraction of grid data present in both plans'
// configurations whose owning processor changed — the paper's "amount of
// data migration" component, with prev as the outgoing configuration: the
// summed volume of prev-unit ∩ new-unit over each common level, and the
// part of it where the owners differ. It sweeps the two plans' indexes and
// allocates nothing. Bit-identical to ReferenceMigrationFraction.
func (p *CommPlan) MigrationFrom(prev *CommPlan) float64 {
	if p == nil || prev == nil {
		return 0
	}
	if p.overlap || prev.overlap {
		return ReferenceMigrationFraction(prev.H, prev.A, p.H, p.A)
	}
	var both, moved int64
	for _, lv := range p.levels {
		overlapping(lv.units, prev.unitsAt(lv.level), func(n, o *planUnit, common samr.Box) {
			v := common.Volume()
			both += v
			if n.owner != o.owner {
				moved += v
			}
		})
	}
	if both == 0 {
		return 0
	}
	return float64(moved) / float64(both)
}
