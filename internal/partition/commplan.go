package partition

import (
	"slices"
	"time"

	"github.com/pragma-grid/pragma/internal/samr"
)

// CommPlan is everything the runtime derives from the geometry of one
// assignment: the communication statistics, the cross-processor unit-pair
// adjacencies a distributed executor must realize, and the per-level index
// of unit boxes (reused by MigrationFrom at the next regrid). Build it once
// per regrid and thread it through every layer that needs any of the three.
//
// The plan is immutable after construction and safe for concurrent reads.
type CommPlan struct {
	// H and A are the hierarchy and assignment the plan was built for.
	H *samr.Hierarchy
	A *Assignment
	// Stats is the assignment's communication requirement.
	Stats CommStats
	// Pairs lists every cross-processor unit-pair adjacency in canonical
	// order (levels ascending, then sweep order z, y, x; +x/+y/+z faces
	// before the coarse-parent relation at each cell).
	Pairs []UnitPair

	// levels holds the non-empty units grouped by level, levels ascending.
	levels []planLevel
	// overlap is set when two units of one level share a cell, which
	// Assignment.Validate forbids. The closed forms below assume disjoint
	// units, so such a plan takes its numbers from the cell-by-cell
	// reference, whose raster lets the later unit win the shared cells.
	overlap bool
}

// planLevel is one level's units, sorted by Box.Lo[0], and their bounding
// box.
type planLevel struct {
	level int
	box   samr.Box
	units []planUnit
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
// communication from their geometry: two boxes of a level exchange the area
// of the rectangle where they abut, a fine and a coarse unit a quarter of
// the volume of the fine box inside the coarse box's preimage under
// x / Ratio. No cell is visited. The result is bit-identical to
// ReferenceCommunication: every contribution is a multiple of a quarter
// face accumulated in integers, so no sum depends on the order of discovery.
func BuildCommPlan(h *samr.Hierarchy, a *Assignment) *CommPlan {
	start := time.Now()
	p := &CommPlan{H: h, A: a, levels: indexUnits(a), Stats: CommStats{
		PerProcVolume:   make([]float64, a.NProcs),
		PerProcMessages: make([]float64, a.NProcs),
	}}
	// Sized for the paper's trace, which has 2 to 4 contacts per unit.
	found := make([]contact, 0, 4*len(a.Units))
	keys := make([]uint64, 0, 4*len(a.Units))
	for i := range p.levels {
		lv := &p.levels[i]
		if found, p.overlap = lv.faceContacts(found[:0]); p.overlap {
			p.Stats, p.Pairs = ReferenceCommunication(h, a)
			break
		}
		if coarse := p.unitsAt(lv.level - 1); coarse != nil {
			found = lv.parentContacts(found, coarse, h.Ratio)
		}
		keys = keys[:0]
		for _, c := range found {
			keys = append(keys, c.key)
		}
		freq := 1.0
		for range lv.level {
			freq *= float64(h.Ratio)
		}
		// Exact: quarters and freq = Ratio^level are integers, so every
		// term has at most two fractional bits and the float64 additions
		// never round at any realistic hierarchy size.
		p.Pairs = slices.Grow(p.Pairs, len(found))
		for _, k := range byKeys(keys) {
			c := &found[k]
			faces := 0.25 * float64(c.quarters)
			st, o1, o2 := &p.Stats, a.Owner[c.u1], a.Owner[c.u2]
			st.Volume += faces * freq
			st.PerProcVolume[o1] += faces * freq
			st.PerProcVolume[o2] += faces * freq
			st.Messages += freq
			st.PerProcMessages[o1] += freq
			st.PerProcMessages[o2] += freq
			p.Pairs = append(p.Pairs, UnitPair{
				U1: int(min(c.u1, c.u2)), U2: int(max(c.u1, c.u2)),
				Faces: faces, Frequency: freq,
			})
		}
	}
	metricPACSeconds.Observe(time.Since(start).Seconds())
	return p
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

// indexUnits groups the assignment's non-empty units by level and sorts
// each level by Box.Lo[0].
func indexUnits(a *Assignment) []planLevel {
	if len(a.Units) == 0 {
		return nil
	}
	minX := a.Units[0].Box.Lo[0]
	var present []int
	for _, u := range a.Units {
		minX = min(minX, u.Box.Lo[0])
		if !slices.Contains(present, u.Level) {
			present = append(present, u.Level)
		}
	}
	slices.Sort(present)
	keys := make([]uint64, len(a.Units))
	for i, u := range a.Units {
		keys[i] = uint64(u.Box.Lo[0] - minX)
	}
	byX := byKeys(keys)
	all := make([]planUnit, 0, len(a.Units))
	levels := make([]planLevel, 0, len(present))
	for _, l := range present {
		lv := planLevel{level: l}
		first := len(all)
		for _, i := range byX {
			u := &a.Units[i]
			if u.Level != l || u.Box.Empty() {
				continue
			}
			pu := planUnit{box: u.Box, id: i, owner: int32(a.Owner[i]), maxHi: u.Box.Hi[0]}
			if len(all) > first {
				pu.maxHi = max(pu.maxHi, all[len(all)-1].maxHi)
			}
			all = append(all, pu)
			lv.box = lv.box.Bound(u.Box)
		}
		if lv.units = all[first:]; len(lv.units) > 0 {
			levels = append(levels, lv)
		}
	}
	return levels
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
// level and a coarse unit, the fine cells whose parent cell the coarse unit owns.
func (lv *planLevel) parentContacts(found []contact, coarse []planUnit, ratio int) []contact {
	pre := make([]planUnit, len(coarse))
	for i, c := range coarse {
		for d := 0; d < 3; d++ {
			c.box.Lo[d] = preimageEdge(c.box.Lo[d], ratio)
			c.box.Hi[d] = preimageEdge(c.box.Hi[d], ratio)
		}
		c.maxHi = preimageEdge(c.maxHi, ratio)
		pre[i] = c
	}
	overlapping(lv.units, pre, func(f, c *planUnit, common samr.Box) {
		if f.owner != c.owner {
			found = append(found, contact{key: lv.sweepKey(common.Lo, 3), u1: f.id, u2: c.id, quarters: common.Volume()})
		}
	})
	return found
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
