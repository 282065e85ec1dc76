package partition

import "github.com/pragma-grid/pragma/internal/samr"

// levelRaster is a dense owner map over the bounding box of one level's
// units; cells outside every unit hold -1. The cell-by-cell oracles of
// commref_test.go walk it.
type levelRaster struct {
	box   samr.Box
	nx    int
	nxy   int
	owner []int32
}

func newLevelRaster(boxes []samr.Box, values []int32) *levelRaster {
	var bb samr.Box
	for _, b := range boxes {
		bb = bb.Bound(b)
	}
	if bb.Empty() {
		return nil
	}
	r := &levelRaster{
		box:   bb,
		nx:    bb.Dx(0),
		nxy:   bb.Dx(0) * bb.Dx(1),
		owner: make([]int32, bb.Volume()),
	}
	for i := range r.owner {
		r.owner[i] = -1
	}
	for i, b := range boxes {
		r.paint(b, values[i])
	}
	return r
}

func (r *levelRaster) paint(b samr.Box, owner int32) {
	for z := b.Lo[2]; z < b.Hi[2]; z++ {
		for y := b.Lo[1]; y < b.Hi[1]; y++ {
			base := (z-r.box.Lo[2])*r.nxy + (y-r.box.Lo[1])*r.nx - r.box.Lo[0]
			for x := b.Lo[0]; x < b.Hi[0]; x++ {
				r.owner[base+x] = owner
			}
		}
	}
}

// at returns the owner of the cell at p, or -1 when p is outside the
// raster or unowned. The oracles are written in terms of at.
func (r *levelRaster) at(p samr.Point) int32 {
	if !r.box.Contains(p) {
		return -1
	}
	return r.owner[(p[2]-r.box.Lo[2])*r.nxy+(p[1]-r.box.Lo[1])*r.nx+(p[0]-r.box.Lo[0])]
}

// ownerRasters builds one processor-owner raster per level of the
// assignment (used by the migration oracle).
func ownerRasters(a *Assignment) map[int]*levelRaster {
	return buildRasters(a, func(i int) int32 { return int32(a.Owner[i]) })
}

// unitRasters builds one unit-index raster per level of the assignment.
func unitRasters(a *Assignment) map[int]*levelRaster {
	return buildRasters(a, func(i int) int32 { return int32(i) })
}

func buildRasters(a *Assignment, value func(i int) int32) map[int]*levelRaster {
	perLevel := map[int][]int{}
	for i, u := range a.Units {
		perLevel[u.Level] = append(perLevel[u.Level], i)
	}
	out := map[int]*levelRaster{}
	for l, ids := range perLevel {
		boxes := make([]samr.Box, len(ids))
		values := make([]int32, len(ids))
		for k, i := range ids {
			boxes[k] = a.Units[i].Box
			values[k] = value(i)
		}
		if r := newLevelRaster(boxes, values); r != nil {
			out[l] = r
		}
	}
	return out
}
