package partition

import (
	"math"

	"github.com/pragma-grid/pragma/internal/samr"
)

// blockUnits decomposes every hierarchy box into blocks of at most
// `side` cells per axis (in level coordinates) and weighs them with the
// work model. side <= 0 keeps whole hierarchy boxes as units ("patch
// granularity").
func blockUnits(h *samr.Hierarchy, wm samr.WorkModel, side int) []Unit {
	return appendBlockUnits(nil, new(samr.BoxWeigher), h, wm, side)
}

// appendBlockUnits is blockUnits appending to units and weighing through
// w, which is prepared once for h and reset per hierarchy box for all of
// its blocks.
func appendBlockUnits(units []Unit, w *samr.BoxWeigher, h *samr.Hierarchy, wm samr.WorkModel, side int) []Unit {
	w.Prepare(wm, h)
	for l, boxes := range h.Levels {
		for _, b := range boxes {
			w.Reset(l, b)
			if side <= 0 {
				units = append(units, Unit{Level: l, Box: b, Weight: w.BoxWork(b)})
				continue
			}
			for x := b.Lo[0]; x < b.Hi[0]; x += side {
				for y := b.Lo[1]; y < b.Hi[1]; y += side {
					for z := b.Lo[2]; z < b.Hi[2]; z += side {
						blk := samr.Box{
							Lo: samr.Point{x, y, z},
							Hi: samr.Point{
								min(x+side, b.Hi[0]),
								min(y+side, b.Hi[1]),
								min(z+side, b.Hi[2]),
							},
						}
						units = append(units, Unit{Level: l, Box: blk, Weight: w.BoxWork(blk)})
					}
				}
			}
		}
	}
	return units
}

// appendVariableGrainUnits implements the "variable grain geometric
// multilevel" decomposition of G-MISP: it starts from whole hierarchy boxes
// and recursively halves any unit heavier than threshold along its longest
// axis, until the unit is light enough or minSide is reached. Heavy regions
// end up finely subdivided while light regions stay coarse. It appends to
// units and weighs through w, which is prepared once for h and reset per
// hierarchy box for every node of that box's halving recursion.
func appendVariableGrainUnits(units []Unit, w *samr.BoxWeigher, h *samr.Hierarchy, wm samr.WorkModel, threshold float64, minSide int) []Unit {
	if minSide < 1 {
		minSide = 1
	}
	w.Prepare(wm, h)
	for l, boxes := range h.Levels {
		for _, b := range boxes {
			w.Reset(l, b)
			units = halveUnits(units, w, l, b, threshold, minSide)
		}
	}
	return units
}

// halveUnits appends the leaves of b's halving recursion.
func halveUnits(units []Unit, w *samr.BoxWeigher, l int, b samr.Box, threshold float64, minSide int) []Unit {
	weight := w.BoxWork(b)
	longest := 0
	for d := 1; d < 3; d++ {
		if b.Dx(d) > b.Dx(longest) {
			longest = d
		}
	}
	if weight <= threshold || b.Dx(longest) < 2*minSide {
		return append(units, Unit{Level: l, Box: b, Weight: weight})
	}
	lo, hi := b.Split(longest, b.Lo[longest]+b.Dx(longest)/2)
	units = halveUnits(units, w, l, lo, threshold, minSide)
	return halveUnits(units, w, l, hi, threshold, minSide)
}

// granularityFor picks a block side so the decomposition yields roughly
// targetUnitsPerProc*nprocs units, clamped to [minSide, maxSide]. Fixed
// granularities behave pathologically when the refined region shrinks (a
// thin shock sheet at coarse granularity can yield fewer units than
// processors), so the default granularity of every ISP partitioner adapts
// to the hierarchy. The side is the largest s with s^3 <= cells/target —
// the integer cube root of cells/target — computed directly (with a
// float-seed correction, since math.Cbrt can land one off for large
// values) rather than by linear probing.
func granularityFor(h *samr.Hierarchy, nprocs, targetUnitsPerProc, minSide, maxSide int) int {
	var cells int64
	for l := range h.Levels {
		cells += h.CellsAtLevel(l)
	}
	target := int64(nprocs * targetUnitsPerProc)
	if target < 1 {
		target = 1
	}
	per := cells / target
	side := int(math.Cbrt(float64(per)))
	for cube(side+1) <= per {
		side++
	}
	for side > 0 && cube(side) > per {
		side--
	}
	side = min(side, maxSide)
	return max(side, minSide)
}

func cube(s int) int64 { return int64(s) * int64(s) * int64(s) }
