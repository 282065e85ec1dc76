package partition

import (
	"sort"

	"github.com/pragma-grid/pragma/internal/samr"
)

// This file holds the test oracles of the PAC kernel: the simple,
// obviously-correct cell-by-cell implementations the box-geometry CommPlan
// is differentially tested against. They define the canonical semantics —
// per level ascending, cells in z, y, x order, each cell checking its +x,
// +y, +z face neighbors and then its coarse parent — and the canonical pair
// enumeration order. They back the property and fuzz tests and the
// *Reference benchmark rows; production has only BuildCommPlan.

// ReferenceCommunication computes the assignment's communication
// statistics and cross-processor unit pairs with the pre-CommPlan
// sequential kernel: per-cell at() lookups and map-based pair dedup, one
// fused pass per level. BuildCommPlan must reproduce its output bit for
// bit.
func ReferenceCommunication(h *samr.Hierarchy, a *Assignment) (CommStats, []UnitPair) {
	st := CommStats{
		PerProcVolume:   make([]float64, a.NProcs),
		PerProcMessages: make([]float64, a.NProcs),
	}
	rs := unitRasters(a)
	pairIdx := map[uint64]int{}
	var pairList []UnitPair
	record := func(u1, u2 int32, vol, freq float64) {
		o1, o2 := a.Owner[u1], a.Owner[u2]
		if o1 == o2 {
			return
		}
		wvol := vol * freq
		st.Volume += wvol
		st.PerProcVolume[o1] += wvol
		st.PerProcVolume[o2] += wvol
		lo, hi := u1, u2
		if lo > hi {
			lo, hi = hi, lo
		}
		key := uint64(lo)<<32 | uint64(uint32(hi))
		i, seen := pairIdx[key]
		if !seen {
			pairIdx[key] = len(pairList)
			pairList = append(pairList, UnitPair{U1: int(lo), U2: int(hi), Frequency: freq})
			i = len(pairList) - 1
			st.Messages += freq
			st.PerProcMessages[o1] += freq
			st.PerProcMessages[o2] += freq
		}
		pairList[i].Faces += vol
	}
	levels := make([]int, 0, len(rs))
	for l := range rs {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	for _, l := range levels {
		r := rs[l]
		var coarse *levelRaster
		if l > 0 {
			coarse = rs[l-1]
		}
		freq := 1.0
		for i := 0; i < l; i++ {
			freq *= float64(h.Ratio)
		}
		b := r.box
		for z := b.Lo[2]; z < b.Hi[2]; z++ {
			for y := b.Lo[1]; y < b.Hi[1]; y++ {
				for x := b.Lo[0]; x < b.Hi[0]; x++ {
					u := r.at(samr.Point{x, y, z})
					if u < 0 {
						continue
					}
					// Intra-level ghost faces: a level-l boundary is
					// exchanged on each of the level's Ratio^l MIT
					// sub-steps per coarse step.
					for _, n := range [3]samr.Point{{x + 1, y, z}, {x, y + 1, z}, {x, y, z + 1}} {
						nu := r.at(n)
						if nu >= 0 && nu != u {
							record(u, nu, 1, freq)
						}
					}
					// Inter-level transfer: fine cell vs parent coarse
					// cell, exchanged on every fine sub-step.
					if coarse != nil {
						cu := coarse.at(samr.Point{x / h.Ratio, y / h.Ratio, z / h.Ratio})
						if cu >= 0 && cu != u {
							record(u, cu, interLevelWeight, freq)
						}
					}
				}
			}
		}
	}
	return st, pairList
}

// ReferenceMigrationFraction computes the migration fraction with the
// pre-CommPlan sequential kernel: both assignments re-rasterized into
// owner maps and compared cell by cell. CommPlan.MigrationFrom must
// reproduce its output bit for bit.
func ReferenceMigrationFraction(prevH *samr.Hierarchy, prev *Assignment, h *samr.Hierarchy, a *Assignment) float64 {
	prevR := ownerRasters(prev)
	newR := ownerRasters(a)
	var both, moved int64
	for l, nr := range newR {
		pr, ok := prevR[l]
		if !ok {
			continue
		}
		common, ok := nr.box.Intersect(pr.box)
		if !ok {
			continue
		}
		for z := common.Lo[2]; z < common.Hi[2]; z++ {
			for y := common.Lo[1]; y < common.Hi[1]; y++ {
				for x := common.Lo[0]; x < common.Hi[0]; x++ {
					p := samr.Point{x, y, z}
					po, no := pr.at(p), nr.at(p)
					if po < 0 || no < 0 {
						continue
					}
					both++
					if po != no {
						moved++
					}
				}
			}
		}
	}
	if both == 0 {
		return 0
	}
	return float64(moved) / float64(both)
}
