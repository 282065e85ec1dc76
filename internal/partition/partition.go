// Package partition implements the SAMR partitioner suite behind Pragma's
// adaptive meta-partitioner (§4 of the paper): the inverse space-filling
// curve partitioners SFC, G-MISP, G-MISP+SP, pBD-ISP, SP-ISP and ISP, the
// default equal-distribution scheme, and the capacity-weighted heterogeneous
// partitioner of the system-sensitive case study. It also provides the
// five-component PAC quality metric (communication requirements, load
// imbalance, data migration, partitioning time, partitioning-induced
// overhead) used to characterize each partitioner.
package partition

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/sfc"
)

// Unit is an indivisible chunk of the grid hierarchy to be assigned to one
// processor: a box on one level with a computational weight.
type Unit struct {
	// Level is the hierarchy level the unit lives on.
	Level int
	// Box is the unit's region in level coordinates.
	Box samr.Box
	// Weight is the unit's per-coarse-step computational work.
	Weight float64
}

// Assignment is the result of partitioning: each unit mapped to a processor.
type Assignment struct {
	// NProcs is the number of processors partitioned across.
	NProcs int
	// Units are the grid chunks, in the order the partitioner emitted them.
	Units []Unit
	// Owner[i] is the processor assigned Units[i].
	Owner []int
	// SplitCost is the relative cost of the splitting algorithm that
	// produced the assignment, in sweeps over the unit sequence: greedy
	// splitting costs ~1 sweep, p-way binary dissection ~log2(p), optimal
	// sequence partitioning ~60 (its bottleneck binary search). The
	// simulator charges partitioning time proportional to
	// units x SplitCost — the "partitioning time" component of the PAC
	// metric, and a real differentiator between pBD-ISP and the
	// SP-based partitioners.
	SplitCost float64
}

// Work returns the per-processor computational load.
func (a *Assignment) Work() []float64 {
	return a.WorkInto(nil)
}

// WorkInto is Work written into dst's memory, grown if it is shorter than
// NProcs, for callers that keep one work vector across regrids.
func (a *Assignment) WorkInto(dst []float64) []float64 {
	return workInto(dst, a.NProcs, a.Units, a.Owner)
}

// workInto sums the units' weights per owner into dst's memory, in unit
// order, so a candidate's work vector and its materialized assignment's
// agree bit for bit.
func workInto(dst []float64, nprocs int, units []Unit, owner []int) []float64 {
	dst = cleared(dst, nprocs)
	for i, u := range units {
		dst[owner[i]] += u.Weight
	}
	return dst
}

// TotalWeight returns the summed weight of all units.
func (a *Assignment) TotalWeight() float64 {
	var t float64
	for _, u := range a.Units {
		t += u.Weight
	}
	return t
}

// Imbalance returns the percentage load imbalance, 100*(max-avg)/avg, the
// "maximum load imbalance" column of the paper's Table 4. It is
// ImbalanceOf(a.Work()).
func (a *Assignment) Imbalance() float64 {
	return ImbalanceOf(a.Work())
}

// ImbalanceOf returns the percentage load imbalance of a per-processor work
// vector, for callers that already hold Assignment.Work.
func ImbalanceOf(w []float64) float64 {
	var sum, max float64
	for _, v := range w {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	avg := sum / float64(len(w))
	return 100 * (max - avg) / avg
}

// Validate checks assignment invariants: owners in range, one owner per
// unit, positive unit volumes, and units pairwise disjoint within a level.
func (a *Assignment) Validate() error {
	if len(a.Owner) != len(a.Units) {
		return fmt.Errorf("partition: %d owners for %d units", len(a.Owner), len(a.Units))
	}
	byLevel := map[int][]samr.Box{}
	for i, u := range a.Units {
		if a.Owner[i] < 0 || a.Owner[i] >= a.NProcs {
			return fmt.Errorf("partition: unit %d owner %d out of range [0,%d)", i, a.Owner[i], a.NProcs)
		}
		if u.Box.Empty() {
			return fmt.Errorf("partition: unit %d has empty box", i)
		}
		byLevel[u.Level] = append(byLevel[u.Level], u.Box)
	}
	for l, boxes := range byLevel {
		slices.SortFunc(boxes, func(a, b samr.Box) int {
			if c := cmp.Compare(a.Lo[0], b.Lo[0]); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Lo[1], b.Lo[1]); c != 0 {
				return c
			}
			return cmp.Compare(a.Lo[2], b.Lo[2])
		})
		for i := 0; i < len(boxes); i++ {
			for j := i + 1; j < len(boxes) && boxes[j].Lo[0] < boxes[i].Hi[0]; j++ {
				if boxes[i].Overlaps(boxes[j]) {
					return fmt.Errorf("partition: level %d units %v and %v overlap", l, boxes[i], boxes[j])
				}
			}
		}
	}
	return nil
}

// CoversHierarchy checks that the assignment's units exactly tile the
// hierarchy's boxes (no grid cells lost or duplicated), comparing volumes
// per level.
func (a *Assignment) CoversHierarchy(h *samr.Hierarchy) error {
	got := map[int]int64{}
	for _, u := range a.Units {
		got[u.Level] += u.Box.Volume()
	}
	for l := range h.Levels {
		if got[l] != h.CellsAtLevel(l) {
			return fmt.Errorf("partition: level %d covers %d of %d cells", l, got[l], h.CellsAtLevel(l))
		}
	}
	return nil
}

// Partitioner distributes a grid hierarchy across processors. Partitioners
// are stateless and safe for concurrent use.
type Partitioner interface {
	// Name returns the partitioner's identifier as used in the paper
	// (e.g. "SFC", "G-MISP+SP", "pBD-ISP").
	Name() string
	// Partition assigns the hierarchy's cells to nprocs processors using
	// the work model for unit weights.
	Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error)
}

// CapacityPartitioner additionally supports heterogeneous processors: the
// load is distributed proportionally to relative capacities instead of
// equally (Fig. 4 of the paper).
type CapacityPartitioner interface {
	Partitioner
	// PartitionWeighted assigns the hierarchy proportionally to the given
	// relative capacities (one per processor; they need not be normalized).
	PartitionWeighted(h *samr.Hierarchy, wm samr.WorkModel, capacities []float64) (*Assignment, error)
}

// orderUnits sorts units along the given curve, mapping each unit's center
// into the hierarchy's finest index space so that units from all levels
// share one locality-preserving order.
func orderUnits(units []Unit, h *samr.Hierarchy, curve sfc.Curve) {
	finest := h.Depth() - 1
	type keyed struct {
		key  uint64
		unit Unit
	}
	tmp := make([]keyed, len(units))
	for i, u := range units {
		scale := 1
		for l := u.Level; l < finest; l++ {
			scale *= h.Ratio
		}
		cx := uint32((u.Box.Lo[0] + u.Box.Hi[0]) * scale / 2)
		cy := uint32((u.Box.Lo[1] + u.Box.Hi[1]) * scale / 2)
		cz := uint32((u.Box.Lo[2] + u.Box.Hi[2]) * scale / 2)
		tmp[i] = keyed{key: curve.Index(cx, cy, cz), unit: u}
	}
	slices.SortStableFunc(tmp, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	for i := range tmp {
		units[i] = tmp[i].unit
	}
}

// curveFor builds the default Hilbert curve sized to the hierarchy's finest
// index space.
func curveFor(h *samr.Hierarchy) sfc.Curve {
	dom := h.LevelDomain(h.Depth() - 1)
	return sfc.MustHilbert(sfc.BitsFor(dom.Dx(0), dom.Dx(1), dom.Dx(2)))
}
