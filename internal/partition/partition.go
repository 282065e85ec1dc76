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
// An assignment is never modified once returned: a PartitionPlan may hand
// the same one, or its Units and Owner, out again for a call with equal
// inputs, and a CommPlan takes its pointer as its identity
// (RebuildCommPlan, MigrationFrom). A caller that wants another one makes
// a new struct.
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
	type levelBox struct {
		level int
		box   samr.Box
	}
	boxes := make([]levelBox, len(a.Units))
	for i, u := range a.Units {
		if a.Owner[i] < 0 || a.Owner[i] >= a.NProcs {
			return fmt.Errorf("partition: unit %d owner %d out of range [0,%d)", i, a.Owner[i], a.NProcs)
		}
		if u.Box.Empty() {
			return fmt.Errorf("partition: unit %d has empty box", i)
		}
		boxes[i] = levelBox{u.Level, u.Box}
	}
	// By level, then by low corner: each level is one run, x-sorted, and
	// a box can only overlap the boxes after it that start before it ends
	// in x.
	slices.SortFunc(boxes, func(a, b levelBox) int {
		if c := cmp.Compare(a.level, b.level); c != 0 {
			return c
		}
		if c := cmp.Compare(a.box.Lo[0], b.box.Lo[0]); c != 0 {
			return c
		}
		if c := cmp.Compare(a.box.Lo[1], b.box.Lo[1]); c != 0 {
			return c
		}
		return cmp.Compare(a.box.Lo[2], b.box.Lo[2])
	})
	for i := range boxes {
		bi := &boxes[i]
		for j := i + 1; j < len(boxes) && boxes[j].level == bi.level && boxes[j].box.Lo[0] < bi.box.Hi[0]; j++ {
			if bi.box.Overlaps(boxes[j].box) {
				return fmt.Errorf("partition: level %d units %v and %v overlap", bi.level, bi.box, boxes[j].box)
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

// curveFor builds the default Hilbert curve sized to the hierarchy's finest
// index space.
func curveFor(h *samr.Hierarchy) sfc.Curve {
	dom := h.LevelDomain(h.Depth() - 1)
	return sfc.MustHilbert(sfc.BitsFor(dom.Dx(0), dom.Dx(1), dom.Dx(2)))
}
