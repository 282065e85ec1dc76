package samr

import (
	"fmt"
	"math"
)

// Hierarchy is an SAMR grid hierarchy: a coarse domain plus a stack of
// refinement levels. Levels[l] holds the boxes of level l expressed in
// level-l index coordinates; level l is Ratio^l times finer than level 0
// along every axis. Levels[0] always contains exactly the domain box.
//
// With multiple independent timesteps (MIT), level l advances Ratio^l
// sub-steps per coarse step, so a level-l cell carries Ratio^l times the
// per-coarse-step work of a level-0 cell.
type Hierarchy struct {
	Domain Box
	Ratio  int
	Levels [][]Box
}

// NewHierarchy creates a hierarchy whose only level is the domain itself.
func NewHierarchy(domain Box, ratio int) (*Hierarchy, error) {
	if domain.Empty() {
		return nil, fmt.Errorf("samr: empty domain %v", domain)
	}
	if ratio < 2 {
		return nil, fmt.Errorf("samr: refinement ratio %d < 2", ratio)
	}
	return &Hierarchy{
		Domain: domain,
		Ratio:  ratio,
		Levels: [][]Box{{domain}},
	}, nil
}

// Clone returns a deep copy of the hierarchy.
func (h *Hierarchy) Clone() *Hierarchy {
	c := &Hierarchy{Domain: h.Domain, Ratio: h.Ratio, Levels: make([][]Box, len(h.Levels))}
	for l, boxes := range h.Levels {
		c.Levels[l] = append([]Box(nil), boxes...)
	}
	return c
}

// Depth returns the number of levels (>= 1).
func (h *Hierarchy) Depth() int { return len(h.Levels) }

// SetLevel replaces the boxes of level l (l >= 1). Passing an empty slice
// truncates the hierarchy at level l.
func (h *Hierarchy) SetLevel(l int, boxes []Box) error {
	if l < 1 {
		return fmt.Errorf("samr: cannot replace base level")
	}
	if l > len(h.Levels) {
		return fmt.Errorf("samr: level %d skips levels (depth %d)", l, len(h.Levels))
	}
	if len(boxes) == 0 {
		h.Levels = h.Levels[:l]
		return nil
	}
	if l == len(h.Levels) {
		h.Levels = append(h.Levels, nil)
	}
	h.Levels[l] = append([]Box(nil), boxes...)
	h.Levels = h.Levels[:l+1]
	return nil
}

// LevelDomain returns the whole domain expressed in level-l coordinates.
func (h *Hierarchy) LevelDomain(l int) Box {
	b := h.Domain
	for i := 0; i < l; i++ {
		b = b.Refine(h.Ratio)
	}
	return b
}

// refinementScale returns Ratio^l.
func (h *Hierarchy) refinementScale(l int) int {
	s := 1
	for i := 0; i < l; i++ {
		s *= h.Ratio
	}
	return s
}

// Validate checks structural invariants: boxes non-empty and inside the
// level domain, boxes on a level pairwise disjoint, and every level-(l+1)
// box nested inside the union of refined level-l boxes.
func (h *Hierarchy) Validate() error {
	if len(h.Levels) == 0 {
		return fmt.Errorf("samr: hierarchy has no levels")
	}
	if len(h.Levels[0]) != 1 || h.Levels[0][0] != h.Domain {
		return fmt.Errorf("samr: level 0 must be exactly the domain")
	}
	for l, boxes := range h.Levels {
		dom := h.LevelDomain(l)
		for i, b := range boxes {
			if b.Empty() {
				return fmt.Errorf("samr: level %d box %d is empty", l, i)
			}
			if !dom.ContainsBox(b) {
				return fmt.Errorf("samr: level %d box %v escapes domain %v", l, b, dom)
			}
			for j := i + 1; j < len(boxes); j++ {
				if b.Overlaps(boxes[j]) {
					return fmt.Errorf("samr: level %d boxes %v and %v overlap", l, b, boxes[j])
				}
			}
		}
		if l == 0 {
			continue
		}
		parents := make([]Box, len(h.Levels[l-1]))
		for i, p := range h.Levels[l-1] {
			parents[i] = p.Refine(h.Ratio)
		}
		for _, b := range boxes {
			if !coveredBy(b, parents) {
				return fmt.Errorf("samr: level %d box %v not nested in level %d", l, b, l-1)
			}
		}
	}
	return nil
}

// coveredBy reports whether box b is entirely covered by the union of cover.
func coveredBy(b Box, cover []Box) bool {
	remaining := []Box{b}
	for _, c := range cover {
		var next []Box
		for _, r := range remaining {
			next = append(next, r.Subtract(c)...)
		}
		remaining = next
		if len(remaining) == 0 {
			return true
		}
	}
	return len(remaining) == 0
}

// CellsAtLevel returns the total number of cells on level l.
func (h *Hierarchy) CellsAtLevel(l int) int64 {
	var n int64
	for _, b := range h.Levels[l] {
		n += b.Volume()
	}
	return n
}

// TotalCells returns the total cell count across all levels.
func (h *Hierarchy) TotalCells() int64 {
	var n int64
	for l := range h.Levels {
		n += h.CellsAtLevel(l)
	}
	return n
}

// TotalWork returns the per-coarse-step computational work of the hierarchy
// under MIT time refinement: a level-l cell costs Ratio^l cell-updates per
// coarse step.
func (h *Hierarchy) TotalWork() float64 {
	var w float64
	for l := range h.Levels {
		w += float64(float64(h.CellsAtLevel(l)) * float64(h.refinementScale(l)))
	}
	return w
}

// UniformWork returns the per-coarse-step work a non-adaptive run would
// need to match the finest resolution everywhere: cells of the domain
// refined to the deepest level, each advancing Ratio^(depth-1) sub-steps.
func (h *Hierarchy) UniformWork() float64 {
	finest := h.Depth() - 1
	scale := float64(h.refinementScale(finest))
	cells := float64(h.Domain.Volume()) * math.Pow(scale, 3)
	return cells * scale
}

// AMREfficiency returns the percentage of the equivalent uniform-grid work
// that adaptivity avoids: 100 * (1 - TotalWork/UniformWork). This is the
// "AMR efficiency" column of the paper's Table 4.
func (h *Hierarchy) AMREfficiency() float64 {
	uw := h.UniformWork()
	if uw == 0 {
		return 0
	}
	return 100 * (1 - h.TotalWork()/uw)
}
