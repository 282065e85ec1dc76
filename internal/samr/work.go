package samr

// WorkModel assigns computational weight to grid regions. The paper notes
// that "the local physics may change significantly from zone to zone as
// fronts move through the system", producing heterogeneous and dynamic load
// per zone; a WorkModel captures that.
type WorkModel interface {
	// BoxWork returns the per-coarse-step computational weight of box b on
	// level l (in level-l coordinates), including MIT time refinement.
	BoxWork(h *Hierarchy, level int, b Box) float64
}

// UniformWork charges every cell the same base cost, scaled by Ratio^level
// for MIT time refinement. The zero value charges cost 1 per cell-update.
type UniformWorkModel struct {
	// CellCost is the weight of a single cell update; 0 means 1.
	CellCost float64
}

// BoxWork implements WorkModel.
func (u UniformWorkModel) BoxWork(h *Hierarchy, level int, b Box) float64 {
	c := u.CellCost
	if c == 0 {
		c = 1
	}
	return c * float64(b.Volume()) * float64(h.refinementScale(level))
}

// FrontWorkModel charges extra cost inside a "front" region (e.g. a shock,
// where the local physics is stiffer), modeling heterogeneous per-zone load.
// Regions are expressed in level-0 coordinates and apply to all levels.
type FrontWorkModel struct {
	Base UniformWorkModel
	// Fronts lists (region, extra multiplier) pairs; a cell inside a front
	// region costs Multiplier times the base cost.
	Fronts []Front
}

// Front is a level-0 region with a cost multiplier.
type Front struct {
	Region     Box
	Multiplier float64
}

// BoxWork implements WorkModel. The work of the box is the base work plus
// the surcharge for the portion overlapping each front.
func (f FrontWorkModel) BoxWork(h *Hierarchy, level int, b Box) float64 {
	var buf [8]Front
	p := f.prepared(buf[:], h, level, b)
	return p.boxWork(b)
}

// preparedFronts is a FrontWorkModel specialised to one level and one
// enclosing box: regions refined to the level, fronts that miss the box or
// carry no surcharge dropped, the survivors in their original order — so
// boxWork adds the same terms in the same order for every box inside the
// enclosing one, whichever box it was prepared for, and returns the same
// float bit for bit.
type preparedFronts struct {
	cell   float64 // base cost of one cell update
	scale  float64 // Ratio^level, the MIT time refinement
	fronts []Front // regions in level coordinates
}

// prepared specialises f to boxes inside box on the given level, building
// the front list in buf's memory while it fits.
func (f FrontWorkModel) prepared(buf []Front, h *Hierarchy, level int, box Box) preparedFronts {
	p := preparedFronts{cell: f.Base.CellCost, fronts: buf[:0]}
	if p.cell == 0 {
		p.cell = 1
	}
	scale := h.refinementScale(level)
	p.scale = float64(scale)
	for _, fr := range f.Fronts {
		fr.Region = fr.Region.Refine(scale)
		if fr.Multiplier > 1 && fr.Region.Overlaps(box) {
			p.fronts = append(p.fronts, fr)
		}
	}
	return p
}

// boxWork is the one surcharge loop of the front work model.
func (p *preparedFronts) boxWork(b Box) float64 {
	w := p.cell * float64(b.Volume()) * p.scale
	for _, fr := range p.fronts {
		if inter, ok := b.Intersect(fr.Region); ok {
			w += p.cell * (fr.Multiplier - 1) * float64(inter.Volume()) * p.scale
		}
	}
	return w
}

// BoxWeigher is a work model prepared for the sub-boxes of one hierarchy
// box. A partitioner's decomposition weighs hundreds of blocks or halving
// nodes inside each box; for a FrontWorkModel everything that depends only
// on (level, enclosing box) is derived once by Reset (see preparedFronts),
// and any other model is called through as is. Either way BoxWork returns
// exactly what the model's own BoxWork returns.
//
// The zero value is ready for Reset; the front list's capacity is reused
// from one Reset to the next, so a weigher kept by its caller allocates
// nothing in steady state. Not safe for concurrent use.
type BoxWeigher struct {
	wm    WorkModel // called through unless isFront
	h     *Hierarchy
	level int

	isFront bool // wm is a FrontWorkModel, prepared in front
	front   preparedFronts
}

// Reset prepares the weigher for boxes inside box on the given level.
func (w *BoxWeigher) Reset(wm WorkModel, h *Hierarchy, level int, box Box) {
	w.wm, w.h, w.level = wm, h, level
	f, ok := wm.(FrontWorkModel)
	w.isFront = ok
	if ok {
		w.front = f.prepared(w.front.fronts, h, level, box)
	}
}

// BoxWork returns the per-coarse-step weight of b, which must lie inside
// the box the weigher was Reset for.
func (w *BoxWeigher) BoxWork(b Box) float64 {
	if w.isFront {
		return w.front.boxWork(b)
	}
	return w.wm.BoxWork(w.h, w.level, b)
}

// HierarchyWork is the package's HierarchyWork weighed through w: the same
// terms summed in the same order, so the same float, without the model's
// per-box preparation allocating once it outgrows the stack.
func (w *BoxWeigher) HierarchyWork(m WorkModel, h *Hierarchy) float64 {
	var total float64
	for l, boxes := range h.Levels {
		for _, b := range boxes {
			w.Reset(m, h, l, b)
			total += w.BoxWork(b)
		}
	}
	return total
}

// HierarchyWork sums the model's weight over every box of the hierarchy.
func HierarchyWork(h *Hierarchy, m WorkModel) float64 {
	var w float64
	for l, boxes := range h.Levels {
		for _, b := range boxes {
			w += m.BoxWork(h, l, b)
		}
	}
	return w
}
