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
	return u.cellCost() * float64(b.Volume()) * float64(h.refinementScale(level))
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
	scale := h.refinementScale(level)
	p := preparedFronts{cell: f.Base.cellCost(), scale: float64(scale), fronts: buf[:0]}
	for _, fr := range f.Fronts {
		if fr.Multiplier > 1 {
			fr.Region = fr.Region.Refine(scale)
			if fr.Region.Overlaps(b) {
				p.fronts = append(p.fronts, fr)
			}
		}
	}
	return p.boxWork(b)
}

// cellCost is the cost of one cell update: CellCost, or 1 when it is 0.
func (u UniformWorkModel) cellCost() float64 {
	if u.CellCost == 0 {
		return 1
	}
	return u.CellCost
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

// boxWork is the one surcharge loop of the front work model. A front's
// overlap is three extents multiplied (Box.OverlapVolume): zero exactly
// when Intersect reports no overlap, and otherwise the integer Volume of
// the intersection, so each term is the float it always was.
func (p *preparedFronts) boxWork(b Box) float64 {
	w := p.cell * float64(b.Volume()) * p.scale
	for i := range p.fronts {
		fr := &p.fronts[i]
		if v := b.OverlapVolume(fr.Region); v > 0 {
			w += float64(p.cell * (fr.Multiplier - 1) * float64(v) * p.scale)
		}
	}
	return w
}

// BoxWeigher is a work model prepared for one hierarchy and then for the
// sub-boxes of one of its boxes at a time. A partitioner's decomposition
// weighs hundreds of blocks or halving nodes inside each box. For a
// FrontWorkModel, Prepare refines the surcharged fronts once per level and
// Reset only filters a level's regions by the box (see preparedFronts);
// any other model is called through as is. Either way BoxWork returns
// exactly what the model's own BoxWork returns.
//
// The zero value is ready for Prepare; the refined and filtered lists'
// capacity is reused from one Prepare to the next, so a weigher kept by its
// caller allocates nothing in steady state. Not safe for concurrent use.
type BoxWeigher struct {
	wm    WorkModel // called through unless isFront
	h     *Hierarchy
	level int

	isFront bool // wm is a FrontWorkModel, prepared in refined and front
	// nfront is the number of the model's fronts with Multiplier > 1, and
	// refined holds them refined to levels 0, 1, … level-major: level l's
	// regions are refined[l*nfront : (l+1)*nfront], in the model's order.
	nfront  int
	refined []Front
	front   preparedFronts // refined[level] filtered by the Reset box
}

// Prepare sets the weigher up for the boxes of h weighed by wm: for a
// FrontWorkModel, every front with Multiplier > 1 refined to each of h's
// levels. Nothing of an earlier hierarchy is kept.
func (w *BoxWeigher) Prepare(wm WorkModel, h *Hierarchy) {
	w.wm, w.h = wm, h
	f, ok := wm.(FrontWorkModel)
	w.isFront = ok
	if !ok {
		return
	}
	w.front.cell = f.Base.cellCost()
	w.refined = w.refined[:0]
	for _, fr := range f.Fronts {
		if fr.Multiplier > 1 {
			w.refined = append(w.refined, fr)
		}
	}
	w.nfront = len(w.refined)
	for l := 1; l < h.Depth(); l++ {
		w.refineLevel(l)
	}
}

// refineLevel appends the level-l regions, l being the first level not
// yet refined, scaling the level-0 regions as FrontWorkModel.BoxWork does.
func (w *BoxWeigher) refineLevel(l int) {
	scale := w.h.refinementScale(l)
	for i := 0; i < w.nfront; i++ {
		fr := w.refined[i]
		fr.Region = fr.Region.Refine(scale)
		w.refined = append(w.refined, fr)
	}
}

// Reset sets the weigher for boxes inside box on the given level of the
// prepared hierarchy. A level past the hierarchy's is refined on first use.
func (w *BoxWeigher) Reset(level int, box Box) {
	w.level = level
	if !w.isFront {
		return
	}
	w.front.scale = float64(w.h.refinementScale(level))
	w.front.fronts = w.front.fronts[:0]
	if w.nfront == 0 {
		return
	}
	for l := len(w.refined) / w.nfront; l <= level; l++ {
		w.refineLevel(l)
	}
	for _, fr := range w.refined[level*w.nfront : (level+1)*w.nfront] {
		if fr.Region.Overlaps(box) {
			w.front.fronts = append(w.front.fronts, fr)
		}
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
	w.Prepare(m, h)
	var total float64
	for l, boxes := range h.Levels {
		for _, b := range boxes {
			w.Reset(l, b)
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
