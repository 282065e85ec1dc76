package samr

import (
	"fmt"
	"math"
)

// MaxRegridDepth is the deepest hierarchy Regrid builds: the base grid and
// two refinement levels, the paper's "3 levels of factor 2 space-time
// refinements" (§4.5). Every trace generator's depth is bounded by it.
const MaxRegridDepth = 3

// Regrid is the one regrid pipeline of every trace generator: error flags
// clustered with Berger–Rigoutsos and refined into the next level, under
// proper nesting. The hierarchy has at most depth levels (1 to
// MaxRegridDepth) over flags0's bounds, the level-0 domain. Level 1 refines
// the clusters of flags0. Level 2 refines the clusters of the level-1 cells
// fine names, given the level-1 boxes, each cluster clipped to the level-1
// boxes it overlaps; fine is called only when depth is 3 and level 1 is not
// empty.
func Regrid(flags0 *Flags, ratio, depth int, opt ClusterOptions, fine func(level1 []Box) []Box) (*Hierarchy, error) {
	if depth < 1 || depth > MaxRegridDepth {
		return nil, fmt.Errorf("samr: regrid depth %d out of range [1,%d]", depth, MaxRegridDepth)
	}
	h, err := NewHierarchy(flags0.Bounds(), ratio)
	if err != nil {
		return nil, err
	}
	if depth < 2 {
		return h, nil
	}
	level1 := Cluster(flags0, opt)
	if len(level1) == 0 {
		return h, nil
	}
	for i := range level1 {
		level1[i] = level1[i].Refine(ratio)
	}
	if err := h.SetLevel(1, level1); err != nil {
		return nil, err
	}
	if depth < 3 {
		return h, nil
	}
	cells := fine(level1)
	if len(cells) == 0 {
		return h, nil
	}
	var bounding Box
	for _, b := range level1 {
		bounding = bounding.Bound(b)
	}
	flags1 := getFlags(bounding)
	for _, b := range cells {
		flags1.SetBox(b)
	}
	cands := Cluster(flags1, opt)
	putFlags(flags1)
	var level2 []Box
	for _, cand := range cands {
		for _, parent := range level1 {
			if piece, ok := cand.Intersect(parent); ok {
				level2 = append(level2, piece.Refine(ratio))
			}
		}
	}
	if len(level2) > 0 {
		if err := h.SetLevel(2, level2); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Feature is one refinement-worthy region of a synthetic phenomenon: an
// axis-aligned box in continuous level-0 coordinates. Features move in
// fractional cells between regrids; rasterization to a level happens at
// flagging time.
type Feature struct {
	Lo, Hi [3]float64
	// CoreShrink scales the feature toward its center to its level-2 core
	// (0 < f <= 1); 0 means the feature needs only one level of refinement
	// (thin sheets).
	CoreShrink float64
}

// Rasterize maps the feature onto level level of a ratio-r hierarchy over
// domain, rounding outward, and clips it to the level domain.
func (f Feature) Rasterize(domain Box, ratio, level int) (Box, bool) {
	scale := 1.0
	dom := domain
	for i := 0; i < level; i++ {
		scale *= float64(ratio)
		dom = dom.Refine(ratio)
	}
	var b Box
	for d := 0; d < 3; d++ {
		b.Lo[d] = int(math.Floor(f.Lo[d] * scale))
		b.Hi[d] = int(math.Ceil(f.Hi[d] * scale))
		if b.Hi[d] <= b.Lo[d] {
			b.Hi[d] = b.Lo[d] + 1
		}
	}
	return b.Intersect(dom)
}

// Core returns the feature scaled toward its center by CoreShrink: the
// region that deserves the second refinement level.
func (f Feature) Core() Feature {
	var out Feature
	for d := 0; d < 3; d++ {
		c := float64((f.Lo[d] + f.Hi[d]) / 2)
		h := float64((f.Hi[d] - f.Lo[d]) / 2 * f.CoreShrink)
		out.Lo[d], out.Hi[d] = c-h, c+h
	}
	return out
}

// FeatureHierarchy regrids a set of features through Regrid: level 1
// covers their extents flagged on the base grid, level 2 the cores of
// those with a CoreShrink, flagged at level 1.
func FeatureHierarchy(domain Box, ratio, depth int, opt ClusterOptions, feats []Feature) (*Hierarchy, error) {
	flags0 := getFlags(domain)
	defer putFlags(flags0)
	for _, f := range feats {
		if b, ok := f.Rasterize(domain, ratio, 0); ok {
			flags0.SetBox(b)
		}
	}
	return Regrid(flags0, ratio, depth, opt, func([]Box) []Box {
		var cores []Box
		for _, f := range feats {
			if f.CoreShrink <= 0 {
				continue
			}
			if b, ok := f.Core().Rasterize(domain, ratio, 1); ok {
				cores = append(cores, b)
			}
		}
		return cores
	})
}

// FeatureWorkModel is the front-tracking cost model of a set of features:
// a uniform base cost, doubled inside each feature's extent on the base
// grid — the per-zone cost changing "as fronts move through the system".
func FeatureWorkModel(domain Box, feats []Feature) WorkModel {
	fronts := make([]Front, 0, len(feats))
	for _, f := range feats {
		// At level 0 the ratio plays no part.
		if b, ok := f.Rasterize(domain, 1, 0); ok {
			fronts = append(fronts, Front{Region: b, Multiplier: 2})
		}
	}
	return FrontWorkModel{Base: UniformWorkModel{CellCost: 1}, Fronts: fronts}
}

// GenerateTrace runs a generator's regrid loop: snapshots 0..n-1 of the
// trace called name, one every regridEvery coarse steps, snapshot idx's
// hierarchy built by at(idx). An error names the generator gen and the
// snapshot.
func GenerateTrace(gen, name string, n, regridEvery int, at func(idx int) (*Hierarchy, error)) (*Trace, error) {
	tr := &Trace{Name: name, RegridEvery: regridEvery, Snapshots: make([]Snapshot, 0, n)}
	for idx := 0; idx < n; idx++ {
		h, err := at(idx)
		if err != nil {
			return nil, fmt.Errorf("%s: snapshot %d: %w", gen, idx, err)
		}
		tr.Snapshots = append(tr.Snapshots, Snapshot{
			Index:      idx,
			CoarseStep: idx * regridEvery,
			Time:       float64(idx*regridEvery) * 0.001,
			H:          h,
		})
	}
	return tr, nil
}
