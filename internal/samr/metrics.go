package samr

// This file computes the structural metrics of a hierarchy that Pragma's
// application characterization (the octant approach) is built on: how
// scattered the refinement is, how communication-heavy the patch geometry
// is, and how fast the refined region moves between regrid steps.

// ClusterCount returns the number of connected components among the boxes of
// level l, where boxes sharing a face are connected. Scattered adaptation
// shows up as many components; localized adaptation as few.
func (h *Hierarchy) ClusterCount(l int) int {
	if l < 0 || l >= h.Depth() {
		return 0
	}
	boxes := h.Levels[l]
	n := len(boxes)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if boxes[i].SharedFaceArea(boxes[j]) > 0 || boxes[i].Overlaps(boxes[j]) {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	count := 0
	for i := 0; i < n; i++ {
		if find(i) == i {
			count++
		}
	}
	return count
}

// Dispersion measures how scattered the refinement on level l is: one minus
// the fraction of the refined-region bounding box actually covered by
// refined cells. 0 means a single solid block (fully localized); values
// toward 1 mean the same refined volume is spread across a much larger
// extent (scattered).
func (h *Hierarchy) Dispersion(l int) float64 {
	if l < 1 || l >= h.Depth() {
		return 0
	}
	boxes := h.Levels[l]
	if len(boxes) == 0 {
		return 0
	}
	var bb Box
	var vol int64
	for _, b := range boxes {
		bb = bb.Bound(b)
		vol += b.Volume()
	}
	bv := bb.Volume()
	if bv == 0 {
		return 0
	}
	return 1 - float64(vol)/float64(bv)
}

// SurfaceToVolume returns the aggregate boundary-face count of the boxes of
// level l divided by their aggregate cell count. Thin, sheet-like refined
// regions (high values) imply communication-dominated execution: ghost-cell
// exchange scales with surface while computation scales with volume.
func (h *Hierarchy) SurfaceToVolume(l int) float64 {
	if l < 0 || l >= h.Depth() {
		return 0
	}
	var surf, vol int64
	for _, b := range h.Levels[l] {
		surf += b.SurfaceArea()
		vol += b.Volume()
	}
	if vol == 0 {
		return 0
	}
	return float64(surf) / float64(vol)
}

// ChangeFraction measures activity dynamics between two hierarchies: the
// symmetric difference of their level-l refined regions divided by the
// union. 0 means the refinement did not move; 1 means it moved entirely.
//
// Both levels must be pairwise disjoint box lists, which Hierarchy.Validate
// enforces. Then every cell of A ∩ B lies in exactly one pair (aᵢ, bⱼ), so
// |A ∩ B| = Σ vol(aᵢ ∩ bⱼ), |A \ B| = |A| − |A ∩ B| and |A ∪ B| = |A| +
// |B| − |A ∩ B|: exact integers from box intersections, nothing carved and
// nothing allocated. A level that overlaps itself counts its shared cells
// once per overlapping pair; the one-sided differences are clamped at zero
// so the result stays in [0, 1], but it is no longer the change fraction.
func ChangeFraction(a, b *Hierarchy, l int) float64 {
	var aBoxes, bBoxes []Box
	if l < a.Depth() {
		aBoxes = a.Levels[l]
	}
	if l < b.Depth() {
		bBoxes = b.Levels[l]
	}
	aVol := boxesVolume(aBoxes)
	bVol := boxesVolume(bBoxes)
	var common int64
	for _, x := range aBoxes {
		for _, y := range bBoxes {
			common += x.OverlapVolume(y)
		}
	}
	aOnly := max(aVol-common, 0)
	bOnly := max(bVol-common, 0)
	union := aVol + bOnly
	if union == 0 {
		return 0
	}
	return float64(aOnly+bOnly) / float64(union)
}

func boxesVolume(boxes []Box) int64 {
	var v int64
	for _, b := range boxes {
		v += b.Volume()
	}
	return v
}

// Snapshot is one entry of an adaptation trace: the grid hierarchy captured
// at a regrid step, exactly what the paper's single-processor trace run
// records ("snap-shots of the SAMR grid hierarchy at each regrid step").
type Snapshot struct {
	// Index is the regrid (snapshot) number, starting at 0.
	Index int
	// CoarseStep is the coarse-level time-step at which the regrid happened.
	CoarseStep int
	// Time is the simulated physical time.
	Time float64
	// H is the hierarchy after regridding.
	H *Hierarchy
}

// Trace is an application adaptation trace: the sequence of hierarchy
// snapshots produced by a run.
type Trace struct {
	// Name identifies the application (e.g. "RM3D").
	Name string
	// RegridEvery is the number of coarse steps between snapshots.
	RegridEvery int
	// Snapshots holds one entry per regrid step.
	Snapshots []Snapshot
}

// At returns the snapshot with the given regrid index, or false when the
// trace does not contain it.
func (t *Trace) At(index int) (Snapshot, bool) {
	if index < 0 || index >= len(t.Snapshots) {
		return Snapshot{}, false
	}
	return t.Snapshots[index], true
}
