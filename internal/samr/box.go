// Package samr implements the structured adaptive mesh refinement (SAMR)
// substrate that Pragma's application characterization and meta-partitioning
// operate on: an index-space box calculus, grid hierarchies with factor-r
// space-time refinement, error-flag bitmaps, Berger–Rigoutsos point
// clustering, and the workload and communication models used to cost a
// distributed SAMR timestep.
//
// The package deliberately contains no flow physics. Pragma observes an SAMR
// application through its grid hierarchy — where refinement lives, how fast
// it changes, and what computation and communication it implies — and that is
// exactly the state this package represents.
package samr

import "fmt"

// Point is a position in a 3-D integer index space.
type Point [3]int

// Add returns p+q componentwise.
func (p Point) Add(q Point) Point { return Point{p[0] + q[0], p[1] + q[1], p[2] + q[2]} }

// Scale returns p*s componentwise.
func (p Point) Scale(s int) Point { return Point{p[0] * s, p[1] * s, p[2] * s} }

// Box is a half-open axis-aligned region [Lo, Hi) of the index space.
// A Box with any Hi[d] <= Lo[d] is empty.
type Box struct {
	Lo, Hi Point
}

// MakeBox builds a box from extents: [0,nx) x [0,ny) x [0,nz).
func MakeBox(nx, ny, nz int) Box {
	return Box{Lo: Point{0, 0, 0}, Hi: Point{nx, ny, nz}}
}

// Dx returns the extent of the box along axis d.
func (b Box) Dx(d int) int { return b.Hi[d] - b.Lo[d] }

// Size returns the extents along all three axes.
func (b Box) Size() Point { return Point{b.Dx(0), b.Dx(1), b.Dx(2)} }

// Empty reports whether the box contains no cells.
func (b Box) Empty() bool { return b.Dx(0) <= 0 || b.Dx(1) <= 0 || b.Dx(2) <= 0 }

// Volume returns the number of cells in the box (0 if empty). Written as
// a loop so that it inlines: the weighers call it once per box weighed.
func (b Box) Volume() int64 {
	v := int64(1)
	for d := 0; d < 3; d++ {
		dx := b.Dx(d)
		if dx <= 0 {
			return 0
		}
		v *= int64(dx)
	}
	return v
}

// Contains reports whether point p lies inside the box.
func (b Box) Contains(p Point) bool {
	for d := 0; d < 3; d++ {
		if p[d] < b.Lo[d] || p[d] >= b.Hi[d] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether o is entirely inside b. An empty o is
// contained in anything.
func (b Box) ContainsBox(o Box) bool {
	if o.Empty() {
		return true
	}
	for d := 0; d < 3; d++ {
		if o.Lo[d] < b.Lo[d] || o.Hi[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of b and o; ok is false when they are
// disjoint.
func (b Box) Intersect(o Box) (Box, bool) {
	var r Box
	for d := 0; d < 3; d++ {
		r.Lo[d] = max(b.Lo[d], o.Lo[d])
		r.Hi[d] = min(b.Hi[d], o.Hi[d])
		if r.Hi[d] <= r.Lo[d] {
			return Box{}, false
		}
	}
	return r, true
}

// OverlapVolume returns the number of cells b and o share: the Volume of
// their Intersect, without building the box. Each extent is min(Hi) −
// max(Lo), any extent ≤ 0 means no shared cell, and the extents multiply
// in Volume's order, so the integer is the same whenever the differences
// fit in an int.
func (b Box) OverlapVolume(o Box) int64 {
	v := int64(1)
	for d := 0; d < 3; d++ {
		dx := min(b.Hi[d], o.Hi[d]) - max(b.Lo[d], o.Lo[d])
		if dx <= 0 {
			return 0
		}
		v *= int64(dx)
	}
	return v
}

// Overlaps reports whether b and o share at least one cell.
func (b Box) Overlaps(o Box) bool {
	_, ok := b.Intersect(o)
	return ok
}

// Bound returns the smallest box containing both b and o. Empty operands are
// ignored.
func (b Box) Bound(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	var r Box
	for d := 0; d < 3; d++ {
		r.Lo[d] = min(b.Lo[d], o.Lo[d])
		r.Hi[d] = max(b.Hi[d], o.Hi[d])
	}
	return r
}

// Refine scales the box into the index space r times finer.
func (b Box) Refine(r int) Box {
	return Box{Lo: b.Lo.Scale(r), Hi: b.Hi.Scale(r)}
}

// Coarsen maps the box into the index space r times coarser, rounding
// outward so that the result covers every cell the original touched.
func (b Box) Coarsen(r int) Box {
	var out Box
	for d := 0; d < 3; d++ {
		out.Lo[d] = floorDiv(b.Lo[d], r)
		out.Hi[d] = ceilDiv(b.Hi[d], r)
	}
	return out
}

// Grow expands the box by n cells in every direction (shrinks for n < 0).
func (b Box) Grow(n int) Box {
	var out Box
	for d := 0; d < 3; d++ {
		out.Lo[d] = b.Lo[d] - n
		out.Hi[d] = b.Hi[d] + n
	}
	return out
}

// Shift translates the box by p.
func (b Box) Shift(p Point) Box {
	return Box{Lo: b.Lo.Add(p), Hi: b.Hi.Add(p)}
}

// Split cuts the box along axis d at plane `at` (in index coordinates) and
// returns the lower and upper halves. The cut must be strictly inside the
// box.
func (b Box) Split(d, at int) (lo, hi Box) {
	if at <= b.Lo[d] || at >= b.Hi[d] {
		panic(fmt.Sprintf("samr: split plane %d outside box %v axis %d", at, b, d))
	}
	lo, hi = b, b
	lo.Hi[d] = at
	hi.Lo[d] = at
	return lo, hi
}

// SurfaceArea returns the number of cell faces on the box boundary.
func (b Box) SurfaceArea() int64 {
	if b.Empty() {
		return 0
	}
	dx, dy, dz := int64(b.Dx(0)), int64(b.Dx(1)), int64(b.Dx(2))
	return 2 * (dx*dy + dy*dz + dz*dx)
}

// SharedFaceArea returns the number of cell faces where b and o touch: the
// contact area when the boxes abut face-to-face without overlapping. Boxes
// that overlap, are diagonal neighbors, or are separated return 0.
func (b Box) SharedFaceArea(o Box) int64 {
	if b.Empty() || o.Empty() {
		return 0
	}
	touchAxis := -1
	for d := 0; d < 3; d++ {
		if b.Hi[d] == o.Lo[d] || o.Hi[d] == b.Lo[d] {
			if touchAxis >= 0 {
				return 0 // touch on two axes => edge/corner contact only
			}
			touchAxis = d
		} else if b.Hi[d] <= o.Lo[d] || o.Hi[d] <= b.Lo[d] {
			return 0 // separated along d
		}
	}
	if touchAxis < 0 {
		return 0 // overlapping volumes, not face contact
	}
	area := int64(1)
	for d := 0; d < 3; d++ {
		if d == touchAxis {
			continue
		}
		w := int64(min(b.Hi[d], o.Hi[d]) - max(b.Lo[d], o.Lo[d]))
		if w <= 0 {
			return 0
		}
		area *= w
	}
	return area
}

// String formats the box as [lo..hi).
func (b Box) String() string {
	return fmt.Sprintf("[%d,%d,%d..%d,%d,%d)", b.Lo[0], b.Lo[1], b.Lo[2], b.Hi[0], b.Hi[1], b.Hi[2])
}

// Subtract returns b minus o as a set of disjoint boxes. At most six boxes
// are produced (two slabs per axis).
func (b Box) Subtract(o Box) []Box {
	inter, ok := b.Intersect(o)
	if !ok {
		return []Box{b}
	}
	if inter == b {
		return nil
	}
	var out []Box
	rest := b
	for d := 0; d < 3; d++ {
		if rest.Lo[d] < inter.Lo[d] {
			lo, hi := rest.Split(d, inter.Lo[d])
			out = append(out, lo)
			rest = hi
		}
		if inter.Hi[d] < rest.Hi[d] {
			lo, hi := rest.Split(d, inter.Hi[d])
			out = append(out, hi)
			rest = lo
		}
	}
	return out
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int) int { return -floorDiv(-a, b) }
