package samr

import (
	"math/bits"
	"sync"
)

// Flags is a dense bitmap of error-flagged cells over a bounding box. The
// application's error estimator marks cells that need refinement; the
// Berger–Rigoutsos clusterer then covers the marked cells with boxes.
type Flags struct {
	bounds Box
	nx, ny int // cached extents for addressing
	bits   []uint64
	count  int
	// flagged is the bounding box of the flagged cells, empty while count
	// is 0. Flags only ever gain cells, so Set and SetBox keep it exact.
	flagged Box
}

// NewFlags creates an empty flag bitmap over the given (non-empty) bounds.
func NewFlags(bounds Box) *Flags {
	if bounds.Empty() {
		panic("samr: NewFlags over empty box")
	}
	n := bounds.Volume()
	return &Flags{
		bounds: bounds,
		nx:     bounds.Dx(0),
		ny:     bounds.Dx(1),
		bits:   make([]uint64, (n+63)/64),
	}
}

// flagsPool recycles the bitmaps FeatureHierarchy and Regrid flag a
// snapshot into and drop once it is clustered, most of the bytes a trace
// generation would otherwise allocate. A pooled bitmap's words are all
// zero.
var flagsPool sync.Pool

// getFlags is NewFlags reusing a pooled bitmap with enough words. Hand it
// back with putFlags once it is clustered.
func getFlags(bounds Box) *Flags {
	words := (bounds.Volume() + 63) / 64
	f, _ := flagsPool.Get().(*Flags)
	if f == nil || bounds.Empty() || int64(cap(f.bits)) < words {
		return NewFlags(bounds)
	}
	*f = Flags{bounds: bounds, nx: bounds.Dx(0), ny: bounds.Dx(1), bits: f.bits[:words]}
	return f
}

// putFlags clears f's words and pools it. Set and SetBox write only the
// rows of the flagged box, so only those rows' words are cleared.
func putFlags(f *Flags) {
	if f.count > 0 {
		plane := int(f.index(f.flagged.Lo))
		for range f.flagged.Dx(2) {
			lo := plane
			for range f.flagged.Dx(1) {
				clear(f.bits[lo>>6 : (lo+f.flagged.Dx(0)-1)>>6+1])
				lo += f.nx
			}
			plane += f.nx * f.ny
		}
	}
	flagsPool.Put(f)
}

// Bounds returns the region the bitmap covers.
func (f *Flags) Bounds() Box { return f.bounds }

// Count returns the number of flagged cells.
func (f *Flags) Count() int { return f.count }

func (f *Flags) index(p Point) int64 {
	x := p[0] - f.bounds.Lo[0]
	y := p[1] - f.bounds.Lo[1]
	z := p[2] - f.bounds.Lo[2]
	return int64(x) + int64(f.nx)*(int64(y)+int64(f.ny)*int64(z))
}

// Set flags the cell at p. Points outside the bounds are ignored so callers
// can flag analytic regions without clipping first.
func (f *Flags) Set(p Point) {
	if !f.bounds.Contains(p) {
		return
	}
	i := f.index(p)
	mask := uint64(1) << uint(i&63)
	if f.bits[i>>6]&mask == 0 {
		f.bits[i>>6] |= mask
		f.count++
		f.flagged = f.flagged.Bound(Box{Lo: p, Hi: p.Add(Point{1, 1, 1})})
	}
}

// get reports whether the cell at p is flagged. Points outside the bounds
// are unflagged by definition.
func (f *Flags) get(p Point) bool {
	if !f.bounds.Contains(p) {
		return false
	}
	i := f.index(p)
	return f.bits[i>>6]&(uint64(1)<<uint(i&63)) != 0
}

// SetBox flags every cell in b that lies inside the bounds.
func (f *Flags) SetBox(b Box) {
	clipped, ok := f.bounds.Intersect(b)
	if !ok {
		return
	}
	f.flagged = f.flagged.Bound(clipped)
	plane := int(f.index(clipped.Lo))
	for range clipped.Dx(2) {
		lo := plane
		for range clipped.Dx(1) {
			hi := lo + clipped.Dx(0) - 1
			for w := lo >> 6; w <= hi>>6; w++ {
				mask := wordMask(w, lo, hi)
				f.count += bits.OnesCount64(mask &^ f.bits[w])
				f.bits[w] |= mask
			}
			lo += f.nx
		}
		plane += f.nx * f.ny
	}
}

// CountIn returns the number of flagged cells inside b.
func (f *Flags) CountIn(b Box) int {
	clipped, ok := f.bounds.Intersect(b)
	if !ok {
		return 0
	}
	n := 0
	plane := int(f.index(clipped.Lo))
	for range clipped.Dx(2) {
		lo := plane
		for range clipped.Dx(1) {
			hi := lo + clipped.Dx(0) - 1
			for w := lo >> 6; w <= hi>>6; w++ {
				n += bits.OnesCount64(f.bits[w] & wordMask(w, lo, hi))
			}
			lo += f.nx
		}
		plane += f.nx * f.ny
	}
	return n
}

// signatures overwrites sig[d], of length region.Dx(d), with the per-plane
// flagged-cell counts of region along each axis d — sig[d][i] is the
// number of flagged cells in the plane region.Lo[d]+i — in one pass over
// the bitmap words of region's rows. region must lie inside the bounds.
// Signatures drive the Berger–Rigoutsos cut selection.
//
// A row adds its word popcounts to its y and z planes. Along x, each run
// of set bits in a word adds 1 at its first cell and -1 past its last to
// a difference array, which a prefix sum turns into the x signature, so a
// row costs its words and runs rather than its set bits.
func (f *Flags) signatures(region Box, sig [3][]int64) {
	sx, sy, sz := sig[0], sig[1], sig[2]
	clear(sx)
	clear(sy)
	clear(sz)
	n := len(sx)
	plane := int(f.index(region.Lo))
	for k := range sz {
		var planeCount int64
		lo := plane
		for j := range sy {
			hi := lo + n - 1
			var row int64
			// base is the region x of bit 0 of word w.
			for w, base := lo>>6, -(lo & 63); w <= hi>>6; w, base = w+1, base+64 {
				v := f.bits[w] & wordMask(w, lo, hi)
				row += int64(bits.OnesCount64(v))
				for v != 0 {
					low := v & -v
					end := v + low // the run's bits cleared, the bit past it set
					sx[base+bits.TrailingZeros64(low)]++
					if x := base + bits.TrailingZeros64(end); x < n {
						sx[x]--
					}
					v &= end
				}
			}
			sy[j] += row
			planeCount += row
			lo += f.nx
		}
		sz[k] = planeCount
		plane += f.nx * f.ny
	}
	for i := 1; i < n; i++ {
		sx[i] += sx[i-1]
	}
	metricSignatureRows.Add(uint64(len(sy) * len(sz)))
}

// wordMask selects the bits lo..hi of the bitmap in word w: SetBox,
// CountIn and signatures walk a box's rows, z then y, each row being the
// bits lo..hi of the box's cells along x.
func wordMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if w == lo>>6 {
		m <<= uint(lo & 63)
	}
	if w == hi>>6 {
		m &= ^uint64(0) >> uint(63-hi&63)
	}
	return m
}
