package samr

import "math/bits"

// Flags is a dense bitmap of error-flagged cells over a bounding box. The
// application's error estimator marks cells that need refinement; the
// Berger–Rigoutsos clusterer then covers the marked cells with boxes.
type Flags struct {
	bounds Box
	nx, ny int // cached extents for addressing
	bits   []uint64
	count  int
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
	}
}

// Get reports whether the cell at p is flagged. Points outside the bounds
// are unflagged by definition.
func (f *Flags) Get(p Point) bool {
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
	f.eachWord(clipped, func(w int, mask uint64, _, _, _ int) {
		f.count += bits.OnesCount64(mask &^ f.bits[w])
		f.bits[w] |= mask
	})
}

// CountIn returns the number of flagged cells inside b.
func (f *Flags) CountIn(b Box) int {
	clipped, ok := f.bounds.Intersect(b)
	if !ok {
		return 0
	}
	n := 0
	f.eachWord(clipped, func(w int, mask uint64, _, _, _ int) {
		n += bits.OnesCount64(f.bits[w] & mask)
	})
	return n
}

// signatures overwrites sig[d][:region.Dx(d)] with the per-plane
// flagged-cell counts of region along each axis d — sig[d][i] is the
// number of flagged cells in the plane region.Lo[d]+i — in one pass over
// the bitmap. region must lie inside the bounds. Signatures drive the
// Berger–Rigoutsos cut selection.
func (f *Flags) signatures(region Box, sig *[3][]int64) {
	sx, sy, sz := sig[0][:region.Dx(0)], sig[1][:region.Dx(1)], sig[2][:region.Dx(2)]
	clear(sx)
	clear(sy)
	clear(sz)
	f.eachWord(region, func(w int, mask uint64, j, k, off int) {
		v := f.bits[w] & mask
		if v == 0 {
			return
		}
		n := int64(bits.OnesCount64(v))
		sy[j] += n
		sz[k] += n
		for x0 := w<<6 - off; v != 0; v &= v - 1 {
			sx[x0+bits.TrailingZeros64(v)]++
		}
	})
}

// eachWord calls fn for every bitmap word holding cells of b, row by row
// with x fastest: w is the word's index and mask selects the row's cells
// of b in it. The row is b's (j, k)-th along y and z, and bit i of word w
// is the cell b.Lo[0] + 64*w + i - off along x. b must be non-empty and lie
// inside the bounds.
func (f *Flags) eachWord(b Box, fn func(w int, mask uint64, j, k, off int)) {
	x0 := b.Lo[0] - f.bounds.Lo[0]
	for k := range b.Dx(2) {
		z := b.Lo[2] + k - f.bounds.Lo[2]
		for j := range b.Dx(1) {
			y := b.Lo[1] + j - f.bounds.Lo[1]
			lo := x0 + f.nx*(y+f.ny*z) // the row's first and last bit
			hi := lo + b.Dx(0) - 1
			for w := lo >> 6; w <= hi>>6; w++ {
				mask := ^uint64(0)
				if w == lo>>6 {
					mask <<= uint(lo & 63)
				}
				if w == hi>>6 {
					mask &= ^uint64(0) >> uint(63-hi&63)
				}
				fn(w, mask, j, k, lo)
			}
		}
	}
}
