// Package sfc implements three-dimensional space-filling curves.
//
// Space-filling curves are the substrate for every inverse space-filling
// partitioner (ISP) in the Pragma meta-partitioner suite: a curve imposes a
// locality-preserving linear order on the cells (or blocks) of an SAMR index
// space, reducing multi-dimensional partitioning to one-dimensional sequence
// partitioning.
//
// Two curves are provided: the Hilbert curve (strong locality, unit-step
// adjacency between consecutive points) and the Morton (Z-order) curve
// (cheaper to evaluate, weaker locality). The Hilbert implementation follows
// John Skilling's transpose algorithm ("Programming the Hilbert curve",
// AIP Conf. Proc. 707, 2004) specialized to three dimensions.
package sfc

import "fmt"

// Curve is a bijection between points of a cubic 3-D index space of side
// 2^Bits() and the interval [0, 2^(3*Bits())).
type Curve interface {
	// Index maps a point to its position along the curve. The caller must
	// ensure 0 <= x,y,z < 1<<Bits().
	Index(x, y, z uint32) uint64
	// Coords inverts Index.
	Coords(d uint64) (x, y, z uint32)
	// Bits reports the per-axis resolution of the curve.
	Bits() uint
	// Name identifies the curve family ("hilbert" or "morton").
	Name() string
}

// MaxBits is the largest supported per-axis resolution. 3*21 = 63 bits keeps
// curve indices within uint64.
const MaxBits = 21

// Hilbert is a 3-D Hilbert curve with a fixed per-axis bit resolution.
type Hilbert struct{ bits uint }

// NewHilbert returns a Hilbert curve over a cube of side 1<<bits.
func NewHilbert(bits uint) (Hilbert, error) {
	if bits == 0 || bits > MaxBits {
		return Hilbert{}, fmt.Errorf("sfc: hilbert bits %d out of range [1,%d]", bits, MaxBits)
	}
	return Hilbert{bits: bits}, nil
}

// MustHilbert is NewHilbert but panics on invalid resolution. Intended for
// package-level defaults and tests where the resolution is a constant.
func MustHilbert(bits uint) Hilbert {
	h, err := NewHilbert(bits)
	if err != nil {
		panic(err)
	}
	return h
}

// Bits reports the per-axis resolution.
func (h Hilbert) Bits() uint { return h.bits }

// Name reports "hilbert".
func (Hilbert) Name() string { return "hilbert" }

// Index maps (x,y,z) to its Hilbert distance: Skilling's AxestoTranspose
// for n=3 with the three axes held in locals (the partitioners key every
// unit center through here), then the transposed index packed by bit
// interleaving — bit b of x, y, z lands at bit 3b+2, 3b+1, 3b.
func (h Hilbert) Index(x, y, z uint32) uint64 {
	M := uint32(1) << (h.bits - 1)
	// Inverse undo. Exchanging x with itself is a no-op, so the x axis
	// only ever inverts.
	for Q := M; Q > 1; Q >>= 1 {
		P := Q - 1
		if x&Q != 0 {
			x ^= P
		}
		if y&Q != 0 {
			x ^= P
		} else {
			t := (x ^ y) & P
			x ^= t
			y ^= t
		}
		if z&Q != 0 {
			x ^= P
		} else {
			t := (x ^ z) & P
			x ^= t
			z ^= t
		}
	}
	// Gray encode.
	y ^= x
	z ^= y
	// Skilling folds Q-1 into t for every set bit Q > 1 of z, so bit k of
	// t is the parity of z's bits above k: a suffix XOR of z>>1.
	t := z >> 1
	t ^= t >> 1
	t ^= t >> 2
	t ^= t >> 4
	t ^= t >> 8
	t ^= t >> 16
	x ^= t
	y ^= t
	z ^= t
	return spread(x)<<2 | spread(y)<<1 | spread(z)
}

// Coords inverts Index.
func (h Hilbert) Coords(d uint64) (x, y, z uint32) {
	X := deinterleaveTransposed(d, h.bits)
	transposeToAxes(&X, h.bits)
	return X[0], X[1], X[2]
}

// transposeToAxes converts a transposed Hilbert index back into point
// coordinates in place (Skilling's TransposetoAxes for n=3).
func transposeToAxes(X *[3]uint32, bits uint) {
	N := uint32(2) << (bits - 1)
	// Gray decode by H ^ (H/2).
	t := X[2] >> 1
	for i := 2; i > 0; i-- {
		X[i] ^= X[i-1]
	}
	X[0] ^= t
	// Undo excess work.
	for Q := uint32(2); Q != N; Q <<= 1 {
		P := Q - 1
		for i := 2; i >= 0; i-- {
			if X[i]&Q != 0 {
				X[0] ^= P
			} else {
				t := (X[0] ^ X[i]) & P
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
}

// deinterleaveTransposed unpacks a curve index into the transposed
// representation: bit 3*b + (2-i) of d is bit b of axis i.
func deinterleaveTransposed(d uint64, bits uint) [3]uint32 {
	var X [3]uint32
	for b := int(bits) - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			shift := uint(3*b + 2 - i) // position of this bit in d
			X[i] |= uint32((d>>shift)&1) << uint(b)
		}
	}
	return X
}

// Morton is a 3-D Morton (Z-order) curve with a fixed per-axis resolution.
type Morton struct{ bits uint }

// NewMorton returns a Morton curve over a cube of side 1<<bits.
func NewMorton(bits uint) (Morton, error) {
	if bits == 0 || bits > MaxBits {
		return Morton{}, fmt.Errorf("sfc: morton bits %d out of range [1,%d]", bits, MaxBits)
	}
	return Morton{bits: bits}, nil
}

// MustMorton is NewMorton but panics on invalid resolution.
func MustMorton(bits uint) Morton {
	m, err := NewMorton(bits)
	if err != nil {
		panic(err)
	}
	return m
}

// Bits reports the per-axis resolution.
func (m Morton) Bits() uint { return m.bits }

// Name reports "morton".
func (Morton) Name() string { return "morton" }

// Index maps (x,y,z) to its Morton code.
func (m Morton) Index(x, y, z uint32) uint64 {
	return spread(x) | spread(y)<<1 | spread(z)<<2
}

// Coords inverts Index.
func (m Morton) Coords(d uint64) (x, y, z uint32) {
	return compact(d), compact(d >> 1), compact(d >> 2)
}

// spread inserts two zero bits between each bit of v (21 significant bits).
func spread(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact inverts spread.
func compact(x uint64) uint32 {
	x &= 0x1249249249249249
	x = (x ^ x>>2) & 0x10c30c30c30c30c3
	x = (x ^ x>>4) & 0x100f00f00f00f00f
	x = (x ^ x>>8) & 0x1f0000ff0000ff
	x = (x ^ x>>16) & 0x1f00000000ffff
	x = (x ^ x>>32) & 0x1fffff
	return uint32(x)
}

// BitsFor returns the smallest per-axis resolution able to index a domain of
// the given extents, clamped to at least 1.
func BitsFor(nx, ny, nz int) uint {
	max := nx
	if ny > max {
		max = ny
	}
	if nz > max {
		max = nz
	}
	bits := uint(1)
	for (1 << bits) < max {
		bits++
	}
	return bits
}
