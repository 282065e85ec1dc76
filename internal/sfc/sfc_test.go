package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHilbertRoundTripExhaustiveSmall(t *testing.T) {
	for _, bits := range []uint{1, 2, 3, 4} {
		h := MustHilbert(bits)
		n := uint32(1) << bits
		seen := make(map[uint64]bool)
		for x := uint32(0); x < n; x++ {
			for y := uint32(0); y < n; y++ {
				for z := uint32(0); z < n; z++ {
					d := h.Index(x, y, z)
					if d >= uint64(n)*uint64(n)*uint64(n) {
						t.Fatalf("bits=%d: index %d out of range for (%d,%d,%d)", bits, d, x, y, z)
					}
					if seen[d] {
						t.Fatalf("bits=%d: duplicate index %d at (%d,%d,%d)", bits, d, x, y, z)
					}
					seen[d] = true
					gx, gy, gz := h.Coords(d)
					if gx != x || gy != y || gz != z {
						t.Fatalf("bits=%d: roundtrip (%d,%d,%d) -> %d -> (%d,%d,%d)",
							bits, x, y, z, d, gx, gy, gz)
					}
				}
			}
		}
		if len(seen) != int(n*n*n) {
			t.Fatalf("bits=%d: curve not surjective: %d of %d indices", bits, len(seen), n*n*n)
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// Consecutive Hilbert indices must map to points exactly one unit step
	// apart (the defining continuity property of the curve).
	for _, bits := range []uint{1, 2, 3, 4, 5} {
		h := MustHilbert(bits)
		total := uint64(1) << (3 * bits)
		px, py, pz := h.Coords(0)
		for d := uint64(1); d < total; d++ {
			x, y, z := h.Coords(d)
			dist := absDiff(x, px) + absDiff(y, py) + absDiff(z, pz)
			if dist != 1 {
				t.Fatalf("bits=%d: step %d -> %d moves (%d,%d,%d)->(%d,%d,%d), manhattan %d",
					bits, d-1, d, px, py, pz, x, y, z, dist)
			}
			px, py, pz = x, y, z
		}
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestHilbertRoundTripProperty(t *testing.T) {
	h := MustHilbert(16)
	f := func(x, y, z uint32) bool {
		x &= (1 << 16) - 1
		y &= (1 << 16) - 1
		z &= (1 << 16) - 1
		gx, gy, gz := h.Coords(h.Index(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMortonRoundTripProperty(t *testing.T) {
	m := MustMorton(21)
	f := func(x, y, z uint32) bool {
		x &= (1 << 21) - 1
		y &= (1 << 21) - 1
		z &= (1 << 21) - 1
		gx, gy, gz := m.Coords(m.Index(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMortonKnownCodes(t *testing.T) {
	m := MustMorton(4)
	cases := []struct {
		x, y, z uint32
		want    uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 8},
		{3, 3, 3, 63},
	}
	for _, c := range cases {
		if got := m.Index(c.x, c.y, c.z); got != c.want {
			t.Errorf("Morton(%d,%d,%d) = %d, want %d", c.x, c.y, c.z, got, c.want)
		}
	}
}

func TestHilbertLocalityBeatsMorton(t *testing.T) {
	// Splitting the curve into P contiguous, equal segments and counting the
	// face-adjacent cell pairs that straddle segments measures the
	// communication cut a P-way ISP partitioning would incur. Hilbert's
	// continuity must yield a cut no worse than Morton's for every P, and
	// strictly better for non-octant-aligned P — that locality is why the
	// ISP partitioners default to Hilbert ordering.
	const bits = 4
	hilbertBetter := false
	for _, parts := range []int{3, 5, 7, 8, 11} {
		h := segmentCut(MustHilbert(bits), bits, parts)
		m := segmentCut(MustMorton(bits), bits, parts)
		if h > m {
			t.Errorf("parts=%d: hilbert cut %d worse than morton cut %d", parts, h, m)
		}
		if h < m {
			hilbertBetter = true
		}
	}
	if !hilbertBetter {
		t.Error("hilbert never strictly beat morton on segment cut")
	}
}

// segmentCut counts face-adjacent cell pairs assigned to different segments
// when the curve over a cube of side 1<<bits is split into parts contiguous
// equal-length segments.
func segmentCut(c Curve, bits uint, parts int) int {
	n := 1 << bits
	total := n * n * n
	seg := make([]int, total)
	for d := 0; d < total; d++ {
		x, y, z := c.Coords(uint64(d))
		seg[int(x)+n*(int(y)+n*int(z))] = d * parts / total
	}
	cut := 0
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				i := x + n*(y+n*z)
				if x+1 < n && seg[i] != seg[i+1] {
					cut++
				}
				if y+1 < n && seg[i] != seg[i+n] {
					cut++
				}
				if z+1 < n && seg[i] != seg[i+n*n] {
					cut++
				}
			}
		}
	}
	return cut
}

func TestNewCurveValidation(t *testing.T) {
	if _, err := NewHilbert(0); err == nil {
		t.Error("NewHilbert(0) should fail")
	}
	if _, err := NewHilbert(MaxBits + 1); err == nil {
		t.Error("NewHilbert(MaxBits+1) should fail")
	}
	if _, err := NewMorton(0); err == nil {
		t.Error("NewMorton(0) should fail")
	}
	if _, err := NewMorton(MaxBits + 1); err == nil {
		t.Error("NewMorton(MaxBits+1) should fail")
	}
	if _, err := NewHilbert(MaxBits); err != nil {
		t.Errorf("NewHilbert(MaxBits) failed: %v", err)
	}
}

func TestMustHilbertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustHilbert(0) did not panic")
		}
	}()
	MustHilbert(0)
}

func TestMustMortonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustMorton(0) did not panic")
		}
	}()
	MustMorton(0)
}

func TestBitsFor(t *testing.T) {
	cases := []struct {
		nx, ny, nz int
		want       uint
	}{
		{1, 1, 1, 1},
		{2, 2, 2, 1},
		{3, 1, 1, 2},
		{128, 32, 32, 7},
		{129, 32, 32, 8},
		{512, 128, 128, 9},
	}
	for _, c := range cases {
		if got := BitsFor(c.nx, c.ny, c.nz); got != c.want {
			t.Errorf("BitsFor(%d,%d,%d) = %d, want %d", c.nx, c.ny, c.nz, got, c.want)
		}
	}
}

func TestCurveNames(t *testing.T) {
	if MustHilbert(4).Name() != "hilbert" {
		t.Error("Hilbert name mismatch")
	}
	if MustMorton(4).Name() != "morton" {
		t.Error("Morton name mismatch")
	}
}

func TestCurveInterfaceCompliance(t *testing.T) {
	var _ Curve = Hilbert{}
	var _ Curve = Morton{}
	// Both curves over the same resolution must enumerate the same point set.
	h := MustHilbert(3)
	m := MustMorton(3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		x, y, z := uint32(rng.Intn(8)), uint32(rng.Intn(8)), uint32(rng.Intn(8))
		if d := h.Index(x, y, z); d >= 512 {
			t.Fatalf("hilbert index %d out of range", d)
		}
		if d := m.Index(x, y, z); d >= 512 {
			t.Fatalf("morton index %d out of range", d)
		}
	}
}

func BenchmarkHilbertIndex(b *testing.B) {
	h := MustHilbert(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Index(uint32(i)&511, uint32(i>>9)&511, uint32(i>>18)&511)
	}
}

func BenchmarkMortonIndex(b *testing.B) {
	m := MustMorton(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Index(uint32(i)&511, uint32(i>>9)&511, uint32(i>>18)&511)
	}
}

// The array-based transform Hilbert.Index used before it was rewritten on
// three locals, kept verbatim as the oracle for
// TestHilbertIndexMatchesSkilling.

// axesToTranspose converts point coordinates into the "transposed" Hilbert
// index in place (Skilling's AxestoTranspose for n=3).
func axesToTranspose(X *[3]uint32, bits uint) {
	M := uint32(1) << (bits - 1)
	// Inverse undo.
	for Q := M; Q > 1; Q >>= 1 {
		P := Q - 1
		for i := 0; i < 3; i++ {
			if X[i]&Q != 0 {
				X[0] ^= P // invert
			} else {
				t := (X[0] ^ X[i]) & P
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < 3; i++ {
		X[i] ^= X[i-1]
	}
	var t uint32
	for Q := M; Q > 1; Q >>= 1 {
		if X[2]&Q != 0 {
			t ^= Q - 1
		}
	}
	for i := 0; i < 3; i++ {
		X[i] ^= t
	}
}

// interleaveTransposed packs the transposed representation into a scalar
// curve index: bit b of axis i becomes bit 3*b + (2-i) of the result.
func interleaveTransposed(X [3]uint32, bits uint) uint64 {
	var d uint64
	for b := int(bits) - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			d = d<<1 | uint64((X[i]>>uint(b))&1)
		}
	}
	return d
}

func skillingIndex(x, y, z uint32, bits uint) uint64 {
	X := [3]uint32{x, y, z}
	axesToTranspose(&X, bits)
	return interleaveTransposed(X, bits)
}

// TestHilbertIndexMatchesSkilling pins Hilbert.Index to the same curve as
// the array-based transform: every point for bits <= 5, 1e5 random points
// per resolution above. Coords(Index(p)) == p in the round-trip tests pins
// the inverse.
func TestHilbertIndexMatchesSkilling(t *testing.T) {
	for bits := uint(1); bits <= 5; bits++ {
		h := MustHilbert(bits)
		n := uint32(1) << bits
		for x := uint32(0); x < n; x++ {
			for y := uint32(0); y < n; y++ {
				for z := uint32(0); z < n; z++ {
					if got, want := h.Index(x, y, z), skillingIndex(x, y, z, bits); got != want {
						t.Fatalf("bits=%d (%d,%d,%d): index %d, Skilling %d", bits, x, y, z, got, want)
					}
				}
			}
		}
	}
	samples := 100000
	if testing.Short() {
		samples = 5000
	}
	rng := rand.New(rand.NewSource(24))
	for bits := uint(6); bits <= MaxBits; bits++ {
		h := MustHilbert(bits)
		mask := uint32(1)<<bits - 1
		for i := 0; i < samples; i++ {
			x, y, z := rng.Uint32()&mask, rng.Uint32()&mask, rng.Uint32()&mask
			if got, want := h.Index(x, y, z), skillingIndex(x, y, z, bits); got != want {
				t.Fatalf("bits=%d (%d,%d,%d): index %d, Skilling %d", bits, x, y, z, got, want)
			}
		}
	}
}

func TestCurveBitsReportResolution(t *testing.T) {
	for _, bits := range []uint{1, 7, MaxBits} {
		if got := MustHilbert(bits).Bits(); got != bits {
			t.Errorf("MustHilbert(%d).Bits() = %d", bits, got)
		}
		if got := MustMorton(bits).Bits(); got != bits {
			t.Errorf("MustMorton(%d).Bits() = %d", bits, got)
		}
	}
}
