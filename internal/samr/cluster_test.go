package samr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestFlagsSetGetCount(t *testing.T) {
	f := NewFlags(MakeBox(8, 8, 8))
	if f.Count() != 0 {
		t.Fatal("new flags not empty")
	}
	f.Set(Point{1, 2, 3})
	f.Set(Point{1, 2, 3}) // idempotent
	f.Set(Point{7, 7, 7})
	if f.Count() != 2 {
		t.Fatalf("count = %d", f.Count())
	}
	if !f.get(Point{1, 2, 3}) || !f.get(Point{7, 7, 7}) || f.get(Point{0, 0, 0}) {
		t.Fatal("get mismatch")
	}
	// Out-of-bounds set is ignored, get is false.
	f.Set(Point{8, 0, 0})
	if f.Count() != 2 || f.get(Point{8, 0, 0}) {
		t.Fatal("out-of-bounds handling wrong")
	}
}

func TestFlagsSetBoxAndCountIn(t *testing.T) {
	f := NewFlags(MakeBox(16, 16, 16))
	b := Box{Lo: Point{2, 2, 2}, Hi: Point{6, 6, 6}}
	f.SetBox(b)
	if got := int64(f.Count()); got != b.Volume() {
		t.Fatalf("count = %d, want %d", got, b.Volume())
	}
	if got := f.CountIn(Box{Lo: Point{0, 0, 0}, Hi: Point{4, 4, 4}}); got != 8 {
		t.Fatalf("countIn = %d, want 8", got)
	}
	// SetBox clips to bounds.
	f2 := NewFlags(MakeBox(4, 4, 4))
	f2.SetBox(MakeBox(100, 100, 100))
	if int64(f2.Count()) != 64 {
		t.Fatalf("clipped SetBox count = %d", f2.Count())
	}
}

// clusterInvariants checks the guarantees Cluster must provide.
func clusterInvariants(t *testing.T, f *Flags, boxes []Box) {
	t.Helper()
	// Every flagged cell covered.
	covered := 0
	for _, b := range boxes {
		covered += f.CountIn(b)
		if f.CountIn(b) == 0 {
			t.Fatalf("box %v contains no flagged cells", b)
		}
		if !f.Bounds().ContainsBox(b) {
			t.Fatalf("box %v escapes bounds %v", b, f.Bounds())
		}
	}
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Overlaps(boxes[j]) {
				t.Fatalf("boxes %v and %v overlap", boxes[i], boxes[j])
			}
		}
	}
	if covered != f.Count() {
		t.Fatalf("covered %d of %d flagged cells", covered, f.Count())
	}
}

func TestClusterSingleBlock(t *testing.T) {
	f := NewFlags(MakeBox(32, 32, 32))
	f.SetBox(Box{Lo: Point{4, 4, 4}, Hi: Point{12, 12, 12}})
	boxes := Cluster(f, DefaultClusterOptions())
	clusterInvariants(t, f, boxes)
	if len(boxes) != 1 {
		t.Fatalf("solid block produced %d boxes, want 1", len(boxes))
	}
}

func TestClusterTwoSeparatedBlocks(t *testing.T) {
	f := NewFlags(MakeBox(32, 8, 8))
	f.SetBox(Box{Lo: Point{0, 0, 0}, Hi: Point{4, 4, 4}})
	f.SetBox(Box{Lo: Point{20, 2, 2}, Hi: Point{26, 6, 6}})
	boxes := Cluster(f, DefaultClusterOptions())
	clusterInvariants(t, f, boxes)
	if len(boxes) != 2 {
		t.Fatalf("two blocks produced %d boxes: %v", len(boxes), boxes)
	}
}

func TestClusterEfficiency(t *testing.T) {
	// Flag an L-shape; with a high efficiency target the single bounding box
	// (fill 75 %) must split, with a low target it must not.
	f := NewFlags(MakeBox(8, 8, 2))
	f.SetBox(Box{Lo: Point{0, 0, 0}, Hi: Point{8, 4, 2}})
	f.SetBox(Box{Lo: Point{0, 4, 0}, Hi: Point{4, 8, 2}})
	tight := Cluster(f, ClusterOptions{Efficiency: 0.95, MinWidth: 2})
	clusterInvariants(t, f, tight)
	if len(tight) < 2 {
		t.Fatalf("efficiency 0.95 kept %d boxes", len(tight))
	}
	loose := Cluster(f, ClusterOptions{Efficiency: 0.5, MinWidth: 2})
	clusterInvariants(t, f, loose)
	if len(loose) != 1 {
		t.Fatalf("efficiency 0.5 produced %d boxes", len(loose))
	}
}

func TestClusterMaxBoxVolume(t *testing.T) {
	f := NewFlags(MakeBox(16, 4, 4))
	f.SetBox(f.Bounds()) // one solid 256-cell region
	boxes := Cluster(f, ClusterOptions{Efficiency: 0.8, MinWidth: 2, MaxBoxVolume: 64})
	clusterInvariants(t, f, boxes)
	for _, b := range boxes {
		if b.Volume() > 64 {
			t.Fatalf("box %v exceeds MaxBoxVolume", b)
		}
	}
	if len(boxes) < 4 {
		t.Fatalf("expected at least 4 boxes, got %d", len(boxes))
	}
}

func TestClusterEmpty(t *testing.T) {
	f := NewFlags(MakeBox(8, 8, 8))
	if boxes := Cluster(f, DefaultClusterOptions()); boxes != nil {
		t.Fatalf("empty flags produced boxes %v", boxes)
	}
}

func TestClusterRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 30; iter++ {
		f := NewFlags(MakeBox(24, 24, 12))
		nBlobs := 1 + rng.Intn(5)
		for i := 0; i < nBlobs; i++ {
			lo := Point{rng.Intn(20), rng.Intn(20), rng.Intn(8)}
			f.SetBox(Box{Lo: lo, Hi: Point{lo[0] + 1 + rng.Intn(4), lo[1] + 1 + rng.Intn(4), lo[2] + 1 + rng.Intn(4)}})
		}
		boxes := Cluster(f, DefaultClusterOptions())
		clusterInvariants(t, f, boxes)
		// Efficiency guarantee: every produced box either meets the fill
		// target or is too small to split.
		for _, b := range boxes {
			fill := float64(f.CountIn(b)) / float64(b.Volume())
			splittable := b.Dx(0) >= 4 || b.Dx(1) >= 4 || b.Dx(2) >= 4
			if fill < 0.8 && splittable {
				t.Fatalf("iter %d: box %v fill %.2f below target yet splittable", iter, b, fill)
			}
		}
	}
}

// randomFlags flags a bitmap over bounds with a few boxes, some reaching
// past the bounds so SetBox clips them, and single cells scattered among
// them.
func randomFlags(rng *rand.Rand, bounds Box) *Flags {
	f := NewFlags(bounds)
	n := bounds.Size()
	for range rng.Intn(6) {
		var b Box
		for d := range 3 {
			b.Lo[d] = bounds.Lo[d] - 2 + rng.Intn(n[d]+2)
			b.Hi[d] = b.Lo[d] + 1 + rng.Intn(max(1, n[d]/2))
		}
		f.SetBox(b)
	}
	for range rng.Intn(12) {
		f.Set(Point{bounds.Lo[0] + rng.Intn(n[0]), bounds.Lo[1] + rng.Intn(n[1]), bounds.Lo[2] + rng.Intn(n[2])})
	}
	return f
}

// differentialBounds have negative and odd origins and x-extents around
// the 64-bit word size, so rows start and end mid-word and cross word
// boundaries.
var differentialBounds = []Box{
	{Lo: Point{0, 0, 0}, Hi: Point{1, 5, 3}},
	{Lo: Point{-3, 5, -7}, Hi: Point{4, 14, 2}},
	{Lo: Point{-37, -5, 3}, Hi: Point{26, 6, 10}},
	{Lo: Point{11, -1, -1}, Hi: Point{76, 6, 4}},
	{Lo: Point{-65, 3, 0}, Hi: Point{35, 8, 5}},
	{Lo: Point{7, 0, -3}, Hi: Point{137, 3, 3}},
}

// flagShape builds a bitmap over bounds in one of the ways the trace
// generators do, from rng:
//   - 0: boxes and single cells, as randomFlags;
//   - 1: the same cells flagged one by one with Set, in reverse order, as
//     hydro's gradient flagging does;
//   - 2: shape 1 inside a corner an eighth of the bounds along each axis,
//     so the flagged cells' bounding box is far smaller than the bounds;
//   - 3: two blocks apart along one axis, the larger one below or above
//     the hole between them, so a cut's larger child is lo or hi.
func flagShape(shape int, rng *rand.Rand, bounds Box) *Flags {
	switch shape {
	case 1:
		return cellByCell(randomFlags(rng, bounds), bounds)
	case 2:
		n := bounds.Size()
		var corner Box
		for d := range 3 {
			w := max(1, n[d]/8)
			corner.Lo[d] = bounds.Lo[d] + rng.Intn(n[d]-w+1)
			corner.Hi[d] = corner.Lo[d] + w
		}
		return cellByCell(randomFlags(rng, corner), bounds)
	case 3:
		return twoBlocks(bounds, rng.Intn(3), rng.Intn(2) == 0)
	}
	return randomFlags(rng, bounds)
}

// cellByCell flags f's cells one by one with Set, last cell first, in a
// bitmap over bounds, which must contain f's.
func cellByCell(f *Flags, bounds Box) *Flags {
	g := NewFlags(bounds)
	b := f.Bounds()
	for z := b.Hi[2] - 1; z >= b.Lo[2]; z-- {
		for y := b.Hi[1] - 1; y >= b.Lo[1]; y-- {
			for x := b.Hi[0] - 1; x >= b.Lo[0]; x-- {
				if p := (Point{x, y, z}); f.get(p) {
					g.Set(p)
				}
			}
		}
	}
	return g
}

// twoBlocks flags a large and a small block apart along axis d, the large
// one at the low end of the bounds when largeLo, else at the high end.
// Both span the bounds' other axes, sparsely enough that neither fills
// its box, so the clusterer cuts at the hole between them and again
// inside each.
func twoBlocks(bounds Box, d int, largeLo bool) *Flags {
	f := NewFlags(bounds)
	n := bounds.Dx(d)
	large, small := bounds, bounds
	large.Hi[d] = bounds.Lo[d] + max(1, n*5/8)
	small.Lo[d] = min(bounds.Hi[d]-1, large.Hi[d]+max(1, n/8))
	if !largeLo {
		large.Lo[d], large.Hi[d] = bounds.Hi[d]-(large.Hi[d]-bounds.Lo[d]), bounds.Hi[d]
		small.Lo[d], small.Hi[d] = bounds.Lo[d], bounds.Lo[d]+(bounds.Hi[d]-small.Lo[d])
	}
	for _, b := range []Box{large, small} {
		// A checkerboard of 2-cell cubes fills a quarter of the block.
		for z := b.Lo[2]; z < b.Hi[2]; z += 4 {
			for y := b.Lo[1]; y < b.Hi[1]; y += 4 {
				for x := b.Lo[0]; x < b.Hi[0]; x += 4 {
					cube, _ := Box{Lo: Point{x, y, z}, Hi: Point{x + 2, y + 2, z + 2}}.Intersect(b)
					f.SetBox(cube)
				}
			}
		}
	}
	return f
}

// wordEdgeFlags flags runs that end on the last x plane of the bounds and
// runs that cross a 64-bit word boundary of the bitmap.
func wordEdgeFlags(bounds Box) *Flags {
	f := NewFlags(bounds)
	for y := bounds.Lo[1]; y < bounds.Hi[1]; y += 2 {
		z := bounds.Lo[2] + (y-bounds.Lo[1])%max(1, bounds.Dx(2))
		// The bit of cell x in row (y, z) is x - Lo + nx*(row index).
		row := bounds.Dx(0) * ((y - bounds.Lo[1]) + bounds.Dx(1)*(z-bounds.Lo[2]))
		edge := bounds.Lo[0] + (64-row%64)%64 // the row's first cell on a word boundary
		f.SetBox(Box{Lo: Point{edge - 3, y, z}, Hi: Point{edge + 2, y + 1, z + 1}})
		f.SetBox(Box{Lo: Point{bounds.Hi[0] - 1 - (y % 5), y, z}, Hi: Point{bounds.Hi[0], y + 1, z + 1}})
	}
	return f
}

func requireClusterMatchesReference(t *testing.T, f *Flags, opt ClusterOptions) {
	t.Helper()
	got, want := Cluster(f, opt), clusterReference(f, opt)
	if !slices.Equal(got, want) {
		t.Fatalf("opt %+v on %v (%d flagged):\n got %v\nwant %v", opt, f.Bounds(), f.Count(), got, want)
	}
}

// requireAllOptionsMatch runs the differential over every option
// combination.
func requireAllOptionsMatch(t *testing.T, f *Flags) {
	t.Helper()
	for minWidth := 1; minWidth <= 3; minWidth++ {
		for _, eff := range []float64{0.5, 0.8, 0.95, 1} {
			for _, maxVol := range []int64{0, 24} {
				requireClusterMatchesReference(t, f, ClusterOptions{Efficiency: eff, MinWidth: minWidth, MaxBoxVolume: maxVol})
			}
		}
	}
}

// TestClusterMatchesReference holds the clusterer to the cell-by-cell
// oracle in clusterref_test.go: the same boxes in the same order, over
// every option combination, for bitmaps of every flagShape, runs at word
// edges and on the bounds' last x plane, and two blocks whose larger is
// the lo and then the hi child of the cut between them along each axis.
func TestClusterMatchesReference(t *testing.T) {
	for bi, bounds := range differentialBounds {
		for seed := range int64(5) {
			for shape := range 3 {
				f := NewFlags(bounds) // seed 0 keeps the empty bitmap
				if seed > 0 {
					f = flagShape(shape, rand.New(rand.NewSource(seed*31+int64(bi))), bounds)
				}
				t.Run(fmt.Sprintf("bounds%d/seed%d/shape%d", bi, seed, shape), func(t *testing.T) {
					requireAllOptionsMatch(t, f)
				})
			}
		}
		t.Run(fmt.Sprintf("bounds%d/word-edges", bi), func(t *testing.T) {
			f := wordEdgeFlags(bounds)
			requireAllOptionsMatch(t, f)
			requireAllOptionsMatch(t, cellByCell(f, bounds))
		})
	}
	blocks := Box{Lo: Point{-5, 3, -9}, Hi: Point{15, 19, 7}}
	for d := range 3 {
		for _, largeLo := range []bool{true, false} {
			t.Run(fmt.Sprintf("two-blocks/axis%d/large-lo=%v", d, largeLo), func(t *testing.T) {
				requireAllOptionsMatch(t, twoBlocks(blocks, d, largeLo))
			})
		}
	}
}

// TestFlagsWordWalkMatchesCells checks every word-wise bitmap operation
// against its cell-by-cell meaning: SetBox against per-cell Set (bits and
// Count), CountIn against per-cell Get, and the one-pass signatures
// against the per-axis reference signature.
func TestFlagsWordWalkMatchesCells(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bounds := range differentialBounds {
		words, cells := NewFlags(bounds), NewFlags(bounds)
		n := bounds.Size()
		randomBox := func(pad int) Box {
			var b Box
			for d := range 3 {
				b.Lo[d] = bounds.Lo[d] - pad + rng.Intn(n[d]+pad)
				b.Hi[d] = b.Lo[d] + 1 + rng.Intn(n[d]+pad)
			}
			return b
		}
		for range 20 {
			b := randomBox(3)
			words.SetBox(b)
			for z := b.Lo[2]; z < b.Hi[2]; z++ {
				for y := b.Lo[1]; y < b.Hi[1]; y++ {
					for x := b.Lo[0]; x < b.Hi[0]; x++ {
						cells.Set(Point{x, y, z})
					}
				}
			}
			if !slices.Equal(words.bits, cells.bits) || words.Count() != cells.Count() {
				t.Fatalf("SetBox(%v) on %v: count %d, per-cell Set count %d", b, bounds, words.Count(), cells.Count())
			}

			q := randomBox(3)
			want := 0
			for z := q.Lo[2]; z < q.Hi[2]; z++ {
				for y := q.Lo[1]; y < q.Hi[1]; y++ {
					for x := q.Lo[0]; x < q.Hi[0]; x++ {
						if cells.get(Point{x, y, z}) {
							want++
						}
					}
				}
			}
			if got := words.CountIn(q); got != want {
				t.Fatalf("CountIn(%v) on %v = %d, per-cell %d", q, bounds, got, want)
			}

			region, _ := bounds.Intersect(randomBox(0))
			var sig [3][]int64
			for d := range 3 {
				sig[d] = make([]int64, region.Dx(d))
			}
			words.signatures(region, sig)
			for d := range 3 {
				if got, want := sig[d], cells.signature(region, d); !slices.Equal(got, want) {
					t.Fatalf("signature of %v axis %d = %v, reference %v", region, d, got, want)
				}
			}
		}
	}
}

// FuzzClusterMatchesReference drives the differential with fuzzed bounds,
// bitmaps of every flagShape and options.
func FuzzClusterMatchesReference(f *testing.F) {
	f.Add(int64(1), int8(0), int8(0), int8(0), uint8(64), uint8(4), uint8(4), uint8(2), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), int8(-37), int8(-5), int8(3), uint8(63), uint8(11), uint8(7), uint8(1), uint8(2), uint8(40), uint8(0))
	f.Add(int64(3), int8(11), int8(-1), int8(-1), uint8(130), uint8(7), uint8(5), uint8(3), uint8(3), uint8(0), uint8(0))
	f.Add(int64(4), int8(-65), int8(3), int8(0), uint8(1), uint8(9), uint8(9), uint8(2), uint8(0), uint8(9), uint8(0))
	// Cell by cell with Set, as hydro flags.
	f.Add(int64(5), int8(-3), int8(5), int8(-7), uint8(70), uint8(9), uint8(9), uint8(0), uint8(1), uint8(0), uint8(1))
	f.Add(int64(6), int8(7), int8(0), int8(-3), uint8(129), uint8(3), uint8(6), uint8(1), uint8(3), uint8(24), uint8(1))
	// Bounds far larger than the flagged cells.
	f.Add(int64(7), int8(-60), int8(-8), int8(-8), uint8(159), uint8(15), uint8(15), uint8(1), uint8(1), uint8(0), uint8(2))
	f.Add(int64(8), int8(1), int8(2), int8(3), uint8(100), uint8(15), uint8(12), uint8(0), uint8(2), uint8(40), uint8(2))
	// Two blocks, the larger below or above the hole between them.
	f.Add(int64(9), int8(0), int8(0), int8(0), uint8(39), uint8(15), uint8(15), uint8(0), uint8(1), uint8(0), uint8(3))
	f.Add(int64(10), int8(-9), int8(4), int8(2), uint8(19), uint8(15), uint8(13), uint8(1), uint8(2), uint8(0), uint8(3))
	// Runs crossing word boundaries and ending on the last x plane.
	f.Add(int64(11), int8(-1), int8(0), int8(0), uint8(65), uint8(15), uint8(3), uint8(0), uint8(1), uint8(0), uint8(4))
	f.Add(int64(12), int8(30), int8(-2), int8(5), uint8(130), uint8(8), uint8(5), uint8(2), uint8(0), uint8(24), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, ox, oy, oz int8, nx, ny, nz, minWidth, effRaw, maxVol, shape uint8) {
		lo := Point{int(ox), int(oy), int(oz)}
		size := Point{1 + int(nx%160), 1 + int(ny%16), 1 + int(nz%16)}
		bounds := Box{Lo: lo, Hi: lo.Add(size)}
		var flags *Flags
		if shape%5 == 4 {
			flags = wordEdgeFlags(bounds)
		} else {
			flags = flagShape(int(shape%5), rand.New(rand.NewSource(seed)), bounds)
		}
		opt := ClusterOptions{
			Efficiency:   []float64{0.5, 0.8, 0.95, 1}[effRaw%4],
			MinWidth:     1 + int(minWidth%3),
			MaxBoxVolume: int64(maxVol),
		}
		requireClusterMatchesReference(t, flags, opt)
	})
}

func scatterFlags() *Flags {
	f := NewFlags(MakeBox(64, 32, 32))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		lo := Point{rng.Intn(56), rng.Intn(24), rng.Intn(24)}
		f.SetBox(Box{Lo: lo, Hi: Point{lo[0] + 4, lo[1] + 4, lo[2] + 4}})
	}
	return f
}

func BenchmarkClusterScatter(b *testing.B) {
	f := scatterFlags()
	opt := DefaultClusterOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Cluster(f, opt)
	}
}

// BenchmarkClusterScatterReference is the same bitmap through the
// cell-by-cell oracle.
func BenchmarkClusterScatterReference(b *testing.B) {
	f := scatterFlags()
	opt := DefaultClusterOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = clusterReference(f, opt)
	}
}
