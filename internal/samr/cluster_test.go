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
	if !f.Get(Point{1, 2, 3}) || !f.Get(Point{7, 7, 7}) || f.Get(Point{0, 0, 0}) {
		t.Fatal("get mismatch")
	}
	// Out-of-bounds set is ignored, get is false.
	f.Set(Point{8, 0, 0})
	if f.Count() != 2 || f.Get(Point{8, 0, 0}) {
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

func requireClusterMatchesReference(t *testing.T, f *Flags, opt ClusterOptions) {
	t.Helper()
	got, want := Cluster(f, opt), clusterReference(f, opt)
	if !slices.Equal(got, want) {
		t.Fatalf("opt %+v on %v (%d flagged):\n got %v\nwant %v", opt, f.Bounds(), f.Count(), got, want)
	}
}

// TestClusterMatchesReference holds the word-wise clusterer to the
// cell-by-cell oracle in clusterref_test.go: the same boxes in the same
// order, over every option combination.
func TestClusterMatchesReference(t *testing.T) {
	for bi, bounds := range differentialBounds {
		for seed := range int64(5) {
			f := NewFlags(bounds) // seed 0 keeps the empty bitmap
			if seed > 0 {
				f = randomFlags(rand.New(rand.NewSource(seed*31+int64(bi))), bounds)
			}
			t.Run(fmt.Sprintf("bounds%d/seed%d", bi, seed), func(t *testing.T) {
				for minWidth := 1; minWidth <= 3; minWidth++ {
					for _, eff := range []float64{0.5, 0.8, 0.95, 1} {
						for _, maxVol := range []int64{0, 24} {
							requireClusterMatchesReference(t, f, ClusterOptions{Efficiency: eff, MinWidth: minWidth, MaxBoxVolume: maxVol})
						}
					}
				}
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
						if cells.Get(Point{x, y, z}) {
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
				sig[d] = make([]int64, n[d])
			}
			words.signatures(region, &sig)
			for d := range 3 {
				if got, want := sig[d][:region.Dx(d)], cells.signature(region, d); !slices.Equal(got, want) {
					t.Fatalf("signature of %v axis %d = %v, reference %v", region, d, got, want)
				}
			}
		}
	}
}

// FuzzClusterMatchesReference drives the differential with fuzzed bounds,
// bitmaps and options.
func FuzzClusterMatchesReference(f *testing.F) {
	f.Add(int64(1), int8(0), int8(0), int8(0), uint8(64), uint8(4), uint8(4), uint8(2), uint8(1), uint8(0))
	f.Add(int64(2), int8(-37), int8(-5), int8(3), uint8(63), uint8(11), uint8(7), uint8(1), uint8(2), uint8(40))
	f.Add(int64(3), int8(11), int8(-1), int8(-1), uint8(130), uint8(7), uint8(5), uint8(3), uint8(3), uint8(0))
	f.Add(int64(4), int8(-65), int8(3), int8(0), uint8(1), uint8(9), uint8(9), uint8(2), uint8(0), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, ox, oy, oz int8, nx, ny, nz, minWidth, effRaw, maxVol uint8) {
		lo := Point{int(ox), int(oy), int(oz)}
		size := Point{1 + int(nx%160), 1 + int(ny%16), 1 + int(nz%16)}
		flags := randomFlags(rand.New(rand.NewSource(seed)), Box{Lo: lo, Hi: lo.Add(size)})
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
