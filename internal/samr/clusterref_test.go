package samr

// Test oracle: the cell-by-cell Berger–Rigoutsos clusterer the word-wise
// one in cluster.go replaced. Production Cluster must return exactly
// these boxes, in this order, for every bitmap and every ClusterOptions;
// TestClusterMatchesReference and FuzzClusterMatchesReference in
// cluster_test.go enforce it. Keep this file boring: every scan walks the
// region cell by cell through Flags.Get, and every node rescans.

import "testing"

// clusterReference covers every flagged cell with boxes, scanning the
// bitmap cell by cell at every recursion node.
func clusterReference(f *Flags, opt ClusterOptions) []Box {
	if opt.Efficiency <= 0 || opt.Efficiency > 1 {
		opt.Efficiency = 0.8
	}
	if opt.MinWidth < 1 {
		opt.MinWidth = 1
	}
	bb, ok := f.boundingBox(f.Bounds())
	if !ok {
		return nil
	}
	var out []Box
	clusterRecurseReference(f, bb, opt, &out)
	return out
}

func clusterRecurseReference(f *Flags, region Box, opt ClusterOptions, out *[]Box) {
	bb, ok := f.boundingBox(region)
	if !ok {
		return
	}
	flagged := f.CountIn(bb)
	fill := float64(flagged) / float64(bb.Volume())
	splittable := bb.Dx(0) >= 2*opt.MinWidth || bb.Dx(1) >= 2*opt.MinWidth || bb.Dx(2) >= 2*opt.MinWidth
	tooBig := opt.MaxBoxVolume > 0 && bb.Volume() > opt.MaxBoxVolume
	if (fill >= opt.Efficiency && !tooBig) || !splittable {
		*out = append(*out, bb)
		return
	}
	d, at := chooseCutReference(f, bb, opt.MinWidth)
	if d < 0 {
		*out = append(*out, bb)
		return
	}
	lo, hi := bb.Split(d, at)
	clusterRecurseReference(f, lo, opt, out)
	clusterRecurseReference(f, hi, opt, out)
}

// chooseCutReference picks a split plane for region following
// Berger–Rigoutsos: prefer a hole (zero-signature plane), then the
// strongest inflection point of the signature Laplacian, then the midpoint
// of the longest axis. Returns axis -1 when no legal cut exists.
func chooseCutReference(f *Flags, region Box, minWidth int) (axis, at int) {
	type cut struct {
		axis, at int
		score    int64
	}
	var bestHole, bestInflect *cut
	longest, longAt := -1, 0
	for d := 0; d < 3; d++ {
		n := region.Dx(d)
		if n < 2*minWidth {
			continue
		}
		if longest < 0 || n > region.Dx(longest) {
			longest = d
			longAt = region.Lo[d] + n/2
		}
		sig := f.signature(region, d)
		// Holes: zero planes strictly inside the legal cut band. Prefer the
		// hole closest to the center.
		center := n / 2
		for i := minWidth; i <= n-minWidth; i++ {
			// A cut at plane i separates [0,i) and [i,n). Check the plane
			// just below the cut for a hole.
			if sig[i-1] == 0 || (i < n && sig[i] == 0) {
				dist := int64(absInt(i - center))
				if bestHole == nil || dist < bestHole.score {
					bestHole = &cut{axis: d, at: region.Lo[d] + i, score: dist}
				}
			}
		}
		// Inflections: maximize |Δ²sig| sign change magnitude.
		for i := minWidth; i <= n-minWidth; i++ {
			if i-1 < 1 || i+1 >= n {
				continue
			}
			lapA := sig[i-2] - 2*sig[i-1] + sig[i]
			lapB := sig[i-1] - 2*sig[i] + sig[i+1]
			if (lapA < 0 && lapB > 0) || (lapA > 0 && lapB < 0) {
				mag := absInt64(lapA - lapB)
				if bestInflect == nil || mag > bestInflect.score {
					bestInflect = &cut{axis: d, at: region.Lo[d] + i, score: mag}
				}
			}
		}
	}
	switch {
	case bestHole != nil:
		return bestHole.axis, bestHole.at
	case bestInflect != nil:
		return bestInflect.axis, bestInflect.at
	case longest >= 0:
		return longest, longAt
	default:
		return -1, 0
	}
}

// boundingBox returns the tightest box containing all flagged cells inside
// region, and false when region holds no flagged cells.
func (f *Flags) boundingBox(region Box) (Box, bool) {
	clipped, ok := f.bounds.Intersect(region)
	if !ok {
		return Box{}, false
	}
	lo := Point{clipped.Hi[0], clipped.Hi[1], clipped.Hi[2]}
	hi := Point{clipped.Lo[0], clipped.Lo[1], clipped.Lo[2]}
	found := false
	for z := clipped.Lo[2]; z < clipped.Hi[2]; z++ {
		for y := clipped.Lo[1]; y < clipped.Hi[1]; y++ {
			for x := clipped.Lo[0]; x < clipped.Hi[0]; x++ {
				if !f.get(Point{x, y, z}) {
					continue
				}
				found = true
				if x < lo[0] {
					lo[0] = x
				}
				if y < lo[1] {
					lo[1] = y
				}
				if z < lo[2] {
					lo[2] = z
				}
				if x+1 > hi[0] {
					hi[0] = x + 1
				}
				if y+1 > hi[1] {
					hi[1] = y + 1
				}
				if z+1 > hi[2] {
					hi[2] = z + 1
				}
			}
		}
	}
	if !found {
		return Box{}, false
	}
	return Box{Lo: lo, Hi: hi}, true
}

// signature returns the per-plane flagged-cell counts of region along axis
// d: signature[i] is the number of flagged cells in the plane
// region.Lo[d]+i.
func (f *Flags) signature(region Box, d int) []int64 {
	clipped, ok := f.bounds.Intersect(region)
	if !ok {
		return make([]int64, max(0, region.Dx(d)))
	}
	sig := make([]int64, region.Dx(d))
	for z := clipped.Lo[2]; z < clipped.Hi[2]; z++ {
		for y := clipped.Lo[1]; y < clipped.Hi[1]; y++ {
			for x := clipped.Lo[0]; x < clipped.Hi[0]; x++ {
				if f.get(Point{x, y, z}) {
					p := Point{x, y, z}
					sig[p[d]-region.Lo[d]]++
				}
			}
		}
	}
	return sig
}

func TestFlagsBoundingBox(t *testing.T) {
	f := NewFlags(MakeBox(16, 16, 16))
	if _, ok := f.boundingBox(f.Bounds()); ok {
		t.Fatal("empty flags produced a bounding box")
	}
	f.Set(Point{3, 4, 5})
	f.Set(Point{10, 4, 8})
	bb, ok := f.boundingBox(f.Bounds())
	if !ok {
		t.Fatal("no bounding box")
	}
	want := Box{Lo: Point{3, 4, 5}, Hi: Point{11, 5, 9}}
	if bb != want {
		t.Fatalf("bounding box = %v, want %v", bb, want)
	}
}

func TestFlagsSignature(t *testing.T) {
	f := NewFlags(MakeBox(8, 4, 4))
	f.SetBox(Box{Lo: Point{0, 0, 0}, Hi: Point{2, 4, 4}})
	f.SetBox(Box{Lo: Point{6, 0, 0}, Hi: Point{8, 4, 4}})
	sig := f.signature(f.Bounds(), 0)
	want := []int64{16, 16, 0, 0, 0, 0, 16, 16}
	for i := range want {
		if sig[i] != want[i] {
			t.Fatalf("sig[%d] = %d, want %d (full %v)", i, sig[i], want[i], sig)
		}
	}
}
