package samr

import (
	"math/rand"
	"strings"
	"testing"
)

// TestRegridDepthBound: Regrid builds one to MaxRegridDepth levels and
// refuses any other depth instead of silently building fewer.
func TestRegridDepthBound(t *testing.T) {
	domain := MakeBox(16, 8, 8)
	feats := []Feature{{Lo: [3]float64{2, 2, 2}, Hi: [3]float64{10, 6, 6}, CoreShrink: 0.5}}
	for depth := 1; depth <= MaxRegridDepth; depth++ {
		h, err := FeatureHierarchy(domain, 2, depth, DefaultClusterOptions(), feats)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if h.Depth() != depth {
			t.Fatalf("depth %d: built %d levels", depth, h.Depth())
		}
	}
	for _, depth := range []int{0, MaxRegridDepth + 1} {
		if _, err := FeatureHierarchy(domain, 2, depth, DefaultClusterOptions(), feats); err == nil || !strings.Contains(err.Error(), "depth") {
			t.Fatalf("depth %d: error %v, want one naming depth", depth, err)
		}
	}
}

// TestPooledFlagsAreClear: a bitmap from getFlags, whatever bounds and
// flags its last use had, is empty in every word of its backing array and
// counts the cells SetBox flags anew, as one from NewFlags does.
func TestPooledFlagsAreClear(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randBox := func(lo, size int) Box {
		var b Box
		for d := range 3 {
			b.Lo[d] = lo + rng.Intn(size)
			b.Hi[d] = b.Lo[d] + 1 + rng.Intn(size)
		}
		return b
	}
	for i := range 300 {
		bounds := randBox(-4, 40)
		f := getFlags(bounds)
		if f.Bounds() != bounds || f.Count() != 0 {
			t.Fatalf("use %d: bounds %v count %d, want %v and 0", i, f.Bounds(), f.Count(), bounds)
		}
		for w, v := range f.bits[:cap(f.bits)] {
			if v != 0 {
				t.Fatalf("use %d over %v: word %d of the backing array is %#x", i, bounds, w, v)
			}
		}
		fresh := NewFlags(bounds)
		for range rng.Intn(5) {
			b := randBox(-8, 48)
			f.SetBox(b)
			fresh.SetBox(b)
		}
		if f.Count() != fresh.Count() || f.CountIn(bounds) != fresh.Count() {
			t.Fatalf("use %d: pooled bitmap counts %d (%d in bounds), fresh %d", i, f.Count(), f.CountIn(bounds), fresh.Count())
		}
		putFlags(f)
	}
}

// FuzzFeatureHierarchyNests regrids fuzzer-shaped features at ratio 2-4
// and depth 1-3: every hierarchy must be properly nested
// (Hierarchy.Validate), no deeper than asked, and every box must lie in
// its level's domain. Each feature is seven bytes: a level-0 corner (three
// int8, quarter cells, so features may stick out of the domain), three
// extents (eighth cells) and a core shrink (0 for none, else n/255).
func FuzzFeatureHierarchyNests(f *testing.F) {
	f.Add(uint8(24), uint8(12), uint8(12), uint8(0), uint8(2), uint8(2),
		[]byte{8, 8, 8, 64, 48, 48, 180, 40, 4, 4, 6, 80, 80, 0})
	f.Add(uint8(9), uint8(17), uint8(8), uint8(1), uint8(1), uint8(0),
		[]byte{200, 250, 0, 255, 255, 255, 255, 60, 60, 60, 1, 1, 1, 128})
	f.Add(uint8(16), uint8(16), uint8(16), uint8(2), uint8(0), uint8(1),
		[]byte{0, 0, 0, 128, 128, 128, 1, 40, 0, 40, 4, 128, 128, 100})
	f.Fuzz(func(t *testing.T, nx, ny, nz, ratio, depth, minWidth uint8, raw []byte) {
		domain := MakeBox(8+int(nx%33), 8+int(ny%33), 8+int(nz%33))
		r := 2 + int(ratio%3)
		d := 1 + int(depth%3)
		opt := ClusterOptions{Efficiency: 0.8, MinWidth: 1 + int(minWidth%3)}
		var feats []Feature
		for ; len(raw) >= 7 && len(feats) < 16; raw = raw[7:] {
			var ft Feature
			for a := 0; a < 3; a++ {
				ft.Lo[a] = float64(int8(raw[a])) / 4
				ft.Hi[a] = ft.Lo[a] + float64(raw[3+a])/8
			}
			ft.CoreShrink = float64(raw[6]) / 255
			feats = append(feats, ft)
		}
		h, err := FeatureHierarchy(domain, r, d, opt, feats)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		if h.Depth() > d || h.Ratio != r || h.Domain != domain {
			t.Fatalf("hierarchy of %d levels at ratio %d over %v, asked at most %d at ratio %d over %v",
				h.Depth(), h.Ratio, h.Domain, d, r, domain)
		}
		for l, boxes := range h.Levels {
			for _, b := range boxes {
				if !h.LevelDomain(l).ContainsBox(b) {
					t.Fatalf("level %d box %v outside %v", l, b, h.LevelDomain(l))
				}
			}
		}
	})
}
