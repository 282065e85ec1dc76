package samr

// ClusterOptions tunes the Berger–Rigoutsos point-clustering algorithm.
type ClusterOptions struct {
	// Efficiency is the minimum fraction of flagged cells a produced box
	// must contain before recursion stops (0 < Efficiency <= 1).
	Efficiency float64
	// MinWidth is the smallest box extent the clusterer will create; boxes
	// are not split below this width.
	MinWidth int
	// MaxBoxVolume, when positive, forces boxes larger than this many cells
	// to split even if they meet the efficiency target. Bounding box volume
	// is what the paper's policy rules constrain ("use refined grid
	// components no larger than Q").
	MaxBoxVolume int64
}

// DefaultClusterOptions matches common SAMR practice: 80 % fill efficiency
// with a minimum box width of 2 cells.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{Efficiency: 0.8, MinWidth: 2}
}

// Cluster covers every flagged cell with a set of boxes using the
// Berger–Rigoutsos signature algorithm (Berger & Rigoutsos, IEEE Trans.
// SMC 21(5), 1991). The returned boxes are disjoint, lie within
// f.Bounds(), and each contains at least one flagged cell.
//
// Each recursion node makes one pass over its region's bitmap words,
// producing the region's three signatures; the bounding box, the flagged
// count and the cut all come from them. Every flagged cell of the region
// lies inside its bounding box bb, so bb's signatures are sub-slices of
// the region's. The signature buffers are allocated once per call.
func Cluster(f *Flags, opt ClusterOptions) []Box {
	if opt.Efficiency <= 0 || opt.Efficiency > 1 {
		opt.Efficiency = 0.8
	}
	if opt.MinWidth < 1 {
		opt.MinWidth = 1
	}
	c := clusterer{f: f, opt: opt}
	n := f.bounds.Size()
	buf := make([]int64, n[0]+n[1]+n[2])
	c.sig = [3][]int64{buf[:n[0]], buf[n[0] : n[0]+n[1]], buf[n[0]+n[1]:]}
	c.recurse(f.bounds)
	return c.out
}

// clusterer is one Cluster call's state: the bitmap, the options, the
// signature buffers every recursion node reuses, and the boxes so far.
type clusterer struct {
	f   *Flags
	opt ClusterOptions
	sig [3][]int64
	out []Box
}

func (c *clusterer) recurse(region Box) {
	c.f.signatures(region, &c.sig)
	var bb Box
	var sig [3][]int64
	for d := range 3 {
		s := c.sig[d][:region.Dx(d)]
		lo, hi := 0, len(s)
		for lo < hi && s[lo] == 0 {
			lo++
		}
		if lo == hi {
			return
		}
		for s[hi-1] == 0 {
			hi--
		}
		bb.Lo[d], bb.Hi[d] = region.Lo[d]+lo, region.Lo[d]+hi
		sig[d] = s[lo:hi]
	}
	var flagged int64
	for _, n := range sig[0] {
		flagged += n
	}
	opt := c.opt
	fill := float64(flagged) / float64(bb.Volume())
	splittable := bb.Dx(0) >= 2*opt.MinWidth || bb.Dx(1) >= 2*opt.MinWidth || bb.Dx(2) >= 2*opt.MinWidth
	tooBig := opt.MaxBoxVolume > 0 && bb.Volume() > opt.MaxBoxVolume
	if (fill >= opt.Efficiency && !tooBig) || !splittable {
		c.out = append(c.out, bb)
		return
	}
	d, at := chooseCut(sig, bb, opt.MinWidth)
	if d < 0 {
		c.out = append(c.out, bb)
		return
	}
	lo, hi := bb.Split(d, at)
	c.recurse(lo)
	c.recurse(hi)
}

// chooseCut picks a split plane for region, whose signatures are sig,
// following Berger–Rigoutsos: prefer a hole (zero-signature plane), then
// the strongest inflection point of the signature Laplacian, then the
// midpoint of the longest axis. Returns axis -1 when no legal cut exists.
func chooseCut(sig [3][]int64, region Box, minWidth int) (axis, at int) {
	type cut struct {
		axis, at int
		score    int64
	}
	var bestHole, bestInflect cut
	haveHole, haveInflect := false, false
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
		sig := sig[d]
		// Holes: zero planes strictly inside the legal cut band. Prefer the
		// hole closest to the center.
		center := n / 2
		for i := minWidth; i <= n-minWidth; i++ {
			// A cut at plane i separates [0,i) and [i,n). Check the plane
			// just below the cut for a hole.
			if sig[i-1] == 0 || (i < n && sig[i] == 0) {
				dist := int64(absInt(i - center))
				if !haveHole || dist < bestHole.score {
					bestHole, haveHole = cut{axis: d, at: region.Lo[d] + i, score: dist}, true
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
				if !haveInflect || mag > bestInflect.score {
					bestInflect, haveInflect = cut{axis: d, at: region.Lo[d] + i, score: mag}, true
				}
			}
		}
	}
	switch {
	case haveHole:
		return bestHole.axis, bestHole.at
	case haveInflect:
		return bestInflect.axis, bestInflect.at
	case longest >= 0:
		return longest, longAt
	default:
		return -1, 0
	}
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func absInt64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}
