package samr

import (
	"sync"

	"github.com/pragma-grid/pragma/internal/telemetry"
)

// metricSignatureRows counts the bitmap rows the clusterer's signature
// passes visit: the work of Berger–Rigoutsos at every regrid.
var metricSignatureRows = telemetry.Default.Counter(
	"pragma_samr_signature_rows_total",
	"Bitmap rows visited by Berger–Rigoutsos signature passes.")

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
// Only the root scans its whole region, the bounding box of the flagged
// cells, for its three signatures. A node's bounding box, flagged count
// and cut come from the signatures it is given. At a cut it scans only
// the smaller child and derives the larger child's signatures by
// subtracting the scanned ones from its own; along the cut axis each
// child's signature is a slice of the parent's. Signatures are integer
// counts, so the boxes and their order are those of a clusterer that
// rescans every node. The signature buffers come from a stack recycled
// across calls.
func Cluster(f *Flags, opt ClusterOptions) []Box {
	if opt.Efficiency <= 0 || opt.Efficiency > 1 {
		opt.Efficiency = 0.8
	}
	if opt.MinWidth < 1 {
		opt.MinWidth = 1
	}
	if f.count == 0 {
		return nil
	}
	region := f.flagged
	n := region.Size()
	stack := sigStacks.Get().(*[]int64)
	defer sigStacks.Put(stack)
	if size := stackDepth * (n[0] + n[1] + n[2]); len(*stack) < size {
		*stack = make([]int64, size)
	}
	c := clusterer{f: f, opt: opt, free: *stack}
	var sig [3][]int64
	for d := range 3 {
		sig[d] = c.take(n[d])
	}
	f.signatures(region, sig)
	c.recurse(region, sig)
	return c.out
}

// sigStacks recycles the signature stacks of Cluster calls, which every
// regrid of every trace generator makes.
var sigStacks = sync.Pool{New: func() any { return new([]int64) }}

// stackDepth sizes a signature stack in root signatures. Each first-child
// step of the current path holds a buffer; the paper trace's deepest path
// needs under 5 root signatures. A node past the end of the stack
// allocates its own buffer.
const stackDepth = 8

// clusterer is one Cluster call's state: the bitmap, the options, the
// unused part of the signature stack, and the boxes so far.
type clusterer struct {
	f    *Flags
	opt  ClusterOptions
	free []int64
	out  []Box
}

// take returns n signature entries from the stack.
func (c *clusterer) take(n int) []int64 {
	if n > len(c.free) {
		return make([]int64, n)
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// recurse clusters the flagged cells of region, whose signatures are sig.
// It may overwrite sig.
func (c *clusterer) recurse(region Box, sig [3][]int64) {
	bb := region
	for d := range 3 {
		if bb, sig[d] = trimmed(bb, d, sig[d]); len(sig[d]) == 0 {
			return
		}
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
	cut := at - bb.Lo[d]
	// loSig, hiSig are the children's signatures: along d slices of sig[d],
	// along the other axes loSig in new buffers and hiSig in sig's own.
	mark := c.free
	var loSig, hiSig [3][]int64
	for e := range 3 {
		if e == d {
			loSig[e], hiSig[e] = sig[e][:cut], sig[e][cut:]
		} else {
			loSig[e], hiSig[e] = c.take(len(sig[e])), sig[e]
		}
	}
	// Scan the child with fewer cells between its first and last flagged
	// planes along d into loSig's new buffers. Along d the scan rewrites
	// the child's own slice of sig[d] with the counts it already holds.
	loScan, loPlanes := trimmed(lo, d, loSig[d])
	hiScan, hiPlanes := trimmed(hi, d, hiSig[d])
	scan := loSig
	if loScan.Volume() <= hiScan.Volume() {
		scan[d] = loPlanes
		c.f.signatures(loScan, scan)
		for e := range 3 {
			if e != d {
				for i, n := range loSig[e] {
					hiSig[e][i] -= n
				}
			}
		}
	} else {
		scan[d] = hiPlanes
		c.f.signatures(hiScan, scan)
		for e := range 3 {
			if e != d {
				for i, n := range loSig[e] {
					loSig[e][i], hiSig[e][i] = hiSig[e][i]-n, n
				}
			}
		}
	}
	c.recurse(lo, loSig)
	c.free = mark
	c.recurse(hi, hiSig)
}

// trimmed narrows b along axis d to its flagged planes, whose signature
// along d is planes: it returns the narrowed box and the sub-slice of
// planes it spans, empty when no plane is flagged.
func trimmed(b Box, d int, planes []int64) (Box, []int64) {
	lo, hi := 0, len(planes)
	for lo < hi && planes[lo] == 0 {
		lo++
	}
	for hi > lo && planes[hi-1] == 0 {
		hi--
	}
	b.Lo[d], b.Hi[d] = b.Lo[d]+lo, b.Lo[d]+hi
	return b, planes[lo:hi]
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
