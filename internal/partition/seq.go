package partition

// This file implements one-dimensional sequence partitioning: splitting an
// ordered unit sequence into contiguous chunks, one per processor. All ISP
// partitioners reduce the 3-D problem to this via the space-filling curve.

// greedyPrefix assigns units to processors by accumulating weight until the
// running chunk reaches its target, then moving to the next processor. The
// target adapts to the remaining weight and processor count after each
// chunk, so rounding errors do not pile up on the last processor. Fast, but
// a chunk can still miss its boundary by up to half a unit — the imbalance
// signature of the plain SFC partitioner. Owners go into owner, which is
// as long as weights.
func greedyPrefix(weights []float64, nprocs int, owner []int) {
	var remaining float64
	for _, w := range weights {
		remaining += w
	}
	proc := 0
	var acc float64
	target := remaining / float64(nprocs)
	for i, w := range weights {
		remainingUnits := len(weights) - i
		procsAfterCurrent := nprocs - 1 - proc
		// Never leave a trailing processor without units when avoidable,
		// and never run past the last processor.
		if proc < nprocs-1 && acc > 0 && (acc+w/2 > target || remainingUnits <= procsAfterCurrent) {
			proc++
			acc = 0
			target = remaining / float64(nprocs-proc)
		}
		owner[i] = proc
		acc += w
		remaining -= w
	}
}

// optimalSequence splits the sequence into at most nprocs contiguous chunks
// minimizing the bottleneck (maximum chunk weight). It binary-searches the
// bottleneck over the answer space and verifies candidates greedily, which
// is exact for contiguous partitioning. Owners go into owner, which is as
// long as weights.
func optimalSequence(weights []float64, nprocs int, owner []int) {
	var total, maxw float64
	for _, w := range weights {
		total += w
		if w > maxw {
			maxw = w
		}
	}
	lo, hi := maxw, total
	// Binary search to a relative precision far below any unit weight.
	for iter := 0; iter < 60 && hi-lo > 1e-9*total; iter++ {
		mid := (lo + hi) / 2
		if chunksNeeded(weights, mid) <= nprocs {
			hi = mid
		} else {
			lo = mid
		}
	}
	packChunks(weights, hi, nprocs, owner)
}

// chunksNeeded returns how many contiguous chunks of weight <= bottleneck
// are required to cover the sequence.
func chunksNeeded(weights []float64, bottleneck float64) int {
	chunks := 1
	var acc float64
	for _, w := range weights {
		if acc+w > bottleneck && acc > 0 {
			chunks++
			acc = 0
		}
		acc += w
	}
	return chunks
}

// packChunks assigns owners greedily under the bottleneck, clamping to
// nprocs chunks.
func packChunks(weights []float64, bottleneck float64, nprocs int, owner []int) {
	proc := 0
	var acc float64
	for i, w := range weights {
		if acc+w > bottleneck && acc > 0 && proc < nprocs-1 {
			proc++
			acc = 0
		}
		owner[i] = proc
		acc += w
	}
}

// binaryDissection splits the sequence into nprocs contiguous chunks by
// recursive bisection: each step cuts the (sub)sequence at the point that
// best balances weight between ceil(p/2) and floor(p/2) processors. This is
// the splitting strategy of pBD-ISP — cheap and coarse. Owners go into
// owner, which is as long as weights; prefix is working memory for the
// prefix sums, returned grown so the caller can keep it.
func binaryDissection(weights []float64, nprocs int, owner []int, prefix []float64) []float64 {
	prefix = append(prefix[:0], 0)
	for i, w := range weights {
		prefix = append(prefix, prefix[i]+w)
	}
	dissect(prefix, owner, 0, len(weights), 0, nprocs)
	return prefix
}

// dissect assigns units [lo, hi) to processors [procLo, procLo+procs),
// cutting where the prefix sums best match the two halves' shares.
func dissect(prefix []float64, owner []int, lo, hi, procLo, procs int) {
	if procs <= 1 || hi-lo <= 1 {
		for i := lo; i < hi; i++ {
			owner[i] = procLo
		}
		return
	}
	left := (procs + 1) / 2
	right := procs - left
	total := prefix[hi] - prefix[lo]
	target := total * float64(left) / float64(procs)
	// Find the cut minimizing deviation from the proportional target.
	cut := lo + 1
	best := -1.0
	for i := lo + 1; i < hi; i++ {
		dev := prefix[i] - prefix[lo] - target
		if dev < 0 {
			dev = -dev
		}
		if best < 0 || dev < best {
			best = dev
			cut = i
		}
	}
	dissect(prefix, owner, lo, cut, procLo, left)
	dissect(prefix, owner, cut, hi, procLo+left, right)
}

// weightedSequence splits the sequence into contiguous chunks whose weights
// are proportional to the given capacities — the heterogeneous variant used
// by the system-sensitive partitioner (Fig. 4).
func weightedSequence(weights []float64, capacities []float64) []int {
	owner := make([]int, len(weights))
	var total, capTotal float64
	for _, w := range weights {
		total += w
	}
	for _, c := range capacities {
		capTotal += c
	}
	if capTotal <= 0 {
		// Degenerate capacities: fall back to equal shares.
		greedyPrefix(weights, len(capacities), owner)
		return owner
	}
	nprocs := len(capacities)
	proc := 0
	var acc float64
	target := total * capacities[0] / capTotal
	for i, w := range weights {
		if proc < nprocs-1 && acc > 0 && acc+w/2 > target {
			proc++
			acc = 0
			target = total * capacities[proc] / capTotal
		}
		owner[i] = proc
		acc += w
	}
	return owner
}
