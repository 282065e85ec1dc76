package telemetry

import "math"

// quantileFromCum estimates the q-quantile from cumulative bucket counts.
// bounds are the finite upper bounds, cum the cumulative count at each,
// and total the full observation count (including the +Inf bucket). The
// estimate interpolates linearly within the bucket holding the target
// rank — the same model Prometheus's histogram_quantile uses — so its
// error is bounded by the bucket width around the true quantile.
func quantileFromCum(bounds []float64, cum []uint64, total uint64, q float64) float64 {
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, c := range cum {
		if float64(c) < rank {
			continue
		}
		upper := bounds[i]
		lower := 0.0
		var below uint64
		if i > 0 {
			lower = bounds[i-1]
			below = cum[i-1]
		}
		in := c - below
		if in == 0 {
			return upper
		}
		return lower + (upper-lower)*(rank-float64(below))/float64(in)
	}
	// The rank falls in the +Inf bucket: the best point estimate the
	// histogram can give is its highest finite bound.
	if len(bounds) == 0 {
		return math.NaN()
	}
	return bounds[len(bounds)-1]
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation within buckets. It returns NaN for
// an empty histogram and the highest finite bucket bound when the target
// rank falls in the +Inf bucket. The estimate walks the live atomic
// counts; concurrent Observe calls may shift it by the in-flight
// observations, which is the usual monitoring tolerance.
func (h *Histogram) Quantile(q float64) float64 {
	var cum [64]uint64 // histograms here have ≲40 buckets; spill allocates
	n := len(h.bounds)
	var buf []uint64
	if n <= len(cum) {
		buf = cum[:n]
	} else {
		buf = make([]uint64, n)
	}
	var acc uint64
	for i := 0; i < n; i++ {
		acc += h.counts[i].Load()
		buf[i] = acc
	}
	total := acc + h.counts[n].Load()
	return quantileFromCum(h.bounds, buf, total, q)
}
