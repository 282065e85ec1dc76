package telemetry

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantileUniform(t *testing.T) {
	// 10,000 samples uniform on [0,100) into 10 equal buckets: every
	// quantile is exactly recoverable by linear interpolation.
	bounds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	reg := NewRegistry()
	h := reg.Histogram("uniform", "", bounds)
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i) * 0.01)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.95, 95}, {0.99, 99}, {0.1, 10}, {1.0, 100},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 0.02 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestQuantileExponential(t *testing.T) {
	// Exponential with mean 10; interpolation error is bounded by bucket
	// width, so assert the estimate lands inside the true value's bucket.
	bounds := []float64{1, 2, 5, 10, 20, 50, 100, 200}
	reg := NewRegistry()
	h := reg.Histogram("expo", "", bounds)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		h.Observe(rng.ExpFloat64() * 10)
	}
	for _, tc := range []struct{ q, lo, hi float64 }{
		{0.5, 5, 10},    // true p50 = 6.93
		{0.95, 20, 50},  // true p95 = 29.96
		{0.99, 20, 100}, // true p99 = 46.05, near a bucket edge
	} {
		got := h.Quantile(tc.q)
		if got < tc.lo || got > tc.hi {
			t.Errorf("Quantile(%g) = %g, want within [%g,%g]", tc.q, got, tc.lo, tc.hi)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("edge", "", []float64{1, 2, 4})

	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram Quantile = %g, want NaN", got)
	}

	// All mass in the +Inf bucket: the histogram cannot see past its
	// highest finite bound.
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.5); got != 4 {
		t.Errorf("+Inf-bucket Quantile = %g, want 4 (highest finite bound)", got)
	}

	if got := h.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(NaN) = %g, want NaN", got)
	}

	// Out-of-range q clamps rather than extrapolating.
	if got := h.Quantile(-1); math.IsNaN(got) {
		t.Errorf("Quantile(-1) = NaN, want clamped estimate")
	}
	if got := h.Quantile(2); got != 4 {
		t.Errorf("Quantile(2) = %g, want 4", got)
	}
}

func TestQuantileSingleBucketInterpolation(t *testing.T) {
	// 4 observations all landing in (10,20]: p50 at rank 2 of 4 →
	// 10 + 10*(2/4) = 15.
	reg := NewRegistry()
	h := reg.Histogram("single", "", []float64{10, 20, 30})
	for i := 0; i < 4; i++ {
		h.Observe(15)
	}
	if got := h.Quantile(0.5); got != 15 {
		t.Errorf("Quantile(0.5) = %g, want 15", got)
	}
	// First bucket interpolates from 0: 3 obs ≤10, p50 → rank 1.5 of 3
	// within [0,10] = 5.
	reg2 := NewRegistry()
	h2 := reg2.Histogram("first", "", []float64{10, 20})
	for i := 0; i < 3; i++ {
		h2.Observe(4)
	}
	if got := h2.Quantile(0.5); got != 5 {
		t.Errorf("first-bucket Quantile(0.5) = %g, want 5", got)
	}
}

func TestQuantileZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("qalloc", "", nil) // DefBuckets
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i % 50))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Quantile(0.99)
	})
	if allocs != 0 {
		t.Errorf("Histogram.Quantile allocates %v allocs/op, want 0", allocs)
	}
}
