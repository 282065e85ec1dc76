package telemetry

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestCounterIncAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "")
	if allocs := testing.AllocsPerRun(1000, c.Inc); allocs != 0 {
		t.Fatalf("Counter.Inc allocates %.1f bytes/op, want 0", allocs)
	}
}

func TestHistogramObserveAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hot_seconds", "", nil)
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.042) }); allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f bytes/op, want 0", allocs)
	}
}

// TestVecWithAllocatesNothing: resolving an existing child of a labeled
// family builds its key on the stack.
func TestVecWithAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("hot_labeled_total", "", "partitioner", "octant")
	v.With("pBD-ISP", "VI").Inc()
	if allocs := testing.AllocsPerRun(1000, func() { v.With("pBD-ISP", "VI").Inc() }); allocs != 0 {
		t.Fatalf("CounterVec.With allocates %.1f times per call, want 0", allocs)
	}
	// One increment before, and 1001 inside: AllocsPerRun warms up once.
	if got := v.With("pBD-ISP", "VI").Value(); got != 1002 {
		t.Fatalf("counter = %d, want 1002: the stack key resolved another child", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("got %d bounds, %d buckets", len(bounds), len(cum))
	}
	// 0.5 and 1 land in le=1 (boundary is inclusive), 1.5 in le=2, 3 in
	// le=4, 100 in +Inf; counts are cumulative.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all: %v)", i, cum[i], w, cum)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %g, want 106", h.Sum())
	}
}

func TestLookupIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "first help wins")
	b := r.Counter("same_total", "ignored")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles do not share state")
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "", "method", "code")
	v.With("GET", "200").Add(3)
	v.With("GET", "500").Inc()
	if got := v.With("GET", "200").Value(); got != 3 {
		t.Fatalf(`With("GET","200") = %d, want 3`, got)
	}
	// Distinct tuples that would collide under naive joining must not.
	w := r.CounterVec("join_total", "", "a", "b")
	w.With("x_y", "z").Inc()
	if got := w.With("x", "y_z").Value(); got != 0 {
		t.Fatalf("label tuples collided: %d", got)
	}
}

func TestGaugeFuncReplaced(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("depth", "", func() float64 { return 1 })
	r.GaugeFunc("depth", "", func() float64 { return 7 })
	series := r.Snapshot().Find("depth")
	if len(series) != 1 || series[0].Value != 7 {
		t.Fatalf("gauge func not replaced: %+v", series)
	}
}

func TestRegistrationPanics(t *testing.T) {
	cases := map[string]func(r *Registry){
		"invalid name": func(r *Registry) { r.Counter("0bad", "") },
		"invalid label": func(r *Registry) {
			r.CounterVec("ok_total", "", "bad-label")
		},
		"kind mismatch": func(r *Registry) {
			r.Counter("dual", "")
			r.Gauge("dual", "")
		},
		"label mismatch": func(r *Registry) {
			r.CounterVec("lv_total", "", "a")
			r.CounterVec("lv_total", "", "b")
		},
		"unsorted buckets": func(r *Registry) {
			r.Histogram("h_seconds", "", []float64{2, 1})
		},
		"bucket mismatch": func(r *Registry) {
			r.Histogram("hb_seconds", "", []float64{1, 2})
			r.Histogram("hb_seconds", "", []float64{1, 3})
		},
		"wrong value count": func(r *Registry) {
			r.CounterVec("vc_total", "", "a").With("x", "y")
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn(NewRegistry())
		})
	}
}

// TestConcurrentReadWrite hammers a registry with writers on every metric
// kind while readers render expositions and snapshots; run under -race this
// is the registry's data-race proof.
func TestConcurrentReadWrite(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	v := r.CounterVec("v_total", "", "who")
	r.GaugeFunc("fn", "", func() float64 { return g.Value() })

	const writers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			who := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) / iters)
				v.With(who).Inc()
				if i%500 == 0 {
					// New families mid-flight exercise the registry lock.
					r.Counter("late_total", "").Inc()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if got := c.Value(); got != writers*iters {
				t.Fatalf("counter = %d, want %d", got, writers*iters)
			}
			if got := h.Count(); got != writers*iters {
				t.Fatalf("histogram count = %d, want %d", got, writers*iters)
			}
			if got := g.Value(); got != writers*iters {
				t.Fatalf("gauge = %g, want %d", got, writers*iters)
			}
			return
		default:
			var sink discard
			if err := r.WritePrometheus(&sink); err != nil {
				t.Fatalf("WritePrometheus: %v", err)
			}
			r.Snapshot()
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestGaugeAddConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10000; j++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); math.Abs(got-20000) > 1e-6 {
		t.Fatalf("gauge = %g, want 20000", got)
	}
}

func TestHistogramVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("op_seconds", "", []float64{1, 10}, "op")
	v.With("read").Observe(0.5)
	v.With("read").Observe(5)
	v.With("write").Observe(50)
	if v.With("read") != v.With("read") {
		t.Fatal("With resolved a second child for the same label")
	}
	_, read := v.With("read").Buckets()
	_, write := v.With("write").Buckets()
	if want := []uint64{1, 2, 2}; !reflect.DeepEqual(read, want) {
		t.Fatalf("read buckets %v, want %v", read, want)
	}
	if want := []uint64{0, 0, 1}; !reflect.DeepEqual(write, want) {
		t.Fatalf("write buckets %v, want %v", write, want)
	}
	if r.HistogramVec("op_seconds", "", []float64{1, 10}, "op").With("write").Sum() != 50 {
		t.Fatal("re-registration did not return the same family")
	}
}
