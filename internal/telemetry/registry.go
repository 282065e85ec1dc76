package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric types a Registry can hold.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
	KindGaugeFunc
)

// String returns the Prometheus TYPE name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing integer counter. Inc and Add are
// single atomic operations: lock-free, allocation-free, safe from any
// goroutine.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that may go up and down. All operations are
// atomic and allocation-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Observe is lock-free
// and allocation-free: a binary search over the bounds plus two atomic
// updates. Bucket i counts observations <= bounds[i]; the last slot counts
// the rest (+Inf).
type Histogram struct {
	bounds  []float64 // sorted upper bounds, fixed at creation
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Inline binary search: find the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the upper bounds and the cumulative count at each bound,
// ending with the +Inf bucket (== Count()). Cumulativity is computed here
// so concurrent Observe calls can stay per-bucket atomic.
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = h.bounds
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// family is one registered metric name: its metadata plus all labeled
// children (one unlabeled child when the family has no labels).
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64
	fn      func() float64 // KindGaugeFunc only

	mu       sync.RWMutex
	children map[string]*child
}

type child struct {
	values    []string
	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// Registry holds metric families. Lookup and registration take the
// registry lock; the returned handles never do.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether name matches the Prometheus metric/label name
// charset [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally must not contain
// colons, which we do not enforce separately — none of ours do).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// lookup returns the family for name, creating it on first use. A name
// re-registered with a different kind, label set or bucket layout is a
// programming error and panics — silent divergence would corrupt the
// exposition.
func (r *Registry) lookup(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.Contains(l, ":") {
			panic(fmt.Sprintf("telemetry: invalid label name %q for metric %q", l, name))
		}
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("telemetry: unsorted buckets for metric %q", name))
		}
	}
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{
				name:     name,
				help:     help,
				kind:     kind,
				labels:   append([]string(nil), labels...),
				buckets:  append([]float64(nil), buckets...),
				children: make(map[string]*child),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with %d labels (was %d)", name, len(labels), len(f.labels)))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with label %q (was %q)", name, labels[i], f.labels[i]))
		}
	}
	if kind == KindHistogram {
		if len(f.buckets) != len(buckets) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with %d buckets (was %d)", name, len(buckets), len(f.buckets)))
		}
		for i := range buckets {
			if f.buckets[i] != buckets[i] {
				panic(fmt.Sprintf("telemetry: metric %q re-registered with bucket %g (was %g)", name, buckets[i], f.buckets[i]))
			}
		}
	}
	return f
}

// childKey joins label values with a byte that cannot appear in valid
// UTF-8 text, so distinct value tuples cannot collide.
func childKey(values []string) string {
	return string(appendChildKey(nil, values))
}

// appendChildKey is childKey appended to dst, so a lookup can build the
// key in a stack buffer: indexing a map with string(key) does not
// allocate.
func appendChildKey(dst []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			dst = append(dst, '\xff')
		}
		dst = append(dst, v...)
	}
	return dst
}

// get returns the child for the given label values, creating it on first
// use. Resolving an existing child allocates nothing.
func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var buf [64]byte
	key := appendChildKey(buf[:0], values)
	f.mu.RLock()
	c, ok := f.children[string(key)]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[string(key)]; ok {
		return c
	}
	c = &child{values: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		c.counter = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		h := &Histogram{bounds: f.buckets}
		h.counts = make([]atomic.Uint64, len(f.buckets)+1)
		c.histogram = h
	}
	f.children[string(key)] = c
	return c
}

// Counter returns the (unlabeled) counter registered under name, creating
// it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, KindCounter, nil, nil).get(nil).counter
}

// Gauge returns the (unlabeled) gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, KindGauge, nil, nil).get(nil).gauge
}

// Histogram returns the (unlabeled) histogram registered under name with
// the given bucket upper bounds (nil = DefBuckets). The bounds are fixed
// at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.lookup(name, help, KindHistogram, nil, buckets).get(nil).histogram
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — for quantities that are cheaper to sample than to maintain, like
// queue depths. Re-registering replaces the function (last wins), so a
// restarted component can rebind its collector.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, KindGaugeFunc, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family registered under name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, KindCounter, labels, nil)}
}

// With resolves the child counter for the given label values, creating it
// on first use. Resolution allocates; hot paths should resolve once and
// hold the handle.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family registered under name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, KindGauge, labels, nil)}
}

// With resolves the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values).gauge
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family registered under name.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, KindHistogram, labels, buckets)}
}

// With resolves the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values).histogram
}

// sortedFamilies snapshots the families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedChildren snapshots a family's children in label-value order.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	out := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	fn := f.fn
	f.mu.RUnlock()
	if f.kind == KindGaugeFunc && fn != nil {
		g := &Gauge{}
		g.Set(fn())
		out = append(out, &child{gauge: g})
	}
	sort.Slice(out, func(i, j int) bool {
		return childKey(out[i].values) < childKey(out[j].values)
	})
	return out
}
