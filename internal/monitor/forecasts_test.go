package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
)

// The forecasters below are Meta's pool members as separate objects, each
// keeping its own buffer: with poolMeta, Meta's oracle.

// lastValue predicts the most recent observation.
type lastValue struct{ last float64 }

// Name implements Forecaster.
func (*lastValue) Name() string { return "last-value" }

// Update implements Forecaster.
func (f *lastValue) Update(v float64) { f.last = v }

// Predict implements Forecaster.
func (f *lastValue) Predict() float64 { return f.last }

// runningMean predicts the mean of all observations.
type runningMean struct {
	sum float64
	n   int
}

// Name implements Forecaster.
func (*runningMean) Name() string { return "running-mean" }

// Update implements Forecaster.
func (f *runningMean) Update(v float64) { f.sum += v; f.n++ }

// Predict implements Forecaster.
func (f *runningMean) Predict() float64 {
	if f.n == 0 {
		return 0
	}
	return f.sum / float64(f.n)
}

// slidingMean predicts the mean of the last W observations.
type slidingMean struct {
	w   int
	buf []float64
}

// newSlidingMean builds a sliding-mean forecaster with window w (>= 1).
func newSlidingMean(w int) *slidingMean {
	if w < 1 {
		w = 1
	}
	return &slidingMean{w: w}
}

// Name implements Forecaster.
func (f *slidingMean) Name() string { return fmt.Sprintf("sliding-mean-%d", f.w) }

// Update implements Forecaster.
func (f *slidingMean) Update(v float64) {
	f.buf = append(f.buf, v)
	if len(f.buf) > f.w {
		f.buf = f.buf[1:]
	}
}

// Predict implements Forecaster.
func (f *slidingMean) Predict() float64 {
	if len(f.buf) == 0 {
		return 0
	}
	var s float64
	for _, v := range f.buf {
		s += v
	}
	return s / float64(len(f.buf))
}

// slidingMedian predicts the median of the last W observations.
type slidingMedian struct {
	w   int
	buf []float64
}

// newSlidingMedian builds a sliding-median forecaster with window w (>= 1).
func newSlidingMedian(w int) *slidingMedian {
	if w < 1 {
		w = 1
	}
	return &slidingMedian{w: w}
}

// Name implements Forecaster.
func (f *slidingMedian) Name() string { return fmt.Sprintf("sliding-median-%d", f.w) }

// Update implements Forecaster.
func (f *slidingMedian) Update(v float64) {
	f.buf = append(f.buf, v)
	if len(f.buf) > f.w {
		f.buf = f.buf[1:]
	}
}

// Predict implements Forecaster.
func (f *slidingMedian) Predict() float64 {
	n := len(f.buf)
	if n == 0 {
		return 0
	}
	tmp := append([]float64(nil), f.buf...)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// expSmoothing predicts with exponential smoothing s' = a*v + (1-a)*s.
type expSmoothing struct {
	alpha   float64
	state   float64
	started bool
}

// newExpSmoothing builds an exponential-smoothing forecaster with gain
// alpha in (0, 1].
func newExpSmoothing(alpha float64) *expSmoothing {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &expSmoothing{alpha: alpha}
}

// Name implements Forecaster.
func (f *expSmoothing) Name() string { return fmt.Sprintf("exp-smoothing-%.2f", f.alpha) }

// Update implements Forecaster.
func (f *expSmoothing) Update(v float64) {
	if !f.started {
		f.state = v
		f.started = true
		return
	}
	f.state = f.alpha*v + (1-f.alpha)*f.state
}

// Predict implements Forecaster.
func (f *expSmoothing) Predict() float64 { return f.state }

// ar1Forecaster fits a first-order autoregressive model
// x' = mean + rho*(x - mean) over a sliding window.
type ar1Forecaster struct {
	w   int
	buf []float64
}

// newAR1 builds an AR(1) forecaster over a window of w observations.
func newAR1(w int) *ar1Forecaster {
	if w < 4 {
		w = 4
	}
	return &ar1Forecaster{w: w}
}

// Name implements Forecaster.
func (f *ar1Forecaster) Name() string { return fmt.Sprintf("ar1-%d", f.w) }

// Update implements Forecaster.
func (f *ar1Forecaster) Update(v float64) {
	f.buf = append(f.buf, v)
	if len(f.buf) > f.w {
		f.buf = f.buf[1:]
	}
}

// Predict implements Forecaster.
func (f *ar1Forecaster) Predict() float64 {
	n := len(f.buf)
	if n == 0 {
		return 0
	}
	if n < 3 {
		return f.buf[n-1]
	}
	var mean float64
	for _, v := range f.buf {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i := 1; i < n; i++ {
		num += (f.buf[i] - mean) * (f.buf[i-1] - mean)
	}
	for _, v := range f.buf {
		den += (v - mean) * (v - mean)
	}
	rho := 0.0
	if den > 1e-12 {
		rho = num / den
	}
	if rho > 1 {
		rho = 1
	}
	if rho < -1 {
		rho = -1
	}
	return mean + rho*(f.buf[n-1]-mean)
}

// poolMeta is the meta-forecaster over a pool of Forecaster objects, each
// keeping its own buffer: Meta's oracle. Meta must predict and rank
// exactly as this does over the pool metaPool names.
type poolMeta struct {
	pool []Forecaster
	mse  []float64
	n    int
}

func newPoolMeta() *poolMeta {
	pool := []Forecaster{
		&lastValue{},
		&runningMean{},
		newSlidingMean(8),
		newSlidingMean(32),
		newSlidingMedian(8),
		newExpSmoothing(0.3),
		newExpSmoothing(0.7),
		newAR1(32),
	}
	return &poolMeta{pool: pool, mse: make([]float64, len(pool))}
}

func (m *poolMeta) Update(v float64) {
	if m.n > 0 {
		for i, f := range m.pool {
			d := f.Predict() - v
			m.mse[i] += d * d
		}
	}
	for _, f := range m.pool {
		f.Update(v)
	}
	m.n++
}

func (m *poolMeta) best() int {
	best := 0
	for i := 1; i < len(m.pool); i++ {
		if m.mse[i] < m.mse[best] {
			best = i
		}
	}
	return best
}

// replayCapacities is the predictive capacity calculator that replays a
// whole sample history through fresh meta-forecasters, history[t][k]
// being node k's reading at sample t: Forecasts' oracle.
func replayCapacities(history [][]Reading, w Weights) ([]float64, error) {
	if len(history) == 0 {
		return nil, fmt.Errorf("monitor: empty history")
	}
	n := len(history[0])
	metas := make([]*Meta, n)
	for k := range metas {
		metas[k] = NewMeta()
	}
	for _, sample := range history {
		if len(sample) != n {
			return nil, fmt.Errorf("monitor: ragged history (%d vs %d nodes)", len(sample), n)
		}
		for k, r := range sample {
			metas[k].Update(r.CPU)
		}
	}
	last := history[len(history)-1]
	predicted := make([]Reading, n)
	for k := range predicted {
		cpu := metas[k].Predict()
		if cpu < 0 {
			cpu = 0
		}
		if cpu > 1 {
			cpu = 1
		}
		predicted[k] = Reading{Time: last[k].Time, CPU: cpu, MemoryMB: last[k].MemoryMB, BandwidthMBps: last[k].BandwidthMBps}
	}
	return capacities(predicted, w)
}

// TestMetaMatchesPoolOracle: over series a windowed member favours, a
// noisy level, a random walk and one that leaves [0, 1], Meta's every
// member prediction, its winner, its prediction and its errors equal the
// pool oracle's bit for bit after each observation.
func TestMetaMatchesPoolOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	series := map[string]func(i int) float64{
		"constant":   func(int) float64 { return 0.4 },
		"noisy":      func(int) float64 { return 0.6 + 0.1*rng.NormFloat64() },
		"walk":       func(i int) float64 { return math.Sin(float64(i)/9) + 0.05*rng.Float64() },
		"wide":       func(int) float64 { return 4*rng.Float64() - 2 },
		"regimes":    func(i int) float64 { return float64(i/17%3) * 0.3 },
		"alternates": func(i int) float64 { return float64(i % 2) },
	}
	for name, next := range series {
		m, oracle := NewMeta(), newPoolMeta()
		for i := 0; i < 300; i++ {
			v := next(i)
			m.Update(v)
			oracle.Update(v)
			for j, f := range oracle.pool {
				if got, want := m.member(j), f.Predict(); got != want {
					t.Fatalf("%s, after %d: %s predicts %v, oracle %v", name, i+1, metaPool[j], got, want)
				}
				if metaPool[j] != f.Name() {
					t.Fatalf("pool member %d is %q, oracle's %q", j, metaPool[j], f.Name())
				}
			}
			if !slices.Equal(m.SqErr[:], oracle.mse) {
				t.Fatalf("%s, after %d: errors %v, oracle %v", name, i+1, m.SqErr, oracle.mse)
			}
			if m.Best() != oracle.pool[oracle.best()].Name() || m.Predict() != oracle.pool[oracle.best()].Predict() {
				t.Fatalf("%s, after %d: %s predicts %v, oracle %s %v", name, i+1,
					m.Best(), m.Predict(), oracle.pool[oracle.best()].Name(), oracle.pool[oracle.best()].Predict())
			}
		}
	}
}

// TestForecastsMatchReplay: on loaded machines losing nodes, the streaming
// forecasters' capacities for a random node subset equal the replay
// oracle's over that subset's history, bit for bit, at every sample.
func TestForecastsMatchReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(12)
		machine := cluster.LinuxCluster(n, rng.Int63())
		for k := 0; k < n; k++ {
			if rng.Float64() < 0.2 {
				machine.Fail(k, 400*rng.Float64())
			}
		}
		f := NewForecasts(n)
		var history [][]Reading
		for s := 0; s < 80; s++ {
			sample := ClusterSensor{Cluster: machine}.Sample(float64(s) * 5)
			if err := f.Observe(sample); err != nil {
				t.Fatal(err)
			}
			history = append(history, sample)
			nodes := rng.Perm(n)[:1+rng.Intn(n)]
			sel := make([][]Reading, len(history))
			for i, row := range history {
				for _, k := range nodes {
					sel[i] = append(sel[i], row[k])
				}
			}
			got, gotErr := f.Capacities(nodes, DefaultWeights())
			want, wantErr := replayCapacities(sel, DefaultWeights())
			if (gotErr == nil) != (wantErr == nil) || !slices.Equal(got, want) {
				t.Fatalf("trial %d, sample %d, nodes %v: %v (%v), replay %v (%v)", trial, s, nodes, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestForecastsBinaryRoundTrip: the binary state resumes the forecasters
// exactly, is the same size after 40 samples as after 200, and a
// malformed state is refused.
func TestForecastsBinaryRoundTrip(t *testing.T) {
	machine := cluster.LinuxCluster(6, 2002)
	f := NewForecasts(6)
	var sizes []int
	for s := 0; s < 200; s++ {
		sample := ClusterSensor{Cluster: machine}.Sample(float64(s) * 5)
		if err := f.Observe(sample); err != nil {
			t.Fatal(err)
		}
		if s+1 != 40 && s+1 != 200 && s%37 != 0 {
			continue
		}
		state, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if s+1 == 40 || s+1 == 200 {
			sizes = append(sizes, len(state))
		}
		g := &Forecasts{}
		if err := g.UnmarshalBinary(state); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(g.Nodes, f.Nodes) {
			t.Fatalf("sample %d: the state does not round-trip", s)
		}
		if _, err := g.Capacities([]int{0}, DefaultWeights()); err == nil {
			t.Fatal("a restored forecaster computed capacities before its first sample")
		}
	}
	if sizes[1] != sizes[0] {
		t.Errorf("state is %d bytes after 200 samples, %d after 40", sizes[1], sizes[0])
	}
	state, _ := f.MarshalBinary()
	if err := (&Forecasts{}).UnmarshalBinary(state[:len(state)-1]); err == nil {
		t.Error("a truncated state accepted")
	}
	var bad Forecasts
	bad.Nodes = []Meta{{N: -1}}
	state, _ = bad.MarshalBinary()
	if err := (&Forecasts{}).UnmarshalBinary(state); err == nil {
		t.Error("a negative observation count accepted")
	}
}
