package monitor

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

func TestForecastersOnConstantSeries(t *testing.T) {
	// Every forecaster must converge to a constant series.
	forecasters := []Forecaster{
		&lastValue{}, &runningMean{}, newSlidingMean(8), newSlidingMedian(8),
		newExpSmoothing(0.3), newAR1(16), NewMeta(),
	}
	for _, f := range forecasters {
		for i := 0; i < 50; i++ {
			f.Update(7.5)
		}
		if got := f.Predict(); math.Abs(got-7.5) > 1e-9 {
			t.Errorf("%s predicts %g on constant series", f.Name(), got)
		}
	}
}

func TestForecastersEmptyPredictZero(t *testing.T) {
	forecasters := []Forecaster{
		&lastValue{}, &runningMean{}, newSlidingMean(8), newSlidingMedian(8),
		newExpSmoothing(0.3), newAR1(16),
	}
	for _, f := range forecasters {
		if f.Predict() != 0 {
			t.Errorf("%s predicts %g before any data", f.Name(), f.Predict())
		}
	}
}

func TestSlidingWindowEviction(t *testing.T) {
	f := newSlidingMean(3)
	for _, v := range []float64{100, 1, 2, 3} {
		f.Update(v)
	}
	if got := f.Predict(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("sliding mean = %g, want 2 (window must evict)", got)
	}
	m := newSlidingMedian(3)
	for _, v := range []float64{100, 1, 2, 9} {
		m.Update(v)
	}
	if got := m.Predict(); got != 2 {
		t.Fatalf("sliding median = %g, want 2", got)
	}
	// Even-length median averages the middle pair.
	m2 := newSlidingMedian(4)
	for _, v := range []float64{1, 2, 3, 4} {
		m2.Update(v)
	}
	if got := m2.Predict(); got != 2.5 {
		t.Fatalf("even median = %g, want 2.5", got)
	}
}

func TestAR1TracksAutocorrelatedSeries(t *testing.T) {
	// AR(1) must beat the running mean on a strongly autocorrelated series.
	rng := rand.New(rand.NewSource(5))
	series := make([]float64, 400)
	x := 0.0
	for i := range series {
		x = 0.95*x + 0.1*rng.NormFloat64()
		series[i] = x
	}
	arErr := MSEOf(newAR1(64), series)
	meanErr := MSEOf(&runningMean{}, series)
	if arErr >= meanErr {
		t.Fatalf("ar1Forecaster MSE %g not below running-mean MSE %g", arErr, meanErr)
	}
}

func TestExpSmoothingGainValidation(t *testing.T) {
	f := newExpSmoothing(-1)
	f.Update(10)
	f.Update(20)
	got := f.Predict()
	if got <= 10 || got >= 20 {
		t.Fatalf("defaulted smoothing predicts %g", got)
	}
}

func TestMetaPicksBestForecaster(t *testing.T) {
	// On a noisy constant series the mean-like forecasters beat last-value;
	// the meta forecaster must converge to one of them.
	rng := rand.New(rand.NewSource(11))
	m := NewMeta()
	for i := 0; i < 500; i++ {
		m.Update(5 + rng.NormFloat64())
	}
	if m.Best() == "last-value" {
		t.Fatalf("meta stuck on last-value for noisy stationary series (MSEs %v)", m.MSE())
	}
	if math.Abs(m.Predict()-5) > 0.5 {
		t.Fatalf("meta predicts %g, want ~5", m.Predict())
	}
	// And on a random walk, last-value should win.
	m2 := NewMeta()
	x := 0.0
	for i := 0; i < 500; i++ {
		x += rng.NormFloat64()
		m2.Update(x)
	}
	mses := m2.MSE()
	if mses["last-value"] > mses["running-mean"] {
		t.Fatalf("last-value MSE %g above running-mean %g on a random walk",
			mses["last-value"], mses["running-mean"])
	}
}

func TestMSEOfShortSeries(t *testing.T) {
	if MSEOf(&lastValue{}, nil) != 0 {
		t.Fatal("empty series MSE not 0")
	}
	if MSEOf(&lastValue{}, []float64{3}) != 0 {
		t.Fatal("single-point series MSE not 0")
	}
}

func TestClusterSensor(t *testing.T) {
	c := cluster.Homogeneous(4, 1000, 512, 100)
	c.Load = cluster.ConstantLoad{0, 0.5, 0.9, 0.99}
	s := ClusterSensor{Cluster: c}
	readings := s.Sample(1.0)
	if len(readings) != 4 {
		t.Fatalf("readings = %d", len(readings))
	}
	if readings[0].CPU != 1.0 {
		t.Fatalf("idle node CPU = %g", readings[0].CPU)
	}
	if math.Abs(readings[1].CPU-0.5) > 1e-9 {
		t.Fatalf("half-loaded node CPU = %g", readings[1].CPU)
	}
	if readings[3].CPU < 0.05-1e-12 {
		t.Fatalf("overloaded node CPU = %g, want clamped at 0.05", readings[3].CPU)
	}
	if readings[0].MemoryMB != 512 || readings[0].BandwidthMBps != 100 {
		t.Fatalf("static resources wrong: %+v", readings[0])
	}
}

func TestCapacities(t *testing.T) {
	readings := []Reading{
		{CPU: 1.0, MemoryMB: 512, BandwidthMBps: 100},
		{CPU: 0.5, MemoryMB: 512, BandwidthMBps: 100},
	}
	caps, err := Capacities(readings, Weights{CPU: 1, Memory: 0, Bandwidth: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Pure-CPU weighting: 1.0 vs 0.5 -> 2/3 vs 1/3.
	if math.Abs(caps[0]-2.0/3.0) > 1e-9 || math.Abs(caps[1]-1.0/3.0) > 1e-9 {
		t.Fatalf("caps = %v", caps)
	}
	// Capacities always sum to 1.
	caps, err = Capacities(readings, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	sum := caps[0] + caps[1]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("capacities sum to %g", sum)
	}
	if caps[0] <= caps[1] {
		t.Fatal("idle node should have larger capacity")
	}
}

func TestCapacitiesValidation(t *testing.T) {
	if _, err := Capacities(nil, DefaultWeights()); err == nil {
		t.Error("empty readings accepted")
	}
	r := []Reading{{CPU: 1}}
	if _, err := Capacities(r, Weights{CPU: -1, Memory: 1, Bandwidth: 1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := Capacities(r, Weights{}); err == nil {
		t.Error("zero weights accepted")
	}
	if _, err := Capacities([]Reading{{}}, DefaultWeights()); err == nil {
		t.Error("all-zero readings accepted")
	}
}

func TestForecastsCapacities(t *testing.T) {
	// Node 0 idles, node 1 oscillates around 0.5: prediction should favor
	// node 0 roughly 2:1 regardless of the oscillation's phase at the end.
	f := NewForecasts(2)
	if _, err := f.Capacities([]int{0, 1}, DefaultWeights()); err == nil {
		t.Error("capacities before any sample")
	}
	for i := 0; i < 64; i++ {
		cpu1 := 0.5 + 0.3*math.Sin(float64(i))
		if err := f.Observe([]Reading{
			{Time: float64(i), CPU: 1, MemoryMB: 512, BandwidthMBps: 100},
			{Time: float64(i), CPU: cpu1, MemoryMB: 512, BandwidthMBps: 100},
		}); err != nil {
			t.Fatal(err)
		}
	}
	caps, err := f.Capacities([]int{0, 1}, Weights{CPU: 1, Memory: 0, Bandwidth: 0})
	if err != nil {
		t.Fatal(err)
	}
	ratio := caps[0] / caps[1]
	if ratio < 1.5 || ratio > 3.0 {
		t.Fatalf("predictive capacity ratio = %g, want ~2", ratio)
	}
	if err := f.Observe([]Reading{{CPU: 1}}); err == nil {
		t.Error("a sample of the wrong node count accepted")
	}
}

// TestPredictiveKeepsReactiveGauges guards the distinction between the two
// capacity gauge families: Forecasts.Capacities must publish only
// pragma_monitor_predicted_capacity, leaving the reactive gauges at the
// values of the last direct Capacities call.
func TestPredictiveKeepsReactiveGauges(t *testing.T) {
	readings := []Reading{
		{CPU: 1.0, MemoryMB: 512, BandwidthMBps: 100},
		{CPU: 0.5, MemoryMB: 512, BandwidthMBps: 100},
	}
	reactive, err := Capacities(readings, Weights{CPU: 1, Memory: 0, Bandwidth: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Samples whose predicted CPUs differ from the instantaneous
	// readings, so predictive capacities diverge from reactive ones.
	f := NewForecasts(2)
	for i := 0; i < 32; i++ {
		if err := f.Observe([]Reading{
			{Time: float64(i), CPU: 0.2, MemoryMB: 512, BandwidthMBps: 100},
			{Time: float64(i), CPU: 0.9, MemoryMB: 512, BandwidthMBps: 100},
		}); err != nil {
			t.Fatal(err)
		}
	}
	predicted, err := f.Capacities([]int{0, 1}, Weights{CPU: 1, Memory: 0, Bandwidth: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(predicted[0]-reactive[0]) < 1e-6 {
		t.Fatal("test needs diverging reactive/predictive capacities")
	}

	snap := telemetry.Default.Snapshot()
	check := func(name string, want []float64) {
		t.Helper()
		series := snap.Find(name)
		got := make(map[string]float64, len(series))
		for _, s := range series {
			got[s.Labels["node"]] = s.Value
		}
		for i, w := range want {
			if v, ok := got[strconv.Itoa(i)]; !ok || math.Abs(v-w) > 1e-9 {
				t.Errorf("%s{node=%d} = %g, want %g", name, i, v, w)
			}
		}
	}
	check("pragma_monitor_relative_capacity", reactive)
	check("pragma_monitor_predicted_capacity", predicted)
}

func TestMetaMSEMap(t *testing.T) {
	m := NewMeta()
	for i := 0; i < 10; i++ {
		m.Update(float64(i))
	}
	mse := m.MSE()
	if len(mse) != 8 {
		t.Fatalf("MSE map has %d entries", len(mse))
	}
	for name, v := range mse {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("%s MSE = %g", name, v)
		}
	}
}

func BenchmarkMetaUpdate(b *testing.B) {
	m := NewMeta()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Update(rng.Float64())
	}
}

func TestAR1ShortSeriesFallsBackToLastValue(t *testing.T) {
	f := newAR1(16)
	f.Update(3)
	if got := f.Predict(); got != 3 {
		t.Fatalf("1-point ar1Forecaster = %g", got)
	}
	f.Update(5)
	if got := f.Predict(); got != 5 {
		t.Fatalf("2-point ar1Forecaster = %g, want last value", got)
	}
}

func TestAR1ConstantSeriesNoDivisionByZero(t *testing.T) {
	f := newAR1(8)
	for i := 0; i < 20; i++ {
		f.Update(4.2)
	}
	if got := f.Predict(); math.Abs(got-4.2) > 1e-12 {
		t.Fatalf("constant ar1Forecaster = %g", got)
	}
}

func TestClusterSensorWithoutLoad(t *testing.T) {
	c := cluster.Homogeneous(3, 1000, 512, 100) // no load generator
	readings := ClusterSensor{Cluster: c}.Sample(0)
	for i, r := range readings {
		if r.CPU != 1 {
			t.Fatalf("node %d CPU = %g without load", i, r.CPU)
		}
	}
}

func TestMetaBestBeforeData(t *testing.T) {
	m := NewMeta()
	if m.Best() != "last-value" {
		t.Fatalf("Best = %q before data, want the first pool member", m.Best())
	}
	if m.Predict() != 0 {
		t.Fatalf("empty meta predicts %g", m.Predict())
	}
}

func TestMetaName(t *testing.T) {
	if got := NewMeta().Name(); got != "nws-meta" {
		t.Fatalf("name = %q", got)
	}
}
