package perf

import (
	"math"
	"math/rand"
	"testing"
)

type constPF float64

func (c constPF) Eval(float64) float64 { return float64(c) }
func (c constPF) Name() string         { return "const" }

func TestSerialComposition(t *testing.T) {
	s := Serial{Parts: []PF{constPF(1), constPF(2), constPF(3)}}
	if got := s.Eval(10); got != 6 {
		t.Fatalf("serial = %g, want 6", got)
	}
	if s.Name() != "serial" {
		t.Fatalf("name = %q", s.Name())
	}
	if (Serial{Label: "e2e"}).Name() != "e2e" {
		t.Fatal("label ignored")
	}
}

func TestTrainNeuralFitsLinear(t *testing.T) {
	xs := make([]float64, 40)
	ys := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i) * 25
		ys[i] = 1e-4 + 2e-6*xs[i]
	}
	n, err := TrainNeural("lin", xs, ys, TrainOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, x := range xs {
		d := (n.Eval(x) - ys[i]) / ys[i]
		sum += d * d
	}
	if rmse := math.Sqrt(sum / float64(len(xs))); rmse > 0.02 {
		t.Fatalf("neural fit RMSE %.4f > 2%%", rmse)
	}
	// Interpolation between samples stays accurate.
	x := 333.0
	want := 1e-4 + 2e-6*x
	if got := n.Eval(x); math.Abs(got-want)/want > 0.05 {
		t.Fatalf("neural(%g) = %g, want ~%g", x, got, want)
	}
}

func TestTrainNeuralFitsSigmoidShape(t *testing.T) {
	// The paper's Eq. 1 PFs are sigmoidal; the network must fit one well.
	xs := make([]float64, 60)
	ys := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(i) * 20
		ys[i] = 3e-3/(1+math.Exp(4-0.01*xs[i])) + 1e-4
	}
	n, err := TrainNeural("sig", xs, ys, TrainOptions{Seed: 3, Epochs: 8000})
	if err != nil {
		t.Fatal(err)
	}
	// Judge the fit on range-normalized error: relative error is
	// meaningless at the sigmoid's near-zero left tail.
	yLo, yHi := minMax(ys)
	var worst float64
	for i := range xs {
		e := math.Abs(n.Eval(xs[i])-ys[i]) / (yHi - yLo)
		if e > worst {
			worst = e
		}
	}
	if worst > 0.08 {
		t.Fatalf("sigmoid fit worst range-normalized error %.4f > 8%%", worst)
	}
}

func TestTrainNeuralValidation(t *testing.T) {
	if _, err := TrainNeural("x", []float64{1}, []float64{1}, TrainOptions{}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := TrainNeural("x", []float64{1, 1}, []float64{1, 2}, TrainOptions{}); err == nil {
		t.Error("degenerate input range accepted")
	}
	// Constant outputs are handled without dividing by zero.
	n, err := TrainNeural("c", []float64{1, 2, 3}, []float64{5, 5, 5}, TrainOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Eval(2); math.Abs(got-5) > 0.5 {
		t.Fatalf("constant fit = %g, want ~5", got)
	}
}

func TestPercentError(t *testing.T) {
	if got := PercentError(110, 100); math.Abs(got-10) > 1e-12 {
		t.Fatalf("percent error = %g", got)
	}
	if got := PercentError(90, 100); math.Abs(got-10) > 1e-12 {
		t.Fatalf("percent error = %g", got)
	}
	if PercentError(5, 0) != 0 {
		t.Fatal("zero measured should yield 0")
	}
}

func TestExampleSystemMagnitudes(t *testing.T) {
	// The true end-to-end delay must match Table 1's measured column
	// magnitudes: ~8.3e-4 s at 200 B and ~2.2e-3 s at 1000 B.
	comps := ExampleSystem(0.02)
	var at200, at1000 float64
	for _, c := range comps {
		at200 += c.True(200)
		at1000 += c.True(1000)
	}
	if at200 < 6e-4 || at200 > 11e-4 {
		t.Fatalf("end-to-end at 200 B = %g, want ~8.3e-4", at200)
	}
	if at1000 < 1.7e-3 || at1000 > 2.8e-3 {
		t.Fatalf("end-to-end at 1000 B = %g, want ~2.2e-3", at1000)
	}
	if at1000 <= at200 {
		t.Fatal("delay must grow with data size")
	}
}

func TestMeasurementNoiseIsBounded(t *testing.T) {
	comps := ExampleSystem(0.02)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		m := MeasureEndToEnd(comps, 600, rng)
		truth := 0.0
		for _, c := range comps {
			truth += c.True(600)
		}
		if math.Abs(m-truth)/truth > 0.15 {
			t.Fatalf("measurement %g deviates >15%% from truth %g", m, truth)
		}
	}
}

func TestFitComponentPFsReproducesTable1Band(t *testing.T) {
	// The full Table 1 procedure: fit component PFs from noisy
	// measurements, compose, compare against measured end-to-end delays.
	// The paper reports errors "roughly between 0.5 - 5%"; we require the
	// same band (allowing a little slack above and treating smaller errors
	// as a better-than-paper fit).
	comps := ExampleSystem(0.02)
	trainSizes := []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1100, 1200}
	e2e, parts, err := FitComponentPFs(comps, trainSizes, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("expected 3 component PFs, got %d", len(parts))
	}
	rng := rand.New(rand.NewSource(7))
	var maxErr float64
	for _, d := range []float64{200, 400, 600, 800, 1000} {
		measured := MeasureEndToEnd(comps, d, rng)
		e := PercentError(e2e.Eval(d), measured)
		if e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 6 {
		t.Fatalf("max prediction error %.2f%% above Table 1 band", maxErr)
	}
}

func BenchmarkTrainNeural(b *testing.B) {
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i) * 20
		ys[i] = 1e-4 + 2e-6*xs[i]
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainNeural("bench", xs, ys, TrainOptions{Epochs: 500, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNeuralNames(t *testing.T) {
	if got := (&Neural{}).Name(); got != "neural" {
		t.Errorf("unlabelled Neural name %q", got)
	}
	if got := (&MultiNeural{}).Name(); got != "multi-neural" {
		t.Errorf("unlabelled MultiNeural name %q", got)
	}
	n, err := TrainNeural("compute", []float64{1, 2, 3}, []float64{1, 2, 3}, TrainOptions{Seed: 1, Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "compute" {
		t.Errorf("trained Neural name %q, want its label", n.Name())
	}
	m, err := TrainMultiNeural("link", [][]float64{{1, 0}, {2, 1}, {3, 0.5}}, []float64{1, 2, 1.5}, TrainOptions{Seed: 1, Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "link" {
		t.Errorf("trained MultiNeural name %q, want its label", m.Name())
	}
}
