package perf

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrainMultiNeuralFitsPlane(t *testing.T) {
	// Delay = base + a*size + b*load*size: a genuinely two-attribute law.
	truth := func(size, load float64) float64 {
		return 1e-4 + 1e-6*size + 2e-6*load*size
	}
	rng := rand.New(rand.NewSource(4))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		size := 100 + rng.Float64()*900
		load := rng.Float64()
		xs = append(xs, []float64{size, load})
		ys = append(ys, truth(size, load))
	}
	pf, err := TrainMultiNeural("link", xs, ys, TrainOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if pf.Arity() != 2 {
		t.Fatalf("arity = %d", pf.Arity())
	}
	// Range-normalized prediction error on held-out points.
	yLo, yHi := minMax(ys)
	var worst float64
	for i := 0; i < 50; i++ {
		size := 150 + rng.Float64()*800
		load := rng.Float64()
		got := pf.EvalVec([]float64{size, load})
		e := math.Abs(got-truth(size, load)) / (yHi - yLo)
		if e > worst {
			worst = e
		}
	}
	if worst > 0.1 {
		t.Fatalf("worst range-normalized error %.3f > 10%%", worst)
	}
	// The load attribute genuinely matters: predictions differ across load.
	atIdle := pf.EvalVec([]float64{800, 0.05})
	atBusy := pf.EvalVec([]float64{800, 0.95})
	if atBusy <= atIdle {
		t.Fatalf("model ignores load: idle %g, busy %g", atIdle, atBusy)
	}
}

func TestTrainMultiNeuralValidation(t *testing.T) {
	if _, err := TrainMultiNeural("x", nil, nil, TrainOptions{}); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := TrainMultiNeural("x", [][]float64{{1}, {2}}, []float64{1}, TrainOptions{}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := TrainMultiNeural("x", [][]float64{{}, {}}, []float64{1, 2}, TrainOptions{}); err == nil {
		t.Error("zero-arity samples accepted")
	}
	if _, err := TrainMultiNeural("x", [][]float64{{1, 2}, {3}}, []float64{1, 2}, TrainOptions{}); err == nil {
		t.Error("ragged samples accepted")
	}
	if _, err := TrainMultiNeural("x", [][]float64{{1, 5}, {1, 6}}, []float64{1, 2}, TrainOptions{}); err == nil {
		t.Error("degenerate attribute range accepted")
	}
}

func TestMultiEvalVecArityMismatch(t *testing.T) {
	pf, err := TrainMultiNeural("x", [][]float64{{1, 0}, {2, 1}, {3, 0.5}}, []float64{1, 2, 1.5}, TrainOptions{Seed: 1, Epochs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := pf.EvalVec([]float64{1}); got != 0 {
		t.Fatalf("arity mismatch returned %g, want 0", got)
	}
}
