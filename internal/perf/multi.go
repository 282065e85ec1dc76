package perf

import (
	"fmt"
	"math/rand"
)

// Multi-attribute performance functions. The paper's example restricts
// itself to one attribute ("For simplicity, we only consider the data size
// attribute"); the PF concept itself is multi-attribute — "we identify the
// attributes that can accurately express and quantify the operation and
// performance of a resource (e.g., Clock speed, Error, Capacity)". MultiNeural
// generalizes the neural PF to k input attributes.

// MultiNeural is a k-input feed-forward network with one sigmoid hidden
// layer and a linear output.
type MultiNeural struct {
	Label string

	arity  int
	w1     [][]float64 // [hidden][arity]
	b1, w2 []float64
	b2     float64

	xLo, xHi []float64
	yLo, yHi float64
}

// Name identifies the modeled component.
func (n *MultiNeural) Name() string {
	if n.Label != "" {
		return n.Label
	}
	return "multi-neural"
}

// Arity returns the number of input attributes.
func (n *MultiNeural) Arity() int { return n.arity }

// EvalVec returns the performance estimate at the attribute vector x.
func (n *MultiNeural) EvalVec(x []float64) float64 {
	if len(x) != n.arity {
		return 0
	}
	var out float64
	for j := range n.w1 {
		act := n.b1[j]
		for d := 0; d < n.arity; d++ {
			xn := (x[d] - n.xLo[d]) / (n.xHi[d] - n.xLo[d])
			act += n.w1[j][d] * xn
		}
		out += n.w2[j] * sigmoid(act)
	}
	out += n.b2
	return n.yLo + out*(n.yHi-n.yLo)
}

// TrainMultiNeural fits a MultiNeural PF to samples: xs[i] is the
// attribute vector of sample i, ys[i] the measured performance.
func TrainMultiNeural(name string, xs [][]float64, ys []float64, opt TrainOptions) (*MultiNeural, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return nil, fmt.Errorf("perf: need >= 2 samples, got %d xs and %d ys", len(xs), len(ys))
	}
	arity := len(xs[0])
	if arity < 1 {
		return nil, fmt.Errorf("perf: zero-arity samples")
	}
	for i, x := range xs {
		if len(x) != arity {
			return nil, fmt.Errorf("perf: ragged sample %d (%d attrs, want %d)", i, len(x), arity)
		}
	}
	hidden := opt.Hidden
	if hidden <= 0 {
		hidden = 8
	}
	epochs := opt.Epochs
	if epochs <= 0 {
		epochs = 6000
	}
	lr := opt.LearningRate
	if lr <= 0 {
		lr = 0.5
	}

	n := &MultiNeural{
		Label: name,
		arity: arity,
		w1:    make([][]float64, hidden),
		b1:    make([]float64, hidden),
		w2:    make([]float64, hidden),
		xLo:   make([]float64, arity),
		xHi:   make([]float64, arity),
	}
	for d := 0; d < arity; d++ {
		n.xLo[d], n.xHi[d] = xs[0][d], xs[0][d]
		for _, x := range xs {
			if x[d] < n.xLo[d] {
				n.xLo[d] = x[d]
			}
			if x[d] > n.xHi[d] {
				n.xHi[d] = x[d]
			}
		}
		if n.xHi[d] == n.xLo[d] {
			return nil, fmt.Errorf("perf: degenerate range for attribute %d", d)
		}
	}
	n.yLo, n.yHi = minMax(ys)
	if n.yHi == n.yLo {
		n.yHi = n.yLo + 1
	}

	rng := rand.New(rand.NewSource(opt.Seed + 1))
	for j := 0; j < hidden; j++ {
		n.w1[j] = make([]float64, arity)
		for d := 0; d < arity; d++ {
			n.w1[j][d] = rng.NormFloat64() * 2
		}
		n.b1[j] = rng.NormFloat64()
		n.w2[j] = rng.NormFloat64() * 0.5
	}

	m := len(xs)
	xn := make([][]float64, m)
	yn := make([]float64, m)
	for i := range xs {
		xn[i] = make([]float64, arity)
		for d := 0; d < arity; d++ {
			xn[i][d] = (xs[i][d] - n.xLo[d]) / (n.xHi[d] - n.xLo[d])
		}
		yn[i] = (ys[i] - n.yLo) / (n.yHi - n.yLo)
	}

	gw1 := make([][]float64, hidden)
	for j := range gw1 {
		gw1[j] = make([]float64, arity)
	}
	gb1 := make([]float64, hidden)
	gw2 := make([]float64, hidden)
	act := make([]float64, hidden)
	for e := 0; e < epochs; e++ {
		for j := 0; j < hidden; j++ {
			for d := 0; d < arity; d++ {
				gw1[j][d] = 0
			}
			gb1[j], gw2[j] = 0, 0
		}
		gb2 := 0.0
		for i := 0; i < m; i++ {
			pred := n.b2
			for j := 0; j < hidden; j++ {
				z := n.b1[j]
				for d := 0; d < arity; d++ {
					z += n.w1[j][d] * xn[i][d]
				}
				act[j] = sigmoid(z)
				pred += n.w2[j] * act[j]
			}
			diff := pred - yn[i]
			gb2 += diff
			for j := 0; j < hidden; j++ {
				gw2[j] += diff * act[j]
				dh := diff * n.w2[j] * act[j] * (1 - act[j])
				for d := 0; d < arity; d++ {
					gw1[j][d] += dh * xn[i][d]
				}
				gb1[j] += dh
			}
		}
		scale := lr / float64(m)
		n.b2 -= scale * gb2
		for j := 0; j < hidden; j++ {
			n.w2[j] -= scale * gw2[j]
			n.b1[j] -= scale * gb1[j]
			for d := 0; d < arity; d++ {
				n.w1[j][d] -= scale * gw1[j][d]
			}
		}
	}
	return n, nil
}
