package perf

import (
	"fmt"
	"math"
	"math/rand"
)

// Neural is a performance function realized by a small feed-forward neural
// network with one sigmoid hidden layer and a linear output — the same
// functional family as the paper's Eq. 1, whose component PFs have the
// form a/(1+exp(c-d*D)) + g. The paper feeds component measurements "to a
// neural network to obtain the corresponding PF"; TrainNeural does exactly
// that.
type Neural struct {
	Label string

	w1, b1, w2 []float64
	b2         float64

	xLo, xHi float64 // input normalization range
	yLo, yHi float64 // output normalization range
}

// Name implements PF.
func (n *Neural) Name() string {
	if n.Label != "" {
		return n.Label
	}
	return "neural"
}

// Eval implements PF.
func (n *Neural) Eval(x float64) float64 {
	xn := (x - n.xLo) / (n.xHi - n.xLo)
	var out float64
	for j := range n.w1 {
		out += n.w2[j] * sigmoid(n.w1[j]*xn+n.b1[j])
	}
	out += n.b2
	return n.yLo + out*(n.yHi-n.yLo)
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// TrainOptions tunes TrainNeural.
type TrainOptions struct {
	// Hidden is the hidden-layer width (0 = 6).
	Hidden int
	// Epochs is the number of full-batch gradient descent passes (0 = 4000).
	Epochs int
	// LearningRate is the gradient step size (0 = 0.5).
	LearningRate float64
	// Seed makes weight initialization deterministic.
	Seed int64
}

// TrainNeural fits a Neural PF to measurement samples (xs[i], ys[i]) by
// full-batch gradient descent on squared error. Inputs and outputs are
// normalized to [0, 1] internally.
func TrainNeural(name string, xs, ys []float64, opt TrainOptions) (*Neural, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return nil, fmt.Errorf("perf: need >= 2 samples, got %d xs and %d ys", len(xs), len(ys))
	}
	hidden := opt.Hidden
	if hidden <= 0 {
		hidden = 6
	}
	epochs := opt.Epochs
	if epochs <= 0 {
		epochs = 4000
	}
	lr := opt.LearningRate
	if lr <= 0 {
		lr = 0.5
	}

	n := &Neural{
		Label: name,
		w1:    make([]float64, hidden),
		b1:    make([]float64, hidden),
		w2:    make([]float64, hidden),
	}
	n.xLo, n.xHi = minMax(xs)
	n.yLo, n.yHi = minMax(ys)
	if n.xHi == n.xLo {
		return nil, fmt.Errorf("perf: degenerate input range [%g,%g]", n.xLo, n.xHi)
	}
	if n.yHi == n.yLo {
		// Constant output: widen the range artificially so normalization
		// stays finite; the network will learn the constant.
		n.yHi = n.yLo + 1
	}

	rng := rand.New(rand.NewSource(opt.Seed + 1))
	for j := 0; j < hidden; j++ {
		n.w1[j] = rng.NormFloat64() * 2
		n.b1[j] = rng.NormFloat64()
		n.w2[j] = rng.NormFloat64() * 0.5
	}

	m := len(xs)
	xn := make([]float64, m)
	yn := make([]float64, m)
	for i := range xs {
		xn[i] = (xs[i] - n.xLo) / (n.xHi - n.xLo)
		yn[i] = (ys[i] - n.yLo) / (n.yHi - n.yLo)
	}

	gw1 := make([]float64, hidden)
	gb1 := make([]float64, hidden)
	gw2 := make([]float64, hidden)
	act := make([]float64, hidden)
	for e := 0; e < epochs; e++ {
		for j := range gw1 {
			gw1[j], gb1[j], gw2[j] = 0, 0, 0
		}
		gb2 := 0.0
		for i := 0; i < m; i++ {
			pred := n.b2
			for j := 0; j < hidden; j++ {
				act[j] = sigmoid(n.w1[j]*xn[i] + n.b1[j])
				pred += n.w2[j] * act[j]
			}
			diff := pred - yn[i]
			gb2 += diff
			for j := 0; j < hidden; j++ {
				gw2[j] += diff * act[j]
				dh := diff * n.w2[j] * act[j] * (1 - act[j])
				gw1[j] += dh * xn[i]
				gb1[j] += dh
			}
		}
		scale := lr / float64(m)
		n.b2 -= scale * gb2
		for j := 0; j < hidden; j++ {
			n.w2[j] -= scale * gw2[j]
			n.w1[j] -= scale * gw1[j]
			n.b1[j] -= scale * gb1[j]
		}
	}
	return n, nil
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
