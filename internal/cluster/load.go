package cluster

import (
	"math"
	"math/rand"
)

// LoadGenerator reports the background CPU load on a node as a function of
// time. Implementations must be deterministic: the same (node, t) always
// yields the same load, so simulated runs are reproducible and comparable
// across partitioning strategies.
type LoadGenerator interface {
	// Load returns the fraction of node i's CPU consumed by background
	// work at time t, in [0, 1).
	Load(i int, t float64) float64
}

// SyntheticLoad is the "synthetic load generator (for simulating
// heterogeneous loads on the cluster nodes)" of §4.6: each node gets a
// persistent base load plus slow sinusoidal variation, both drawn
// deterministically from a seed. Node heterogeneity grows with node index
// spread, so larger clusters see more diverse loads — the regime where the
// paper expects system-sensitive partitioning to pay off most.
type SyntheticLoad struct {
	base      []float64
	amplitude []float64
	period    []float64
	phase     []float64
}

// NewSyntheticLoad builds a load generator for n nodes.
func NewSyntheticLoad(n int, seed int64) *SyntheticLoad {
	rng := rand.New(rand.NewSource(seed))
	s := &SyntheticLoad{
		base:      make([]float64, n),
		amplitude: make([]float64, n),
		period:    make([]float64, n),
		phase:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		// Loads are skewed: a few heavily loaded nodes, many light ones.
		u := rng.Float64()
		s.base[i] = 0.65 * u * u
		s.amplitude[i] = 0.04 + float64(0.08*rng.Float64())
		s.period[i] = 200 + float64(400*rng.Float64())
		s.phase[i] = 2 * math.Pi * rng.Float64()
	}
	return s
}

// Load implements LoadGenerator.
func (s *SyntheticLoad) Load(i int, t float64) float64 {
	if i < 0 || i >= len(s.base) {
		return 0
	}
	l := s.base[i] + float64(s.amplitude[i]*math.Sin(2*math.Pi*t/s.period[i]+s.phase[i]))
	if l < 0 {
		return 0
	}
	if l > 0.95 {
		return 0.95
	}
	return l
}

// ConstantLoad applies a fixed per-node load, useful in tests.
type ConstantLoad []float64

// Load implements LoadGenerator.
func (c ConstantLoad) Load(i int, t float64) float64 {
	if i < 0 || i >= len(c) {
		return 0
	}
	return c[i]
}
